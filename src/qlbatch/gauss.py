"""Quadratic Gauss sums and the character reconstruction built on them.

g_b(n) denotes the 2n-term sum of exp(pi i b l^2 / n).  All angle reduction
happens in exact integer arithmetic (b l^2 mod 2n) before any trigonometric
call, so each term carries only machine epsilon regardless of size.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import _check_conductor
from .errors import DomainError
from .special import g_prefactor

_I_POW = (1 + 0j, 1j, -1 + 0j, -1j)  # i^m by m mod 4
_NEG_I_POW = (1 + 0j, -1j, -1 + 0j, 1j)  # (-i)^m by m mod 4


def _check_odd_positive(b: int) -> int:
    b = int(b)
    if b < 1 or b % 2 == 0:
        raise DomainError("Gauss sum parameter b must be odd and positive")
    return b


def gauss_sum_direct(b: int, n: int) -> complex:
    """g_b(n) by the defining 2n-term sum (the oracle path)."""
    b = _check_odd_positive(b)
    n = int(n)
    if n < 1:
        raise DomainError("gauss_sum_direct requires n >= 1")
    two_n = 2 * n
    ell = np.arange(two_n, dtype=np.int64)
    r = ((b % two_n) * (ell * ell % two_n)) % two_n
    return complex(np.exp((1j * math.pi / n) * r).sum())


def gauss_sum_fast(b: int, m: int) -> complex:
    """g_b(2m) from the quarter-length identity.

    No module of the sweep imports gauss: this is the reference that
    selftest and acceptance criteria 2-4 and 6 check the identities behind
    the node problems against.

    g_b(2m) = 4 sum_(l<m) exp(pi i b l^2 / (2m)) + 2 (i^m - 1)      b = 1 mod 4
            = 4 sum_(l<m) exp(pi i b l^2 / (2m)) + 2 ((-i)^m - 1)   b = 3 mod 4
    """
    return complex(_gauss_sum_fast_many(b, [int(m)])[0])


def _gauss_sum_fast_many(b: int, ms: np.ndarray) -> np.ndarray:
    """gauss_sum_fast(b, m) for every m in ms, batched into one exp call."""
    b = _check_odd_positive(b)
    ms = np.asarray(ms, dtype=np.int64)
    if ms.size == 0:
        return np.empty(0, dtype=np.complex128)
    if np.any(ms < 1):
        raise DomainError("gauss_sum_fast requires m >= 1")
    dens = 4 * ms
    starts = np.concatenate(([0], np.cumsum(ms)[:-1]))
    total = int(ms.sum())
    ell = np.arange(total, dtype=np.int64) - np.repeat(starts, ms)
    den_rep = np.repeat(dens, ms)
    r = ((b % den_rep) * (ell * ell % den_rep)) % den_rep
    terms = np.exp((2j * math.pi) * (r / den_rep))
    sums = np.add.reduceat(terms, starts)
    tails = np.where(
        b % 4 == 1,
        np.asarray(_I_POW)[ms % 4],
        np.asarray(_NEG_I_POW)[ms % 4],
    )
    return 4.0 * sums + 2.0 * (tails - 1.0)


def character_from_gauss(q: int, n: int) -> complex:
    """chi_q(n) rebuilt from its Gauss-sum Fourier expansion.

    For fundamental odd positive q and gcd(n, q) = 1,
    chi_q(n) = g(q) g_q(2n) / sqrt(n); the result should be real within
    roundoff and match quad_character.
    """
    q = _check_conductor(q)
    n = int(n)
    if n < 1 or math.gcd(n, q) != 1:
        raise DomainError("the Fourier expansion requires gcd(n, q) = 1")
    return complex(g_prefactor(q) * gauss_sum_fast(q, n) / math.sqrt(n))
