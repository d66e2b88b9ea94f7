"""Integer machinery: the window's fundamental conductors by a squarefree
sieve, the divisor grids and the inclusion-exclusion terms read off them, and
the quadratic character.

The character chi_q for odd fundamental q = 1 (mod 4) is the quadratic
symbol; by reciprocity it equals the Jacobi symbol (n/q) for every n, which
is what quad_character evaluates.  CharacterSieve amortizes whole-interval
character tables down to one Legendre-table lookup per prime.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .counters import OpCounter
from .errors import BudgetError, DomainError

_T_MAX = 10.0  # supported heights |t| <= _T_MAX
_BITS_MAX = 45.0  # largest log2(q/epsilon) a double-precision value certifies


def _check_t(t: float) -> float:
    """t as a float; DomainError unless it is finite with |t| <= _T_MAX."""
    t = float(t)
    if not (math.isfinite(t) and abs(t) <= _T_MAX):
        raise DomainError(f"t={t!r} lies outside the supported range |t| <= {_T_MAX:g}")
    return t


def _check_epsilon(epsilon: float) -> float:
    """epsilon as a float; DomainError unless 0 < epsilon < 1."""
    epsilon = float(epsilon)
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon={epsilon!r} must lie in (0, 1)")
    return epsilon


def _check_precision(q: int, epsilon: float) -> float:
    """_check_epsilon, then BudgetError if log2(q/epsilon) > _BITS_MAX: a finer
    target is below what double precision certifies."""
    epsilon = _check_epsilon(epsilon)
    bits = math.log2(q / epsilon)
    if bits > _BITS_MAX:
        raise BudgetError(
            f"log2(Q/epsilon) = {bits:.2f} exceeds the {_BITS_MAX:.0f}-bit "
            "double-precision budget; raise epsilon or shrink Q"
        )
    return epsilon


def _resolve_threads(threads: int) -> int:
    """Worker count for a thread pool: 0 means every core; negative is refused."""
    if threads < 0:
        raise DomainError(f"threads={threads} must be >= 0 (0 = all cores)")
    return threads or os.cpu_count() or 1


def _thread_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items], on a pool of _resolve_threads(threads) workers.

    One worker or at most one item runs serially in the calling thread.
    """
    threads = _resolve_threads(threads)
    if threads == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class Window:
    """Conductor interval [Q, Q+Delta)."""

    Q: int
    Delta: int

    def __post_init__(self) -> None:
        if not (isinstance(self.Q, (int, np.integer)) and self.Q >= 1):
            raise DomainError("window requires integer Q >= 1")
        if not (isinstance(self.Delta, (int, np.integer)) and self.Delta >= 1):
            raise DomainError("window requires integer Delta >= 1")
        # the Taylor variable x = (Q - q)/q needs |x| < 1/2 over the whole
        # window; boundary Delta = Q/2 admitted so power-of-two scaling
        # windows are expressible
        if 2 * self.Delta > self.Q:
            raise DomainError(
                f"window width {self.Delta} violates 1 <= Delta < Q/2 for Q={self.Q}"
            )


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, by binary reduction."""
    a = int(a)
    n = int(n)
    if n <= 0 or n % 2 == 0:
        raise DomainError("jacobi requires odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@lru_cache(maxsize=65536)
def _is_fundamental_odd_positive_int(q: int) -> bool:
    if q < 1 or q % 2 == 0 or q % 4 != 1:
        return False
    m = q
    p = 3
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return False
        p += 2
    return True


def quad_character(q: int, n: int) -> int:
    """chi_q(n) in {-1, 0, +1} for fundamental odd positive q."""
    q = int(q)
    n = int(n)
    if n < 1:
        raise DomainError("quad_character requires n >= 1")
    if not _is_fundamental_odd_positive_int(q):
        raise DomainError(f"q={q} is not an odd positive fundamental conductor")
    return jacobi(n % q, q)


def _odd_primes_upto(n: int) -> np.ndarray:
    if n < 3:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.nonzero(sieve)[0].astype(np.int64)
    return primes[primes % 2 == 1]


def divisor_grid(window: Window, a):
    """(b0, H): the rescaled arguments b = q/a of the window, step 4.

    Every odd fundamental q is 1 mod 4, so b = a (mod 4): b0 is the first
    such integer >= Q/a and H counts them from b0 up to floor((Q+Delta-1)/a);
    a is an int or an int64 array, and H < 1 means no such b lies there.
    """
    b0 = -(-window.Q // a)
    b0 += (a - b0) % 4
    return b0, ((window.Q + window.Delta - 1) // a - b0) // 4 + 1


def fundamental_conductors(window: Window, counter: OpCounter | None = None) -> np.ndarray:
    """The odd fundamental conductors of the window, ascending int64: every
    q = 1 (mod 4) in [Q, Q+Delta) that no odd prime square divides.

    Each odd prime p <= sqrt(Q+Delta-1) strikes the multiples of p^2 among
    the candidates with one strided slice; sieve_marks counts the slots.
    """
    hi = window.Q + window.Delta
    first = window.Q + (1 - window.Q) % 4
    qs = np.arange(first, hi, 4, dtype=np.int64)
    keep = np.ones(qs.size, dtype=bool)
    marks = 0
    for p in _odd_primes_upto(math.isqrt(hi - 1)).tolist():
        p2 = p * p
        start = -first * pow(4, -1, p2) % p2  # first + 4 start = 0 (mod p^2)
        keep[start::p2] = False
        marks += len(range(start, qs.size, p2))
    if counter is not None:
        counter.add("sieve_marks", marks)
    return qs[keep]


def divisor_terms(window: Window, qs: np.ndarray, N: int) -> tuple[np.ndarray, ...]:
    """Flat int64 (owner, a, sign): the inclusion-exclusion terms of the
    window's fundamental conductors qs, as fundamental_conductors returns them.

    A term is a divisor a <= N of q = qs[owner] with sign (-1)^omega(a).
    Every such a is odd with b = q/a = a (mod 4), so the terms are the points
    b of the grids divisor_grid(window, a), odd a <= N, whose a b is in qs.
    Sorted by (owner, a), so each conductor starts with (1, +1).
    """
    a = np.arange(1, N + 1, 2, dtype=np.int64)
    b0, H = divisor_grid(window, a)
    H = np.maximum(H, 0)
    h = np.arange(H.sum()) - np.repeat(np.cumsum(H) - H, H)  # the point's index on its grid
    a = np.repeat(a, H)
    q = a * (np.repeat(b0, H) + 4 * h)  # a b at every grid point, all inside the window
    in_qs = np.zeros(window.Delta, dtype=bool)
    in_qs[qs - window.Q] = True
    hit = in_qs[q - window.Q]
    a, owner = a[hit], np.searchsorted(qs, q[hit])
    omega = np.zeros(N + 1, dtype=np.int64)
    for p in _odd_primes_upto(N).tolist():
        omega[p::p] += 1
    order = np.lexsort((a, owner))
    return owner[order], a[order], 1 - 2 * (omega[a[order]] & 1)


class CharacterSieve:
    """Character tables chi_q(n), n <= N, from Legendre tables at the primes.

    The smallest-prime-factor table, the composite levels (grouped by number
    of prime factors) and the Legendre tables (r/p), r < p, of the primes
    p <= N are built once.  For q = 1 (mod 4), chi_q(p) = (q/p) by
    reciprocity, so table(qs) gathers every prime column at once and
    extends it completely multiplicatively with a few vectorized gathers.
    """

    def __init__(self, N: int) -> None:
        N = int(N)
        if N < 1:
            raise DomainError("CharacterSieve requires N >= 1")
        self.N = N
        spf = np.zeros(N + 1, dtype=np.int64)
        for p in range(2, math.isqrt(N) + 1):
            if spf[p] == 0:
                seg = spf[p * p :: p]
                seg[seg == 0] = p
        ns = np.arange(N + 1, dtype=np.int64)
        prime_mask = spf[2:] == 0
        spf[2:][prime_mask] = ns[2:][prime_mask]
        self.spf = spf
        self.primes = ns[2:][prime_mask]
        cof = np.ones(N + 1, dtype=np.int64)
        if N >= 2:
            cof[2:] = ns[2:] // spf[2:]
        self.cof = cof
        omega = np.zeros(N + 1, dtype=np.int64)
        for n in range(2, N + 1):
            omega[n] = omega[cof[n]] + 1
        self._levels = [
            np.nonzero(omega == lev)[0]
            for lev in range(2, (int(omega.max()) if N >= 2 else 1) + 1)
        ]
        # (r/p) at _offsets[i] + r, back to back; p = 2 is (2/q) indexed by q mod 8
        self._moduli = np.where(self.primes == 2, 8, self.primes)
        self._offsets = np.cumsum(self._moduli) - self._moduli
        self._legendre = np.zeros(int(self._moduli.sum()), dtype=np.int8)
        for p, off in zip(self._moduli.tolist(), self._offsets.tolist()):
            tab = self._legendre[off : off + p]
            if p == 8:
                tab[:] = [0, 1, 0, -1, 0, -1, 0, 1]
            else:
                tab[1:] = -1
                tab[np.arange(1, p) ** 2 % p] = 1

    def table(self, qs) -> np.ndarray:
        """float64 array v with v[i, n] = jacobi(n mod qs[i], qs[i]) for 1 <= n <= N
        and v[i, 0] = 0: chi_q for fundamental q.  Every q must be positive
        with q = 1 (mod 4), where reciprocity holds.
        """
        qs = np.asarray(qs, dtype=np.int64).reshape(-1)
        if np.any((qs < 1) | (qs % 4 != 1)):
            raise DomainError("CharacterSieve.table requires positive q = 1 (mod 4)")
        chi = np.zeros((qs.size, self.N + 1), dtype=np.float64)
        chi[:, 1] = 1.0
        chi[:, self.primes] = self._legendre[self._offsets + qs[:, None] % self._moduli]
        for level in self._levels:
            chi[:, level] = chi[:, self.spf[level]] * chi[:, self.cof[level]]
        return chi

    def values(self, q: int) -> np.ndarray:
        """float64 array v with v[n] = chi_q(n) for 0 <= n <= N."""
        q = int(q)
        if not _is_fundamental_odd_positive_int(q):
            raise DomainError(f"q={q} is not an odd positive fundamental conductor")
        return self.table([q])[0]
