"""Brute-force reference evaluation of Z(t, chi_q), one conductor at a time.

Independent of the batch pipeline by construction: this module touches only
the special-function kernel and the arithmetic helpers, never the Taylor
tables or the multi-evaluation engine.  Each value is a direct smoothed sum

    Z(t, chi_q) = 2 Re[ e^{i theta(t, q)} sum_(n<=N) chi_q(n) n^(-1/2-it)
                         V(pi n^2 / q) ],

with V(w) = Gamma(z2, w) / Gamma(z2), z2 = 1/4 + it/2, cut at an N whose
dropped tail is certified below the returned tail_bound.  direct_Z is the
naive route, a Jacobi symbol and a kernel evaluation per term; oracle_sweep
is the array-native one, with Legendre-table characters per block of
conductors and the kernel only where chi_q(n) != 0, and returns the window
as columns aligned with q, like the batch result it checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .arith import (
    CharacterSieve,
    Window,
    _check_epsilon,
    _check_precision,
    _check_t,
    _is_fundamental_odd_positive_int,
    _thread_map,
    fundamental_conductors,
    jacobi,
)
from .counters import OpCounter
from .errors import ConsistencyError, DomainError
from .special import _g_kernel_arr, log_gamma, theta_phase

_CHUNK = 64  # conductors per character table and kernel call in sweeps


@dataclass(eq=False)
class OracleResult:
    """Certified reference values with their truncation records: scalars
    from direct_Z, columns aligned with q (int64, ascending) from
    oracle_sweep, with Z and tail_bound float64 and N_used int64."""

    q: int | np.ndarray
    t: float
    Z: float | np.ndarray
    N_used: int | np.ndarray
    tail_bound: float | np.ndarray


def _truncation_order(q, epsilon: float) -> tuple[np.ndarray, float]:
    """Smallest N whose tail budget eps1 = epsilon/8 is met, per conductor
    of q (a scalar or an array), and eps1; an epsilon past the
    _check_precision budget at the largest q raises BudgetError first."""
    eps1 = _check_precision(int(np.max(q, initial=1)), epsilon) / 8.0
    N = np.ceil(np.sqrt((2.0 * q / np.pi) * np.log(q / eps1)))
    return np.maximum(N, 1).astype(np.int64), eps1


def _certified_tail(q, N, gamma_abs: float):
    """Rigorous bound on 2 sum_(n>N) n^(-1/2) |V(pi n^2/q)|, per conductor.

    Uses |Gamma(z2, w)| <= w^(-3/4) e^(-w) for Re z2 = 1/4 and a geometric
    majorant for the lattice tail.
    """
    N = np.asarray(N, dtype=np.float64)  # an int64 N**3 would wrap past N = 2^21
    return (q / np.pi) ** 0.75 * q * np.exp(-np.pi * N * N / q) / (np.pi * N ** 3 * gamma_abs)


def _character_values(q: int, N: int) -> np.ndarray:
    """chi_q(1..N) by direct Jacobi symbols (no shared sieve machinery)."""
    return np.array([jacobi(n % q, q) for n in range(1, N + 1)], dtype=np.float64)


def _smoothed_sum(q: int, t: float, chi: np.ndarray, V: np.ndarray) -> complex:
    """sum chi(n) n^(-1/2-it) V_n with compensated real/imag accumulation."""
    n = np.arange(1, chi.size + 1, dtype=np.float64)
    terms = chi * np.exp((-0.5 - 1j * t) * np.log(n)) * V
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def direct_F(
    q: int,
    t: float,
    epsilon: float | None = None,
    *,
    N: int | None = None,
    form: str = "v",
    counter: OpCounter | None = None,
) -> complex:
    """The inner smoothed sum F(t, chi_q) alone, truncated at N.

    form="v" uses chi(n) n^(-1/2-it) V(pi n^2/q); form="cg" uses the
    algebraically equal product C(t, q) sum chi(n) G_z2(pi n^2/q).  The two
    routes share only the incomplete-gamma kernel, so their agreement checks
    the prefactor identity.
    """
    q = int(q)
    if epsilon is None and N is None:
        raise DomainError("direct_F needs either epsilon or an explicit N")
    if not _is_fundamental_odd_positive_int(q):
        raise DomainError(f"q={q} is not an odd positive fundamental conductor")
    t = _check_t(t)
    if N is None:
        N, _ = _truncation_order(q, float(epsilon))
    N = int(N)
    if N < 1:
        raise DomainError("direct_F requires N >= 1")
    if counter is not None:
        counter.add("oracle_special_calls", N)
    z2 = 0.25 + 0.5j * t
    n = np.arange(1, N + 1, dtype=np.float64)
    w = math.pi * n * n / q
    G = _g_kernel_arr(z2, w)
    chi = _character_values(q, N)
    if form == "v":
        V = np.exp(z2 * np.log(w) - log_gamma(z2)) * G
        return _smoothed_sum(q, t, chi, V)
    if form == "cg":
        pref = cmath.exp(z2 * cmath.log(math.pi / q) - log_gamma(z2))
        terms = chi * G
        inner = complex(math.fsum(terms.real), math.fsum(terms.imag))
        return pref * inner
    raise DomainError(f"unknown form {form!r}")


def direct_Z(
    q: int,
    t: float,
    epsilon: float,
    *,
    counter: OpCounter | None = None,
) -> OracleResult:
    """Certified reference Z(t, chi_q) for a single conductor; BudgetError
    when log2(q/epsilon) exceeds the double-precision budget."""
    q = int(q)
    t = float(t)
    F = direct_F(q, t, epsilon, form="v", counter=counter)  # validates q, t, epsilon
    N, eps1 = _truncation_order(q, epsilon)
    theta = theta_phase(t, 0, q)
    Z = 2.0 * (cmath.exp(1j * theta) * F).real
    tail = float(_certified_tail(q, N, math.exp(log_gamma(0.25 + 0.5j * t).real)))
    # the planned N always beats its own budget
    if not tail < eps1:
        raise ConsistencyError(f"certified tail {tail:.3e} at N={N} misses its budget {eps1:.3e}")
    return OracleResult(q=q, t=t, Z=float(Z), N_used=int(N), tail_bound=tail)


def oracle_sweep(
    window: Window,
    t: float,
    epsilon: float,
    *,
    threads: int = 1,
    counter: OpCounter | None = None,
) -> OracleResult:
    """direct_Z over every fundamental conductor in a window, as columns.

    One character sieve, one n^(-1/2-it) and the truncation orders, phases
    and tail bounds as arrays serve the window; each block of _CHUNK
    conductors takes one character table and one kernel call over the
    arguments pi n^2/q with chi_q(n) != 0 (a dropped term is exactly +-0,
    and fsum is correctly rounded) and keeps one F per conductor.  The
    columns match per-q direct_Z to roundoff, sorted by q, and are empty
    on a window without fundamental conductors; an epsilon past the
    precision budget at the largest q raises BudgetError before the first
    block.
    """
    t = _check_t(t)
    epsilon = _check_epsilon(epsilon)
    qs = fundamental_conductors(window)
    Ns, _ = _truncation_order(qs, epsilon)
    sieve = CharacterSieve(int(Ns.max(initial=1)))
    n = np.arange(1, sieve.N + 1, dtype=np.float64)
    powers = np.exp((-0.5 - 1j * t) * np.log(n))
    z2 = 0.25 + 0.5j * t
    lg = log_gamma(z2)
    if counter is not None:
        counter.add("oracle_special_calls", int(Ns.sum()))
    F = np.empty(qs.size, dtype=np.complex128)

    def run_block(lo: int) -> None:
        block = qs[lo : lo + _CHUNK]
        chi = sieve.table(block)[:, 1:]
        rows, cols = np.nonzero((chi != 0.0) & (n <= Ns[lo : lo + _CHUNK, None]))
        w = math.pi * n[cols] * n[cols] / block[rows]
        V = np.exp(z2 * np.log(w) - lg) * _g_kernel_arr(z2, w)
        terms = chi[rows, cols] * powers[cols] * V
        parts = np.split(terms, np.cumsum(np.bincount(rows, minlength=block.size))[:-1])
        F[lo : lo + _CHUNK] = [complex(math.fsum(p.real.tolist()), math.fsum(p.imag.tolist()))
                               for p in parts]

    _thread_map(run_block, range(0, qs.size, _CHUNK), threads)
    Z = 2.0 * (np.exp(1j * theta_phase(t, 0, qs)) * F).real
    return OracleResult(q=qs, t=t, Z=Z, N_used=Ns,
                        tail_bound=_certified_tail(qs, Ns, math.exp(lg.real)))
