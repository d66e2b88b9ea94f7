"""Brute-force reference evaluation of Z(t, chi_q), one conductor at a time.

Independent of the batch pipeline by construction: this module touches only
the special-function kernel and the arithmetic helpers, never the Taylor
tables or the multi-evaluation engine.  Each value is a direct smoothed sum

    Z(t, chi_q) = 2 Re[ e^{i theta(t, q)} sum_(n<=N) chi_q(n) n^(-1/2-it)
                         V(pi n^2 / q) ],

with V(w) = Gamma(z2, w) / Gamma(z2), z2 = 1/4 + it/2, cut per conductor at
the smallest N whose certified tail (the planner's bound, here at the call's
own t) meets epsilon/8192, and returned as tail_bound.  direct_Z is the naive
route, a Jacobi symbol and a kernel evaluation per term summed by fsum;
oracle_sweep is the array-native one, with Legendre-table characters per
block of conductors and the kernel only where chi_q(n) != 0, and returns
the window as columns aligned with q, like the batch result it checks.
It sums each conductor's terms by Sum2 (_segment_sums), within u|F| +
gamma_(m+1) u sum|p_i| of the exact sum: fsum's own rounding u|F| plus a
term that reads at most 2e-23 on [10033, 15033) at t = 0, 1 and 10,
thirteen orders of magnitude below eps/8192 = 1.2e-10 at eps = 1e-6.
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
from .special import _certified_order, _certified_tail, _g_kernel_arr, log_gamma, theta_phase

_CHUNK = 64  # conductors per character table and kernel call in sweeps
# the tail's share of epsilon: 1/1024 of the eps/8 the fast path spends, so
# a reference's own truncation stays far below the error it checks
_REFERENCE_SLICE = 2.0 ** -13


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


def _truncation_order(q, epsilon: float, t: float) -> tuple[np.ndarray, float]:
    """Smallest N whose certified tail at height t meets the reference slice
    eps1, per conductor of q (a scalar or an array), and eps1; an epsilon past
    the _check_precision budget at the largest q raises BudgetError first."""
    eps1 = _check_precision(int(np.max(q, initial=1)), epsilon) * _REFERENCE_SLICE
    return _certified_order(q, eps1, t), eps1


def _character_values(q: int, N: int) -> np.ndarray:
    """chi_q(1..N) by direct Jacobi symbols (no shared sieve machinery)."""
    return np.array([jacobi(n % q, q) for n in range(1, N + 1)], dtype=np.float64)


def _smoothed_sum(q: int, t: float, chi: np.ndarray, V: np.ndarray) -> complex:
    """sum chi(n) n^(-1/2-it) V_n with compensated real/imag accumulation."""
    n = np.arange(1, chi.size + 1, dtype=np.float64)
    terms = chi * np.exp((-0.5 - 1j * t) * np.log(n)) * V
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def _segment_sums(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each run of counts[i] consecutive entries of x, by Sum2 (Ogita,
    Rump and Oishi, SIAM J. Sci. Comput. 26(6), 2005) in whole-array steps;
    a complex x is summed part by part, as addition acts on each part apart.

    One cumsum gives the partial sums p_i, and each of its steps p_(i-1) +
    x_i = p_i + e_i leaves a TwoSum error e_i that is exact, so a run's sum
    is exactly (p_end - p_before) plus its e_i.  The difference D is rounded
    once, its TwoSum error d joins the run's e_i, summed by reduceat, and
    F = D + (d + sum e).  A run of m terms has, in each part,

        |F - sum x| <= u |F| + gamma_(m+1) u sum |p_i|,

    the p_i being the m+1 values the run rounds to (its m partial sums and
    D), u = 2^-53 and gamma_k = k u / (1 - k u); an empty run sums to 0.
    ConsistencyError when the cumsum was not the sequential one this rests on.
    """
    x = np.asarray(x)
    counts = np.asarray(counts, dtype=np.int64)
    P = np.zeros(x.size + 1, dtype=np.result_type(x, 0.0))  # p_0 = 0, then the p_i
    np.cumsum(x, out=P[1:])
    prev, p = P[:-1], P[1:]
    tmp = prev + x
    if not np.array_equal(tmp, p):
        raise ConsistencyError("cumsum is not sequential: its TwoSum errors are not exact")
    late = p - prev  # TwoSum(prev, x): e = (prev - (p - late)) + (x - late)
    e = p - late
    np.subtract(prev, e, out=e)
    e += np.subtract(x, late, out=tmp)
    ends = np.cumsum(counts)
    hi, lo = P[ends], P[ends - counts]
    D = hi - lo
    late = D - hi  # TwoSum(hi, -lo)
    d = (hi - (D - late)) - (lo + late)
    full = counts > 0  # an empty run has D = d = 0 and no e_i
    d[full] += np.add.reduceat(e, (ends - counts)[full])
    return D + d


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
        N, _ = _truncation_order(q, float(epsilon), t)
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
    N, eps1 = _truncation_order(q, epsilon, t)
    theta = theta_phase(t, 0, q)
    Z = 2.0 * (cmath.exp(1j * theta) * F).real
    tail = float(_certified_tail(q, N, t))
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
    arguments pi n^2/q with chi_q(n) != 0 (a dropped term is exactly +-0)
    and one Sum2 over the block's terms, which keeps one F per conductor
    within u|F| + gamma_(m+1) u sum|p_i| of its exact sum of m terms (see
    _segment_sums): fsum's own rounding and at most 2e-23 more on the
    compare window, far under the eps/8192 tail.  The columns match per-q
    direct_Z to roundoff, sorted by q, and are empty on a window without
    fundamental conductors; an epsilon past the precision budget at the
    largest q raises BudgetError before the first block.
    """
    t = _check_t(t)
    epsilon = _check_epsilon(epsilon)
    qs = fundamental_conductors(window)
    Ns, _ = _truncation_order(qs, epsilon, t)
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
        F[lo : lo + _CHUNK] = _segment_sums(terms, np.bincount(rows, minlength=block.size))

    _thread_map(run_block, range(0, qs.size, _CHUNK), threads)
    Z = 2.0 * (np.exp(1j * theta_phase(t, 0, qs)) * F).real
    return OracleResult(q=qs, t=t, Z=Z, N_used=Ns,
                        tail_bound=_certified_tail(qs, Ns, t))
