"""Truncation planning and coefficient tables for the window sweep.

The inner sum over n is cut at the smallest N whose certified tail (the
oracle's bound, from special) meets its slice; the dependence on the
conductor q inside a window [Q, Q+Delta) is then captured by an R-term
Taylor expansion in x = (c - q)/q, whose n-th column of coefficients is

    c_r(t, n) = (-1)^r G_(z+r)(w_n) w_n^r / r!,   w_n = pi n^2 / c,

with z = 1/4 + it/2.  The expansion point c, the integer nearest the harmonic
mean of the ends Q and L = Q+Delta-1, balances |x| at both ends, so
|x| <= rho = max((c - Q)/Q, (L - c)/L) <= 1/5, and R is the smallest order
that a character-free Cauchy majorant certifies at eps2/2.  Both bounds hold
over every |t'| <= max(1, |t|).  Rows come from the upward kernel recursion
and a factor recurrence, so the whole (R, N) table costs one kernel column
plus O(NR) multiplies.

The planner then economizes the table once (Lanczos): with x = mid + hw u
mapping u in [-1, 1] onto the window's x interval, one (R, R) matrix turns
the powers x^r into Chebyshev polynomials T_k(u), and the columns k >= R_c
are dropped, R_c the least count whose dropped sum
|C(max(1, |t|), Q)| sum_n sum_(k >= R_c) |b_(k,n)| is at most the Taylor
remainder bound at R, so the two together stay below eps2.  On that
interval the Chebyshev series converges at the Bernstein-ellipse rate
(Trefethen, Approximation Theory and Approximation Practice, 2013,
Thms 8.1-8.2), far faster than the Taylor one at rho, so every later layer
carries R_c columns (9 against R = 14 on [10^4, 1.5*10^4)) and recovery sums
them by Clenshaw's recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import Window, _check_precision, _check_t
from .counters import OpCounter
from .errors import BudgetError, ConsistencyError, DomainError
from .special import (_certified_order, _certified_tail, _g_kernel_arr, _g_rows_arr,
                      c_prefactor)

# epsilon splits: the tail gets epsilon/8 and the x dependence epsilon/8, at
# most half for the Taylor remainder and as much for the dropped Chebyshev
# columns; multi-eval gets the per-coefficient epsilon3 of plan_sweep.
_EPS3_FLOOR = 2.0 ** -48  # double-precision floor of the transform tolerance
_MAX_N = 1 << 20  # the node builder's int64 merge key holds M = N//a up to this
_CAUCHY_GAPS = 2.0 ** (-0.5 * np.arange(1, 17))  # 1 - rho' in units of 1 - rho


@dataclass(frozen=True)
class ErrorBudget:
    """Planned truncation orders and error splits for one window sweep.

    R is the Taylor order the table is built at, columns the Chebyshev
    count R_c that every later layer carries, and dropped the certified sum
    over the Chebyshev columns cut off, at most the Taylor remainder bound
    at R, so the two stay below epsilon2.
    """

    epsilon: float
    epsilon1: float
    epsilon2: float
    epsilon3: float
    N: int
    R: int
    columns: int
    dropped: float
    Q: int
    Delta: int
    centre: int  # the expansion point c

    def u(self, q) -> np.ndarray:
        """The Chebyshev variable of conductors q: x = (c - q)/q mapped from
        the window's x interval onto [-1, 1], clipped against rounding; 0
        when the interval is one point."""
        mid, hw = _x_interval(self.Q, self.Delta, self.centre)
        x = (self.centre - np.asarray(q, dtype=np.float64)) / q
        if hw == 0.0:
            return np.zeros_like(x)
        return np.clip((x - mid) / hw, -1.0, 1.0)


def _expansion(Q: int, Delta: int) -> tuple:
    """The expansion point c of [Q, Q+Delta) and rho, the largest |x| there."""
    L = Q + Delta - 1
    c = round(2 * Q * L / (Q + L))
    return c, max((c - Q) / Q, (L - c) / L)


def _x_interval(Q: int, Delta: int, c: int) -> tuple:
    """Midpoint and half-width of x = (c - q)/q over Q <= q <= Q+Delta-1."""
    L = Q + Delta - 1
    hi, lo = (c - Q) / Q, (c - L) / L
    return (hi + lo) / 2.0, (hi - lo) / 2.0


def chebyshev_matrix(mid: float, hw: float, R: int) -> np.ndarray:
    """The (R, R) matrix E whose column r holds the Chebyshev coefficients
    of x^r = (mid + hw u)^r in u, so sum_r c_r x^r = sum_k (E c)_k T_k(u).

    Column r is mid x^(r-1) plus hw u x^(r-1), by u T_0 = T_1 and
    u T_k = (T_(k-1) + T_(k+1))/2; x^r has degree r < R, so nothing spills.
    """
    E = np.zeros((R, R))
    E[0, 0] = 1.0
    for r in range(1, R):
        prev = E[:, r - 1]
        col = mid * prev
        col[1:] += (0.5 * hw) * prev[:-1]
        col[:-1] += (0.5 * hw) * prev[1:]
        col[1] += (0.5 * hw) * prev[0]  # u T_0 = T_1: the other half
        E[:, r] = col
    return E


def clenshaw(coeffs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] T_k(u) by Clenshaw's recurrence, over the arrays
    coeffs (K >= 1, ...) and u, which broadcast against coeffs[0]."""
    b1 = b2 = np.zeros_like(coeffs[0])
    for a in coeffs[:0:-1]:
        b1, b2 = a + 2.0 * u * b1 - b2, b1
    return coeffs[0] + u * b1 - b2


def _cauchy_majorant(N: int, Q: int, Delta: int, R: np.ndarray, t: float) -> np.ndarray:
    """taylor_remainder_bound at every order of the array R: on |xi| <= rho',
    |G_z(w_n (1 + xi))| <= G_(1/4)(w_n (1 - rho')), and Cauchy's estimate."""
    c, rho = _expansion(Q, Delta)
    gap = (1.0 - rho) * _CAUCHY_GAPS  # 1 - rho'
    v = (math.pi / c) * np.arange(1, N + 1, dtype=np.float64) ** 2 * gap[:, None]
    S = _g_kernel_arr(0.25, v).real.sum(axis=1)
    ratio = rho / (1.0 - gap[:, None])
    A = abs(c_prefactor(max(1.0, abs(t)), Q)) * S[:, None] / (1.0 - ratio)
    return np.min(A * ratio ** R, axis=0)


def plan_sweep(
    Q: int,
    Delta: int,
    epsilon: float,
    t: float,
    counter: OpCounter | None = None,
) -> tuple:
    """Plan a window [Q, Q+Delta) and build its Chebyshev table.

    N is the smallest order with tail_bound(N, Q, t) < eps1 and R the least
    with taylor_remainder_bound(N, Q, Delta, R, t) < eps2/2.  The (R, N)
    Taylor table is economized by chebyshev_matrix onto u and cut at the
    least column count R_c whose dropped sum, |C| at q = Q and height
    max(1, |t|) times sum_n sum_(k >= R_c) |b_(k,n)|, is at most that
    Taylor remainder bound (a one-point x interval gives R_c = 1).  That sum
    is nearly tight, the Cauchy majorant is not, so a cap at eps2/2 would
    raise a narrow window's error 50-fold ([10^4, 10^4 + 32) at R_c = 3 of
    R = 4); this cap keeps its 4 columns.  Returns (ErrorBudget, the (R_c, N)
    table).  BudgetError when log2(Q/epsilon) exceeds 45 bits, N passes the
    node builder's _MAX_N or epsilon3 = eps/(4 R_c N sqrt(Q)) falls below
    the 2^-48 floor; an epsilon outside (0, 1) raises DomainError.
    """
    window = Window(int(Q), int(Delta))  # validates 1 <= Delta <= Q/2
    Q, Delta = window.Q, window.Delta
    t = _check_t(t)
    epsilon = _check_precision(Q, epsilon)
    eps1 = epsilon / 8.0
    eps2 = epsilon / 8.0
    N = int(_certified_order(1.5 * Q, eps1, max(1.0, abs(t))))
    if N > _MAX_N:
        raise BudgetError(f"N = {N} passes the node builder's 2^20 capacity; raise epsilon")
    # N clears the Gaussian-width scale, so the tail bound below applies
    if not N > math.sqrt(2.0 * Q / math.pi):
        raise ConsistencyError(f"N={N} does not clear the sqrt(2Q/pi) tail-bound scale")
    centre = _expansion(Q, Delta)[0]
    # the coarsest rho' alone puts order 256 below 1e-80
    remainder = _cauchy_majorant(N, Q, Delta, np.arange(1, 257), t)
    R = 1 + int(np.argmax(remainder < eps2 / 2.0))

    table = build_coefficient_table(t, centre, N, R, counter)
    b = chebyshev_matrix(*_x_interval(Q, Delta, centre), R) @ table.c
    # dropped[k]: the certified sum over the columns k.. R-1
    dropped = np.append(np.cumsum(np.abs(b).sum(axis=1)[::-1])[::-1], 0.0)
    dropped *= abs(c_prefactor(max(1.0, abs(t)), Q))
    columns = 1 + int(np.argmax(dropped[1:] <= remainder[R - 1]))
    # the columns' T_k(u) reach 1 on the window, so the factor 4 R_c N
    # sqrt(Q) absorbs them, the term counts and the assembly weights
    eps3 = epsilon / (4.0 * columns * N * math.sqrt(Q))
    if eps3 < _EPS3_FLOOR:
        raise BudgetError(
            f"per-coefficient target epsilon3 = {eps3:.3e} sits below the "
            f"2^-48 = {_EPS3_FLOOR:.3e} transform floor; raise epsilon or shrink Q"
        )
    budget = ErrorBudget(epsilon=epsilon, epsilon1=eps1, epsilon2=eps2, epsilon3=eps3,
                         N=N, R=R, columns=columns, dropped=float(dropped[columns]),
                         Q=Q, Delta=Delta, centre=centre)
    return budget, CoefficientTable(t=t, centre=centre, c=b[:columns])


def plan_budget(Q: int, Delta: int, epsilon: float, t: float) -> ErrorBudget:
    """The ErrorBudget of plan_sweep, for a caller that needs no table."""
    return plan_sweep(Q, Delta, epsilon, t)[0]


def tail_bound(N: int, Q: int, t: float = 0.0) -> float:
    """Certified bound on the dropped n > N tail at the window rule's largest
    conductor 1.5Q and height max(1, |t|), so over every height up to it."""
    N, Q = int(N), int(Q)
    t = _check_t(t)
    if not N > math.sqrt(2.0 * Q / math.pi):
        raise DomainError("tail bound requires N > sqrt(2Q/pi)")
    return float(_certified_tail(1.5 * Q, N, max(1.0, abs(t))))


def taylor_remainder_bound(N: int, Q: int, Delta: int, R: int, t: float = 0.0) -> float:
    """Bound on dropping orders r >= R of F = C(t, q) sum_(n<=N) chi(n)
    G_z(pi n^2/q), over the window, every character and |t'| <= max(1, |t|):
    |C| sum_n G_(1/4)(w_n (1 - rho')) (rho/rho')^R / (1 - rho/rho') with
    |C| at q = Q and t' = max(1, |t|), least over a grid of rho' in (rho, 1)."""
    N, Q, Delta, R = int(N), int(Q), int(Delta), int(R)
    t = _check_t(t)
    if N < 1 or R < 1:
        raise DomainError("taylor_remainder_bound requires N >= 1 and R >= 1")
    if not 0 <= Delta < Q:
        raise DomainError("taylor_remainder_bound requires 0 <= Delta < Q")
    if Delta == 0:
        return 0.0
    return float(_cauchy_majorant(N, Q, Delta, np.array([R]), t)[0])


@dataclass(eq=False)
class CoefficientTable:
    """Dense (R, N) table c of coefficients about the expansion point
    centre: the Taylor orders c_r(t, n) in x as built, the Chebyshev columns
    in u once plan_sweep has economized it."""

    t: float
    centre: int
    c: np.ndarray

    def __post_init__(self) -> None:
        self.c = np.ascontiguousarray(self.c, dtype=np.complex128)

    @property
    def R(self) -> int:
        return self.c.shape[0]

    @property
    def N(self) -> int:
        return self.c.shape[1]


def build_coefficient_table(
    t: float,
    centre: int,
    N: int,
    R: int,
    counter: OpCounter | None = None,
) -> CoefficientTable:
    """Tabulate c_r(t, n) for 0 <= r < R, 1 <= n <= N about centre.

    One vectorized kernel-row call produces G_(z+r)(w_n) for all r; the
    remaining factor (-w)^r / r! follows the recurrence f_r = f_(r-1)(-w)/r.
    """
    t = float(t)
    centre = int(centre)
    N = int(N)
    R = int(R)
    if centre < 1 or N < 1 or R < 1:
        raise DomainError("build_coefficient_table requires centre, N, R >= 1")
    z = 0.25 + 0.5j * t
    n = np.arange(1, N + 1, dtype=np.float64)
    w = math.pi * n * n / centre
    rows = _g_rows_arr(z, w, R)
    if counter is not None:
        counter.add("kernel_evals", N * R)
    c = np.empty((R, N), dtype=np.complex128)
    factor = np.ones(N, dtype=np.float64)
    c[0] = rows[0]
    for r in range(1, R):
        factor = factor * (-w) / r
        c[r] = rows[r] * factor
    return CoefficientTable(t=t, centre=centre, c=c)
