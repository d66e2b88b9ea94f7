"""Truncation planning and Taylor coefficient tables for the window sweep.

The inner sum over n is cut at the smallest N whose certified tail (the
oracle's bound, from special) meets its slice; the dependence on the
conductor q inside a window [Q, Q+Delta) is then captured by an R-term
Taylor expansion in x = (c - q)/q, whose n-th column of coefficients is

    c_r(t, n) = (-1)^r G_(z+r)(w_n) w_n^r / r!,   w_n = pi n^2 / c,

with z = 1/4 + it/2.  The expansion point c, the integer nearest the harmonic
mean of the ends Q and L = Q+Delta-1, balances |x| at both ends, so
|x| <= rho = max((c - Q)/Q, (L - c)/L) <= 1/5, and R is the smallest order
that a character-free Cauchy majorant certifies.  Both bounds hold over
every |t'| <= max(1, |t|).  Rows come from the upward kernel recursion and a
factor recurrence, so the whole (R, N) table costs one kernel column plus
O(NR) multiplies.
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

# epsilon splits: tail and Taylor truncation each get epsilon/8, multi-eval
# gets the per-coefficient epsilon3 below; the factor 4 R N sqrt(Q) absorbs
# term counts and the sqrt(a) assembly weights.
_EPS3_FLOOR = 2.0 ** -48  # double-precision floor of the transform tolerance
_MAX_N = 1 << 20  # the node builder's int64 merge key holds M = N//a up to this
_CAUCHY_GAPS = 2.0 ** (-0.5 * np.arange(1, 17))  # 1 - rho' in units of 1 - rho


@dataclass(frozen=True)
class ErrorBudget:
    """Planned truncation orders and error splits for one window sweep."""

    epsilon: float
    epsilon1: float
    epsilon2: float
    epsilon3: float
    N: int
    R: int
    Q: int
    Delta: int
    centre: int  # the expansion point c


def _expansion(Q: int, Delta: int) -> tuple:
    """The expansion point c of [Q, Q+Delta) and rho, the largest |x| there."""
    L = Q + Delta - 1
    c = round(2 * Q * L / (Q + L))
    return c, max((c - Q) / Q, (L - c) / L)


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


def plan_budget(Q: int, Delta: int, epsilon: float, t: float) -> ErrorBudget:
    """Choose N, R and the error splits for a window [Q, Q+Delta).

    N is the smallest order with tail_bound(N, Q, t) < eps1 and R the least
    with taylor_remainder_bound(N, Q, Delta, R, t) < eps2.  BudgetError when
    log2(Q/epsilon) exceeds 45 bits, N passes the node builder's _MAX_N or
    the per-coefficient target epsilon3 falls below the 2^-48 floor; an
    epsilon outside (0, 1) raises DomainError.
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
    centre = _expansion(Q, Delta)[0]
    orders = np.arange(1, 257)  # the coarsest rho' alone puts order 256 below 1e-80
    R = int(orders[np.argmax(_cauchy_majorant(N, Q, Delta, orders, t) < eps2)])
    eps3 = epsilon / (4.0 * R * N * math.sqrt(Q))
    if eps3 < _EPS3_FLOOR:
        raise BudgetError(
            f"per-coefficient target epsilon3 = {eps3:.3e} sits below the "
            f"2^-48 = {_EPS3_FLOOR:.3e} transform floor; raise epsilon or shrink Q"
        )
    # N clears the Gaussian-width scale, so the tail bound below applies
    if not N > math.sqrt(2.0 * Q / math.pi):
        raise ConsistencyError(f"N={N} does not clear the sqrt(2Q/pi) tail-bound scale")
    return ErrorBudget(epsilon=epsilon, epsilon1=eps1, epsilon2=eps2, epsilon3=eps3,
                       N=N, R=R, Q=Q, Delta=Delta, centre=centre)


def tail_bound(N: int, Q: int, t: float = 0.0) -> float:
    """Certified bound on the dropped n > N tail at the window rule's largest
    conductor 1.5Q and height max(1, |t|), so over every height up to it."""
    N, Q = int(N), int(Q)
    if not N > math.sqrt(2.0 * Q / math.pi):
        raise DomainError("tail bound requires N > sqrt(2Q/pi)")
    return float(_certified_tail(1.5 * Q, N, max(1.0, abs(t))))


def taylor_remainder_bound(N: int, Q: int, Delta: int, R: int, t: float = 0.0) -> float:
    """Bound on dropping orders r >= R of F = C(t, q) sum_(n<=N) chi(n)
    G_z(pi n^2/q), over the window, every character and |t'| <= max(1, |t|):
    |C| sum_n G_(1/4)(w_n (1 - rho')) (rho/rho')^R / (1 - rho/rho') with
    |C| at q = Q and t' = max(1, |t|), least over a grid of rho' in (rho, 1)."""
    N, Q, Delta, R = int(N), int(Q), int(Delta), int(R)
    if N < 1 or R < 1:
        raise DomainError("taylor_remainder_bound requires N >= 1 and R >= 1")
    if not 0 <= Delta < Q:
        raise DomainError("taylor_remainder_bound requires 0 <= Delta < Q")
    if Delta == 0:
        return 0.0
    return float(_cauchy_majorant(N, Q, Delta, np.array([R]), t)[0])


@dataclass(eq=False)
class CoefficientTable:
    """Dense (R, N) table c of Taylor coefficients c_r(t, n) about the
    expansion point centre."""

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
