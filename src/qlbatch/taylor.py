"""Truncation planning and Taylor coefficient tables for the window sweep.

The inner sum over n is cut at N with a certified tail bound; the dependence
on the conductor q inside a window [Q, Q+Delta) is then captured by an R-term
Taylor expansion in x = (Q - q)/q, whose n-th column of coefficients is

    c_r(t, n) = (-1)^r G_(z+r)(w_n) w_n^r / r!,   w_n = pi n^2 / Q,

with z = 1/4 + it/2.  Rows are generated by the upward kernel recursion and a
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
from .special import _g_rows_arr

# epsilon splits: tail and Taylor truncation each get epsilon/8, multi-eval
# gets the per-coefficient epsilon3 below; the factor 4 R N sqrt(Q) absorbs
# term counts and the sqrt(a) assembly weights.
_EPS3_FLOOR = 2.0 ** -48  # double-precision floor of the transform tolerance


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


def plan_budget(Q: int, Delta: int, epsilon: float, t: float) -> ErrorBudget:
    """Choose N, R and the error splits for a window [Q, Q+Delta).

    Raises BudgetError when the request cannot be met in double precision:
    either log2(Q/epsilon) exceeds 45 bits or the resulting per-coefficient
    target epsilon3 falls below 2^-48.  An epsilon outside (0, 1) raises
    DomainError.
    """
    window = Window(int(Q), int(Delta))  # validates 1 <= Delta <= Q/2
    Q, Delta = window.Q, window.Delta
    _check_t(t)
    epsilon = _check_precision(Q, epsilon)
    eps1 = epsilon / 8.0
    eps2 = epsilon / 8.0
    N = math.ceil(math.sqrt((2.0 * Q / math.pi) * math.log(Q / eps1)))
    R = max(1, math.ceil(math.log(N / eps2) / math.log(Q / Delta)))
    eps3 = epsilon / (4.0 * R * N * math.sqrt(Q))
    if eps3 < _EPS3_FLOOR:
        raise BudgetError(
            f"per-coefficient target epsilon3 = {eps3:.3e} sits below the "
            f"2^-48 = {_EPS3_FLOOR:.3e} transform floor; raise epsilon or shrink Q"
        )
    # N clears the Gaussian-width scale, so the tail bound below applies
    if not N > math.sqrt(2.0 * Q / math.pi):
        raise ConsistencyError(f"N={N} does not clear the sqrt(2Q/pi) tail-bound scale")
    return ErrorBudget(
        epsilon=epsilon,
        epsilon1=eps1,
        epsilon2=eps2,
        epsilon3=eps3,
        N=N,
        R=R,
        Q=Q,
        Delta=Delta,
    )


def tail_bound(N: int, Q: int) -> float:
    """Certified bound on the dropped n > N tail, uniform over the window."""
    N = int(N)
    Q = int(Q)
    if not N > math.sqrt(2.0 * Q / math.pi):
        raise DomainError("tail bound requires N > sqrt(2Q/pi)")
    amp = (2.0 * Q / math.pi) ** 1.75
    return 0.5 * amp * math.exp(-math.pi * N * N / (2.0 * Q)) / (N * N)


def taylor_remainder_bound(N: int, Q: int, Delta: int, R: int) -> float:
    """Bound on dropping Taylor orders r >= R, uniform over q in the window."""
    N = int(N)
    Q = int(Q)
    Delta = int(Delta)
    R = int(R)
    if N < 1 or R < 1:
        raise DomainError("taylor_remainder_bound requires N >= 1 and R >= 1")
    if not 0 <= Delta < Q:
        raise DomainError("taylor_remainder_bound requires 0 <= Delta < Q")
    if Delta == 0:
        return 0.0
    return (2.0 * math.sqrt(N) / R) * (math.pi / Q) ** 0.25 * (Delta / Q) ** R


@dataclass(eq=False)
class CoefficientTable:
    """Dense (R, N) table of Taylor coefficients c_r(t, n)."""

    t: float
    Q: int
    N: int
    R: int
    c: np.ndarray

    def __post_init__(self) -> None:
        self.c = np.ascontiguousarray(self.c, dtype=np.complex128)
        if self.c.shape != (self.R, self.N):
            raise DomainError(
                f"coefficient array shape {self.c.shape} does not match (R, N)=({self.R}, {self.N})"
            )


def build_coefficient_table(
    t: float,
    Q: int,
    N: int,
    R: int,
    counter: OpCounter | None = None,
) -> CoefficientTable:
    """Tabulate c_r(t, n) for 0 <= r < R, 1 <= n <= N.

    One vectorized kernel-row call produces G_(z+r)(w_n) for all r; the
    remaining factor (-w)^r / r! follows the recurrence f_r = f_(r-1)(-w)/r.
    """
    t = float(t)
    Q = int(Q)
    N = int(N)
    R = int(R)
    if Q < 1 or N < 1 or R < 1:
        raise DomainError("build_coefficient_table requires Q, N, R >= 1")
    z = 0.25 + 0.5j * t
    n = np.arange(1, N + 1, dtype=np.float64)
    w = math.pi * n * n / Q
    rows = _g_rows_arr(z, w, R)
    if counter is not None:
        counter.add("kernel_evals", N * R)
    c = np.empty((R, N), dtype=np.complex128)
    factor = np.ones(N, dtype=np.float64)
    c[0] = rows[0]
    for r in range(1, R):
        factor = factor * (-w) / r
        c[r] = rows[r] * factor
    return CoefficientTable(t=t, Q=Q, N=N, R=R, c=c)
