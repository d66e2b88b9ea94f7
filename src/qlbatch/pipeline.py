"""Window-sweep orchestration: plan, precompute, recover Z per conductor.

One batch run covers every fundamental odd conductor q in [Q, Q+Delta).  The
precompute phase builds the shared Taylor coefficient table, then evaluates
one node problem per realized divisor a on the rescaled grid b = q/a, whose
values already carry the assembly weight sqrt(a); the recovery phase
assembles, for each q, the divisor combination

    F = C(t, q) g(q) sum_r x^r sum_(a|q) mu-sign(a) sqrt(a) S_r(a, q/a),

with x = (Q - q)/q, and finally Z = 2 Re[e^{i theta} F].  The conductors
and their divisor terms, read off the divisor grids, are flat arrays, and
each divisor scatters its values at b = q/a into the columns of its own
terms, so recovery is one segmented sum per conductor, one product with the
powers of x and one array expression for the prefactors: O(d(q) R) work per
conductor and no per-conductor Python; the result keeps those arrays as its
columns.
Every window takes this route, whatever its size: the cost argument needs a
large window, correctness does not.  run_batch only computes; checking a
sweep against the per-conductor oracle is compare_with_oracle.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .arith import (Window, _check_precision, _check_t, _thread_map, divisor_terms,
                    fundamental_conductors)
from .counters import OpCounter
from .errors import ConsistencyError
from .multieval import build_node_problem, fast_eval
from .oracle import oracle_sweep
from .special import c_prefactor, g_prefactor, theta_phase
from .taylor import ErrorBudget, build_coefficient_table, plan_budget

_T_WARN = 1.0

# counter keys whose sum is the precompute work volume
_PRECOMPUTE_KEYS = (
    "sieve_marks",
    "kernel_evals",
    "fast_eval_ops",
    "node_raw",
)


@dataclass(frozen=True)
class BatchRequest:
    """One window sweep: conductors in [Q, Q+Delta) at a fixed t.

    Validated here, before any sweep runs: DomainError for t or epsilon
    out of range, BudgetError past the log2(Q/epsilon) <= 45 budget.  t and
    epsilon are stored as the floats that passed.
    """

    window: Window
    t: float
    epsilon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", _check_t(self.t))
        object.__setattr__(self, "epsilon", _check_precision(self.window.Q, self.epsilon))


@dataclass(eq=False)
class BatchResult:
    """The request answered, one column per conductor field, and the planned
    budget, counters and phase timings of the run.

    The columns are aligned with q (int64, ascending): Z, theta and
    error_bound (float64) and recovery_ops (int64).  timings holds wall_s
    and its two phases precompute_s and recovery_s, and build_s and eval_s,
    the node-problem construction and evaluation seconds summed over the
    divisors, so with several threads they can exceed precompute_s.
    """

    request: BatchRequest
    q: np.ndarray
    Z: np.ndarray
    theta: np.ndarray
    error_bound: np.ndarray
    recovery_ops: np.ndarray
    budget: ErrorBudget
    counts: dict
    timings: dict

    @property
    def n_characters(self) -> int:
        return self.q.size

    @property
    def precompute_ops(self) -> int:
        return sum(self.counts.get(k, 0) for k in _PRECOMPUTE_KEYS)


def run_batch(
    request: BatchRequest,
    *,
    threads: int = 1,
    counter: OpCounter | None = None,
    convention: str = "sqrt_a",
) -> BatchResult:
    """Evaluate Z(t, chi_q) for every fundamental q in the request window.

    Every window takes the amortized fast path, and each record carries the
    error_bound of the planned budget.  An unknown convention raises
    DomainError from the a = 1 node problem, which every window prices.
    Checking the sweep against the oracle is the separate
    compare_with_oracle step.
    """
    if counter is None:
        counter = OpCounter()
    t_start = time.perf_counter()
    win, t = request.window, request.t
    if abs(t) > _T_WARN:
        # one constant text, so the default filter shows it once per caller
        warnings.warn(
            "|t| > 1: the archimedean phase loses accuracy away from the central point",
            stacklevel=2,
        )

    budget = plan_budget(win.Q, win.Delta, request.epsilon, t)
    qs = fundamental_conductors(win, counter)
    table = build_coefficient_table(t, win.Q, budget.N, budget.R, counter)
    owner, a, sign = divisor_terms(win, qs, budget.N)
    # a | q keeps every cofactor b = q/a inside its divisor's grid, and
    # q = 1 (mod 4) then makes every b odd, as the quarter-length Gauss
    # identity behind the S-values needs, and = a (mod 4), the grid's class
    b, rem = np.divmod(qs[owner], a)
    if rem.any():
        k = int(np.argmax(rem != 0))
        raise ConsistencyError(f"divisor a={a[k]} does not divide q={qs[owner[k]]}")

    # precompute: each realized divisor evaluates its node problem on its
    # grid of arguments b = a (mod 4) and scatters sqrt(a) S_r(a, q/a) into
    # the columns of its own divisor terms, so the thread count cannot
    # change the bits; an empty window still prices a = 1, whose grid may
    # then hold no b at all
    divisors = np.union1d(a, [1])
    d = np.searchsorted(divisors, a)
    by_divisor = np.argsort(d, kind="stable")
    edges = np.searchsorted(d, np.arange(divisors.size + 1), sorter=by_divisor)
    terms = np.empty((budget.R, a.size), dtype=np.complex128)
    seconds = np.zeros((2, divisors.size))  # build, eval

    def run_one(i: int) -> None:
        t0 = time.perf_counter()
        built = build_node_problem(
            int(divisors[i]), table, win, convention=convention, counter=counter
        )
        cols = by_divisor[edges[i] : edges[i + 1]]
        if built is None:
            if cols.size:
                raise ConsistencyError(f"divisor a={divisors[i]} has no node problem")
            return
        problem, grid = built
        h, off = np.divmod(b[cols] - grid.b0, grid.step)
        if np.any(off) or np.any(h < 0) or np.any(h >= grid.H):
            raise ConsistencyError(f"divisor a={divisors[i]} has a b = q/a off its grid")
        t1 = time.perf_counter()
        values = fast_eval(problem, grid, budget.epsilon3, counter)
        seconds[:, i] = t1 - t0, time.perf_counter() - t1
        terms[:, cols] = values[:, h]

    _thread_map(run_one, range(divisors.size), threads)
    precompute_s = time.perf_counter() - t_start

    # recovery: sum each conductor's signed terms, apply the Taylor powers
    # of x = (Q - q)/q, then the prefactors and the rotation, all as arrays
    # over the window
    rec_start = time.perf_counter()
    n_terms = np.bincount(owner, minlength=qs.size)
    starts = np.cumsum(n_terms) - n_terms
    sums = np.add.reduceat(terms * sign, starts, axis=1)
    R = budget.R
    x = (budget.Q - qs) / qs
    inner = np.sum(sums * x ** np.arange(R, dtype=np.float64)[:, None], axis=0)
    F = c_prefactor(t, qs) * g_prefactor(qs) * inner
    theta = theta_phase(t, 0, qs)
    Z = 2.0 * (np.exp(1j * theta) * F).real
    a_total = np.add.reduceat(a, starts)
    bounds = 2.0 * budget.epsilon1 + 2.0 * budget.epsilon2 + budget.epsilon3 * R * a_total
    ops = R * (n_terms + 2) + 8
    counter.add("recovery_ops", int(ops.sum()))
    recovery_s = time.perf_counter() - rec_start
    return BatchResult(
        request=request,
        q=qs,
        Z=Z,
        theta=theta,
        error_bound=bounds,
        recovery_ops=ops,
        budget=budget,
        counts=counter.as_dict(),
        timings={
            "wall_s": time.perf_counter() - t_start,
            "precompute_s": precompute_s,
            "recovery_s": recovery_s,
            "build_s": float(seconds[0].sum()),
            "eval_s": float(seconds[1].sum()),
        },
    )


@dataclass(frozen=True)
class Comparison:
    """A sweep against the oracle: columns aligned with the result's q, the
    summary, and the oracle's timings ({"oracle_s": wall seconds}) and
    counters."""

    refs: np.ndarray  # oracle Z
    devs: np.ndarray  # |Z - oracle Z|
    tolerances: np.ndarray  # error_bound + epsilon/4
    max_dev: float
    mean_dev: float
    timings: dict
    counts: dict


def compare_with_oracle(result: BatchResult, *, threads: int = 1) -> Comparison:
    """Recompute a sweep's window with oracle_sweep and compare.

    A conductor agrees when its deviation stays within its error_bound plus
    the oracle's own epsilon/4.  ConsistencyError when the two sweeps
    disagree on the window's conductors.
    """
    request = result.request
    counter, t0 = OpCounter(), time.perf_counter()
    oracle = oracle_sweep(request.window, request.t, request.epsilon, threads=threads,
                          counter=counter)
    oracle_s = time.perf_counter() - t0
    if not np.array_equal(oracle.q, result.q):
        raise ConsistencyError("oracle sweep and fast sweep disagree on the window")
    devs = np.abs(result.Z - oracle.Z)
    return Comparison(
        refs=oracle.Z,
        devs=devs,
        tolerances=result.error_bound + request.epsilon / 4.0,
        max_dev=float(devs.max(initial=0.0)),
        mean_dev=math.fsum(devs) / devs.size if devs.size else 0.0,
        timings={"oracle_s": oracle_s},
        counts=counter.as_dict(),
    )
