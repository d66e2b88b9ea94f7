"""Window-sweep orchestration: plan, precompute, recover Z per conductor.

One batch run covers every fundamental odd conductor q in [Q, Q+Delta).  The
precompute phase builds the shared Taylor coefficient table, then evaluates
one node problem per realized divisor a on the rescaled grid b = q/a, whose
values already carry the assembly weight sqrt(a); the recovery phase
assembles, for each q, the divisor combination

    F = C(t, q) g(q) sum_r x^r sum_(a|q) mu-sign(a) sqrt(a) S_r(a, q/a),

with x = (Q - q)/q, and finally Z = 2 Re[e^{i theta} F].  The factored
window and its divisor terms are flat arrays, and each divisor scatters its
values at b = q/a into the columns of its own terms, so recovery is one
segmented sum per conductor, one product with the powers of x and one array
expression for the prefactors: O(d(q) R) work per conductor and no
per-conductor Python until the output records are built.  run_batch only
computes; checking a sweep against the oracle is compare_with_oracle.
"""

from __future__ import annotations

import statistics
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .arith import (
    FAST_PATH_MIN_Q,
    Window,
    _check_precision,
    _check_t,
    _thread_map,
    sieve_factor_window,
)
from .counters import OpCounter
from .errors import ConsistencyError, DomainError
from .multieval import _CONVENTIONS, build_node_problem, fast_eval
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

    Validated here, before either route runs: DomainError for t or epsilon
    out of range, BudgetError past the log2(Q/epsilon) <= 45 budget.
    """

    window: Window
    t: float
    epsilon: float

    def __post_init__(self) -> None:
        _check_t(self.t)
        _check_precision(self.window.Q, self.epsilon)


@dataclass(frozen=True)
class EvalRecord:
    """One output row of a batch run."""

    q: int
    t: float
    Z: float
    theta: float
    error_bound: float
    method: str


@dataclass(eq=False)
class BatchResult:
    """The request answered, its records, the route taken ("fast" or
    "oracle"), and the budget, counters and phase timings of the run."""

    request: BatchRequest
    records: list
    method: str
    budget: ErrorBudget | None
    counts: dict
    wall_time_s: float
    precompute_s: float
    recovery_s: float
    recovery_ops: dict = field(default_factory=dict)

    @property
    def n_characters(self) -> int:
        return len(self.records)

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

    Windows with Q at or above the fast-path threshold take the amortized
    fast path and come back labeled method="fast"; smaller ones route to the
    per-q oracle and come back labeled method="oracle".  Checking a fast
    sweep against the oracle is the separate compare_with_oracle step.
    """
    if convention not in _CONVENTIONS:
        raise DomainError(f"unknown assembly convention {convention!r}")
    if counter is None:
        counter = OpCounter()
    t_start = time.perf_counter()
    win, t = request.window, request.t
    if abs(t) > _T_WARN:
        warnings.warn(
            f"|t|={abs(t):g} > 1: the archimedean phase loses accuracy "
            "away from the central point",
            stacklevel=2,
        )

    if win.Q < FAST_PATH_MIN_Q:
        refs = oracle_sweep(win, t, request.epsilon, threads=threads, counter=counter)
        records = [
            EvalRecord(
                q=r.q,
                t=r.t,
                Z=r.Z,
                theta=theta_phase(t, 0, r.q),
                error_bound=request.epsilon / 4.0,
                method="oracle",
            )
            for r in refs
        ]
        wall = time.perf_counter() - t_start
        return BatchResult(
            request=request,
            records=records,
            method="oracle",
            budget=None,
            counts=counter.as_dict(),
            wall_time_s=wall,
            precompute_s=wall,
            recovery_s=0.0,
        )

    budget = plan_budget(win.Q, win.Delta, request.epsilon, t)
    factored = sieve_factor_window(win, counter)
    table = build_coefficient_table(t, win.Q, budget.N, budget.R, counter)
    fundamental = factored.select(factored.fundamental)
    qs = fundamental.q
    owner, a, sign = fundamental.divisor_terms(budget.N)
    # a | q keeps every cofactor b = q/a inside its divisor's grid, and q odd
    # then makes every b odd; the quarter-length Gauss identity behind the
    # S-values needs that
    b, rem = np.divmod(qs[owner], a)
    if rem.any():
        k = int(np.argmax(rem != 0))
        raise ConsistencyError(f"divisor a={a[k]} does not divide q={qs[owner[k]]}")

    # precompute: each realized divisor evaluates its node problem on its
    # grid and scatters sqrt(a) S_r(a, q/a) into the columns of its own
    # divisor terms, so the thread count cannot change the bits; an empty
    # window still prices a = 1
    divisors = np.union1d(a, [1])
    d = np.searchsorted(divisors, a)
    by_divisor = np.argsort(d, kind="stable")
    edges = np.searchsorted(d, np.arange(divisors.size + 1), sorter=by_divisor)
    terms = np.empty((budget.R, a.size), dtype=np.complex128)

    def run_one(i: int) -> None:
        built = build_node_problem(
            int(divisors[i]), table, win, convention=convention, counter=counter
        )
        if built is None:
            raise ConsistencyError(f"divisor a={divisors[i]} has no node problem")
        problem, grid = built
        values = fast_eval(problem, grid, budget.epsilon3, counter)
        cols = by_divisor[edges[i] : edges[i + 1]]
        terms[:, cols] = values[:, b[cols] - grid.b0]

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
    records = [
        EvalRecord(q=q, t=t, Z=z, theta=th, error_bound=bound, method="fast")
        for q, z, th, bound in zip(qs.tolist(), Z.tolist(), theta.tolist(), bounds.tolist())
    ]
    recovery_s = time.perf_counter() - rec_start
    return BatchResult(
        request=request,
        records=records,
        method="fast",
        budget=budget,
        counts=counter.as_dict(),
        wall_time_s=time.perf_counter() - t_start,
        precompute_s=precompute_s,
        recovery_s=recovery_s,
        recovery_ops=dict(zip(qs.tolist(), ops.tolist())),
    )


@dataclass(frozen=True)
class Comparison:
    """A fast sweep against the oracle: per-record lists and the summary."""

    refs: list  # oracle Z
    devs: list  # |Z - oracle Z|
    tolerances: list  # error_bound + epsilon/4
    max_dev: float
    mean_dev: float


def compare_with_oracle(result: BatchResult, *, threads: int = 1) -> Comparison:
    """Recompute a fast sweep's window with oracle_sweep and compare.

    A record agrees when its deviation stays within its error_bound plus the
    oracle's own epsilon/4.  DomainError for an oracle-routed result, whose
    values would be checked against themselves; ConsistencyError when the
    two sweeps disagree on the window's conductors.
    """
    request = result.request
    if result.method == "oracle":
        raise DomainError(
            f"not compared: below Q={FAST_PATH_MIN_Q} every value comes from the oracle"
        )
    refs = oracle_sweep(request.window, request.t, request.epsilon, threads=threads)
    if [ref.q for ref in refs] != [rec.q for rec in result.records]:
        raise ConsistencyError("oracle sweep and fast sweep disagree on the window")
    devs = [abs(rec.Z - ref.Z) for rec, ref in zip(result.records, refs)]
    return Comparison(
        refs=[ref.Z for ref in refs],
        devs=devs,
        tolerances=[rec.error_bound + request.epsilon / 4.0 for rec in result.records],
        max_dev=max(devs, default=0.0),
        mean_dev=statistics.fmean(devs) if devs else 0.0,
    )
