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
per-conductor Python until the output records are built.
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
    _check_epsilon,
    _check_t,
    _thread_map,
    sieve_factor_window,
)
from .counters import OpCounter
from .errors import ConsistencyError, DomainError
from .multieval import _CONVENTIONS, build_node_problem, direct_eval, fast_eval
from .oracle import oracle_sweep
from .special import c_prefactor, g_prefactor, theta_phase
from .taylor import ErrorBudget, build_coefficient_table, plan_budget

_METHODS = ("fast", "direct", "compare")
_T_WARN = 1.0

# counter keys whose sum is the precompute work volume
_PRECOMPUTE_KEYS = (
    "sieve_marks",
    "kernel_evals",
    "fast_eval_ops",
    "direct_eval_ops",
    "node_raw",
)


@dataclass(frozen=True)
class BatchRequest:
    """One window sweep: conductors in [Q, Q+Delta) at a fixed t."""

    window: Window
    t: float
    epsilon: float
    method: str = "fast"

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise DomainError(f"method must be one of {_METHODS}, got {self.method!r}")
        _check_epsilon(self.epsilon)
        _check_t(self.t)


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
    """Records plus the budget, counters and phase timings of one run."""

    records: list
    method: str
    budget: ErrorBudget | None
    counts: dict
    wall_time_s: float
    precompute_s: float
    recovery_s: float
    recovery_ops: dict = field(default_factory=dict)
    compare_refs: list | None = None  # oracle Z per record; None unless compared

    @property
    def n_characters(self) -> int:
        return len(self.records)

    @property
    def compare_devs(self) -> list | None:
        if self.compare_refs is None:
            return None
        return [abs(rec.Z - ref) for rec, ref in zip(self.records, self.compare_refs)]

    @property
    def compare_max_dev(self) -> float | None:
        devs = self.compare_devs
        return None if devs is None else max(devs, default=0.0)

    @property
    def compare_mean_dev(self) -> float | None:
        devs = self.compare_devs
        return None if devs is None else (statistics.fmean(devs) if devs else 0.0)

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

    Small windows (Q below the fast-path threshold) route to the per-q
    oracle and come back labeled method="oracle"; method="compare" on such a
    window raises DomainError, since there is no fast value to check.
    method="compare" runs the fast path and then the oracle over the same
    window, keeping the oracle values as compare_refs.
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
        if request.method == "compare":
            raise DomainError(
                f"not compared: below Q={FAST_PATH_MIN_Q} every value comes from the oracle"
            )
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
        if request.method == "direct":
            values = direct_eval(problem, grid, counter)
        else:
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
    label = "fast" if request.method == "compare" else request.method
    records = [
        EvalRecord(q=q, t=t, Z=z, theta=th, error_bound=bound, method=label)
        for q, z, th, bound in zip(qs.tolist(), Z.tolist(), theta.tolist(), bounds.tolist())
    ]
    recovery_s = time.perf_counter() - rec_start

    compare_refs = None
    if request.method == "compare":
        refs = oracle_sweep(
            win, t, request.epsilon, threads=threads, counter=counter, fc_table=factored
        )
        if [ref.q for ref in refs] != qs.tolist():
            raise ConsistencyError("oracle sweep and fast sweep disagree on the window")
        compare_refs = [ref.Z for ref in refs]

    wall = time.perf_counter() - t_start
    return BatchResult(
        records=records,
        method=request.method,
        budget=budget,
        counts=counter.as_dict(),
        wall_time_s=wall,
        precompute_s=precompute_s,
        recovery_s=recovery_s,
        recovery_ops=dict(zip(qs.tolist(), ops.tolist())),
        compare_refs=compare_refs,
    )
