"""Batch pipeline: shared-table assembly, bounds, the compare step."""

import ast
import dataclasses
import glob
import os
import subprocess
import sys

import numpy as np
import pytest

from qlbatch import (
    BatchRequest,
    BudgetError,
    ConsistencyError,
    DomainError,
    OpCounter,
    Window,
    compare_with_oracle,
    oracle_sweep,
    run_batch,
)
from qlbatch import pipeline
from qlbatch.arith import divisor_grid, divisor_terms, fundamental_conductors
from qlbatch.multieval import build_node_problem, fast_eval
from qlbatch.special import c_prefactor, g_prefactor, theta_phase
from qlbatch.taylor import build_coefficient_table, plan_budget

_WIN = Window(10_000, 32)
_EPS = 1e-6


def _conductor_terms(q, N):
    """(owner, a, sign) of conductor q alone, from its one-conductor window."""
    win = Window(q, 1)
    return divisor_terms(win, fundamental_conductors(win), N)


def _source_trees():
    """(file name, parsed module) for every src/qlbatch/*.py."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "qlbatch")
    paths = sorted(glob.glob(os.path.join(src, "*.py")))
    assert paths
    trees = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            trees.append((os.path.basename(path), ast.parse(fh.read(), filename=path)))
    return trees


@pytest.fixture(scope="module")
def cmp_run():
    counter = OpCounter()
    result = run_batch(BatchRequest(_WIN, 0.3, _EPS), counter=counter)
    return result, counter


@pytest.fixture(scope="module")
def comparison(cmp_run):
    return compare_with_oracle(cmp_run[0])


class TestBatchRequest:
    def test_fields_are_window_t_epsilon(self):
        names = [f.name for f in dataclasses.fields(BatchRequest)]
        assert names == ["window", "t", "epsilon"]

    @pytest.mark.parametrize("win,eps", [(Window(101, 50), 1e-17), (Window(5001, 50), 5e-324),
                                         (_WIN, 1e-10)])
    def test_rejects_precision_breach(self, win, eps):
        # log2(Q/epsilon) > 45 at every Q: 63 bits, an infinite quotient,
        # and 46.5 bits
        with pytest.raises(BudgetError, match="45-bit"):
            BatchRequest(win, 0.0, eps)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -1e-3, 2.0])
    def test_rejects_bad_epsilon(self, eps):
        with pytest.raises(DomainError):
            BatchRequest(_WIN, 0.0, eps)

    def test_rejects_large_t(self):
        with pytest.raises(DomainError):
            BatchRequest(_WIN, 10.5, 1e-6)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_t(self, t):
        with pytest.raises(DomainError):
            BatchRequest(_WIN, t, 1e-6)

    def test_frozen(self):
        req = BatchRequest(_WIN, 0.0, 1e-6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            req.t = 1.0

    @pytest.mark.parametrize("win", [Window(101, 50), _WIN])
    @pytest.mark.parametrize("t,eps", [("0.3", 1e-5), (True, 1e-5), (np.float32(0.3), 1e-5),
                                       (0.0, "1e-5"), (0.0, np.float32(1e-5))])
    def test_stores_validated_floats(self, win, t, eps):
        result = run_batch(BatchRequest(win, t, eps), threads=1)
        assert type(result.request.t) is float and result.request.t == float(t)
        assert type(result.request.epsilon) is float and result.request.epsilon == float(eps)
        assert result.n_characters > 0


class TestDivisorTermArrays:
    def test_empty_window_keeps_trivial_divisor(self):
        owner, a, sign = divisor_terms(Window(2, 1), fundamental_conductors(Window(2, 1)), 400)
        assert owner.size == a.size == sign.size == 0
        assert np.union1d(a, [1]).tolist() == [1]

    def test_flat_arrays_match_per_conductor_terms(self):
        qs = fundamental_conductors(_WIN)
        N = 400
        owner, a, sign = divisor_terms(_WIN, qs, N)
        expect = [
            (i, a_, s_)
            for i, q in enumerate(qs.tolist())
            for _, a_, s_ in zip(*(col.tolist() for col in _conductor_terms(q, N)))
        ]
        assert list(zip(owner.tolist(), a.tolist(), sign.tolist())) == expect
        divisors = np.union1d(a, [1])
        assert divisors[0] == 1
        assert all(d <= N for d in divisors)
        assert set(divisors.tolist()) == {1} | {t[1] for t in expect}


class TestColumns:
    # a small window, the compare window, a window without fundamentals and
    # one whose a = 1 grid holds no odd b
    @pytest.mark.parametrize("win", [Window(101, 50), _WIN, Window(10_003, 1), Window(4, 1)])
    def test_columns_align_with_q(self, win):
        counter = OpCounter()
        result = run_batch(BatchRequest(win, 0.3, 1e-5), counter=counter)
        assert result.q.dtype == result.recovery_ops.dtype == np.int64
        for col in (result.Z, result.theta, result.error_bound):
            assert col.dtype == np.float64
        sizes = {c.size for c in (result.Z, result.theta, result.error_bound, result.recovery_ops)}
        assert sizes == {result.q.size} == {result.n_characters}
        assert np.all(np.diff(result.q) > 0)
        assert counter.get("recovery_ops") == result.recovery_ops.sum()
        if result.n_characters:
            assert np.all(result.recovery_ops > 0)


class TestSmallWindows:
    # the amortized path serves every window; the worst |Z - oracle| /
    # error_bound over this grid was 1.4e-2, at Q=9999, Delta=1249,
    # eps=1e-2, t=5
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("Q", [5, 21, 101, 1001, 5001, 9999])
    def test_every_record_within_its_own_bound(self, Q):
        for Delta in sorted({max(1, Q // 8), Q // 2}):
            for eps in (1e-2, 1e-6):
                for t in (0.0, 5.0):
                    result = run_batch(BatchRequest(Window(Q, Delta), t, eps))
                    assert result.n_characters > 0
                    devs = compare_with_oracle(result).devs
                    assert np.all(devs <= result.error_bound), (Q, Delta, eps, t)


class TestFastWindow:
    def test_every_deviation_within_bounds(self, cmp_run, comparison):
        result, _ = cmp_run
        assert result.n_characters > 0
        assert np.all(comparison.devs <= result.error_bound + _EPS / 4.0)

    def test_error_bound_formula(self, cmp_run):
        result, _ = cmp_run
        b = result.budget
        for q, bound in zip(result.q.tolist(), result.error_bound.tolist()):
            _, a, _ = _conductor_terms(q, b.N)
            expect = 2 * b.epsilon1 + 2 * b.epsilon2 + b.epsilon3 * b.R * a.sum()
            assert bound == pytest.approx(expect, rel=1e-12)

    def test_array_recovery_matches_per_conductor_loop(self, cmp_run):
        # reference: the per-conductor loop over divisor terms, with each
        # divisor's weighted S-values sqrt(a) S_r(a, b) from its own node
        # problem and fast_eval
        result, _ = cmp_run
        b = result.budget
        table = build_coefficient_table(0.3, _WIN.Q, b.N, b.R)
        svals = {}
        for q, z in zip(result.q.tolist(), result.Z.tolist()):
            acc = np.zeros(b.R, dtype=np.complex128)
            _, a_terms, signs = _conductor_terms(q, b.N)
            for a, sign in zip(a_terms.tolist(), signs.tolist()):
                if a not in svals:
                    p, g = build_node_problem(a, table, _WIN)
                    svals[a] = (g, fast_eval(p, g, b.epsilon3))
                g, values = svals[a]
                acc += sign * values[:, (q // a - g.b0) // g.step]
            x = (b.Q - q) / q
            F = c_prefactor(0.3, q) * g_prefactor(q) * np.dot(acc, x ** np.arange(b.R))
            Z = 2.0 * (np.exp(1j * theta_phase(0.3, 0, q)) * F).real
            assert abs(Z - z) <= 1e-13, q

    def test_recovery_ops_formula(self, cmp_run):
        result, counter = cmp_run
        b = result.budget
        for q, ops in zip(result.q.tolist(), result.recovery_ops.tolist()):
            _, a, _ = _conductor_terms(q, b.N)
            assert ops == b.R * (a.size + 2) + 8
        assert counter.get("recovery_ops") == result.recovery_ops.sum()

    def test_compare_summaries_match_devs(self, cmp_run, comparison):
        result, _ = cmp_run
        assert comparison.max_dev == max(comparison.devs)
        assert comparison.mean_dev == pytest.approx(
            sum(comparison.devs) / len(comparison.devs)
        )
        assert len(comparison.refs) == result.n_characters
        for z, bound, ref, dev, tol in zip(
            result.Z, result.error_bound, comparison.refs, comparison.devs, comparison.tolerances
        ):
            assert dev == abs(z - ref)
            assert tol == bound + _EPS / 4.0

    def test_budget_echoes_planner(self, cmp_run):
        result, _ = cmp_run
        assert result.request == BatchRequest(_WIN, 0.3, _EPS)
        assert result.budget == plan_budget(_WIN.Q, _WIN.Delta, _EPS, 0.3)

    def test_precompute_ops_positive(self, cmp_run):
        result, _ = cmp_run
        assert result.precompute_ops > 0
        assert result.counts.get("kernel_evals", 0) == result.budget.N * result.budget.R
        timings = result.timings
        assert timings["precompute_s"] + timings["recovery_s"] <= timings["wall_s"] * 1.001


class TestMethodAgreement:
    @pytest.mark.parametrize("t", [0.0, 0.3])
    def test_matches_oracle_per_conductor(self, t):
        # measured 1.8e-11 at t=0 and 1.1e-11 at t=0.3, about 750x inside
        # the record tolerance error_bound + eps/4 = 7.5e-7
        fast = run_batch(BatchRequest(_WIN, t, _EPS))
        refs = oracle_sweep(_WIN, t, _EPS)
        assert np.array_equal(fast.q, refs.q)
        assert fast.Z == pytest.approx(refs.Z, rel=0, abs=1e-9)

    def test_thread_count_does_not_change_bits(self):
        one = run_batch(BatchRequest(_WIN, 0.3, _EPS), threads=1)
        four = run_batch(BatchRequest(_WIN, 0.3, _EPS), threads=4)
        assert np.array_equal(one.q, four.q) and np.array_equal(one.Z, four.Z)

    def test_all_cores_matches_one_thread(self):
        one = run_batch(BatchRequest(_WIN, 0.3, _EPS), threads=1)
        every = run_batch(BatchRequest(_WIN, 0.3, _EPS), threads=0)
        assert np.array_equal(one.q, every.q) and np.array_equal(one.Z, every.Z)

    @pytest.mark.parametrize("win", [_WIN, Window(101, 50)])
    def test_negative_threads_rejected(self, win):
        with pytest.raises(DomainError, match="threads"):
            run_batch(BatchRequest(win, 0.0, 1e-5), threads=-1)

    def test_repeat_runs_identical(self):
        a = run_batch(BatchRequest(_WIN, 0.3, _EPS))
        b = run_batch(BatchRequest(_WIN, 0.3, _EPS))
        assert np.array_equal(a.q, b.q) and np.array_equal(a.Z, b.Z)


class TestConvention:
    def test_unweighted_convention_breaks_agreement(self):
        result = run_batch(BatchRequest(_WIN, 0.0, _EPS), convention="plain_a")
        assert compare_with_oracle(result).max_dev > 1e-3

    def test_unknown_convention_rejected(self):
        with pytest.raises(DomainError):
            run_batch(BatchRequest(_WIN, 0.0, _EPS), convention="cube_a")

    # the a = 1 node problem is built on every window, also one without
    # fundamentals, and it refuses the convention
    @pytest.mark.parametrize("win", [Window(101, 50), Window(10_003, 1)])
    def test_bogus_convention_raises_on_every_window(self, win):
        with pytest.raises(DomainError, match="unknown assembly convention"):
            run_batch(BatchRequest(win, 0.0, _EPS), convention="bogus")


def _shifted_builder(shift):
    """build_node_problem with every grid's b0 moved by shift."""
    real = build_node_problem

    def shifted(*args, **kwargs):
        built = real(*args, **kwargs)
        if built is None:
            return None
        problem, grid = built
        return problem, dataclasses.replace(grid, b0=grid.b0 + shift)

    return shifted


def _subprocess_env():
    """The environment with src/ and tests/ on PYTHONPATH."""
    here = os.path.dirname(os.path.abspath(__file__))
    paths = [os.path.join(here, os.pardir, "src"), here, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def _with_extra_term(i, a_extra):
    """pipeline.divisor_terms plus one term: divisor a_extra of conductor i."""
    real = pipeline.divisor_terms

    def patched(window, qs, N):
        owner, a, sign = real(window, qs, N)
        owner, a, sign = np.append(owner, i), np.append(a, a_extra), np.append(sign, -1)
        order = np.lexsort((a, owner))
        return owner[order], a[order], sign[order]

    return patched


class TestRecoveryChecks:
    def test_even_cofactor_rejected(self, monkeypatch):
        # a = 2 does not divide an odd q, and q // 2 is even for q = 1 (mod 4)
        monkeypatch.setattr(pipeline, "divisor_terms", _with_extra_term(0, 2))
        with pytest.raises(ConsistencyError, match="a=2 does not divide"):
            run_batch(BatchRequest(_WIN, 0.0, _EPS))

    def test_non_dividing_odd_term_rejected(self, monkeypatch):
        # conductor 4 of _WIN is 10021; 7 does not divide it, yet 10021 // 7 =
        # 1431 = 7 (mod 4) is divisor 7's one grid argument, so without the
        # a | q check the gather would silently read the value for 10017
        monkeypatch.setattr(pipeline, "divisor_terms", _with_extra_term(4, 7))
        with pytest.raises(ConsistencyError, match="a=7 does not divide q=10021"):
            run_batch(BatchRequest(_WIN, 0.0, _EPS))

    def test_window_without_fundamentals(self):
        # 10003 = 3 (mod 4): nothing to recover, but a = 1 is still priced
        result = run_batch(BatchRequest(Window(10_003, 1), 0.0, _EPS))
        assert result.q.size == result.recovery_ops.size == 0
        cmp = compare_with_oracle(result)
        assert cmp.max_dev == 0.0 and cmp.mean_dev == 0.0
        assert result.counts["node_raw"] > 0

    @pytest.mark.parametrize("shift", [2, 4, -4], ids=["off_step", "below_b0", "past_H"])
    def test_scatter_off_the_grid_rejected(self, monkeypatch, shift):
        # a grid that does not hold every b = q/a of its divisor terms must
        # be refused, not read at a wrapped or truncated column
        monkeypatch.setattr(pipeline, "build_node_problem", _shifted_builder(shift))
        with pytest.raises(ConsistencyError, match="off its grid"):
            run_batch(BatchRequest(_WIN, 0.0, _EPS))

    def test_scatter_check_survives_python_O(self):
        # the child's first line fails unless -O strips asserts
        code = (
            "assert False, 'not running under -O'\n"
            "import qlbatch.pipeline as pipeline, test_pipeline as tp\n"
            "from qlbatch import BatchRequest, ConsistencyError, run_batch\n"
            "pipeline.build_node_problem = tp._shifted_builder(2)\n"
            "try:\n"
            "    run_batch(BatchRequest(tp._WIN, 0.0, tp._EPS))\n"
            "except ConsistencyError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('no ConsistencyError')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=_subprocess_env(), capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_every_cofactor_lies_on_its_divisor_grid(self):
        # every odd fundamental q is 1 (mod 4), so each b = q/a is a (mod 4)
        # and lies on the step-4 grid divisor_grid gives divisor a
        window = Window(200_001, 1_000)
        qs = fundamental_conductors(window)
        owner, a, _ = divisor_terms(window, qs, plan_budget(window.Q, window.Delta, _EPS, 0.0).N)
        q = qs[owner]
        assert a.size > qs.size > 0 and np.all(q % a == 0)
        assert np.all((q // a - a) % 4 == 0)
        b0, H = divisor_grid(window, a)
        h, off = np.divmod(q // a - b0, 4)
        assert np.all(off == 0) and np.all(h >= 0) and np.all(h < H)

    def test_window_routines_run_once_per_batch(self, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        names = ("c_prefactor", "divisor_terms", "fundamental_conductors", "g_prefactor",
                 "theta_phase")
        for name in names:
            monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
        result = run_batch(BatchRequest(_WIN, 0.3, _EPS))
        assert result.n_characters > 1
        assert sorted(calls) == list(names)

    def test_source_has_no_assert_statements(self):
        # invariants must survive python -O, so they are raised, not asserted
        found = [
            f"{name}:{node.lineno}"
            for name, tree in _source_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_source_has_no_unused_imports(self):
        # __init__.py imports are re-exports; __future__ imports switch features
        found = []
        for name, tree in _source_trees():
            if name == "__init__.py":
                continue
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for stmt in tree.body:
                if isinstance(stmt, ast.Import):
                    bound = [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
                elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                    bound = [alias.asname or alias.name for alias in stmt.names]
                else:
                    continue
                found += [f"{name}:{stmt.lineno} {b}" for b in bound if b not in used]
        assert found == []


class TestCompareStep:
    def test_dropped_record_is_a_window_disagreement(self, cmp_run):
        result, _ = cmp_run
        short = dataclasses.replace(result, q=result.q[:-1])
        with pytest.raises(ConsistencyError, match="disagree on the window"):
            compare_with_oracle(short)

    def test_dropped_oracle_conductor_is_a_window_disagreement(self, cmp_run, monkeypatch):
        def drop_first(*args, **kwargs):
            full = oracle_sweep(*args, **kwargs)
            return dataclasses.replace(full, q=full.q[1:], Z=full.Z[1:],
                                       N_used=full.N_used[1:], tail_bound=full.tail_bound[1:])

        monkeypatch.setattr(pipeline, "oracle_sweep", drop_first)
        with pytest.raises(ConsistencyError, match="disagree on the window"):
            compare_with_oracle(cmp_run[0])

    def test_threads_do_not_change_the_comparison(self, cmp_run, comparison):
        again = compare_with_oracle(cmp_run[0], threads=2)
        for f in dataclasses.fields(comparison):
            if f.name == "timings":  # wall seconds, not values
                continue
            assert np.array_equal(getattr(again, f.name), getattr(comparison, f.name)), f.name

    def test_empty_window_compares_to_empty_columns(self):
        # [2, 3) holds no fundamental conductor; the summary reads zero
        result = run_batch(BatchRequest(Window(2, 1), 0.0, _EPS))
        cmp = compare_with_oracle(result)
        for col in (cmp.refs, cmp.devs, cmp.tolerances):
            assert col.shape == (0,) and col.dtype == np.float64
        assert cmp.max_dev == 0.0 and cmp.mean_dev == 0.0
        assert set(cmp.timings) == {"oracle_s"}


class TestMisc:
    def test_large_t_warns(self):
        with pytest.warns(UserWarning, match="archimedean"):
            run_batch(BatchRequest(Window(101, 50), 1.5, 1e-4))
