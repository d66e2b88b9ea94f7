"""Reference oracle: frozen high-precision values, dual forms, independence."""

import ast
import math
import pathlib

import numpy as np
import pytest

import qlbatch.oracle
from qlbatch import (
    BudgetError,
    ConsistencyError,
    DomainError,
    OpCounter,
    Window,
    direct_Z,
    oracle_sweep,
)
from qlbatch.arith import fundamental_conductors
from qlbatch.oracle import _truncation_order, direct_F
from qlbatch.special import _certified_tail

# (q, t, Z) frozen from a 50-digit mpmath evaluation of the smoothed sum,
# entirely outside this package
_Z_REFERENCE = [
    (5, 0.0, 0.23175094750401576),
    (5, 1.0, 0.5525892346188127),
    (13, 0.0, 0.4395929735090052),
    (17, 0.3, 0.8380929373238465),
    (101, 0.0, 0.5442777346413984),
    (105, 0.6, 2.414170386827392),
]


class TestDirectZ:
    @pytest.mark.parametrize("q,t,ref", _Z_REFERENCE)
    def test_frozen_references(self, q, t, ref):
        res = direct_Z(q, t, 1e-9)
        assert res.Z == pytest.approx(ref, abs=1e-11)
        assert res.q == q
        assert res.N_used >= 1

    def test_tail_bound_certifies_truncation(self):
        # doubling N moves Z by less than the reported tail bound
        for q in (5, 13, 17):
            res = direct_Z(q, 0.3, 1e-2)
            assert res.tail_bound > 0.0
            # recompute with twice the terms through the F route
            import cmath

            from qlbatch.special import theta_phase

            F2 = direct_F(q, 0.3, N=2 * res.N_used)
            th = theta_phase(0.3, 0, q)
            Z2 = 2.0 * (cmath.exp(1j * th) * F2).real
            assert abs(Z2 - res.Z) <= res.tail_bound, q

    def test_tail_bound_below_budget(self):
        for q, eps in [(5, 1e-2), (101, 1e-4), (10_001, 1e-8)]:
            res = direct_Z(q, 0.0, eps)
            assert res.tail_bound < eps / 8.0

    def test_rejects_non_fundamental(self):
        for q in (9, 15, 2, -5):
            with pytest.raises(DomainError):
                direct_Z(q, 0.0, 1e-6)

    def test_rejects_big_t_and_bad_epsilon(self):
        with pytest.raises(DomainError):
            direct_Z(5, 11.0, 1e-6)
        with pytest.raises(DomainError):
            direct_Z(5, 0.0, 0.0)

    def test_rejects_non_finite_t(self):
        with pytest.raises(DomainError):
            direct_Z(5, float("nan"), 1e-6)
        with pytest.raises(DomainError):
            direct_F(5, float("nan"), 1e-6)
        with pytest.raises(DomainError):
            oracle_sweep(Window(101, 50), float("nan"), 1e-6)

    def test_rejects_precision_beyond_double(self):
        # log2(101/1e-17) = 63 bits: an error_bound of 2.5e-18 would sit
        # below the ulp of Z = 0.54 and certify nothing
        with pytest.raises(BudgetError, match="45-bit"):
            direct_Z(101, 0.0, 1e-17)
        with pytest.raises(BudgetError, match="45-bit"):
            direct_F(101, 0.0, 1e-17)

    def test_tail_over_budget_is_consistency_error(self, monkeypatch):
        monkeypatch.setattr(qlbatch.oracle, "_certified_tail", lambda q, N, g: 1.0)
        with pytest.raises(ConsistencyError, match="budget"):
            direct_Z(101, 0.0, 1e-6)

    @pytest.mark.parametrize("t", [0.0, 1.0, 7.0, 10.0])
    def test_truncation_order_is_smallest_certified(self, t):
        q = np.concatenate([[5, 13, 101, 105], fundamental_conductors(Window(10_001, 5_000))])
        for eps in (1e-2, 1e-6, 1e-9):
            N, eps1 = _truncation_order(q, eps, t)
            assert np.all(_certified_tail(q, N, t) < eps1)
            assert np.all((N == 1) | (_certified_tail(q, N - 1, t) >= eps1))

    @pytest.mark.parametrize("t", [7.0, 10.0])
    def test_certified_at_large_height(self, t):
        for q in (5, 101, 10_001, 14_997):
            res = direct_Z(q, t, 1e-6)
            N1, eps1 = _truncation_order(q, 1e-6, 1.0)
            assert res.tail_bound < eps1 <= _certified_tail(q, N1, t)  # N1 misses here

    def test_counter_records_term_count(self):
        counter = OpCounter()
        res = direct_Z(101, 0.0, 1e-6, counter=counter)
        assert counter.get("oracle_special_calls") == res.N_used


class TestDirectF:
    def test_dual_forms_agree(self):
        # V-weight route and prefactor-kernel route share only the kernel
        for q, t in [(5, 0.0), (13, 0.7), (145, 0.0), (10_001, 0.3)]:
            fv = direct_F(q, t, N=300, form="v")
            fc = direct_F(q, t, N=300, form="cg")
            assert abs(fv - fc) <= 1e-12 * max(1.0, abs(fv)), (q, t)

    def test_needs_one_of_epsilon_or_n(self):
        with pytest.raises(DomainError):
            direct_F(5, 0.0)

    def test_unknown_form_rejected(self):
        with pytest.raises(DomainError):
            direct_F(5, 0.0, N=10, form="zeta")

    def test_epsilon_chooses_same_n_as_direct_z(self):
        res = direct_Z(101, 0.0, 1e-6)
        c1 = OpCounter()
        direct_F(101, 0.0, 1e-6, counter=c1)
        assert c1.get("oracle_special_calls") == res.N_used


class TestOracleSweep:
    def test_matches_per_q_calls(self):
        window = Window(101, 50)
        sweep = oracle_sweep(window, 0.3, 1e-6)
        assert np.all(np.diff(sweep.q) > 0)
        solo = [direct_Z(q, 0.3, 1e-6) for q in sweep.q.tolist()]
        assert sweep.Z == pytest.approx([r.Z for r in solo], abs=1e-12)
        assert np.array_equal(sweep.N_used, [r.N_used for r in solo])
        assert sweep.tail_bound == pytest.approx([r.tail_bound for r in solo], rel=1e-12)

    def test_covers_exactly_the_fundamentals(self):
        window = Window(61, 30)
        sweep = oracle_sweep(window, 0.0, 1e-4)
        expect = [q for q in range(61, 91, 2)
                  if q % 4 == 1 and all(q % (p * p) for p in range(3, 10, 2))]
        assert np.array_equal(sweep.q, expect)

    def test_empty_window(self):
        # [2, 3) holds no odd fundamental conductor: every column is empty
        sweep = oracle_sweep(Window(2, 1), 0.0, 1e-4)
        for name, dtype in (("q", np.int64), ("Z", np.float64),
                            ("N_used", np.int64), ("tail_bound", np.float64)):
            col = getattr(sweep, name)
            assert col.shape == (0,) and col.dtype == dtype, name

    def test_threads_do_not_change_values(self):
        window = Window(1_001, 400)
        a = oracle_sweep(window, 0.0, 1e-5, threads=1)
        b = oracle_sweep(window, 0.0, 1e-5, threads=3)
        assert np.array_equal(a.q, b.q) and np.array_equal(a.Z, b.Z)

    def test_block_edges_match_per_q_calls(self):
        # more than two blocks of conductors, with N changing inside a block:
        # the first and last conductor of every block and conductors sharing
        # the small primes 3, 5 and 7 with n agree with the naive route
        from qlbatch.oracle import _CHUNK

        sweep = oracle_sweep(Window(2_001, 1_000), 0.3, 1e-6)
        assert sweep.q.size > 2 * _CHUNK
        assert np.unique(sweep.N_used[:_CHUNK]).size > 1
        edges = np.arange(0, sweep.q.size, _CHUNK)
        picks = np.zeros(sweep.q.size, dtype=bool)
        picks[edges] = picks[np.append(edges[1:], sweep.q.size) - 1] = True
        for p in (3, 5, 7):
            picks |= sweep.q % p == 0
        for q, Z, N in zip(sweep.q[picks].tolist(), sweep.Z[picks].tolist(),
                           sweep.N_used[picks].tolist()):
            solo = direct_Z(q, 0.3, 1e-6)
            assert Z == pytest.approx(solo.Z, abs=1e-12), q
            assert N == solo.N_used

    def test_rejects_precision_beyond_double(self):
        # epsilon/8 would underflow to 0 and the truncation order divide by it
        with pytest.raises(BudgetError, match="45-bit"):
            oracle_sweep(Window(5001, 50), 0.0, 5e-324)

    def test_counter_totals_term_counts(self):
        counter = OpCounter()
        sweep = oracle_sweep(Window(101, 50), 0.0, 1e-6, counter=counter)
        assert counter.get("oracle_special_calls") == sweep.N_used.sum()


class TestIndependence:
    def test_oracle_imports_only_shared_layers(self):
        # the reference path must not touch taylor, multieval or pipeline
        src = pathlib.Path(qlbatch.oracle.__file__).read_text()
        tree = ast.parse(src)
        banned = {"taylor", "multieval", "pipeline", "gauss", "cli"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                assert node.module.split(".")[0] not in banned, node.module
            if isinstance(node, ast.Import):
                for alias in node.names:
                    assert alias.name.split(".")[0] not in banned, alias.name
