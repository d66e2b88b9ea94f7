"""Reference oracle: frozen high-precision values, dual forms, independence."""

import ast
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from qlbatch.oracle import _segment_sums, _truncation_order, direct_F
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


def _fsum_segments(x, counts):
    """The sweep's sum before Sum2, kept as the reference: math.fsum, which
    is correctly rounded, over each run of terms, real and imaginary parts
    apart."""
    return np.array([complex(math.fsum(p.real.tolist()), math.fsum(p.imag.tolist()))
                     for p in np.split(np.asarray(x), np.cumsum(counts)[:-1])])


_numpy_cumsum = np.cumsum


def _blocked_cumsum(x, axis=None, dtype=None, out=None):
    """A cumsum as a parallel scan forms it: the second half restarts from 0
    and is shifted by the first half's total.  The same sum, but not the
    sequential rounding."""
    x = np.asarray(x)
    if x.dtype.kind not in "fc" or x.size < 2:
        return _numpy_cumsum(x, axis=axis, dtype=dtype, out=out)
    half = x.size // 2
    first = _numpy_cumsum(x[:half])
    blocked = np.concatenate((first, _numpy_cumsum(x[half:]) + first[-1]))
    if out is None:
        return blocked
    out[...] = blocked
    return out


# runs whose terms cancel badly: x next to -x, 1e16 + 1 - 1e16, mixed signs
_finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
_segment = st.one_of(
    st.just([]),
    st.lists(_finite, min_size=1, max_size=1),
    st.lists(_finite, max_size=12),
    st.lists(_finite, min_size=1, max_size=6).flatmap(
        lambda xs: st.permutations(xs + [-x for x in xs])),
    st.tuples(st.floats(1e15, 1e300), st.floats(-4.0, 4.0)).map(
        lambda bs: [bs[0], bs[1], -bs[0]]),
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), max_size=12).map(
        lambda xs: [v * 10.0 ** (8 * (i % 3)) * (-1) ** i for i, v in enumerate(xs)]),
)


class TestSegmentSums:
    @given(st.lists(_segment, max_size=10))
    def test_within_sum2_bound_of_exact_sum(self, segments):
        x = np.array([v for seg in segments for v in seg], dtype=np.float64)
        counts = np.array([len(seg) for seg in segments], dtype=np.int64)
        F = _segment_sums(x, counts)
        assert F.shape == counts.shape and F.dtype == np.float64
        u = Fraction(1, 2 ** 53)
        p = np.cumsum(x)
        P = np.concatenate(([0.0], p))
        ends = np.cumsum(counts)
        for k, seg in enumerate(segments):
            m = len(seg)
            if m == 0:
                assert F[k] == 0.0
                continue
            exact = sum(map(Fraction, seg))
            # the m+1 values the run rounds to: its partial sums and D
            rounded = [*p[ends[k] - m : ends[k]].tolist(), P[ends[k]] - P[ends[k] - m]]
            gamma = (m + 1) * u / (1 - (m + 1) * u)
            bound = u * abs(Fraction(F[k])) + gamma * u * sum(abs(Fraction(v)) for v in rounded)
            assert abs(Fraction(F[k]) - exact) <= bound, (k, seg)

    def test_cancellations_sum_exactly(self):
        x = np.array([1e16, 1.0, -1e16, 3.0, -3.0, 0.1, 2.5, 0.5, -2.5])
        assert _segment_sums(x, [3, 0, 2, 1, 3, 0]).tolist() == [1.0, 0.0, 0.0, 0.1, 0.5, 0.0]

    def test_complex_parts_sum_apart(self, rng):
        x = rng.standard_normal(500) * 10.0 ** rng.integers(-8, 8, 500)
        y = rng.standard_normal(500) * 10.0 ** rng.integers(-8, 8, 500)
        counts = np.array([0, 1, 120, 0, 79, 300])
        F = _segment_sums(x + 1j * y, counts)
        assert np.array_equal(F.real, _segment_sums(x, counts))
        assert np.array_equal(F.imag, _segment_sums(y, counts))
        assert np.array_equal(F, _fsum_segments(x + 1j * y, counts))

    def test_empty_input(self):
        assert _segment_sums(np.empty(0), np.empty(0, dtype=np.int64)).shape == (0,)
        assert _segment_sums(np.empty(0), [0, 0]).tolist() == [0.0, 0.0]

    def test_non_sequential_cumsum_refused(self, monkeypatch, rng):
        monkeypatch.setattr(np, "cumsum", _blocked_cumsum)
        with pytest.raises(ConsistencyError, match="sequential"):
            _segment_sums(rng.standard_normal(1_000), [400, 600])


class TestSweepSum:
    """oracle_sweep's Sum2 against the fsum it replaced."""

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 10.0])
    def test_bit_identical_to_fsum_sweep(self, t, monkeypatch):
        window = Window(10_033, 5_000)
        sweep = oracle_sweep(window, t, 1e-6)
        monkeypatch.setattr(qlbatch.oracle, "_segment_sums", _fsum_segments)
        ref = oracle_sweep(window, t, 1e-6)
        assert sweep.q.size > 1_000
        assert np.array_equal(sweep.Z, ref.Z)

    def test_threads_bit_identical(self):
        window = Window(10_033, 5_000)
        one = oracle_sweep(window, 0.3, 1e-6, threads=1)
        two = oracle_sweep(window, 0.3, 1e-6, threads=2)
        assert np.array_equal(one.Z, two.Z) and np.array_equal(one.q, two.q)

    def test_non_sequential_cumsum_refused(self, monkeypatch):
        monkeypatch.setattr(np, "cumsum", _blocked_cumsum)
        with pytest.raises(ConsistencyError, match="sequential"):
            oracle_sweep(Window(10_001, 512), 0.3, 1e-6)


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
