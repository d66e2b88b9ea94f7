"""Node problems and the two evaluation paths.

The semantic anchor: after build_node_problem, a direct evaluation at an odd
argument b must reproduce sum_m u_m c_r(t, a m) g_b(2m), with the weight
u_m = sqrt(a/m) and g_b computed by the independent Gauss-sum route.
Everything else (merging, folding, the gridded transform and its centring
phase) is interior detail behind that contract.
"""

import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlbatch import AccuracyError, DomainError, OpCounter, Window
from qlbatch import multieval
from qlbatch.arith import divisor_grid
from qlbatch.gauss import gauss_sum_fast
from qlbatch.multieval import (
    _SPREAD_BLOCK,
    EvalGrid,
    NodeSum,
    _gaussian_params,
    build_node_problem,
    direct_eval,
    fast_eval,
)
from qlbatch.taylor import build_coefficient_table, plan_budget

# the two evaluation paths of a node problem, as (problem, grid) -> values
_ROUTES = {
    "transform": lambda p, g: fast_eval(p, g, 1e-10, force="transform"),
    "direct": direct_eval,
}


def _tiny_reference(p: NodeSum, g: EvalGrid) -> np.ndarray:
    """Per-(r, h) fsum over all K frequencies with exact angles."""
    coeffs = p.coeffs
    R, K = coeffs.shape
    out = np.empty((R, g.H), dtype=np.complex128)
    for h in range(g.H):
        shift = g.b0 + g.step * h
        for r in range(R):
            re = []
            im = []
            for k in range(K):
                ang = (int(p.nums[k]) * (shift % int(p.dens[k]))) % int(p.dens[k])
                z = coeffs[r, k] * cmath.exp(2j * math.pi * ang / int(p.dens[k]))
                re.append(z.real)
                im.append(z.imag)
            out[r, h] = complex(math.fsum(re), math.fsum(im))
    return out


class TestNodeSumConstruction:
    def test_merges_duplicates(self):
        p = NodeSum.from_fractions(
            nums=[1, 2, 3, 5], dens=[4, 8, 12, 20], coeffs=[[1.0, 2.0, 4.0, 8.0]]
        )
        # all four reduce to 1/4
        assert p.K == 1
        assert p.nums.tolist() == [1]
        assert p.dens.tolist() == [4]
        assert p.coeffs[0, 0] == 15.0

    def test_folds_into_unit_interval(self):
        p = NodeSum.from_fractions(nums=[9, -1], dens=[4, 4], coeffs=[[1.0, 1.0]])
        assert p.nums.tolist() == [1, 3]
        assert p.dens.tolist() == [4, 4]

    def test_zero_fraction_reduces_to_zero_over_one(self):
        # 0/7 and 4/4 both fold to the zero frequency and merge into one node
        p = NodeSum.from_fractions(nums=[0, 4], dens=[7, 4], coeffs=[[1.0, 1.0]])
        assert p.K == 1
        assert p.nums.tolist() == [0]
        assert p.dens.tolist() == [1]
        assert p.coeffs[0, 0] == 2.0

    def test_rejects_bad_denominator(self):
        with pytest.raises(DomainError):
            NodeSum.from_fractions(nums=[1], dens=[0], coeffs=[[1.0]])
        # past 2^31 the merge key and the exact angles would wrap in int64
        d = 2 ** 33 + 1
        with pytest.raises(DomainError):
            NodeSum.from_fractions(nums=[d - 5, 3], dens=[d, d], coeffs=[[1.0, 1.0]])
        assert NodeSum.from_fractions([1], [2 ** 31 - 1], [[1.0]]).dens.tolist() == [2 ** 31 - 1]
        # no frequency at all has no denominator to merge over
        with pytest.raises(DomainError):
            NodeSum.from_fractions([], [], np.zeros((1, 0)))

    @given(
        st.lists(
            st.tuples(st.integers(-500, 500), st.integers(1, 64)),
            min_size=1,
            max_size=40,
        )
    )
    def test_invariants(self, pairs):
        nums = [a for a, _ in pairs]
        dens = [d for _, d in pairs]
        coeffs = [[float(i + 1) for i in range(len(pairs))]]
        p = NodeSum.from_fractions(nums, dens, coeffs)
        assert 1 <= p.K <= len(pairs)
        assert np.all(p.nums >= 0)
        assert np.all(p.nums < p.dens)
        assert np.all(np.gcd(p.nums, p.dens) == np.where(p.nums == 0, p.dens, 1))
        assert np.all(np.diff(p.nums / p.dens) > 0)  # strictly sorted, distinct
        assert math.fsum(p.coeffs[0].real) == pytest.approx(
            math.fsum(c for row in coeffs for c in row), rel=1e-12
        )


class TestBuildNodeProblem:
    def test_trivial_divisor_top_node(self, small_table):
        # a = N = 400 keeps only m = 1: nodes 0 and 1/4, each with weight 2;
        # 1/4 folds onto 0 at the factor i^a = 1, on the grid b = 0 (mod 4)
        window = Window(10_000, 5_000)
        assert small_table.N == 400
        p, g = build_node_problem(small_table.N, small_table, window)
        assert p.K == 1
        assert p.nums.tolist() == [0]
        assert p.dens.tolist() == [1]
        assert (g.b0, g.H, g.step) == (28, 3, 4)
        # coefficient (2 + 2 i^a) sqrt(a/1) c_r(t, N) with a = N
        ratio = p.coeffs[:, 0] / small_table.c[:, small_table.N - 1]
        assert np.allclose(ratio, 4.0 * math.sqrt(small_table.N), rtol=1e-12)

    def test_oversized_divisor_returns_none(self, small_table):
        assert build_node_problem(small_table.N + 1, small_table, Window(10_000, 5_000)) is None

    def test_grid_consistency(self, small_table):
        window = Window(10_000, 5_000)
        divisors = np.array([1, 3, 7, 99])
        b0s, Hs = divisor_grid(window, divisors)
        for a, b0, H in zip(divisors.tolist(), b0s.tolist(), Hs.tolist()):
            p, g = build_node_problem(a, small_table, window)
            assert g.step == 4
            # b0 is the first b >= Q/a with b = a (mod 4)
            assert g.b0 == b0 and (b0 - a) % g.step == 0
            assert b0 * a >= window.Q > (b0 - g.step) * a
            last = (window.Q + window.Delta - 1) // a
            assert g.H == H == (last - g.b0) // g.step + 1

    def test_raw_node_counter(self, small_table):
        counter = OpCounter()
        a = 7
        M = small_table.N // a
        build_node_problem(a, small_table, Window(10_000, 5_000), counter=counter)
        assert counter.get("node_raw") == 2 * M * (M + 1)
        assert 0 < counter.get("node_merged") <= 2 * M * (M + 1)

    def test_merging_reduces_count(self, small_table):
        counter = OpCounter()
        build_node_problem(1, small_table, Window(10_000, 5_000), counter=counter)
        assert counter.get("node_merged") < 0.25 * counter.get("node_raw")

    def test_rejects_bad_inputs(self, small_table):
        with pytest.raises(DomainError):
            build_node_problem(0, small_table, Window(10_000, 5_000))
        with pytest.raises(DomainError):
            build_node_problem(1, small_table, Window(10_000, 5_000), convention="bogus")

    def test_equals_from_fractions_over_raw_fractions(self, small_table):
        # the builder's merge against the general one, fed every raw
        # (l^2, 4m) entry folded into [0, 1/4) with its weight,
        # u_m = sqrt(a/m), c_r(t, a m) and the factor i^(j a) of its
        # quarter j: the builder's stacked table [B; iB] with a real sign
        window = Window(10_000, 5_000)
        for a in (1, 4, 13):
            p, g = build_node_problem(a, small_table, window)
            M = small_table.N // a
            m = np.repeat(np.arange(1, M + 1), np.arange(2, M + 2))
            ell = np.concatenate([np.arange(k + 1) for k in range(1, M + 1)])
            den = 4 * m
            quarter, num = np.divmod((ell * ell) % den, m)
            factor = 1j ** ((quarter * a) % 4)
            weight = np.where((ell == 0) | (ell == m), 2.0, 4.0) * np.sqrt(a / m) * factor
            raw = small_table.c[:, a * m - 1] * weight
            ref = NodeSum.from_fractions(num, den, raw)
            assert np.array_equal(p.nums, ref.nums)
            assert np.array_equal(p.dens, ref.dens)
            assert np.max(np.abs(p.coeffs - ref.coeffs)) <= 1e-13 * p.scale
            assert p.scale == pytest.approx(ref.scale, rel=1e-13)

    @pytest.mark.parametrize("a", [1, 3, 5, 7, 13])
    def test_fold_matches_unfolded_raw_entries_at_odd_arguments(self, small_table, a):
        # every folded alpha lies in [0, 1/4), ascending, and the fold is
        # exact at b = a (mod 4): the folded problem and the raw unfolded
        # (l^2, 4m) entries give the same sums on the grid; a = 1 and 3
        # (mod 4) cover both sign patterns i^(j a)
        window = Window(10_000, 5_000)
        p, g = build_node_problem(a, small_table, window)
        assert g.step == 4 and (g.b0 - a) % 4 == 0
        assert np.all(p.nums >= 0) and np.all(4 * p.nums < p.dens)
        assert np.all(np.diff(p.nums / p.dens) > 0)
        M = small_table.N // a
        m = np.repeat(np.arange(1, M + 1), np.arange(2, M + 2))
        ell = np.concatenate([np.arange(k + 1) for k in range(1, M + 1)])
        weight = np.where((ell == 0) | (ell == m), 2.0, 4.0) * np.sqrt(a / m)
        unfolded = NodeSum.from_fractions(ell * ell, 4 * m, small_table.c[:, a * m - 1] * weight)
        assert np.any(4 * unfolded.nums >= unfolded.dens)
        got = direct_eval(p, g)
        ref = direct_eval(unfolded, g)
        assert np.max(np.abs(got - ref)) <= 1e-13 * unfolded.scale


class TestNodeSemantics:
    def test_matches_gauss_sum_route(self):
        # dual route: the node values at b must equal
        # sqrt(a) S_r(a, b) = sum_m c_r(t, a m) sqrt(a/m) g_b(2m)
        t, Q, N, R = 0.3, 1_000, 36, 4
        table = build_coefficient_table(t, Q, N, R)
        window = Window(Q, 220)
        for a in (1, 3, 5):
            p, g = build_node_problem(a, table, window)
            values = direct_eval(p, g)
            M = N // a
            for h in range(g.H):
                b = g.b0 + g.step * h
                for r in range(R):
                    terms = [
                        table.c[r, a * m - 1] * math.sqrt(a / m) * gauss_sum_fast(b, m)
                        for m in range(1, M + 1)
                    ]
                    ref = complex(
                        math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms)
                    )
                    got = values[r, h]
                    assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (a, b, r)

    def test_plain_a_convention_drops_weights(self):
        # plain_a replaces u_m = sqrt(a/m) by the flat weight a
        t, Q, N, R = 0.0, 1_000, 24, 2
        table = build_coefficient_table(t, Q, N, R)
        window = Window(Q, 100)
        p, g = build_node_problem(3, table, window, convention="plain_a")
        values = direct_eval(p, g)
        M = N // 3
        h = 1
        b = g.b0 + g.step * h
        terms = [3 * table.c[0, 3 * m - 1] * gauss_sum_fast(b, m) for m in range(1, M + 1)]
        ref = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
        assert abs(values[0, h] - ref) <= 1e-10 * max(1.0, abs(ref))


class TestDirectEval:
    def test_against_tiny_fsum_reference(self, rng):
        K = 60
        dens = rng.integers(1, 50, size=K)
        nums = rng.integers(0, 1000, size=K) % dens
        coeffs = rng.standard_normal((3, K)) + 1j * rng.standard_normal((3, K))
        p = NodeSum.from_fractions(nums, dens, coeffs)
        g = EvalGrid(b0=0, H=25)
        got = direct_eval(p, g)
        ref = _tiny_reference(p, g)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_counter_volume(self):
        p = NodeSum.from_fractions([1, 2], [3, 5], [[1.0, 2.0], [0.5, 0.5j]])
        g = EvalGrid(b0=10, H=7)
        counter = OpCounter()
        direct_eval(p, g, counter)
        assert counter.get("direct_eval_ops") == p.K * g.H * 2

    def test_step_grid_against_tiny_fsum_reference(self, rng):
        p = _random_problem(rng, K=50)
        g = EvalGrid(b0=101, H=17, step=3)
        ref = _tiny_reference(p, g)
        assert np.max(np.abs(direct_eval(p, g) - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_integer_frequencies_are_constant(self):
        # alpha = 0 contributes its coefficient at every argument
        p = NodeSum.from_fractions([0], [1], [[3.5 - 1.5j]])
        g = EvalGrid(b0=123, H=9)
        vals = direct_eval(p, g)
        assert np.allclose(vals, 3.5 - 1.5j, rtol=0, atol=1e-15)


def _random_problem(rng, K, R=3, dmax=1024):
    dens = rng.integers(1, dmax, size=K)
    nums = rng.integers(0, 1 << 30, size=K) % dens
    coeffs = rng.standard_normal((R, K)) + 1j * rng.standard_normal((R, K))
    return NodeSum.from_fractions(nums, dens, coeffs)


class TestGaussianParams:
    """The width and variance rule: each error term at most e^-A."""

    def test_error_terms_within_target(self):
        grid = itertools.product(
            [1, 50, 3_000, 783_413, 10 ** 7],
            [1, 16, 17, 300, 511, 512, 513, 100_000],
            [1e-6, 1e-9, 1e-11, 8.69e-15, 2.0 ** -48],
        )
        for K, H, eps3 in grid:
            w, tau, n = _gaussian_params(K, H, eps3)
            A = math.log(1.0 / eps3) + math.log(K + 1.0) + 6.0
            xi_m = max(H // 2, H - 1 - H // 2) / n
            case = (K, H, eps3, w, tau, n)
            assert n & (n - 1) == 0, case
            assert n >= max(2 * H, 4 * w + 4, 32), case
            assert xi_m <= 0.25, case
            # log of the aliasing term, and of the truncated tail after the
            # deconvolution gain
            aliasing = -4.0 * math.pi ** 2 * tau * (1.0 - 2.0 * xi_m)
            assert aliasing <= -A * (1.0 - 1e-12), case
            tail = -(w * w) / (4.0 * tau) + 4.0 * math.pi ** 2 * tau * xi_m ** 2
            assert tail <= -A, case

    def test_wide_window_trivial_divisor(self):
        # the a = 1 problem of [2*10^5, 3*10^5) at eps=1e-6: 45 taps, was 67
        w, tau, n = _gaussian_params(783_413, 100_000, 8.69e-15)
        assert 2 * w + 1 <= 45
        assert n == 1 << 18


class TestFastEval:
    def test_transform_matches_direct(self, rng):
        p = _random_problem(rng, K=900)
        g = EvalGrid(b0=5_000, H=450)
        eps3 = 1e-9
        ref = direct_eval(p, g)
        got = fast_eval(p, g, eps3, force="transform")
        assert np.max(np.abs(got - ref)) <= eps3 * p.scale

    def test_transform_tight_eps3(self, rng):
        # 1e-11 is the tightest target where FFT roundoff (amplified by the
        # deconvolution, about e^(A/8)) stays well under eps3 for random data
        p = _random_problem(rng, K=700)
        g = EvalGrid(b0=997, H=256)
        eps3 = 1e-11
        ref = direct_eval(p, g)
        got = fast_eval(p, g, eps3, force="transform")
        assert np.max(np.abs(got - ref)) <= eps3 * p.scale

    def test_small_problem_takes_direct_path(self, rng):
        p = _random_problem(rng, K=40)
        g = EvalGrid(b0=100, H=20)
        counter = OpCounter()
        got = fast_eval(p, g, 1e-9, counter=counter)
        assert counter.get("fast_eval_setup_calls") == 0
        assert counter.get("fast_eval_ops") == p.K * g.H * 3
        assert np.max(np.abs(got - direct_eval(p, g))) <= 1e-12 * p.scale

    def test_forced_transform_counts_setup_once(self, rng):
        p = _random_problem(rng, K=300)
        g = EvalGrid(b0=100, H=64)
        counter = OpCounter()
        fast_eval(p, g, 1e-9, counter=counter, force="transform")
        assert counter.get("fast_eval_setup_calls") == 1
        assert counter.get("fast_eval_ops") > 0

    def test_linearity_in_coefficients(self, rng):
        p = _random_problem(rng, K=500, R=2)
        g = EvalGrid(b0=3_000, H=300)
        scaled = NodeSum(nums=p.nums, dens=p.dens, merge=p.merge, B=2.5 * p.B)
        a = fast_eval(p, g, 1e-10, force="transform")
        b = fast_eval(scaled, g, 1e-10, force="transform")
        assert np.max(np.abs(b - 2.5 * a)) <= 1e-9 * p.scale

    def test_translation_consistency(self, rng):
        # the same node problem built for an overlapping window must
        # reproduce the values at the arguments both grids share
        t, Q, N, R = 0.0, 1_000, 30, 3
        table = build_coefficient_table(t, Q, N, R)
        p1, g1 = build_node_problem(1, table, Window(Q, 200))
        p2, g2 = build_node_problem(1, table, Window(Q + 100, 100))
        v1 = fast_eval(p1, g1, 1e-10, force="transform")
        v2 = fast_eval(p2, g2, 1e-10, force="transform")
        lo, off = divmod(g2.b0 - g1.b0, g1.step)
        assert off == 0
        overlap = min(g1.H - lo, g2.H)
        assert overlap > 10
        assert np.max(np.abs(v1[:, lo : lo + overlap] - v2[:, :overlap])) <= 2e-10 * p1.scale

    def test_eps3_floor_enforced(self, rng):
        p = _random_problem(rng, K=10)
        g = EvalGrid(b0=1, H=4)
        with pytest.raises(AccuracyError):
            fast_eval(p, g, 2.0 ** -49)

    def test_eps3_must_be_positive(self, rng):
        p = _random_problem(rng, K=10)
        with pytest.raises(DomainError):
            fast_eval(p, EvalGrid(b0=1, H=4), 0.0)
        with pytest.raises(DomainError):
            fast_eval(p, EvalGrid(b0=1, H=4), float("inf"), force="transform")
        # A = ln(1/eps3) + ln(K+1) + 6 turns negative past (K+1) e^6
        for eps3 in (1.0, 1e10):
            with pytest.raises(DomainError):
                fast_eval(p, EvalGrid(b0=1, H=4), eps3, force="transform")

    def test_unknown_force_rejected(self, rng):
        # "direct" is no selector: direct_eval is the direct sum
        p = _random_problem(rng, K=10)
        for force in ("banana", "direct"):
            with pytest.raises(DomainError):
                fast_eval(p, EvalGrid(b0=1, H=4), 1e-9, force=force)

    @pytest.mark.parametrize("eps3", [1e-9, 1e-11])
    @pytest.mark.parametrize(
        "K, H",
        [(3_000, 512), (2_000, 777), (1 << 14, 300)],
        ids=["xi_quarter_edge", "odd_H", "K_2_14"],
    )
    def test_transform_matches_direct_at_edges(self, rng, K, H, eps3):
        # H = 512 puts the outermost target at xi_m = 1/4 of the n = 1024 grid
        p = _random_problem(rng, K=K, R=2)
        g = EvalGrid(b0=int(rng.integers(0, 10_000)), H=H)
        ref = direct_eval(p, g)
        got = fast_eval(p, g, eps3, force="transform")
        assert np.max(np.abs(got - ref)) <= eps3 * p.scale

    @settings(max_examples=12)
    @given(st.integers(0, 2 ** 31))
    def test_transform_error_property(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(50, 400))
        H = int(rng.integers(16, 200))
        p = _random_problem(rng, K=K, R=2, dmax=512)
        g = EvalGrid(b0=int(rng.integers(0, 10_000)), H=H)
        eps3 = 10.0 ** rng.uniform(-12, -6)
        ref = direct_eval(p, g)
        got = fast_eval(p, g, eps3, force="transform")
        assert np.max(np.abs(got - ref)) <= eps3 * p.scale

    def test_built_problem_holds_no_coefficient_block(self, small_table):
        # a built problem is the (K, 2M) merge map and the (2M, R) stacked
        # table rows [B; iB]; the same coefficients stored as K explicit
        # rows evaluate alike
        p, g = build_node_problem(1, small_table, Window(10_000, 64))
        K, M, R = p.K, small_table.N, small_table.R
        assert p.merge.shape == (K, 2 * M) and p.B.shape == (2 * M, R)
        assert np.array_equal(p.B[M:], 1j * p.B[:M])
        held = [v.shape for v in vars(p).values() if hasattr(v, "shape")]
        assert (K, R) not in held and (R, K) not in held
        explicit = NodeSum.from_fractions(p.nums, p.dens, p.coeffs)
        assert explicit.B.shape == (K, R)
        for evaluate in _ROUTES.values():
            a = evaluate(p, g)
            b = evaluate(explicit, g)
            assert np.max(np.abs(a - b)) <= 1e-13 * p.scale


_PRIME = 2 ** 31 - 1


def _distinct_nums(rng, K, lo=1, hi=_PRIME):
    """K distinct numerators in [lo, hi), in random order."""
    return rng.permutation(np.unique(rng.integers(lo, hi, size=2 * K)))[:K]


def _prime_problem(rng, nums, R=2):
    """Distinct fractions nums/_PRIME with random coefficients."""
    K = len(nums)
    coeffs = rng.standard_normal((R, K)) + 1j * rng.standard_normal((R, K))
    p = NodeSum.from_fractions(nums, np.full(K, _PRIME), coeffs)
    assert p.K == K
    return p


class TestSpreadBlocks:
    """The transform spreads the alpha-sorted frequencies block by block."""

    @pytest.mark.parametrize(
        "K",
        [_SPREAD_BLOCK - 1, _SPREAD_BLOCK, _SPREAD_BLOCK + 1, 3 * _SPREAD_BLOCK + 17],
        ids=["below_one", "one", "one_plus_one", "several"],
    )
    def test_transform_matches_direct_across_blocks(self, rng, K):
        p = _prime_problem(rng, _distinct_nums(rng, K))
        g = EvalGrid(b0=int(rng.integers(0, 10_000)), H=64)
        eps3 = 1e-9
        ref = direct_eval(p, g)
        got = fast_eval(p, g, eps3, force="transform")
        assert np.max(np.abs(got - ref)) <= eps3 * p.scale

    def test_tail_rounding_to_cell_n_stays_local(self, rng, monkeypatch):
        # one full block below alpha = 1/2, then a block of 40 above it whose
        # tail alpha = 1 - k/P rounds to fine cell n: unwrapped, that block
        # spans only its own rows, never the whole grid
        nums = np.concatenate([
            _distinct_nums(rng, _SPREAD_BLOCK, hi=_PRIME // 2),
            _distinct_nums(rng, 32, lo=_PRIME // 2 + 1, hi=_PRIME - 1_000),
            _PRIME - np.arange(1, 9),
        ])
        p = _prime_problem(rng, nums)
        g = EvalGrid(b0=4_321, H=64)
        eps3 = 1e-9
        n = _gaussian_params(p.K, g.H, eps3)[2]
        assert round(n * p.nums[-1] / p.dens[-1]) == n
        spans = []
        csc_array = multieval.sparse.csc_array

        def recording(arg, shape):
            spans.append(shape[0])
            return csc_array(arg, shape=shape)

        monkeypatch.setattr(multieval.sparse, "csc_array", recording)
        got = fast_eval(p, g, eps3, force="transform")
        assert len(spans) == 2 and spans[1] < n
        assert np.max(np.abs(got - direct_eval(p, g))) <= eps3 * p.scale

    @pytest.mark.parametrize(
        "lo, K",
        [(_PRIME // 2 + 1, 3_000), (1, _SPREAD_BLOCK + 700)],
        ids=["upper_half", "wrapping_block"],
    )
    def test_step_two_grid_with_upper_half_frequencies(self, rng, lo, K):
        # on a step-2 grid the transform spreads 2 alpha mod 1, which wraps
        # for alpha >= 1/2; a block straddling 1/2 then spans its cells'
        # whole range
        p = _prime_problem(rng, _distinct_nums(rng, K, lo=lo))
        g = EvalGrid(b0=int(rng.integers(0, 10_000)), H=150, step=2)
        got = fast_eval(p, g, 1e-9, force="transform")
        assert np.max(np.abs(got - direct_eval(p, g))) <= 1e-9 * p.scale

    def test_traced_peak_bounded_by_grid_and_block(self):
        # the a = 1 problem of [50001, 75001): K = 96,441, R = 33, n = 2^14,
        # 43 taps, on the 6,250 arguments b = 1 (mod 4).  The build's raw
        # entries peak at 37 MiB traced and the evaluation at 40 MiB: the
        # padded grid takes 9 MB, the problem 4 MB, and one block's
        # workspace the rest; one (K, R) coefficient array would add 51 MB
        # and the K*W spreading matrix 50 MB
        Q, Delta = 50_001, 25_000
        budget = plan_budget(Q, Delta, 1e-6, 0.0)
        table = build_coefficient_table(0.0, Q, budget.N, budget.R)
        tracemalloc.start()
        try:
            p, g = build_node_problem(1, table, Window(Q, Delta))
            fast_eval(p, g, budget.epsilon3, force="transform")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.K > 90_000 and table.R == 33
        assert peak < 64 * 2 ** 20


class TestEvalGrid:
    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            EvalGrid(b0=5, H=0)

    def test_rejects_non_positive_step(self):
        with pytest.raises(DomainError):
            EvalGrid(b0=5, H=3, step=0)

    def test_divisor_grid_without_odd_argument(self):
        # [4, 5) holds only b = 4 at a = 1, not 1 (mod 4): the grid is empty
        assert divisor_grid(Window(4, 1), 1) == (5, 0)

    @pytest.mark.parametrize("route", ["transform", "direct"])
    def test_grid_start_equals_prerotation(self, rng, route):
        # evaluating on b0 .. b0+H-1 equals evaluating the coefficients
        # rotated by exp(2 pi i alpha b0) on 0 .. H-1
        p = _random_problem(rng, K=600, R=2)
        b0 = 987_654_321
        ang = (p.nums * (b0 % p.dens)) % p.dens
        rotated = NodeSum.from_fractions(
            p.nums, p.dens, p.coeffs * np.exp(2j * math.pi * ang / p.dens)
        )
        at_b0, at_0 = EvalGrid(b0=b0, H=40), EvalGrid(b0=0, H=40)
        got = _ROUTES[route](p, at_b0)
        ref = _ROUTES[route](rotated, at_0)
        assert np.max(np.abs(got - ref)) <= 1e-13 * p.scale
