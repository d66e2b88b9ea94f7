"""Node problems and the two evaluation paths.

The semantic anchor: after build_node_problem, a direct evaluation at an odd
argument b must reproduce sum_m c_r(t, a m) g_b(2m), the table columns read
unweighted and g_b computed by the independent Gauss-sum route.
Everything else (merging, folding, the gridded transform and its centring
phase) is interior detail behind that contract.
"""

import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from qlbatch import AccuracyError, ConsistencyError, DomainError, OpCounter, Window
from qlbatch import multieval
from qlbatch.arith import divisor_grid, divisor_terms, fundamental_conductors
from qlbatch.gauss import gauss_sum_direct, gauss_sum_fast
from qlbatch.multieval import (
    _CLOSED_CHUNK,
    _DIRECT_MAX_PHASES,
    _QUARTER_WEIGHTS,
    _SPREAD_BLOCK,
    EvalGrid,
    NodeSum,
    _gaussian_params,
    _merge_entries,
    _merge_quarters,
    build_node_problem,
    closed_form_cheaper,
    closed_form_terms,
    direct_eval,
    fast_eval,
    gauss_table,
)
from qlbatch.pipeline import assembly_table
from qlbatch.taylor import _MAX_N, build_coefficient_table, plan_budget

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


def _reference_merge(nums, dens, cols, weights, ncols):
    """The merge by np.unique, kept as a reference: reduce and fold every
    fraction, rank the distinct ones by value, sum duplicate (frequency,
    column) entries in a COO to CSR conversion, then drop the entries that
    sum to 0 and the rows they leave empty.  Returns (nums, dens, merge)."""
    nums = np.asarray(nums, dtype=np.int64) % dens
    g = np.gcd(nums, dens)
    nums, dens = nums // g, dens // g
    del g
    stride = int(dens.max()) + 1
    nums *= stride
    nums += dens
    del dens
    uniq, inv = np.unique(nums, return_inverse=True)
    del nums
    nums, dens = uniq // stride, uniq % stride
    order = np.argsort(nums / dens, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    merge = sparse.coo_array((weights, (rank[inv], cols)), shape=(order.size, ncols)).tocsr()
    merge.eliminate_zeros()
    kept = np.flatnonzero(np.diff(merge.indptr))
    return nums[order][kept], dens[order][kept], merge[kept]


def _assert_same_merge(p: NodeSum, ref) -> None:
    """p holds ref's fractions and its merge, entry for entry, bit for bit."""
    nums, dens, merge = ref
    assert np.array_equal(p.nums, nums) and np.array_equal(p.dens, dens)
    merge.sort_indices()
    assert p.merge.has_sorted_indices
    assert p.merge.shape == merge.shape
    assert np.array_equal(p.merge.indptr, merge.indptr)
    assert np.array_equal(p.merge.indices, merge.indices)
    assert np.array_equal(p.merge.data, merge.data)


def _columns(entries):
    """Entry tuples (m, rest, odd, code) as four int64 columns."""
    return tuple(np.array(c, dtype=np.int64) for c in zip(*entries))


def _quarter_problem(M, columns) -> NodeSum:
    """The build's merge of entries (m, rest, odd, code): alpha = rest/(4m)
    at table row m - 1 + odd M with weight _QUARTER_WEIGHTS[code]."""
    m, rest, odd, code = columns
    merged = _merge_quarters(rest % m, m - 1 + odd * M, code, M)
    return NodeSum(*merged, np.zeros((2 * M, 1), dtype=np.complex128))


def _quarter_reference(M, columns):
    m, rest, odd, code = columns
    return _reference_merge(rest % m, 4 * m, m - 1 + odd * M, _QUARTER_WEIGHTS[code], 2 * M)


def _raw_quarter_entries(a, M):
    """The build's entries of divisor a as columns (m, rest, odd, code):
    l = 0..m for every m <= M, l^2 = (4 s + j) m + rest, weight 2 at l in
    {0, m}, else 4, negative when i^(j a) is -1 or -i, odd when it is +-i."""
    m = np.repeat(np.arange(1, M + 1), np.arange(2, M + 2))
    ell = np.concatenate([np.arange(k + 1) for k in range(1, M + 1)])
    code = np.where((ell == 0) | (ell == m), 0, 1).astype(np.int8)
    j, rest = np.divmod(ell * ell, m)
    del ell
    power = ((j * a) % 4).astype(np.int8)
    del j
    code += 2 * (power >= 2)
    return m, rest, (power % 2).astype(np.int64), code


_QUARTER_ENTRIES = st.integers(1, 8).flatmap(lambda M: st.tuples(st.just(M), st.lists(
    st.tuples(st.integers(1, M), st.integers(0, 63), st.integers(0, 1), st.integers(0, 3)),
    min_size=1, max_size=60)))


class TestMergeAgainstReference:
    """One sort of the packed exact key against the np.unique merge."""

    # 1/8 over m = 2 and 2/16 over m = 4; a cancellation inside one column;
    # 1/8 cancelling in one column and kept in another, and 1/12 cancelling
    # in both; a single entry; everything cancelling
    @example((4, [(2, 1, 0, 0), (4, 2, 1, 1)]))
    @example((3, [(3, 1, 0, 1), (2, 0, 0, 0), (3, 1, 0, 3)]))
    @example((4, [(2, 1, 0, 0), (2, 1, 0, 2), (4, 2, 1, 1), (3, 1, 0, 0), (3, 1, 0, 2),
                  (3, 1, 1, 1), (3, 1, 1, 3)]))
    @example((5, [(5, 3, 1, 2)]))
    @example((2, [(1, 0, 0, 0), (2, 1, 1, 1), (1, 0, 0, 2), (2, 1, 1, 3)]))
    @given(_QUARTER_ENTRIES)
    def test_build_merge_equals_reference(self, case):
        M, entries = case
        columns = _columns(entries)
        _assert_same_merge(_quarter_problem(M, columns), _quarter_reference(M, columns))

    # denominators up to 2^20 keep the reference's float ranking exact
    @example([(2, 8), (1, 4)])
    @example([(5, 7)])
    @given(st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 1 << 20)),
                    min_size=1, max_size=40))
    def test_from_fractions_merge_equals_reference(self, pairs):
        nums, dens = (np.array(c, dtype=np.int64) for c in zip(*pairs))
        p = NodeSum.from_fractions(nums, dens, np.ones((1, nums.size)))
        n = nums.size
        _assert_same_merge(p, _reference_merge(nums, dens, np.arange(n), np.ones(n), n))

    def test_everything_cancels(self):
        # K = 0: both evaluators return zeros on any grid
        entries = [(1, 0, 0, 0), (2, 1, 1, 1), (1, 0, 0, 2), (2, 1, 1, 3)]
        p = _quarter_problem(2, _columns(entries))
        p.B = np.ones((4, 3), dtype=np.complex128)
        assert p.K == 0 and p.merge.shape == (0, 4) and p.scale == 1.0
        g = EvalGrid(b0=5, H=40, step=4)
        for values in (direct_eval(p, g), fast_eval(p, g, 1e-9),
                       fast_eval(p, g, 1e-9, force="transform")):
            assert values.shape == (3, 40) and not values.any()

    def test_packed_key_capacity(self):
        # 40 key bits, 21 column bits and the 2-bit code fill 63 bits: the
        # largest key and column come back whole; one bit more raises
        key = np.array([(1 << 40) - 1, 0])
        cols = np.array([(1 << 21) - 1, 0])
        got, first, merge = _merge_entries(key.copy(), 40, cols, 1 << 21, np.array([3, 0]),
                                           _QUARTER_WEIGHTS)
        assert got.tolist() == [0, (1 << 40) - 1] and first.tolist() == [0, (1 << 21) - 1]
        assert merge.data.tolist() == [2.0, -4.0]
        with pytest.raises(ConsistencyError):
            _merge_entries(key.copy(), 41, cols, 1 << 21, np.array([3, 0]), _QUARTER_WEIGHTS)
        with pytest.raises(ConsistencyError):
            _merge_entries(key.copy(), 40, cols, (1 << 21) + 1, np.array([3, 0]),
                           _QUARTER_WEIGHTS)

    def test_build_key_capacity(self):
        # M = 2^20, the planner's _MAX_N, packs into exactly 63 bits; its
        # extreme entries rest = M - 1 over 4M and 0 at the last row
        # survive, and M + 1 raises
        M = _MAX_N
        assert M == 1 << 20
        p = _quarter_problem(M, _columns([(M, M - 1, 1, 1), (1, 0, 0, 0)]))
        assert p.nums.tolist() == [0, M - 1] and p.dens.tolist() == [1, 4 * M]
        assert p.merge.indices.tolist() == [0, 2 * M - 1]
        with pytest.raises(ConsistencyError):
            _quarter_problem(M + 1, _columns([(M + 1, M, 1, 1), (1, 0, 0, 0)]))

    def test_unsorted_frequencies_raise(self):
        # a real check, not an assert: it holds under python -O too
        B = np.ones((2, 1), dtype=np.complex128)
        merge = sparse.csr_array(np.eye(2))
        for nums, dens in (([1, 1], [3, 3]), ([2, 1], [3, 3]), ([1, 2], [4, 8])):
            with pytest.raises(ConsistencyError):
                NodeSum(np.array(nums), np.array(dens), merge, B)

    def test_from_fractions_orders_float_ties_exactly(self):
        # two Farey neighbours with one float64 value: the larger numerator
        # is the smaller fraction, which a float sort could not tell
        a, b, c, d = 487_214_897, 1_103_213_277, 355_200_278, 804_289_165
        assert a / b == c / d and a * d < c * b
        for order in ((0, 1), (1, 0)):
            nums, dens = np.array([a, c])[list(order)], np.array([b, d])[list(order)]
            p = NodeSum.from_fractions(nums, dens, [[1.0, 2.0]])
            assert p.nums.tolist() == [a, c] and p.dens.tolist() == [b, d]

    def test_large_trivial_divisor(self):
        # the a = 1 problem of [1100001, 1650001) at eps = 1e-6: N = 2789,
        # past the M ~ 2700 where a packed entry index would overflow
        window = Window(1_100_001, 550_000)
        budget = plan_budget(window.Q, window.Delta, 1e-6, 0.0)
        table = build_coefficient_table(0.0, budget.centre, budget.N, 1)
        tracemalloc.start()
        try:
            p, g = build_node_problem(1, table, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        M = budget.N
        assert M == 2789
        # 3.9M raw entries: an int64 row, remainder and packed key, an int8
        # weight code and the merge's temporaries, about 36 bytes an entry
        assert peak <= 170 * 2**20
        assert np.all(p.nums >= 0) and np.all(4 * p.nums < p.dens)
        assert np.all(np.gcd(p.nums, p.dens) == np.where(p.nums == 0, p.dens, 1))
        assert np.all(p.nums[1:] * p.dens[:-1] > p.nums[:-1] * p.dens[1:])
        assert np.all(np.diff(p.merge.indptr) > 0) and np.all(p.merge.data != 0)
        # the reference's entry arrays, each freed once it is dead
        m, rest, odd, code = _raw_quarter_entries(1, M)
        weights = _QUARTER_WEIGHTS[code]
        del code
        odd *= M
        odd += m
        odd -= 1  # the table row
        m *= 4
        ref = _reference_merge(rest, m, odd, weights, 2 * M)
        assert p.K == ref[0].size
        _assert_same_merge(p, ref)


def _sums_to_zero(ref: NodeSum, raw: np.ndarray) -> np.ndarray:
    """Whether the raw coefficient columns merged into each frequency of ref
    (built by from_fractions over them) sum to exactly 0, by fsum."""
    rows = ref.merge.tocoo()
    owner = np.empty(raw.shape[1], dtype=np.int64)
    owner[rows.col] = rows.row
    order = np.argsort(owner, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(owner[order])) + 1)
    return np.array([
        all(math.fsum(part) == 0.0 for part in (*raw[:, g].real, *raw[:, g].imag))
        for g in groups
    ])


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
        # a = N = 257 keeps only m = 1: nodes 0 and 1/4, each with weight 2;
        # 1/4 folds onto 0 at the factor i^a = i, on the grid b = 1 (mod 4)
        window = Window(10_000, 5_000)
        assert small_table.N == 257
        p, g = build_node_problem(small_table.N, small_table, window)
        assert p.K == 1
        assert p.nums.tolist() == [0]
        assert p.dens.tolist() == [1]
        assert (g.b0, g.H, g.step) == (41, 5, 4)
        # coefficient (2 + 2 i^a) c_r(t, N) with a = N
        ratio = p.coeffs[:, 0] / small_table.c[:, small_table.N - 1]
        assert np.allclose(ratio, 2.0 + 2.0j, rtol=1e-12)

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

    def test_equals_from_fractions_over_raw_fractions(self, small_table):
        # the builder's merge against the general one, fed every raw
        # (l^2, 4m) entry folded into [0, 1/4) with its weight,
        # c_r(t, a m) and the factor i^(j a) of its
        # quarter j: the builder's stacked table [B; iB] with a real sign.
        # The builder drops exactly the frequencies whose raw coefficients
        # sum to 0, and keeps every other one
        window = Window(10_000, 5_000)
        for a in (1, 4, 13):
            p, g = build_node_problem(a, small_table, window)
            M = small_table.N // a
            m = np.repeat(np.arange(1, M + 1), np.arange(2, M + 2))
            ell = np.concatenate([np.arange(k + 1) for k in range(1, M + 1)])
            den = 4 * m
            quarter, num = np.divmod((ell * ell) % den, m)
            factor = 1j ** ((quarter * a) % 4)
            weight = np.where((ell == 0) | (ell == m), 2.0, 4.0) * factor
            raw = small_table.c[:, a * m - 1] * weight
            ref = NodeSum.from_fractions(num, den, raw)
            kept = ~_sums_to_zero(ref, raw)
            # a = 4 has i^(j a) = 1, so its positive weights never cancel
            assert kept.all() == (a == 4)
            assert np.array_equal(p.nums, ref.nums[kept])
            assert np.array_equal(p.dens, ref.dens[kept])
            assert np.max(np.abs(p.coeffs - ref.coeffs[:, kept])) <= 1e-13 * p.scale
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
        weight = np.where((ell == 0) | (ell == m), 2.0, 4.0)
        unfolded = NodeSum.from_fractions(ell * ell, 4 * m, small_table.c[:, a * m - 1] * weight)
        assert np.any(4 * unfolded.nums >= unfolded.dens)
        got = direct_eval(p, g)
        ref = direct_eval(unfolded, g)
        assert np.max(np.abs(got - ref)) <= 1e-13 * unfolded.scale


class TestNodeSemantics:
    def test_matches_gauss_sum_route(self):
        # dual route: the node values at b must equal
        # sum_m c_r(t, a m) g_b(2m)
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
                        table.c[r, a * m - 1] * gauss_sum_fast(b, m)
                        for m in range(1, M + 1)
                    ]
                    ref = complex(
                        math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms)
                    )
                    got = values[r, h]
                    assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (a, b, r)

    def test_plain_a_convention_drops_weights(self):
        # plain_a replaces u_m = sqrt(a/m) by the flat weight a: the node
        # problem of its table, times recovery's a, reads a c_r(t, a m) g_b(2m)
        t, Q, N, R = 0.0, 1_000, 24, 2
        table = build_coefficient_table(t, Q, N, R)
        window = Window(Q, 100)
        p, g = build_node_problem(3, assembly_table(table, "plain_a"), window)
        values = 3 * direct_eval(p, g)
        M = N // 3
        h = 1
        b = g.b0 + g.step * h
        terms = [3 * table.c[0, 3 * m - 1] * gauss_sum_fast(b, m) for m in range(1, M + 1)]
        ref = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
        assert abs(values[0, h] - ref) <= 1e-10 * max(1.0, abs(ref))


class TestGaussTable:
    def test_rows_are_complete_gauss_sums(self):
        # G(r; 4m) = g_r(2m); gauss_sum_direct takes the odd r, the only
        # ones the sweep reads, and a defining sum checks the even r
        table = gauss_table(64)
        assert table.size == 2 * 64 * 65
        for m in range(1, 65):
            row = table[2 * m * (m - 1) : 2 * m * (m + 1)]
            ell = np.arange(4 * m)
            for r in range(4 * m):
                if r % 2:
                    ref = gauss_sum_direct(r, 2 * m)
                else:
                    ref = np.exp(2j * math.pi * ((r * ell * ell) % (4 * m)) / (4 * m)).sum()
                assert abs(row[r] - ref) <= 1e-13 * 4 * m, (m, r)

    def test_empty_table(self):
        assert gauss_table(0).size == 0


def _window_terms(window, t):
    """(table, a, b) of a window's divisor terms at height t and eps 1e-6."""
    budget = plan_budget(window.Q, window.Delta, 1e-6, t)
    table = build_coefficient_table(t, budget.centre, budget.N, budget.R)
    qs = fundamental_conductors(window)
    owner, a, _ = divisor_terms(window, qs, budget.N)
    return table, a, qs[owner] // a


def _closed_form_error(window, t, divisors=None):
    """Largest relative gap, over the given divisors (default: all), between
    closed_form_terms and the divisor's node problem read by direct_eval at
    its terms' b = q/a."""
    table, a, b = _window_terms(window, t)
    if divisors is None:
        divisors = np.unique(a)
    keep = np.isin(a, divisors)
    a, b = a[keep], b[keep]
    worst = 0.0
    got = closed_form_terms(a, b, table)
    for d in np.unique(a).tolist():
        p, g = build_node_problem(d, table, window)
        cols = np.flatnonzero(a == d)
        ref = direct_eval(p, g)[:, (b[cols] - g.b0) // g.step]
        gap = np.max(np.abs(got[:, cols] - ref)) / np.max(np.abs(ref))
        worst = max(worst, float(gap))
    return worst


class TestClosedForm:
    @pytest.mark.parametrize("t", [0.0, 0.3])
    def test_every_divisor_of_the_compare_window(self, t):
        assert _closed_form_error(Window(10_001, 5_000), t) <= 1e-13

    def test_scan_window(self):
        # a = 1 of this window is a 10^8-phase direct sum; every other
        # divisor is checked
        table, a, _ = _window_terms(Window(100_003, 4_096), 0.25)
        divisors = np.unique(a[a > 1])
        assert divisors.size > 300
        assert _closed_form_error(Window(100_003, 4_096), 0.25, divisors) <= 1e-13

    def test_sampled_divisors_of_the_wide_window(self):
        window = Window(200_001, 100_000)
        table, a, b = _window_terms(window, 0.0)
        divisors, n_terms = np.unique(a, return_counts=True)
        closed = closed_form_cheaper(divisors, n_terms, table.N,
                                     divisor_grid(window, divisors)[1])
        sample = np.random.default_rng(22).choice(divisors[closed], size=25, replace=False)
        assert _closed_form_error(window, 0.0, sample) <= 1e-13

    def test_plain_a_weights_single_rows_by_a(self, small_table):
        # u_m = a against sqrt(a/m): at N//a = 1 the terms differ by sqrt(a)
        a = np.array([small_table.N, 201])
        b = np.array([41, 57])
        kept = a * closed_form_terms(a, b, assembly_table(small_table, "sqrt_a"))
        lost = a * closed_form_terms(a, b, assembly_table(small_table, "plain_a"))
        assert np.allclose(lost, kept * np.sqrt(a), rtol=1e-14)

    def test_counts_pairs_and_handles_no_terms(self, small_table):
        counter = OpCounter()
        a = np.array([1, 3, 5, 300])
        out = closed_form_terms(a, np.array([1, 3, 5, 301]), small_table, counter=counter)
        assert counter.get("closed_pairs") == sum(small_table.N // x for x in a.tolist())
        assert np.all(out[:, 3] == 0.0)  # a > N: no pair, no value
        empty = closed_form_terms(np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                                  small_table)
        assert empty.shape == (small_table.R, 0)

    def test_chunks_do_not_change_the_values(self, monkeypatch):
        table, a, b = _window_terms(Window(10_001, 5_000), 0.0)
        whole = closed_form_terms(a, b, table)
        monkeypatch.setattr(multieval, "_CLOSED_CHUNK", 64)
        assert np.array_equal(closed_form_terms(a, b, table), whole)

    def test_rejects_bad_inputs(self, small_table):
        with pytest.raises(DomainError):
            closed_form_terms(np.array([0]), np.array([3]), small_table)
        with pytest.raises(DomainError):
            closed_form_terms(np.array([3, 5]), np.array([3]), small_table)

    def test_traced_peak_bounded_by_output_table_and_chunk(self):
        # every divisor a >= 3 of the wide window through the closed form:
        # 4.1M pairs in chunks of 2^16, 46,000 terms of R = 14.  The peak
        # is the (R, J) output, the M = 391 Gauss table and one chunk's
        # workspace; one unchunked pass would hold ~40 bytes per pair more
        window = Window(200_001, 100_000)
        table, a, b = _window_terms(window, 0.0)
        keep = a >= 3
        a, b = a[keep], b[keep]
        pairs = int((table.N // a).sum())
        out_bytes = 16 * table.R * a.size
        table_bytes = 16 * 2 * (table.N // 3) * (table.N // 3 + 1)
        tracemalloc.start()
        try:
            closed_form_terms(a, b, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pairs > 4_000_000 and table.R == 14
        assert peak < out_bytes + table_bytes + 200 * _CLOSED_CHUNK


class TestRouteSplit:
    # [10003, 10004) holds no conductor, so there a = 1 has no terms and
    # the closed form would cost nothing
    @pytest.mark.parametrize(
        "window", [Window(10_003, 1), Window(101, 50), Window(10_001, 5_000),
                   Window(100_003, 4_096), Window(200_001, 100_000)],
    )
    def test_trivial_divisor_takes_its_node_problem(self, window):
        N = plan_budget(window.Q, window.Delta, 1e-6, 0.0).N
        n_terms = fundamental_conductors(window).size  # a = 1 divides every q
        H = divisor_grid(window, 1)[1]
        assert not closed_form_cheaper(np.array([1]), np.array([n_terms]), N, H)[0]

    def test_wide_window_sends_most_divisors_closed(self):
        window = Window(200_001, 100_000)
        table, a, _ = _window_terms(window, 0.0)
        divisors, n_terms = np.unique(a, return_counts=True)
        closed = closed_form_cheaper(divisors, n_terms, table.N,
                                     divisor_grid(window, divisors)[1])
        assert closed.sum() > 0.9 * divisors.size
        # the small divisors, with many terms of long rows, stay node problems
        assert not closed[:2].any()


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

    def test_auto_path_switches_at_phase_threshold(self, rng):
        # the auto path prices K*H phases alone, whatever R is
        p = _random_problem(rng, K=50, R=8)
        H = _DIRECT_MAX_PHASES // p.K
        for h, setups in ((H, 0), (H + 1, 1)):
            counter = OpCounter()
            fast_eval(p, EvalGrid(b0=100, H=h), 1e-9, counter=counter)
            assert counter.get("fast_eval_setup_calls") == setups, h

    def test_mid_size_node_problem_takes_transform(self):
        # the a = 5 problem of [10000, 15000): K = 323, H = 250 is under
        # 2^22 multiply-adds at R = 14, but its K*H exact phases cost the
        # direct sum more than the transform
        window = Window(10_000, 5_000)
        budget = plan_budget(window.Q, window.Delta, 1e-6, 0.0)
        table = build_coefficient_table(0.0, budget.centre, budget.N, budget.R)
        p, g = build_node_problem(5, table, window)
        assert (p.K, g.H) == (323, 250)
        counter = OpCounter()
        got = fast_eval(p, g, budget.epsilon3, counter=counter)
        assert counter.get("fast_eval_setup_calls") == 1
        assert np.max(np.abs(got - direct_eval(p, g))) <= budget.epsilon3 * p.scale

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
        # the a = 1 problem of [120001, 180001): K = 77,618, R = 14,
        # n = 2^15, 45 taps, on the 15,000 arguments b = 1 (mod 4).  Build
        # and evaluation peak at 32.7 MiB traced: the padded grid, the
        # problem and one block's workspace; one (K, R) coefficient array
        # would add 17 MB and the K*W spreading matrix more again
        Q, Delta = 120_001, 60_000
        budget = plan_budget(Q, Delta, 1e-6, 0.0)
        table = build_coefficient_table(0.0, budget.centre, budget.N, budget.R)
        tracemalloc.start()
        try:
            p, g = build_node_problem(1, table, Window(Q, Delta))
            fast_eval(p, g, budget.epsilon3, force="transform")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.K == 77_618 and table.R == 14
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
