"""Budget planning, certified bounds, coefficient tables."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlbatch import BudgetError, DomainError, OpCounter, Window
from qlbatch.arith import fundamental_conductors
from qlbatch.oracle import _character_values
from qlbatch.special import _g_kernel_arr, c_prefactor, weight_v
from qlbatch.taylor import (build_coefficient_table, chebyshev_matrix, clenshaw, plan_budget,
                            plan_sweep, tail_bound, taylor_remainder_bound)


def _x_interval(b):
    """Midpoint and half-width of x = (c - q)/q over the budget's window."""
    L = b.Q + b.Delta - 1
    hi, lo = (b.centre - b.Q) / b.Q, (b.centre - L) / L
    return (hi + lo) / 2, (hi - lo) / 2


def _economized(b, t):
    """The Taylor table of budget b and all R of its Chebyshev rows."""
    taylor = build_coefficient_table(t, b.centre, b.N, b.R)
    return taylor, chebyshev_matrix(*_x_interval(b), b.R) @ taylor.c


def _dropped_rows(b, t):
    """|C| at q = Q, height max(1, |t|), times sum_n |b_(k,n)| for each k."""
    return abs(c_prefactor(max(1.0, abs(t)), b.Q)) * np.abs(_economized(b, t)[1]).sum(axis=1)


class TestPlanBudget:
    def test_reference_plan(self):
        b = plan_budget(10_000, 5_000, 1e-6, 0.0)
        assert b.N == 257
        assert b.R == 14
        assert b.columns == 9
        assert b.centre == 12_000
        assert b.epsilon1 == pytest.approx(1.25e-7)
        assert b.epsilon2 == pytest.approx(1.25e-7)
        # epsilon / (4 R_c N sqrt(Q)); abs=0, as pytest.approx's default 1e-12
        # would pass any figure this small
        assert b.epsilon3 == pytest.approx(1e-6 / (4 * 9 * 257 * 100), rel=1e-9, abs=0)
        assert (b.Q, b.Delta) == (10_000, 5_000)

    def test_narrow_window_needs_fewer_orders(self):
        wide = plan_budget(10_000, 5_000, 1e-6, 0.0)
        narrow = plan_budget(10_000, 64, 1e-6, 0.0)
        assert narrow.R < wide.R
        assert narrow.N == wide.N  # N depends only on Q, epsilon and |t|

    @pytest.mark.parametrize("t", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("Q", [5, 101, 10_000, 200_000])
    def test_orders_are_the_smallest_certified(self, Q, t):
        b = plan_budget(Q, Q // 2, 1e-6, t)
        assert tail_bound(b.N - 1, Q, t) >= b.epsilon1 > tail_bound(b.N, Q, t)
        remainder = taylor_remainder_bound(b.N, Q, Q // 2, b.R, t)
        assert remainder < b.epsilon2 / 2
        if b.R > 1:
            assert taylor_remainder_bound(b.N, Q, Q // 2, b.R - 1, t) >= b.epsilon2 / 2
        # the least column count whose dropped sum the remainder covers
        assert b.dropped <= remainder
        if b.columns > 1:
            rows = _dropped_rows(b, t)
            assert rows[b.columns - 1:].sum() > remainder

    def test_orders_follow_height_only_past_one(self):
        # dropped is read off each height's own table, so it alone differs
        low, one = plan_budget(10_000, 5_000, 1e-6, 0.3), plan_budget(10_000, 5_000, 1e-6, -1.0)
        assert dataclasses.replace(low, dropped=0.0) == dataclasses.replace(one, dropped=0.0)
        high = plan_budget(10_001, 5_000, 1e-6, 10.0)
        assert (high.N, high.R, high.columns) == (316, 19, 12)

    def test_ceiling_lifted_past_a_million(self):
        # the sqrt((2Q/pi) log(Q/eps1)) rule gave N = 4,569, R = 16 and eps3 =
        # 3.3e-15, under the 2^-48 floor; the Taylor table's 14 columns gave
        # eps3 = 6.1e-15
        b = plan_budget(1_100_001, 550_000, 1e-6, 0.0)
        assert (b.N, b.R, b.columns) == (2_789, 15, 10)
        assert b.epsilon3 == pytest.approx(8.5e-15, rel=0.01)

    def test_rejects_epsilon_out_of_range(self):
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                plan_budget(10_000, 500, eps, 0.0)

    def test_rejects_forty_five_bit_breach(self):
        with pytest.raises(BudgetError, match="45"):
            plan_budget(1 << 40, 1 << 39, 1e-6, 0.0)

    def test_rejects_transform_floor_breach(self):
        # log2(Q/eps) = 44 passes the bit check but eps3 underflows the floor
        with pytest.raises(BudgetError, match="2\\^-48"):
            plan_budget(1 << 32, 1 << 31, 2.0 ** -12, 0.0)

    def test_rejects_node_capacity_breach(self):
        # N = 7,845,209 would pass the 2^20 frequencies the node builder's
        # packed merge key holds; refused before R is sized
        with pytest.raises(BudgetError, match="2\\^20"):
            plan_budget(10**13 + 1, 1, 0.99, 10.0)

    def test_rejects_large_t(self):
        for t in (10.5, float("nan")):
            with pytest.raises(DomainError):
                plan_budget(10_000, 500, 1e-6, t)

    def test_rejects_wide_window(self):
        with pytest.raises(DomainError):
            plan_budget(10_000, 5_001, 1e-6, 0.0)

    @given(
        st.integers(2, 200_000),
        st.floats(1e-8, 1e-2),
    )
    def test_planned_budget_meets_both_bounds(self, Q, eps):
        # refusals (tight eps at large Q) are the planner's prerogative; the
        # invariant covers every plan it does accept
        try:
            b = plan_budget(Q, Q // 2, eps, 0.0)
        except BudgetError:
            return
        assert tail_bound(b.N, Q) < b.epsilon1
        assert taylor_remainder_bound(b.N, Q, Q // 2, b.R) + b.dropped < b.epsilon2
        assert b.epsilon3 >= 2.0 ** -48


# windows with Q <= 5*10^4 whose first point is a fundamental conductor, at
# the widths 1, 64, Q/8 and Q/2
_WINDOWS = [(Q, D) for Q in (1001, 5001, 20001, 49_993) for D in (1, 64, Q // 8, Q // 2)]


class TestExpansionPoint:
    @pytest.mark.parametrize("Q, Delta", _WINDOWS)
    def test_balances_x_at_both_ends(self, Q, Delta):
        b = plan_budget(Q, Delta, 1e-6, 0.0)
        L = Q + Delta - 1
        assert Q <= b.centre <= L
        assert abs((b.centre - Q) / Q - (L - b.centre) / L) <= 1.0 / Q
        assert max((b.centre - Q) / Q, (L - b.centre) / L) <= 0.2

    def test_single_conductor_window_needs_one_order(self):
        b = plan_budget(10_001, 1, 1e-6, 0.0)
        assert (b.centre, b.R) == (10_001, 1)
        assert taylor_remainder_bound(b.N, 10_001, 1, b.R) == 0.0

    @pytest.mark.parametrize("t", [0.0, 1.0])
    @pytest.mark.parametrize("Q, Delta", _WINDOWS)
    def test_remainder_at_both_ends_within_bound(self, Q, Delta, t):
        # the dropped orders r >= R of F = C(t, q) sum chi(n) G_z(pi n^2/q),
        # at the window's first and last fundamental conductors, where |x|
        # is largest
        b = plan_budget(Q, Delta, 1e-6, t)
        table = build_coefficient_table(t, b.centre, b.N, b.R)
        bound = taylor_remainder_bound(b.N, Q, Delta, b.R)
        n = np.arange(1, b.N + 1, dtype=np.float64)
        qs = fundamental_conductors(Window(Q, Delta))
        for q in {int(qs[0]), int(qs[-1])}:
            x = (b.centre - q) / q
            exact = _g_kernel_arr(0.25 + 0.5j * t, math.pi * n * n / q)
            taylor = (x ** np.arange(b.R)) @ table.c
            rem = abs(c_prefactor(t, q) * np.dot(_character_values(q, b.N), exact - taylor))
            assert rem <= bound, q

    @pytest.mark.parametrize("Q, Delta, t", [(Q, D, t) for Q, D in _WINDOWS for t in (0.0, 1.0)]
                             + [(5_001, 64, 1.0), (50_000, 25_000, 1.0), (10_001, 5_000, 10.0)])
    def test_character_free_remainder_within_bound(self, Q, Delta, t):
        # |C(t, q)| sum_n |G_z(pi n^2/q) - sum_(r<R) c_r(n) x^r| at the
        # window's first and last fundamental conductors: the bound holds
        # for every character, with no cancellation in sum chi(n) ...
        b = plan_budget(Q, Delta, 1e-6, t)
        table = build_coefficient_table(t, b.centre, b.N, b.R)
        bound = taylor_remainder_bound(b.N, Q, Delta, b.R, t)
        assert bound < b.epsilon2
        n = np.arange(1, b.N + 1, dtype=np.float64)
        qs = fundamental_conductors(Window(Q, Delta))
        for q in {int(qs[0]), int(qs[-1])}:
            x = (b.centre - q) / q
            exact = _g_kernel_arr(0.25 + 0.5j * t, math.pi * n * n / q)
            taylor = (x ** np.arange(b.R)) @ table.c
            assert abs(c_prefactor(t, q)) * np.sum(np.abs(exact - taylor)) <= bound, q

    @pytest.mark.parametrize("t", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("Q, Delta", _WINDOWS)
    def test_table_meets_criterion_07_caps_about_centre(self, Q, Delta, t):
        # |c_r| w_n <= 1 with w_n = pi n^2 / c, the table's own variable
        b = plan_budget(Q, Delta, 1e-6, t)
        table = build_coefficient_table(t, b.centre, b.N, b.R)
        n = np.arange(1, b.N + 1, dtype=np.float64)
        assert np.max(np.abs(table.c) * (math.pi * n * n / b.centre)) <= 1.0 + 1e-12


class TestBounds:
    def test_tail_bound_decreasing_in_n(self):
        vals = [tail_bound(N, 10_000) for N in (150, 200, 400, 800)]
        assert vals == sorted(vals, reverse=True)

    def test_tail_bound_preconditions(self):
        with pytest.raises(DomainError):
            tail_bound(70, 10_000)  # N under sqrt(2Q/pi)

    @pytest.mark.parametrize("t", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("Q", [5, 101, 1001, 5001])
    def test_tail_bound_covers_measured_tail(self, Q, t):
        # the dropped terms n in (N, 4N] of the smoothed series, at both ends
        # of the widest window, as in acceptance criterion 05
        b = plan_budget(Q, Q // 2, 1e-6, t)
        bound = tail_bound(b.N, Q, t)
        z = 0.5 + 1j * t
        for q in (Q, Q + Q // 2 - 1):
            tail = 2.0 * math.fsum(
                n ** -0.5 * abs(weight_v(z, math.pi * n * n / q))
                for n in range(b.N + 1, 4 * b.N + 1)
            )
            assert tail <= bound, q
        assert bound < b.epsilon1

    def test_remainder_decreasing_in_r(self):
        vals = [taylor_remainder_bound(400, 10_000, 5_000, R) for R in (4, 8, 16, 32)]
        assert vals == sorted(vals, reverse=True)

    def test_remainder_zero_width(self):
        assert taylor_remainder_bound(400, 10_000, 0, 8) == 0.0

    def test_remainder_preconditions(self):
        with pytest.raises(DomainError):
            taylor_remainder_bound(400, 1_000, 1_000, 8)
        with pytest.raises(DomainError):
            taylor_remainder_bound(0, 10_000, 100, 8)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_bounds_reject_non_finite_t(self, t):
        # max(1, |nan|) is 1, so an unchecked nan would read as t = 1
        with pytest.raises(DomainError):
            tail_bound(300, 10_000, t)
        with pytest.raises(DomainError):
            taylor_remainder_bound(257, 10_000, 5_000, 14, t)


# the gated windows, a height-10 window, and the one- and two-conductor
# windows whose x interval is a point or nearly one
_ECONOMIZED = [(10_001, 5_000, 0.0), (10_001, 5_000, 0.3), (10_001, 5_000, 1.0),
               (200_001, 100_000, 0.0), (10_001, 5_000, 10.0), (10_001, 1, 0.0),
               (10_001, 2, 0.3)]


class TestChebyshev:
    @pytest.mark.parametrize("mid, hw, R", [(0.0, 0.2, 15), (-0.0037, 0.2037, 19),
                                            (0.01, 0.0, 6), (0.3, 0.5, 12), (0.0, 1.0, 1)])
    def test_matrix_matches_poly2cheb(self, mid, hw, R):
        from numpy.polynomial import chebyshev, polynomial

        E = chebyshev_matrix(mid, hw, R)
        for r in range(R):
            want = chebyshev.poly2cheb(polynomial.polypow([mid, hw], r))
            want = np.pad(want, (0, R - want.size))
            np.testing.assert_allclose(E[:, r], want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("K", [1, 2, 9, 19])
    def test_clenshaw_matches_direct_sum(self, rng, K):
        coeffs = rng.standard_normal((K, 200)) + 1j * rng.standard_normal((K, 200))
        u = np.concatenate(([-1.0, 1.0, 0.0], rng.uniform(-1.0, 1.0, 197)))
        T = np.cos(np.arange(K)[:, None] * np.arccos(u))
        direct = np.sum(coeffs * T, axis=0)
        np.testing.assert_allclose(clenshaw(coeffs, u), direct, rtol=0, atol=1e-13 * K)

    @pytest.mark.parametrize("Q, Delta, t", _ECONOMIZED)
    def test_dropped_sum_covers_truncation_at_every_conductor(self, Q, Delta, t):
        # |C(t, q)| sum_n |sum_r c_r(n) x^r - sum_(k < R_c) b_k(n) T_k(u)|,
        # the error of dropping the columns, character-free, at every
        # conductor of the window; the tolerance is the two sums' roundoff
        b, table = plan_sweep(Q, Delta, 1e-6, t)
        taylor, rows = _economized(b, t)
        np.testing.assert_array_equal(table.c, rows[:b.columns])
        assert b.dropped == pytest.approx(_dropped_rows(b, t)[b.columns:].sum(), rel=1e-12, abs=0)
        qs = fundamental_conductors(Window(Q, Delta))
        roundoff = 1e-14 * abs(c_prefactor(t, Q)) * np.abs(taylor.c).sum()
        worst = 0.0
        for chunk in np.array_split(qs, max(1, qs.size // 1024)):
            x = (b.centre - chunk) / chunk
            powers = x[:, None] ** np.arange(b.R)
            gap = np.abs(powers @ taylor.c - clenshaw(table.c[:, None, :], b.u(chunk)[:, None]))
            worst = max(worst, float(np.max(np.abs(c_prefactor(t, chunk)) * gap.sum(axis=1))))
        assert worst <= b.dropped + roundoff
        if Delta == 1:
            assert (b.columns, b.dropped, worst) == (1, 0.0, 0.0)

    def test_u_spans_the_window(self):
        b = plan_budget(10_001, 5_000, 1e-6, 0.0)
        u = b.u(np.array([10_001, b.centre, 15_000]))
        assert u[0] == pytest.approx(1.0, abs=1e-12) and u[2] == pytest.approx(-1.0, abs=1e-12)
        assert -1.0 < u[1] < 1.0
        assert np.all(plan_budget(10_001, 1, 1e-6, 0.0).u(np.array([10_001])) == 0.0)


class TestCoefficientTable:
    def test_row_zero_is_plain_kernel(self, small_table):
        N = small_table.N
        n = np.arange(1, N + 1, dtype=np.float64)
        w = math.pi * n * n / small_table.centre
        direct = _g_kernel_arr(0.25 + 0.0j, w)
        assert np.max(np.abs(small_table.c[0] - direct)) == 0.0

    def test_entries_against_direct_kernel_route(self):
        # c_r = (-1)^r G_(z+r)(w) w^r / r! with G_(z+r) evaluated directly
        # (series/CF at shifted z), not via the table's upward recursion
        t, Q, N, R = 0.3, 10_000, 25, 9
        table = build_coefficient_table(t, Q, N, R)
        z = 0.25 + 0.5j * t
        for n in (1, 2, 7, 25):
            w = math.pi * n * n / Q
            for r in (0, 1, 4, 8):
                direct = _g_kernel_arr(z + r, np.array([w]))[0]
                expect = (-1.0) ** r * direct * w ** r / math.factorial(r)
                got = table.c[r, n - 1]
                assert abs(got - expect) <= 1e-11 * max(abs(expect), 1e-30), (n, r)

    def test_magnitude_bound(self, small_table):
        # |c_r(t, n)| <= Q / (pi n^2) uniformly in r
        N = small_table.N
        n = np.arange(1, N + 1, dtype=np.float64)
        cap = small_table.centre / (math.pi * n * n)
        assert np.all(np.abs(small_table.c) <= cap[None, :] * (1.0 + 1e-12))

    def test_counter_reports_kernel_volume(self):
        counter = OpCounter()
        build_coefficient_table(0.0, 10_000, 50, 6, counter)
        assert counter.get("kernel_evals") == 300

    def test_validates_shape(self):
        with pytest.raises(DomainError):
            build_coefficient_table(0.0, 10_000, 0, 4)

