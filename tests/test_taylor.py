"""Budget planning, certified bounds, coefficient tables."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlbatch import BudgetError, DomainError, OpCounter
from qlbatch.special import _g_kernel_arr
from qlbatch.taylor import build_coefficient_table, plan_budget, tail_bound, taylor_remainder_bound


class TestPlanBudget:
    def test_reference_plan(self):
        b = plan_budget(10_000, 5_000, 1e-6, 0.0)
        assert b.N == 400
        assert b.R == 32
        assert b.epsilon1 == pytest.approx(1.25e-7)
        assert b.epsilon2 == pytest.approx(1.25e-7)
        assert b.epsilon3 == pytest.approx(1.953125e-13, rel=1e-9)
        assert (b.Q, b.Delta) == (10_000, 5_000)

    def test_narrow_window_needs_fewer_orders(self):
        wide = plan_budget(10_000, 5_000, 1e-6, 0.0)
        narrow = plan_budget(10_000, 64, 1e-6, 0.0)
        assert narrow.R < wide.R
        assert narrow.N == wide.N  # N depends only on Q and epsilon

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

    def test_rejects_large_t(self):
        for t in (10.5, float("nan")):
            with pytest.raises(DomainError):
                plan_budget(10_000, 500, 1e-6, t)

    def test_rejects_wide_window(self):
        with pytest.raises(DomainError):
            plan_budget(10_000, 5_001, 1e-6, 0.0)

    @given(
        st.integers(10_000, 200_000),
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
        assert taylor_remainder_bound(b.N, Q, Q // 2, b.R) < b.epsilon2
        assert b.epsilon3 >= 2.0 ** -48


class TestBounds:
    def test_tail_bound_decreasing_in_n(self):
        vals = [tail_bound(N, 10_000) for N in (150, 200, 400, 800)]
        assert vals == sorted(vals, reverse=True)

    def test_tail_bound_preconditions(self):
        with pytest.raises(DomainError):
            tail_bound(400, 5_000)  # Q below the fast-path floor
        with pytest.raises(DomainError):
            tail_bound(70, 10_000)  # N under sqrt(2Q/pi)

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


class TestCoefficientTable:
    def test_row_zero_is_plain_kernel(self, small_table):
        N = small_table.N
        n = np.arange(1, N + 1, dtype=np.float64)
        w = math.pi * n * n / small_table.Q
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
        cap = small_table.Q / (math.pi * n * n)
        assert np.all(np.abs(small_table.c) <= cap[None, :] * (1.0 + 1e-12))

    def test_counter_reports_kernel_volume(self):
        counter = OpCounter()
        build_coefficient_table(0.0, 10_000, 50, 6, counter)
        assert counter.get("kernel_evals") == 300

    def test_validates_shape(self):
        with pytest.raises(DomainError):
            build_coefficient_table(0.0, 10_000, 0, 4)

