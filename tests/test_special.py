"""Special-function kernel: series branch, continued fraction, prefactors.

Reference values were produced once with mpmath at 40 digits and with
adaptive quadrature of the defining integral, then frozen here.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import loggamma

from qlbatch import AccuracyError, DomainError
from qlbatch import special
from qlbatch.special import (
    _cf_depth,
    _g_kernel_arr,
    _series_depth,
    g_derivative_row,
    g_kernel,
    g_prefactor,
    incomplete_gamma_upper,
    log_gamma,
    theta_phase,
    weight_v,
)

# (Re z, Im z, w, G_z(w)) frozen from mpmath.gammainc at 40 digits
_G_REFERENCE = [
    (0.25, 0.0, 0.5, (0.661889388411171 + 0j)),
    (0.25, 0.0, 1.24, (0.16464452113366645 + 0j)),
    (0.25, 0.0, 2.0, (0.0527009425699257 + 0j)),
    (0.25, 0.0, 9.0, (1.2742765041188829e-05 + 0j)),
    (0.25, 0.0, 80.0, (2.235361101951209e-37 + 0j)),
    (0.25, 0.15, 0.7, (0.4277460082549972 + 0.03775345217367499j)),
    (0.25, 0.15, 30.0, (3.0453381454524755e-15 + 1.4420967790596078e-17j)),
    (0.25, 5.0, 0.31, (0.0009011254126460693 + 0.14917436788522476j)),
    (0.25, 5.0, 6.2, (0.00020777015955467058 + 0.00014281537821685304j)),
    (0.25, 5.0, 200.0, (6.889546999385304e-90 + 1.7075603864207882e-91j)),
    (2.25, 0.0, 0.11, (162.1794136851265 + 0j)),
    (2.25, -1.5, 14.0, (6.408199548880536e-08 - 6.953955882861222e-09j)),
    (16.25, 0.0, 3.0, (45893.53944998232 + 0j)),
    (16.25, 0.0, 90.0, (1.0932963843480579e-41 + 0j)),
]

# (w, r, (-1)^r G_(z+r)(w)) for z = 0.25 + 0.15j, frozen from mpmath
_ROW_REFERENCE = [
    (0.9, 0, (0.292800527599997 + 0.022409797777674087j)),
    (0.9, 3, (-3.368730968676395 - 0.6079137556266524j)),
    (0.9, 7, (-2363.5659628788962 - 737.337146192341j)),
    (17.0, 0, (2.337257045372449e-09 + 1.881900269080493e-11j)),
    (17.0, 3, (-2.7813731486115733e-09 - 2.6175378825819727e-11j)),
    (17.0, 7, (-3.6907999267310364e-09 - 4.42569027843767e-11j)),
]

# (t, parity, q, theta) frozen from mpmath.loggamma
_THETA_REFERENCE = [
    (0.3, 0, 10007, 0.6361506111049187),
    (1.0, 0, 5, -0.9628289965952402),
    (0.7, 1, 33, 0.4770545707994726),
    (2.5, 0, 101, 2.982828465914762),
]

# (t, w, V) for the s-parameter z = 1/2 + it, frozen from mpmath
_V_REFERENCE = [
    (0.0, 0.4, (0.18566809705416953 + 0j)),
    (0.0, 6.0, (0.00016064532585434747 + 0j)),
    (0.3, 2.2, (0.011740051266940913 + 0.010616739648003177j)),
    (1.0, 29.0, (-1.3701540091776442e-14 + 3.446993837899878e-15j)),
]


def _active_set_kernel(z, w):
    """The kernel before fixed depths, kept as a reference: each argument
    runs its branch until its own stopping rule holds, the converged ones
    compacted out of the working arrays at every level."""
    z = complex(z)
    flat = np.asarray(w, dtype=np.float64).ravel()
    out = np.zeros(flat.shape, dtype=np.complex128)
    small = flat < abs(z) + 1.0
    large = ~small & (flat < 745.0)
    if np.any(small):
        idx = np.nonzero(small)[0]
        ws = flat[idx]
        term = np.full(idx.size, 1.0 / z, dtype=np.complex128)
        total = term.copy()
        pos, t_act, w_act, k = np.arange(idx.size), term, ws, 0
        while pos.size:
            k += 1
            t_act = t_act * (w_act / (z + k))
            total[pos] += t_act
            keep = np.abs(t_act) > 1e-18 * np.abs(total[pos])
            pos, t_act, w_act = pos[keep], t_act[keep], w_act[keep]
        out[idx] = np.exp(loggamma(z) - z * np.log(ws)) - np.exp(-ws) * total
    if np.any(large):
        idx = np.nonzero(large)[0]
        x = flat[idx]
        f = (x + 1.0 - z).astype(np.complex128)
        pos = np.arange(idx.size)
        b, c, d, j = f.copy(), f.copy(), np.zeros(idx.size, dtype=np.complex128), 0
        while pos.size:
            j += 1
            a = -j * (j - z)
            b = b + 2.0
            d = b + a * d
            d[np.abs(d) < 1e-300] = 1e-300
            c = b + a / c
            c[np.abs(c) < 1e-300] = 1e-300
            d = 1.0 / d
            delta = c * d
            f[pos] *= delta
            keep = np.abs(delta - 1.0) > 1e-16
            pos, b, c, d = pos[keep], b[keep], c[keep], d[keep]
        out[idx] = np.exp(-x) / f
    return out.reshape(np.shape(w))


_KERNEL_HEIGHTS = (0.0, 0.3, 1.0, 3.0, 10.0)


def _kernel_edges(z):
    """The kernel's bucket edges c 2^(k/4), the crossover c among them."""
    return (abs(z) + 1.0) * 2.0 ** (np.arange(-special._EDGES, special._EDGES + 1)
                                    / special._OCTAVE_SPLITS)


def _kernel_grid(z, size):
    """size geometric points of [1e-6, 744.9] with every bucket edge and the
    crossover, each also 1 ulp to either side."""
    marks = _kernel_edges(z)
    w = np.concatenate((np.geomspace(1e-6, 744.9, size), marks,
                        np.nextafter(marks, 0.0), np.nextafter(marks, np.inf)))
    return np.unique(w[(w >= 1e-6) & (w <= 744.9)])


def _relative(val, ref):
    # a subnormal value is judged in units of the smallest normal double
    return np.abs(val - ref) / np.maximum(np.abs(ref), np.finfo(np.float64).tiny)


class TestKernelBuckets:
    @pytest.mark.parametrize("t", _KERNEL_HEIGHTS)
    def test_matches_active_set_reference(self, t):
        z = 0.25 + 0.5j * t
        w = _kernel_grid(z, 20_000)
        assert _relative(_g_kernel_arr(z, w), _active_set_kernel(z, w)).max() <= 3e-14

    @pytest.mark.parametrize("t", _KERNEL_HEIGHTS)
    def test_against_mpmath(self, t):
        mp = pytest.importorskip("mpmath")
        z = 0.25 + 0.5j * t
        w = _kernel_grid(z, 400)
        with mp.workdps(30):
            zm = mp.mpc(z)
            ref = np.array([complex(mp.gammainc(zm, x) / mp.power(x, zm))
                            for x in map(mp.mpf, w.tolist())])
        assert _relative(_g_kernel_arr(z, w), ref).max() <= 5e-14

    @pytest.mark.parametrize("t", _KERNEL_HEIGHTS)
    def test_bucket_depth_covers_every_argument(self, t):
        # each bucket runs to the stopping count at its top (series) or
        # bottom (continued fraction) edge; the count of every argument
        # inside must not exceed it
        z = 0.25 + 0.5j * t
        edges = _kernel_edges(z)
        c = edges[special._EDGES]
        w = np.geomspace(1e-6, 744.9, 20_001)
        ws, wc = w[w < c].tolist(), w[w >= c].tolist()
        tops = edges[np.searchsorted(edges, ws, side="right")].tolist()
        assert all(_series_depth(z, x) <= _series_depth(z, e) for x, e in zip(ws, tops))
        bottoms = edges[np.searchsorted(edges, wc, side="right") - 1].tolist()
        assert all(_cf_depth(z, x) <= _cf_depth(z, e) for x, e in zip(wc, bottoms))

    def test_max_iter_raises(self, monkeypatch):
        # a branch raises only when one of its occupied buckets needs more;
        # cached depths would skip the lowered limit
        _series_depth.cache_clear()
        _cf_depth.cache_clear()
        monkeypatch.setattr(special, "_MAX_ITER", 6)
        assert _g_kernel_arr(0.25, np.array([1e-5, 800.0])).shape == (2,)
        with pytest.raises(AccuracyError, match="series"):
            _g_kernel_arr(0.25, np.array([1e-3, 1.0]))
        with pytest.raises(AccuracyError, match="continued fraction"):
            _g_kernel_arr(0.25, np.array([3.0, 500.0]))

    def test_overflow_raises(self):
        # G_200(0.01) ~ Gamma(200) 100^200 is past the largest double
        with pytest.raises(AccuracyError, match="not finite"), np.errstate(over="ignore"):
            _g_kernel_arr(200.0, np.array([0.01, 5.0]))

    def test_shapes(self):
        z = 0.25 + 0.15j
        empty = _g_kernel_arr(z, np.empty((0, 3)))
        assert empty.shape == (0, 3) and empty.dtype == np.complex128
        scalar = _g_kernel_arr(z, 2.0)
        assert scalar.shape == () and scalar == g_kernel(z, 2.0)
        w = np.array([[0.01, 900.0, 3.0], [1.2, 40.0, 1e-5]])
        grid = _g_kernel_arr(z, w)
        assert grid.shape == (2, 3) and grid[0, 1] == 0.0
        assert np.all(grid.ravel() == _g_kernel_arr(z, w.ravel()))


class TestGKernel:
    @pytest.mark.parametrize("zr,zi,w,ref", _G_REFERENCE)
    def test_frozen_references(self, zr, zi, w, ref):
        val = g_kernel(complex(zr, zi), w)
        assert abs(val - ref) <= 1e-13 * abs(ref) + 1e-300

    def test_quadrature_oracle_real_z(self):
        # independent route: adaptive quadrature of int_1^inf e^(-wy) y^(z-1)
        for z, w in [(0.25, 0.8), (0.25, 4.0), (1.75, 2.4), (3.5, 19.0)]:
            ref, err = quad(lambda y: math.exp(-w * y) * y ** (z - 1.0), 1.0, np.inf)
            val = g_kernel(z, w)
            assert val.imag == 0.0
            assert abs(val.real - ref) <= 1e-10 * abs(ref) + 10.0 * err

    def test_z_equals_one_closed_form(self):
        # G_1(w) = e^-w / w on both sides of the branch crossover
        for w in (0.1, 1.0, 1.9, 2.1, 50.0):
            assert g_kernel(1.0, w) == pytest.approx(math.exp(-w) / w, rel=1e-14)

    def test_branch_crossover_continuity(self):
        # series and continued fraction must agree where they meet; the step
        # is small enough that the true w-derivative contributes < 1e-12
        z = 0.25 + 0.4j
        edge = abs(z) + 1.0
        lo = g_kernel(z, edge * (1 - 1e-12))
        hi = g_kernel(z, edge * (1 + 1e-12))
        assert abs(lo - hi) <= 1e-11 * abs(hi)

    def test_underflow_region_returns_zero(self):
        assert g_kernel(0.25, 800.0) == 0.0

    def test_vectorized_matches_scalar(self, rng):
        # numpy's SIMD complex multiply may differ by an ulp between array
        # sizes, so equality here is to a few ulps rather than bitwise
        w = 10.0 ** rng.uniform(-2, 2.5, size=64)
        z = 0.25 + 0.5j * 0.3
        arr = _g_kernel_arr(z, w)
        for i in range(0, 64, 7):
            single = g_kernel(z, w[i])
            assert abs(arr[i] - single) <= 5e-15 * abs(single)

    @given(st.floats(0.01, 500.0), st.floats(-5.0, 5.0))
    def test_recursion_identity(self, w, ti):
        # w G_(z+1)(w) - z G_z(w) = e^-w  (integration by parts)
        z = 0.25 + 0.5j * ti
        lhs = w * g_kernel(z + 1, w) - z * g_kernel(z, w)
        assert abs(lhs - math.exp(-w)) <= 1e-12

    @given(st.floats(0.5, 300.0))
    def test_magnitude_bound(self, w):
        # |G_z(w)| <= w^(Re z - 1) e^-w for Re z <= 1
        val = abs(g_kernel(0.25 + 0.3j, w))
        assert val <= w ** (0.25 - 1.0) * math.exp(-w) * (1 + 1e-12)


class TestDerivativeRow:
    def test_frozen_row_references(self):
        z = 0.25 + 0.15j
        for w, r, ref in _ROW_REFERENCE:
            row = g_derivative_row(z, w, 8)
            val = row.values[r]
            assert abs(val - ref) <= 1e-12 * abs(ref)

    def test_row_zero_is_kernel(self):
        z = 0.25
        for w in (0.3, 2.0, 40.0):
            row = g_derivative_row(z, w, 3)
            assert row.values[0] == pytest.approx(g_kernel(z, w), rel=1e-14)

    def test_alternating_signs_cancel(self):
        # values[r] = (-1)^r G_(z+r), all positive real for real z > 0
        for w in (0.7, 5.0):
            row = g_derivative_row(0.25, w, 10)
            signs = np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
            assert np.all((row.values * signs).real > 0.0)

    def test_factorial_over_power_bound(self):
        # |G^(r)| <= r! / w^(r+1)
        for w in (0.9, 3.0, 25.0):
            row = g_derivative_row(0.25 + 0.4j, w, 12)
            for r in range(12):
                assert abs(row.values[r]) <= math.factorial(r) / w ** (r + 1) * (1 + 1e-12)

    def test_len_reports_orders(self):
        row = g_derivative_row(0.25, 1.0, 6)
        assert len(row) == 6


class TestLogGamma:
    def test_matches_math_lgamma_on_reals(self):
        for x in (0.25, 1.0, 4.5, 20.0):
            assert log_gamma(x).real == pytest.approx(math.lgamma(x), rel=1e-14)
            assert log_gamma(x).imag == 0.0

    def test_reflection_against_direct_gamma(self):
        z = 0.25 + 0.5j
        assert cmath.exp(log_gamma(z)) * cmath.exp(log_gamma(1 - z)) == pytest.approx(
            math.pi / cmath.sin(math.pi * z), rel=1e-12
        )

    def test_pole_raises(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-3.0)

    @pytest.mark.parametrize("z", [0.0, -1.0, -2 + 0j, -7.0])
    @pytest.mark.parametrize("w", [0.5, 2.5, 40.0])
    def test_kernel_pole_raises(self, z, w):
        # the series divides by z + k = 0 below the crossover |z| + 1; every
        # entry point refuses such z on both sides of it
        with pytest.raises(DomainError, match="poles"):
            _g_kernel_arr(z, np.array([w]))
        with pytest.raises(DomainError, match="poles"):
            g_kernel(z, w)
        with pytest.raises(DomainError, match="poles"):
            incomplete_gamma_upper(z, w)
        with pytest.raises(DomainError, match="poles"):
            weight_v(2.0 * z, w)

    def test_kernel_near_pole_has_values(self):
        # one ulp off a pole, or off the real axis, z is in the domain
        for z in (np.nextafter(-1.0, 0.0), -1.0 + 1e-9j, 1e-300):
            assert np.isfinite(_g_kernel_arr(z, np.array([0.5, 40.0]))).all()


class TestIncompleteGamma:
    def test_against_kernel_relation(self):
        # Gamma(z, w) = w^z G_z(w) by definition of the kernel
        for z, w in [(0.25 + 0.15j, 0.9), (1.5, 12.0)]:
            lhs = incomplete_gamma_upper(z, w)
            rhs = cmath.exp(z * cmath.log(w)) * g_kernel(z, w)
            assert abs(lhs - rhs) <= 1e-14 * abs(rhs)

    def test_z_one_value(self):
        assert incomplete_gamma_upper(1.0, 3.0) == pytest.approx(math.exp(-3.0), rel=1e-13)


class TestThetaPhase:
    @pytest.mark.parametrize("t,parity,q,ref", _THETA_REFERENCE)
    def test_frozen_references(self, t, parity, q, ref):
        assert theta_phase(t, parity, q) == pytest.approx(ref, abs=1e-13)

    def test_t_zero_even_parity_vanishes(self):
        for q in (5, 101, 10007):
            assert theta_phase(0.0, 0, q) == 0.0

    def test_odd_in_t(self):
        for t in (0.2, 1.7):
            assert theta_phase(-t, 0, 33) == pytest.approx(-theta_phase(t, 0, 33), rel=1e-13)

    def test_asymptotic_form(self):
        # Stirling with the 1/(12z) correction pins theta to ~1e-4 at t = 8
        t, q = 8.0, 9973
        direct = theta_phase(t, 0, q)
        z = (0.5 + 1j * t) / 2.0
        stirling = (
            (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2 * math.pi) + 1.0 / (12.0 * z)
        ).imag + (t / 2.0) * math.log(q / math.pi)
        assert direct == pytest.approx(stirling, abs=1e-3)

    def test_parity_validation(self):
        with pytest.raises(DomainError):
            theta_phase(0.3, 2, 5)


class TestWeightV:
    @pytest.mark.parametrize("t,w,ref", _V_REFERENCE)
    def test_frozen_references(self, t, w, ref):
        val = weight_v(0.5 + 1j * t, w)
        assert abs(val - ref) <= 1e-12 * max(abs(ref), 1e-14)

    def test_limit_at_zero(self):
        # V(w) -> 1 as w -> 0+; the leading defect is w^(1/4)/(z2 Gamma(z2))
        w = 1e-9
        val = weight_v(0.5, w).real
        defect = w ** 0.25 / (0.25 * math.gamma(0.25))
        assert val == pytest.approx(1.0 - defect, abs=1e-5)
        assert 0.0 < val < 1.0

    def test_decay(self):
        assert abs(weight_v(0.5, 60.0)) < 1e-24


class TestPrefactors:
    def test_g_prefactor_closed_form(self):
        # g(q) = exp(pi i (q(q-2) - 1)/8) / (2 sqrt 2), 16-periodic angle
        for q in (1, 3, 5, 7, 9, 11, 13, 15, 17, 10001):
            expect = cmath.exp(1j * math.pi * ((q * (q - 2) - 1) % 16) / 8.0) / (2 * math.sqrt(2))
            assert g_prefactor(q) == pytest.approx(expect, rel=1e-15)

    def test_g_prefactor_q1_value(self):
        assert g_prefactor(1) == pytest.approx(cmath.exp(-1j * math.pi / 4) / (2 * math.sqrt(2)), rel=1e-12)

    def test_g_prefactor_modulus(self):
        for q in (1, 5, 9, 13, 445):
            assert abs(g_prefactor(q)) == pytest.approx(1.0 / (2 * math.sqrt(2)), rel=1e-15)

    def test_g_prefactor_period_sixteen(self):
        for q in (1, 3, 5, 7):
            assert g_prefactor(q) == pytest.approx(g_prefactor(q + 16), rel=1e-15)

    def test_g_prefactor_rejects_even(self):
        with pytest.raises(DomainError):
            g_prefactor(4)

    def test_c_prefactor_pi_cancellation(self):
        # at q = pi the prefactor collapses to 1/Gamma(1/4 + it/2)
        from qlbatch.special import c_prefactor

        t = 0.4
        val = c_prefactor(t, math.pi)
        assert val == pytest.approx(cmath.exp(-log_gamma(0.25 + 0.2j)), rel=1e-13)

    def test_c_prefactor_magnitude_growth(self):
        # |C(0, q)| = (pi/q)^(1/4) / Gamma(1/4)
        from qlbatch.special import c_prefactor

        for q in (5.0, 10007.0):
            expect = (math.pi / q) ** 0.25 / math.gamma(0.25)
            assert abs(c_prefactor(0.0, q)) == pytest.approx(expect, rel=1e-13)
