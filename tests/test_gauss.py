"""Gauss sums: quarter-length identity, divisor scaling, reconstruction."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlbatch import DomainError
from qlbatch.arith import quad_character
from qlbatch.gauss import (
    _gauss_sum_fast_many,
    character_from_gauss,
    gauss_sum_direct,
    gauss_sum_fast,
)


def _exact_angle_sum(b: int, n: int) -> complex:
    # reference with fsum and per-term exact angle reduction
    re = []
    im = []
    for ell in range(2 * n):
        ang = (b * ell * ell) % (2 * n)
        re.append(math.cos(math.pi * ang / n))
        im.append(math.sin(math.pi * ang / n))
    return complex(math.fsum(re), math.fsum(im))


class TestDirectSum:
    def test_pinned_small_values(self):
        assert gauss_sum_direct(1, 2) == pytest.approx(2 + 2j, abs=1e-12)
        assert gauss_sum_direct(1, 1) == pytest.approx(0.0, abs=1e-14)  # 1 + e^(i pi)
        assert gauss_sum_direct(3, 2) == pytest.approx(2 - 2j, abs=1e-12)

    def test_against_fsum_reference(self, rng):
        for _ in range(40):
            b = int(rng.integers(0, 200)) * 2 + 1
            n = int(rng.integers(1, 150))
            ref = _exact_angle_sum(b, n)
            val = gauss_sum_direct(b, n)
            assert abs(val - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_rejects_even_b(self):
        with pytest.raises(DomainError):
            gauss_sum_direct(2, 5)
        with pytest.raises(DomainError):
            gauss_sum_direct(-3, 5)

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            gauss_sum_direct(3, 0)


class TestQuarterLength:
    def test_matches_direct_everywhere(self, rng):
        for _ in range(150):
            b = int(rng.integers(0, 500)) * 2 + 1
            m = int(rng.integers(1, 250))
            fast = gauss_sum_fast(b, m)
            ref = gauss_sum_direct(b, 2 * m)
            assert abs(fast - ref) <= 1e-9 * max(1.0, abs(ref)), (b, m)

    def test_residue_class_tails(self):
        # both b mod 4 branches, all four m mod 4 classes
        for b in (1, 3, 5, 7, 9, 11):
            for m in (1, 2, 3, 4, 5, 6, 7, 8):
                assert gauss_sum_fast(b, m) == pytest.approx(
                    gauss_sum_direct(b, 2 * m), abs=1e-10 * m
                )

    def test_magnitude_on_coprime_arguments(self):
        # |g_q(2n)| = 2 sqrt(2 n) when gcd(n, q) = 1 and q is fundamental
        for q in (5, 13, 17, 21):
            for n in range(1, 40):
                if math.gcd(n, q) != 1:
                    continue
                assert abs(gauss_sum_fast(q, n)) == pytest.approx(
                    2.0 * math.sqrt(2.0 * n), rel=1e-10
                )

    def test_batched_helper_matches_scalar(self, rng):
        b = 105
        ms = rng.integers(1, 400, size=64)
        batch = _gauss_sum_fast_many(b, ms)
        for i in range(0, 64, 5):
            single = gauss_sum_fast(b, int(ms[i]))
            assert abs(batch[i] - single) <= 1e-12 * max(1.0, abs(single))

    def test_batched_helper_empty(self):
        assert _gauss_sum_fast_many(3, np.array([], dtype=np.int64)).size == 0


class TestDivisorScaling:
    def test_scaling_identity(self, rng):
        # g_(a b)(2 a m) = a g_b(2 m) for odd coprime a, b
        triples = 0
        while triples < 60:
            a = int(rng.integers(0, 20)) * 2 + 1
            b = int(rng.integers(0, 60)) * 2 + 1
            m = int(rng.integers(1, 50))
            if math.gcd(a, b) != 1 or a * b > 2000:
                continue
            triples += 1
            lhs = gauss_sum_direct(a * b, 2 * a * m)
            rhs = a * gauss_sum_fast(b, m)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs)), (a, b, m)

    def test_scaling_collapses_at_b_one(self):
        # full conductor divides the argument: g_q(2 q m) = q g_1(2m)
        for q in (3, 5, 15):
            for m in (1, 2, 7):
                lhs = gauss_sum_direct(q, 2 * q * m)
                rhs = q * gauss_sum_fast(1, m)
                assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


class TestCharacterReconstruction:
    def test_spec_value_q5_n2(self):
        assert character_from_gauss(5, 2).real == pytest.approx(-1.0, abs=1e-12)
        assert abs(character_from_gauss(5, 2).imag) < 1e-12

    def test_matches_quad_character(self):
        for q in (1, 5, 13, 17, 21, 29, 33, 105, 145, 445):
            for n in range(1, 80):
                if math.gcd(n, q) != 1:
                    continue
                rec = character_from_gauss(q, n)
                assert abs(rec - quad_character(q, n)) <= 1e-9, (q, n)

    def test_imaginary_part_vanishes(self, rng):
        for _ in range(30):
            q = int(rng.choice([5, 13, 17, 29, 37, 41, 53, 61, 65, 145]))
            n = int(rng.integers(1, 500))
            if math.gcd(n, q) != 1:
                continue
            assert abs(character_from_gauss(q, n).imag) <= 1e-9

    def test_rejects_shared_factor(self):
        with pytest.raises(DomainError):
            character_from_gauss(5, 10)

    def test_rejects_non_fundamental(self):
        with pytest.raises(DomainError):
            character_from_gauss(15, 2)
        with pytest.raises(DomainError):
            character_from_gauss(9, 2)

    @given(st.sampled_from([5, 13, 17, 29, 33, 57, 105]), st.integers(1, 300))
    def test_reconstruction_property(self, q, n):
        if math.gcd(n, q) != 1:
            return
        assert abs(character_from_gauss(q, n) - quad_character(q, n)) <= 1e-9
