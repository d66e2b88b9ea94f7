"""Arithmetic layer: Jacobi symbols, window sieve, divisor structure.

Oracles here are deliberately naive: Euler's criterion for prime symbols,
trial division for factorizations and squarefreeness, subset enumeration
for divisor terms.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qlbatch import DomainError, OpCounter, Window
from qlbatch.arith import (
    CharacterSieve,
    FactoredWindow,
    _SIEVE_BLOCK,
    _is_fundamental_odd_positive_int,
    jacobi,
    quad_character,
    sieve_factor_window,
)


def _trial_factor(n: int):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_squarefree(n: int) -> bool:
    fs = _trial_factor(n)
    return len(fs) == len(set(fs))


def _odd_primes(limit: int):
    return [p for p in range(3, limit + 1, 2) if len(_trial_factor(p)) == 1]


class TestJacobi:
    def test_euler_criterion_over_primes(self):
        # (a/p) = a^((p-1)/2) mod p for odd primes
        for p in _odd_primes(200):
            for a in range(0, p):
                e = pow(a, (p - 1) // 2, p)
                expect = 0 if e == 0 else (1 if e == 1 else -1)
                assert jacobi(a, p) == expect, (a, p)

    def test_multiplicative_in_denominator(self):
        # (a/mn) = (a/m)(a/n) for odd m, n
        for a in range(1, 40):
            for m in (3, 5, 9, 15):
                for n in (7, 11, 21):
                    assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)

    def test_periodic_in_numerator(self):
        for n in (5, 9, 15, 21, 105):
            for a in range(0, 2 * n):
                assert jacobi(a, n) == jacobi(a + n, n)

    def test_rejects_even_or_nonpositive_denominator(self):
        with pytest.raises(DomainError):
            jacobi(3, 4)
        with pytest.raises(DomainError):
            jacobi(3, -5)
        with pytest.raises(DomainError):
            jacobi(3, 0)

    @given(st.integers(0, 10_000), st.integers(0, 2_000))
    def test_shares_factor_iff_zero(self, a, k):
        n = 2 * k + 3
        assert (jacobi(a, n) == 0) == (math.gcd(a, n) > 1)


class TestQuadCharacter:
    def test_known_pattern_mod_five(self):
        assert [quad_character(5, n) for n in range(1, 6)] == [1, -1, -1, 1, 0]

    def test_even_arguments_supported(self):
        # chi_q(2n) is defined: q = 1 mod 4 makes the symbol fully periodic
        assert quad_character(13, 2) == jacobi(2, 13)
        assert quad_character(17, 6) == jacobi(6, 17)

    def test_total_multiplicativity(self):
        q = 145  # 5 * 29
        for m in range(1, 30):
            for n in range(1, 30):
                assert quad_character(q, m * n) == quad_character(q, m) * quad_character(q, n)

    def test_rejects_non_fundamental(self):
        for q in (9, 15, 45, 2, 12):
            with pytest.raises(DomainError):
                quad_character(q, 2)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(DomainError):
            quad_character(5, 0)


class TestWindow:
    def test_accepts_half_width(self):
        w = Window(10_000, 5_000)
        assert (w.Q, w.Delta) == (10_000, 5_000)

    def test_rejects_beyond_half(self):
        with pytest.raises(DomainError):
            Window(10_000, 5_001)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            Window(100, 0)

    @given(st.integers(2, 10_000))
    def test_widest_legal_window(self, Q):
        w = Window(Q, Q // 2)
        assert 2 * w.Delta <= w.Q


def _trial_window(qs):
    """FactoredWindow of the given ascending conductors, by trial division."""
    factors = [_trial_factor(q) for q in qs]
    primes = [sorted(set(fs)) for fs in factors]
    return FactoredWindow(
        q=np.array(qs, dtype=np.int64),
        indptr=np.cumsum([0] + [len(ps) for ps in primes]),
        primes=np.array([p for ps in primes for p in ps], dtype=np.int64),
        squarefree=np.array([len(fs) == len(set(fs)) for fs in factors], dtype=bool),
    )


class TestSieveFactorWindow:
    def test_against_trial_division(self):
        fw = sieve_factor_window(Window(10_000, 400))
        assert fw.q.tolist() == list(range(10_001, 10_400, 2))
        assert fw.indptr[0] == 0 and fw.indptr[-1] == fw.primes.size
        for q in fw.q.tolist():
            fs = _trial_factor(q)
            rec = fw[q]
            assert rec.q.tolist() == [q]
            assert tuple(rec.primes) == tuple(sorted(set(fs)))
            assert rec.squarefree.tolist() == [len(fs) == len(set(fs))]
            assert rec.fundamental.tolist() == [len(fs) == len(set(fs)) and q % 4 == 1]

    def test_small_window(self):
        fw = sieve_factor_window(Window(3, 1))
        assert fw.q.tolist() == [3]
        assert tuple(fw[3].primes) == (3,)
        assert fw[3].fundamental.tolist() == [False]  # 3 = 3 mod 4
        with pytest.raises(KeyError):
            fw[5]

    def test_block_boundary_crossing(self):
        # q crosses 2^21; the sieve's segments start at the window's first q,
        # so only a window of more than 2^20 odd q (the property test's large
        # example) spans two of them
        base = (1 << 20) * 2 + 1 - 64
        fw = sieve_factor_window(Window(base, 128))
        for q in fw.q.tolist():
            fs = _trial_factor(q)
            assert tuple(fw[q].primes) == tuple(sorted(set(fs))), q
            assert fw[q].squarefree.tolist() == [len(fs) == len(set(fs))], q

    def test_counter_marks_scale(self):
        c1 = OpCounter()
        sieve_factor_window(Window(10_000, 500), c1)
        c2 = OpCounter()
        sieve_factor_window(Window(10_000, 1000), c2)
        assert c2.get("sieve_marks") > c1.get("sieve_marks") > 0

    def test_prime_power_flags(self):
        fw = sieve_factor_window(Window(121, 8))
        assert fw[121].squarefree.tolist() == [False]  # 11^2
        assert fw[121].fundamental.tolist() == [False]
        assert fw[125].squarefree.tolist() == [False]  # 5^3
        assert fw[127].squarefree.tolist() == [True]

    @given(st.integers(2, 1_000_000), st.integers(1, 600), st.integers(1, 20_000))
    # no odd conductor at all; 2^20 + 32 odd conductors, the last 32 in a
    # second sieve block
    @example(2, 1, 400)
    @example((1 << 22) + 256, (1 << 21) + 64, 1892)
    def test_window_and_terms_match_brute_force(self, Q, Delta, N):
        Delta = min(Delta, Q // 2)
        win = Window(Q, Delta)
        fw = sieve_factor_window(win)
        first = Q | 1
        assert fw.q.tolist() == list(range(first, Q + Delta, 2))
        assert fw.indptr.size == fw.q.size + 1 and fw.indptr[-1] == fw.primes.size
        # every row of a small window; near the ends and the block seams of a
        # large one
        rows = np.arange(fw.q.size)
        if rows.size > 1_000:
            seams = np.arange(0, rows.size + _SIEVE_BLOCK, _SIEVE_BLOCK)
            near = (seams[:, None] + np.arange(-40, 40)).ravel()
            rows = np.unique(near.clip(0, rows.size - 1))
        sub = fw.select(rows)
        ref = _trial_window(fw.q[rows].tolist())
        np.testing.assert_array_equal(sub.q, ref.q)
        np.testing.assert_array_equal(sub.indptr, ref.indptr)
        np.testing.assert_array_equal(sub.primes, ref.primes)
        np.testing.assert_array_equal(sub.squarefree, ref.squarefree)
        np.testing.assert_array_equal(sub.fundamental, ref.squarefree & (ref.q % 4 == 1))

        sqf = sub.select(sub.squarefree)
        owner, a, sign = sqf.divisor_terms(N)
        expect = []
        for row in range(sqf.q.size):
            ps = sqf.primes[sqf.indptr[row] : sqf.indptr[row + 1]].tolist()
            terms = sorted(
                (math.prod(c), (-1) ** k)
                for k in range(len(ps) + 1)
                for c in itertools.combinations(ps, k)
                if math.prod(c) <= N
            )
            expect += [(row, a_, s_) for a_, s_ in terms]
        assert list(zip(owner.tolist(), a.tolist(), sign.tolist())) == expect


class TestFundamentality:
    def test_accepts_known_fundamentals(self):
        fw = _trial_window([1, 5, 13, 17, 21, 29, 33, 105, 145, 10001])
        assert fw.fundamental.all()

    def test_rejects_wrong_residue_and_squares(self):
        # 3 and 15 are 3 mod 4, 9 is a square, 9 | 45
        fw = _trial_window([3, 9, 15, 45])
        assert fw.squarefree.tolist() == [True, False, True, False]
        assert not fw.fundamental.any()

    def test_window_agreement(self):
        # the sieve's flag agrees with the oracle's independent trial test
        fw = sieve_factor_window(Window(5_001, 600))
        for q, flag in zip(fw.q.tolist(), fw.fundamental.tolist()):
            assert flag == _is_fundamental_odd_positive_int(q), q


def _terms(q, N):
    """(a, sign) of conductor q's divisor terms, from its one-row window."""
    _, a, sign = sieve_factor_window(Window(q, 1))[q].divisor_terms(N)
    return list(zip(a.tolist(), sign.tolist()))


class TestDivisorTerms:
    def test_example_structure(self):
        assert _terms(15, 100) == [(1, 1), (3, -1), (5, -1), (15, 1)]

    def test_mobius_signs(self):
        for a, sign in _terms(105, 1000):
            omega = len(_trial_factor(a))
            assert sign == (-1) ** omega

    def test_cap_prunes(self):
        assert [a for a, _ in _terms(105, 20)] == [1, 3, 5, 7, 15]

    def test_leading_term_always_trivial(self):
        for q in (5, 21, 145, 1155):
            terms = _terms(q, 10_000)
            assert terms[0] == (1, 1)
            assert [a for a, _ in terms] == sorted(a for a, _ in terms)

    def test_full_divisor_count(self):
        assert len(_terms(1155, 10_000)) == 16  # 3*5*7*11

    def test_rejects_non_squarefree(self):
        fc = sieve_factor_window(Window(45, 1))[45]
        with pytest.raises(DomainError):
            fc.divisor_terms(100)


class TestCharacterSieve:
    def test_matches_direct_jacobi(self):
        sieve = CharacterSieve(500)
        for q in (5, 13, 17, 21, 33, 105, 10001):
            vals = sieve.values(q)
            assert vals.shape == (501,)
            for n in (1, 2, 3, 30, 97, 256, 499, 500):
                assert vals[n] == jacobi(n % q, q), (q, n)

    def test_rejects_non_fundamental(self):
        sieve = CharacterSieve(100)
        with pytest.raises(DomainError):
            sieve.values(15)

    def test_index_zero_is_zero(self):
        sieve = CharacterSieve(50)
        assert sieve.values(5)[0] == 0.0

    @given(st.sampled_from([5, 13, 17, 29, 145]), st.integers(1, 300))
    def test_character_sieve_property(self, q, n):
        sieve = CharacterSieve(300)
        assert sieve.values(q)[n] == jacobi(n % q, q)

    def test_table_matches_jacobi_on_every_fundamental(self):
        # every fundamental q < 5000 against the scalar symbol: covers p = 2,
        # primes dividing q, prime powers n and the trivial conductor q = 1
        qs = [q for q in range(1, 5000) if _is_fundamental_odd_positive_int(q)]
        table = CharacterSieve(600).table(qs)
        assert table.shape == (len(qs), 601)
        assert not table[:, 0].any()
        for q, row in zip(qs, table[:, 1:].tolist()):
            assert row == [jacobi(n % q, q) for n in range(1, 601)], q

    def test_table_rows_equal_values(self):
        sieve = CharacterSieve(300)
        qs = [1, 5, 13, 21, 105, 1157, 10001]
        for q, row in zip(qs, sieve.table(qs)):
            assert np.array_equal(row, sieve.values(q)), q

    @pytest.mark.parametrize("qs", [[3], [5, 7], [5, 15], [2], [5, 10], [-3], [0]])
    def test_table_rejects_q_not_1_mod_4(self, qs):
        with pytest.raises(DomainError):
            CharacterSieve(50).table(qs)
