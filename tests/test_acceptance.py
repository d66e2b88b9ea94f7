"""Acceptance suite: one test per shipped guarantee, pinned tolerances.

Each test prints a single summary line with its measured figure so a -s run
reads as a checklist.  Tolerances here are contractual; do not loosen them
to make a failing build pass.
"""

import inspect
import math
import time

import numpy as np
import pytest

from qlbatch import BatchRequest, OpCounter, Window, compare_with_oracle, oracle_sweep, run_batch
from qlbatch.arith import CharacterSieve, _is_fundamental_odd_positive_int
from qlbatch.gauss import (
    _gauss_sum_fast_many,
    character_from_gauss,
    gauss_sum_direct,
    gauss_sum_fast,
)
from qlbatch.multieval import EvalGrid, NodeSum, direct_eval, fast_eval
from qlbatch.oracle import direct_F
from qlbatch.special import c_prefactor, g_derivative_row, g_prefactor, weight_v
from qlbatch.taylor import build_coefficient_table, plan_budget, tail_bound, taylor_remainder_bound

_Q = 10_000
_DELTA = 4_999
_EPS = 1e-6


def _odd_squarefree(limit):
    out = []
    for q in range(1, limit + 1, 2):
        p, m, free = 3, q, True
        while p * p <= m:
            if m % (p * p) == 0:
                free = False
                break
            if m % p == 0:
                m //= p
            p += 2
        if free:
            out.append(q)
    return out


def _distinct_primes(q):
    """The distinct prime factors of q, ascending, by trial division."""
    out, p = [], 2
    while p * p <= q:
        if q % p == 0:
            out.append(p)
            while q % p == 0:
                q //= p
        p += 1 if p == 2 else 2
    return out + [q] if q > 1 else out


def test_criterion_01_end_to_end_window_accuracy():
    # full window against the per-conductor oracle at three heights
    worst = 0.0
    n_chars = 0
    for t in (0.0, 0.3, 1.0):
        result = run_batch(BatchRequest(Window(_Q, _DELTA), t, _EPS))
        cmp = compare_with_oracle(result)
        n_chars = result.n_characters
        assert n_chars > 900
        assert cmp.max_dev < _EPS, t
        worst = max(worst, cmp.max_dev)
    print(
        f"criterion 01 PASS: max |Z_fast - Z_oracle| = {worst:.3e} < 1e-06 "
        f"over {n_chars} conductors x 3 heights"
    )


def test_criterion_02_gauss_character_identity():
    qs = [q for q in range(1, 2001) if _is_fundamental_odd_positive_int(q)]
    sieve = CharacterSieve(200)
    ns_all = np.arange(1, 201)
    pairs = 0
    worst = worst_im = 0.0
    for q in qs:
        ns = ns_all[np.gcd(ns_all, q) == 1]
        vals = _gauss_sum_fast_many(q, ns) * (g_prefactor(q) / np.sqrt(ns))
        chi = sieve.values(q)[ns]
        worst = max(worst, float(np.max(np.abs(vals - chi))))
        worst_im = max(worst_im, float(np.max(np.abs(vals.imag))))
        pairs += ns.size
    assert worst < 1e-9
    assert worst_im < 1e-9
    # the public scalar op must agree with the bulk kernel used above
    rng = np.random.default_rng(11)
    for _ in range(200):
        q = int(rng.choice(qs))
        n = int(rng.integers(1, 201))
        if math.gcd(n, q) != 1:
            continue
        assert abs(character_from_gauss(q, n) - sieve.values(q)[n]) < 1e-9
    print(
        f"criterion 02 PASS: max |g(q) g_q(2n)/sqrt(n) - chi_q(n)| = {worst:.3e} "
        f"over {pairs} pairs (max imag {worst_im:.3e})"
    )


def test_criterion_03_quarter_length_identity():
    worst = 0.0
    for b in range(1, 100, 2):
        for m in range(1, 101):
            fast = gauss_sum_fast(b, m)
            full = gauss_sum_direct(b, 2 * m)
            rel = abs(fast - full) / max(1.0, abs(full))
            worst = max(worst, rel)
    assert worst < 1e-9
    print(f"criterion 03 PASS: quarter-length vs direct rel dev = {worst:.3e} over 5000 pairs")


def test_criterion_04_scaling_identity():
    worst = 0.0
    pairs = 0
    m = np.arange(1, 51)
    for q in _odd_squarefree(1000):
        for a in range(1, q + 1):
            if q % a:
                continue
            b = q // a
            left = _gauss_sum_fast_many(q, a * m)
            right = a * _gauss_sum_fast_many(b, m)
            dev = np.abs(left - right) / np.maximum(1.0, np.abs(right))
            worst = max(worst, float(dev.max()))
            pairs += m.size
    assert worst < 1e-9
    print(f"criterion 04 PASS: g_q(2am) = a g_b(2m) rel dev = {worst:.3e} over {pairs} pairs")


def test_criterion_05_series_tail_bound():
    budget = plan_budget(_Q, _DELTA, _EPS, 0.0)
    N = budget.N
    bound = tail_bound(N, _Q)
    worst = 0.0
    for t in (0.0, 1.0):
        z = 0.5 + 1j * t
        for q in (_Q, _Q + _DELTA - 1):
            tail = 2.0 * math.fsum(
                n ** -0.5 * abs(weight_v(z, math.pi * n * n / q))
                for n in range(N + 1, 4 * N + 1)
            )
            assert tail <= bound, (t, q)
            worst = max(worst, tail)
    assert bound < budget.epsilon1
    print(
        f"criterion 05 PASS: measured tail {worst:.3e} <= bound {bound:.3e} "
        f"< eps1 {budget.epsilon1:.3e}"
    )


def _series_inner(q, t, table, R_use, x):
    """R_use-term Taylor reconstruction of F without the batch machinery."""
    acc = np.zeros(R_use, dtype=np.complex128)
    # the divisors a <= N of squarefree q, signed (-1)^omega(a)
    for a in range(1, table.N + 1):
        if q % a:
            continue
        sign = (-1) ** len(_distinct_primes(a))
        b = q // a
        M = table.N // a
        m = np.arange(1, M + 1)
        gs = _gauss_sum_fast_many(b, m)
        block = table.c[:R_use, a * m - 1]
        acc += (sign * math.sqrt(a)) * (block * (gs / np.sqrt(m))).sum(axis=1)
    xp = x ** np.arange(R_use, dtype=np.float64)
    return complex(c_prefactor(t, q) * g_prefactor(q) * np.dot(acc, xp))


def test_criterion_06_taylor_remainder_bound():
    budget = plan_budget(_Q, _DELTA, _EPS, 0.0)
    bound = taylor_remainder_bound(budget.N, _Q, _DELTA, budget.R)
    assert bound < budget.epsilon2
    # the smallest and largest fundamental conductors in the window: the
    # planner's expansion point c balances |x| between them, so each sits
    # about rho = 1/5 away in the x variable
    c = budget.centre
    worst = 0.0
    for q in (10_001, 14_997):
        assert _is_fundamental_odd_positive_int(q)
        x = (c - q) / q
        for t in (0.0, 1.0):
            table = build_coefficient_table(t, c, budget.N, 2 * budget.R)
            f_r = _series_inner(q, t, table, budget.R, x)
            f_2r = _series_inner(q, t, table, 2 * budget.R, x)
            assert abs(f_2r - f_r) <= bound, (q, t)
            worst = max(worst, abs(f_2r - f_r))
            # the doubled expansion must land on the independent oracle
            f_direct = direct_F(q, t, N=table.N, form="v")
            assert abs(f_2r - f_direct) < 1e-9, (q, t)
    print(
        f"criterion 06 PASS: measured remainder {worst:.3e} <= bound {bound:.3e} "
        f"< eps2 {budget.epsilon2:.3e}"
    )


def test_criterion_07_coefficient_magnitude_bounds():
    worst_c = worst_row = 0.0
    for t in (0.0, 0.3, 1.0):
        budget = plan_budget(_Q, _DELTA, _EPS, t)
        table = build_coefficient_table(t, _Q, budget.N, budget.R)
        n = np.arange(1, budget.N + 1, dtype=np.float64)
        w = math.pi * n * n / _Q
        cap = _Q / math.pi
        mags = np.abs(table.c)
        assert np.max(mags) <= cap * (1.0 + 1e-12)
        # |c_r| w_n <= 1 is the derivative bound r!/w^{r+1} in table form
        assert np.max(mags * w) <= 1.0 + 1e-12
        worst_c = max(worst_c, float(np.max(mags) / cap))
        z = 0.25 + 0.5j * t
        for wv in (0.05, 0.31, 1.0, 5.5, 20.0, 120.0):
            row = g_derivative_row(z, wv, 64).values
            r = np.arange(64, dtype=np.float64)
            log_bound = np.vectorize(math.lgamma)(r + 1.0) - (r + 1.0) * math.log(wv)
            with np.errstate(divide="ignore"):
                log_mag = np.log(np.abs(row))
            assert np.all(log_mag <= log_bound + 1e-9), (t, wv)
            worst_row = max(worst_row, float(np.max(log_mag - log_bound)))
    print(
        f"criterion 07 PASS: max |c_r|/(Q/pi) = {worst_c:.3e}, "
        f"max log(|G^(r)| w^(r+1)/r!) = {worst_row:.3e} <= 0"
    )


def _random_problem(rng):
    while True:
        kx = int(rng.integers(4, 13))
        hx = int(rng.integers(4, 13))
        # direct_eval is the oracle here; cap K*H so it stays affordable
        if kx + hx <= 20:
            break
    K, H = 1 << kx, 1 << hx
    R = int(rng.integers(1, 4))
    if rng.random() < 0.5:
        den = 1 << 20
        nums = rng.choice(den, size=K, replace=False)
        dens = np.full(K, den, dtype=np.int64)
    else:
        dens = rng.integers(3, 1 << 20, size=K)
        nums = rng.integers(0, dens)
    coeffs = rng.standard_normal((R, K)) + 1j * rng.standard_normal((R, K))
    coeffs *= 10.0 ** rng.uniform(-2.0, 2.0)
    p = NodeSum.from_fractions(nums, dens, coeffs)
    g = EvalGrid(int(rng.integers(1, 1 << 20)), H)
    return p, g


def test_criterion_08_multieval_contract():
    rng = np.random.default_rng(20240818)
    eps3 = 1e-9
    worst = 0.0
    for i in range(50):
        p, g = _random_problem(rng)
        force = "auto" if i < 30 else "transform"
        ref = direct_eval(p, g)
        got = fast_eval(p, g, eps3, force=force)
        dev = float(np.max(np.abs(got - ref))) / p.scale
        assert dev < eps3, (i, p.K, g.H, force)
        worst = max(worst, dev)

    # operation count may at most 2.4x when H doubles, on both sides of
    # the direct/transform crossover
    worst_ratio = 0.0
    for K, R in ((1 << 8, 2), (1 << 12, 4)):
        den = 1 << 20
        nums = rng.choice(den, size=K, replace=False)
        coeffs = rng.standard_normal((R, K)) + 1j * rng.standard_normal((R, K))
        p = NodeSum.from_fractions(nums, np.full(K, den, dtype=np.int64), coeffs)
        ops = []
        for hx in range(4, 13):
            c = OpCounter()
            fast_eval(p, EvalGrid(1000, 1 << hx), eps3, c)
            ops.append(c.get("fast_eval_ops"))
        for lo, hi in zip(ops, ops[1:]):
            ratio = hi / lo
            assert ratio <= 2.4, (K, R, ops)
            worst_ratio = max(worst_ratio, ratio)
    print(
        f"criterion 08 PASS: max |fast - direct|/scale = {worst:.3e} < 1e-09 "
        f"over 50 problems; max H-doubling op ratio {worst_ratio:.2f} <= 2.4"
    )


def test_criterion_09_amortized_scaling():
    works = []
    rec_c = 0.0
    for e in (14, 15, 16, 17):
        Q = 1 << e
        win = Window(Q, Q // 2)
        result = run_batch(BatchRequest(win, 0.0, _EPS))
        works.append(result.precompute_ops)
        R = result.budget.R
        for q, ops in zip(result.q.tolist(), result.recovery_ops.tolist()):
            d = 2 ** len(_distinct_primes(q))
            rec_c = max(rec_c, ops / (d * R))
    ratios = [hi / lo for lo, hi in zip(works, works[1:])]
    assert all(r <= 2.6 for r in ratios), ratios
    assert rec_c <= 4.0
    pretty = ", ".join(f"{r:.2f}" for r in ratios)
    print(
        f"criterion 09 PASS: precompute doubling ratios [{pretty}] all <= 2.6; "
        f"recovery ops <= {rec_c:.2f} * d(q) * R"
    )


def test_criterion_10_amortized_speedup():
    win = Window(200_000, 100_000)
    result = run_batch(BatchRequest(win, 0.0, _EPS))
    t0 = time.perf_counter()
    refs = oracle_sweep(win, 0.0, _EPS)
    direct_wall = time.perf_counter() - t0
    assert refs.q.size == result.n_characters
    spot = 0.0
    for q, z, ref_q, ref_Z in list(zip(result.q, result.Z, refs.q, refs.Z))[::100]:
        assert q == ref_q
        spot = max(spot, abs(z - ref_Z))
    assert spot < _EPS
    ratio = direct_wall / result.timings["wall_s"]
    assert ratio > 1.0
    print(
        f"criterion 10 PASS: fast {result.timings['wall_s']:.1f} s vs per-conductor "
        f"{direct_wall:.1f} s over {result.n_characters} conductors "
        f"(speedup {ratio:.1f}x, spot dev {spot:.1e})"
    )


def test_criterion_11_evenness_in_t():
    t = 0.4
    plus = run_batch(BatchRequest(Window(_Q, 128), t, _EPS))
    minus = run_batch(BatchRequest(Window(_Q, 128), -t, _EPS))
    assert plus.n_characters >= 20
    worst = 0.0
    for qp, qm, zp, zm in zip(plus.q, minus.q, plus.Z, minus.Z):
        assert qp == qm
        worst = max(worst, abs(zp - zm))
    assert worst < 2 * _EPS
    print(
        f"criterion 11 PASS: max |Z(t) - Z(-t)| = {worst:.3e} < 2e-06 "
        f"over {plus.n_characters} conductors at t = 0.4"
    )


def test_criterion_12_convention_adjudication():
    # exactly one assembly convention ships as the default and it must pass;
    # the losing one is kept behind a switch and its deviation recorded here
    sig = inspect.signature(run_batch)
    assert sig.parameters["convention"].default == "sqrt_a"
    win = Window(_Q, 64)
    kept = compare_with_oracle(run_batch(BatchRequest(win, 0.0, _EPS)))
    lost = compare_with_oracle(
        run_batch(BatchRequest(win, 0.0, _EPS), convention="plain_a")
    )
    assert kept.max_dev < _EPS
    assert lost.max_dev > 1e-2
    print(
        f"criterion 12 PASS: default sqrt_a dev {kept.max_dev:.3e} < 1e-06; "
        f"plain_a dev {lost.max_dev:.3e} documented as losing convention"
    )
