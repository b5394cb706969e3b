"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with pytest -s) and asserts both
the criterion and its runtime budget.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np

from dimsurgery.bitseq import BitSequence, gen_bernoulli, gen_coin, gen_join_dup
from dimsurgery.dimension import (
    chunk_boundary,
    chunk_count,
    chunk_dims,
    dim_series,
    planned_distance,
)
from dimsurgery.duplication import duplication_decode, duplication_encode
from dimsurgery.entropy import (
    buffer_schedule,
    entropy,
    entropy_inv,
    raise_profile,
    verify_concavity_lemma,
    verify_convexity_lemma,
)
from dimsurgery.estimators import BernoulliOracle
from dimsurgery.hamming import (
    delsarte_piret_bound,
    greedy_cover,
    harper_far_count,
    sphere_words,
    verify_harper,
)
from dimsurgery.surgery import (
    apply_plan,
    plan_lower,
    plan_raise,
    plan_randomize,
)


class Timer:
    def __init__(self, budget_s: float):
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False

    def check(self):
        assert self.elapsed < self.budget, (
            f"runtime {self.elapsed:.1f}s over budget {self.budget}s")


def test_criterion_1_entropy_calculus():
    with Timer(5.0) as t:
        ys = np.random.default_rng(42).uniform(0.0, 1.0, 1_000_000)
        xs = entropy_inv(ys)
        worst = float(np.max(np.abs(entropy(xs) - ys)))
        assert worst <= 1e-12
        assert entropy_inv(1.0) == 0.5
        assert 0.385 <= 0.5 - entropy_inv(0.5) <= 0.395
        assert 0.105 <= entropy_inv(0.5) <= 0.115
    t.check()
    print(f"\nPASS criterion 1: round-trip worst={worst:.2e}, "
          f"Hinv(1/2)={float(entropy_inv(0.5)):.4f} ({t.elapsed:.1f}s)")


def test_criterion_2_convexity_concavity():
    with Timer(30.0) as t:
        for delta in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45):
            rep = verify_convexity_lemma(delta, grid_step=1e-3)
            assert rep.sign_pattern_ok, f"delta={delta}: {rep}"
            assert rep.inflection is not None
        # 500x500 (a, x) grid with second differences <= 1e-6; h'' >= -1e-9
        rep = verify_concavity_lemma(grid_step=2e-3, tol=1e-6, h_tol=1e-9)
        assert rep.sign_pattern_ok, rep
        assert rep.worst_violation == 0.0
    t.check()
    print(f"\nPASS criterion 2: 9 deltas single sign change, "
          f"500x500 concavity grid clean ({t.elapsed:.1f}s)")


def test_criterion_3_harper():
    with Timer(60.0) as t:
        tightest = None
        for n in range(1, 11):
            rep = verify_harper(n, trials=10_000, seed=100 + n)
            assert rep.ok, f"n={n}: {rep.failures[:3]}"
            if rep.tightest_gap is not None:
                tightest = min(tightest, rep.tightest_gap) if tightest is not None else rep.tightest_gap
    t.check()
    print(f"\nPASS criterion 3: n<=10 x 1e4 trials, zero violations, "
          f"tightest gap={tightest} bits ({t.elapsed:.1f}s)")


def test_criterion_4_harper_corollary():
    # far(A) <= far(S_hat), the sphere of |A| words, can fail; the paper's
    # 2^(nq+2) exceeds 2^n at these points and is checked on S_hat alone
    with Timer(60.0) as t:
        rng = np.random.default_rng(7)
        checked = 0
        for n in (10, 12, 14):
            for eps in (0.1, 0.2):
                q = float(entropy(0.5 - eps / 2.0))
                size = min(1 << n, math.ceil(2.0 ** (n * q)))
                sphere_far = harper_far_count(n, sphere_words(n, size), eps)
                assert sphere_far <= 2.0 ** (n * q + 2), (n, eps, sphere_far)
                for _ in range(20):
                    words = rng.choice(1 << n, size=size, replace=False)
                    far = harper_far_count(n, words, eps)
                    assert far <= sphere_far, (n, eps, far, sphere_far)
                    checked += 1
    t.check()
    print(f"\nPASS criterion 4: {checked} far-count trials within far(S_hat) "
          f"<= 2^(nq+2) ({t.elapsed:.1f}s)")


def test_criterion_5_covering():
    with Timer(120.0) as t:
        cases = 0
        for n in range(1, 19):
            for ratio in (0.1, 0.2, 0.3, 0.4):
                r = max(1, int(ratio * n + 0.5))
                book = greedy_cover(n, r)
                assert len(book.words) < delsarte_piret_bound(n, r), (n, r)
                assert book.coverage_fraction == 1.0
                cases += 1
    t.check()
    print(f"\nPASS criterion 5: {cases} covers within the Delsarte-Piret bound, "
          f"coverage exhaustive ({t.elapsed:.1f}s)")


N_BITS_RAISE = 1_000_000


def test_criterion_6_raise_to_random_tightness():
    est = BernoulliOracle()
    with Timer(120.0) as t:
        for s in (0.25, 0.5, 0.75):
            p = float(entropy_inv(s))
            want = 0.5 - p
            for seed in range(20):
                x = gen_bernoulli(p, N_BITS_RAISE, seed=1000 * seed + int(100 * s))
                s_seq = chunk_dims(x, est)
                plan = plan_randomize(s_seq)
                _, report = apply_plan(x, plan, est, seed=seed)
                assert report.dim_after >= 0.98, (s, seed, report.dim_after)
                assert abs(report.distance - want) <= 0.03, (s, seed, report.distance)
    t.check()
    print(f"\nPASS criterion 6: 3 dims x 20 seeds, dim>=0.98, "
          f"|distance-(1/2-Hinv(s))|<=0.03 ({t.elapsed:.1f}s)")


def test_criterion_7_raise_s_to_t(paper_plan):
    est = BernoulliOracle()
    pairs = [(s, t) for s in (0.25, 0.5, 0.75) for t in (0.6, 0.8) if s < t]
    with Timer(120.0) as t_budget:
        for s, t in pairs:
            p = float(entropy_inv(s))
            want = float(entropy_inv(t) - entropy_inv(s))
            for seed in range(20):
                x = gen_bernoulli(p, N_BITS_RAISE, seed=7000 + 100 * seed + int(10 * t))
                s_seq = chunk_dims(x, est)
                plan = plan_raise(s_seq, t)  # arithmetic invariant inside
                # plan-level invariant, re-checked explicitly
                deltas = plan.deltas()
                # water-filling plans no more than the paper's plan from s
                assert planned_distance(deltas) <= planned_distance(
                    paper_plan(s_seq, s, t)[1]), (s, t, seed)
                js = np.arange(1, len(deltas) + 1, dtype=np.float64)
                series = np.cumsum(deltas * js ** 2) / (js * (js + 1) * (2 * js + 1) / 6.0)
                ts = max(10, len(deltas) // 2)
                eps_max = max(e.eps_j for e in plan.entries)
                assert series[ts - 2:].max() <= want + eps_max + 1.0 / ts + 1e-12
                _, report = apply_plan(x, plan, est, seed=seed)
                assert report.dim_after >= t - 0.03, (s, t, seed, report.dim_after)
                assert abs(report.distance - want) <= 0.05, (s, t, seed, report.distance)
    t_budget.check()
    print(f"\nPASS criterion 7: {len(pairs)} (s,t) pairs x 20 seeds, "
          f"dim>=t-0.03, |distance-(g(t)-g(s))|<=0.05 ({t_budget.elapsed:.1f}s)")


def test_criterion_8_lower():
    n_bits = 300_000
    with Timer(120.0) as t:
        for s in (0.3, 0.5):
            bound = float(entropy_inv(1.0 - s))
            for seed in range(5):
                x = gen_coin(n_bits, seed=800 + seed)
                count = chunk_count(n_bits)
                plan = plan_lower(count, s)
                _, report = apply_plan(x, plan, BernoulliOracle())
                assert report.distance <= bound + 0.03, (s, seed, report.distance)
                assert report.codebook_rate <= s + 0.05, (s, seed, report.codebook_rate)
    t.check()
    print(f"\nPASS criterion 8: lower to s in {{0.3,0.5}} with systematic linear "
          f"block codes, distance and rate in budget ({t.elapsed:.1f}s)")


def test_criterion_9_duplication_coder():
    n = 10_000
    radius = float(entropy_inv(0.5))
    bound = n + radius * n + n / 4.0 + 2.0 * math.log2(n) + 16.0
    rng = np.random.default_rng(99)
    with Timer(30.0) as t:
        for trial in range(1000):
            y = gen_join_dup(n, seed=trial)
            x = BitSequence(y.bits.copy())
            flips = rng.choice(n, size=int(radius * n), replace=False)
            x.bits[flips] ^= 1
            wire = duplication_encode(x, y)
            assert duplication_decode(wire, n) == y, trial
            length = wire.size
            assert length <= bound, (trial, length)
    t.check()
    print(f"\nPASS criterion 9: 1000 instances at n=1e4, exact round trip, "
          f"length <= {bound:.0f} bits ({t.elapsed:.1f}s)")


def test_criterion_10_buffer_schedule():
    horizon = 10_000
    c = 10.0
    families = {
        "constant": [0.5] * horizon,
        "alternating": [0.2 if i % 2 else 0.8 for i in range(horizon)],
        "drifting": [0.3 + 0.3 * i / horizon for i in range(horizon)],
    }
    with Timer(10.0) as t:
        for name, s_seq in families.items():
            s_sur = dim_series(s_seq).tail_min
            assert s_sur <= 0.9
            sched = buffer_schedule(c, s_seq)
            b = sched.b
            m_vals = np.asarray(raise_profile(np.asarray(s_seq), sched.eps))
            prefix = 0.0
            for j in range(1, horizon + 1):
                prefix += m_vals[j - 1] * j * j
                assert prefix - c * j * j > s_sur * chunk_boundary(j) - b, (name, j)
    t.check()
    print(f"\nPASS criterion 10: 3 families x horizon 1e4, buffer inequality "
          f"holds at every index ({t.elapsed:.1f}s)")
