"""Tests for surgery plans, chunk search and plan application, and a test-side
tight-pair construction that checks dim X <= dim Y + H(d) is nearly tight."""

import dataclasses
import importlib
import inspect
import math

import numpy as np
import pytest

from dimsurgery.bitseq import BitSequence, gen_bernoulli, gen_coin
from dimsurgery.dimension import (
    chunk_boundary,
    chunk_dims,
    default_tail_start,
    dim_series,
    planned_distance,
    sequence_dim,
    sequence_distance,
)
from dimsurgery.entropy import CASE1, case_select, entropy, entropy_inv, raise_profile
from dimsurgery.estimators import BernoulliOracle, BlockEntropy, Compressor
from dimsurgery.hamming import _expand_once, ball_offsets, ball_volume, systematic_code
from dimsurgery.surgery import (
    LOWER,
    QUANTIZER_RATE_SLACK,
    RAISE,
    WEAK_SRANDOM,
    SurgeryPlan,
    _word_to_bits,
    apply_plan,
    default_block_len,
    default_eps_seq,
    lower_chunk,
    plan_lower,
    plan_raise,
    plan_randomize,
    plan_weak_srandom,
    quantizer_codebook,
    raise_chunk,
)


class TestPlans:
    def test_randomize_formulas(self):
        plan = plan_randomize([1.0, 0.0] * 40)
        eps = default_eps_seq(80)
        # t_j = 1 and delta_j = 1/2 - g(s_j) + eps_j: eps_j at s_j = 1,
        # 1/2 + eps_j at s_j = 0, with no extra 1/j
        assert [e.delta_j for e in plan.entries[::2]] == eps[::2]
        assert [e.delta_j for e in plan.entries[1::2]] == pytest.approx(
            [0.5 + e for e in eps[1::2]], abs=1e-12)
        assert [e.eps_j for e in plan.entries] == eps
        assert all(e.t_j == 1.0 for e in plan.entries)
        # a single chunk value plans
        assert [e.delta_j for e in plan_randomize([1.0]).entries] == [eps[0]]

    def test_randomize_planned_aggregate(self):
        s = [0.5] * 200
        plan = plan_randomize(s)
        deltas = plan.deltas()
        js = np.arange(1, 201)
        avg = np.cumsum(deltas * js ** 2) / (js * (js + 1) * (2 * js + 1) / 6)
        # planned distance tends to 1/2 - g(0.5) + eps tail
        want = 0.5 - entropy_inv(0.5)
        assert avg[-1] <= want + max(default_eps_seq(200)) + 0.02
        assert avg[-1] >= want

    def test_weak_srandom_buffer_check(self):
        plan = plan_weak_srandom([0.5] * 400, c=10.0)
        assert plan.strategy == "weak_srandom"
        assert all(e.delta_j == pytest.approx(2 * e.eps_j) or e.delta_j == 1.0
                   for e in plan.entries)
        # eps nonincreasing
        eps = [e.eps_j for e in plan.entries]
        assert all(b <= a for a, b in zip(eps, eps[1:]))

    def test_weak_srandom_rejects_saturated(self):
        from dimsurgery.entropy import ScheduleError

        with pytest.raises(ScheduleError):
            plan_weak_srandom([1.0] * 100, c=1.0)

    def test_raise_delegates_to_randomize_at_t1(self):
        # randomize is the raise plan at t = 1: one planner serves both
        s_seq = np.clip(0.5 + np.random.default_rng(3).normal(0, 0.2, 80), 0, 1)
        plan = plan_randomize(s_seq)
        assert plan.strategy == RAISE
        assert plan.entries == plan_raise(s_seq, 1.0).entries
        assert all(e.t_j == 1.0 for e in plan.entries)

    def test_raise_case1_structure(self):
        # on a stationary input, where the paper takes Case 1, water-filling
        # is its flat plan up to 1/j rounding: t_j = k/j near t and delta_j
        # near the flat budget g(t) - g(s) + eps_j
        s, t = 0.05, 0.2
        assert case_select(s, t) == CASE1
        plan = plan_raise([s] * 60, t)
        assert plan.strategy == RAISE
        flat = entropy_inv(t) - entropy_inv(s)
        for e in plan.entries[9:]:
            assert e.t_j * e.j == pytest.approx(round(e.t_j * e.j), abs=1e-9)
            assert abs(e.t_j - t) <= 1.0 / e.j
            assert abs(e.delta_j - (flat + e.eps_j)) <= 1.0 / e.j
        assert dim_series([e.t_j for e in plan.entries]).tail_min >= t

    @pytest.mark.parametrize("s, t", [(0.5, 0.8), (0.25, 0.6), (0.05, 0.2), (0.5, 1.0)])
    def test_raise_costs_no_more_than_the_paper_plan(self, paper_plan, s, t):
        # on chunk dims at or above a declared s, water-filling plans no more
        # distance than the paper's Case 1, Case 2 or randomize plan from s
        rng = np.random.default_rng(0)
        s_seq = np.clip(s + rng.uniform(0, 0.4, size=80), 0, 1)
        plan = plan_raise(s_seq, t)
        assert dim_series([e.t_j for e in plan.entries]).tail_min >= t
        assert planned_distance(plan.deltas()) <= planned_distance(paper_plan(s_seq, s, t)[1])

    @pytest.mark.parametrize("family", ["alternating", "drifting"])
    @pytest.mark.parametrize("t", [0.6, 0.7, 0.9, 1.0])
    def test_raise_on_profiles_costs_no_more_than_the_paper_plan(
            self, paper_plan, profile_input, family, t):
        # non-stationary inputs: the paper's plan is given the measured
        # dimension dim_before, as the CLI's bound is
        x = profile_input(family, 200_000, 1)
        s_seq = chunk_dims(x, BernoulliOracle())
        dim_before = dim_series(s_seq).tail_min
        assert dim_before < t
        water = planned_distance(plan_raise(s_seq, t).deltas())
        assert water <= planned_distance(paper_plan(s_seq, dim_before, t)[1])

    def test_raise_above_t_moves_by_eps_only(self):
        # chunks already above the water level keep t_j = s_j; an input
        # whose every chunk clears t is left where it is, apart from eps
        s_seq = [0.9, 0.7] * 40
        plan = plan_raise(s_seq, 0.6)
        assert [e.t_j for e in plan.entries] == s_seq
        assert [e.delta_j for e in plan.entries] == [e.eps_j for e in plan.entries]

    def test_raise_planned_distance_budget(self):
        # the arithmetic invariant is checked inside plan_raise; a
        # tail-consistent s_seq must construct without raising
        rng = np.random.default_rng(1)
        for s, t in [(0.25, 0.6), (0.5, 0.8), (0.05, 0.2)]:
            s_seq = np.clip(s + rng.uniform(0, 1 - s, size=100), 0, 1)
            plan_raise(s_seq, t)

    def test_raise_domain(self):
        for t in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                plan_raise([0.5] * 10, t)

    # the third value names the paper's plan for (s, t) on that input: the
    # inputs cover its three regimes
    @pytest.mark.parametrize("s, t, strategy", [(0.05, 0.2, "raise_case1"),
                                                (0.5, 0.8, "raise_case2"),
                                                (0.5, 1.0, "randomize")])
    def test_raise_batches_entropy_inv(self, monkeypatch, paper_plan, s, t, strategy):
        # the planners make array calls, not one call per chunk; the package
        # re-exports the function `entropy`, which shadows the module name
        entropy_mod = importlib.import_module("dimsurgery.entropy")
        surgery_mod = importlib.import_module("dimsurgery.surgery")
        s_seq = np.clip(s + np.random.default_rng(2).uniform(0, 1 - s, size=400), 0, 1)
        assert paper_plan(s_seq, s, t)[0] == strategy

        calls = []

        def spy(y):
            calls.append(np.ndim(y))
            return entropy_inv(y)

        monkeypatch.setattr(entropy_mod, "entropy_inv", spy)
        monkeypatch.setattr(surgery_mod, "entropy_inv", spy)
        assert plan_raise(s_seq, t).strategy == RAISE
        assert 1 in calls and len(calls) <= 10

    @pytest.mark.parametrize("s, t", [(0.05, 0.2), (0.5, 0.8), (0.5, 1.0)])
    def test_batched_raise_matches_scalar_loop(self, s, t):
        # the plan equals a per-chunk loop: a bisection of the water level
        # tau on running weighted sums, then one scalar entropy_inv per value
        rng = np.random.default_rng(5)
        s_seq = np.clip(s + rng.uniform(0, 1 - s, size=300), 0, 1).tolist()
        first = default_tail_start(len(s_seq))  # first boundary the tail reads
        eps = default_eps_seq(len(s_seq))

        def targets(tau):
            return [max(s_j, min(1.0, math.ceil(tau * j - 1e-9) / j))
                    for j, s_j in enumerate(s_seq, start=1)]

        def reaches(t_seq):
            total, tail = 0.0, []
            for j, t_j in enumerate(t_seq, start=1):
                total += t_j * float(j * j)
                if j + 1 >= first:
                    tail.append(total / chunk_boundary(j + 1))
            return min(tail) >= t

        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if reaches(targets(mid)) else (mid, hi)
        plan = plan_raise(s_seq, t)
        for e, s_j, t_j, e_j in zip(plan.entries, s_seq, targets(hi), eps):
            d_j = entropy_inv(t_j) - entropy_inv(s_j) + e_j
            assert (e.t_j, e.delta_j, e.eps_j) == (t_j, min(1.0, max(0.0, d_j)), e_j), e.j

    def test_batched_weak_matches_scalar_loop(self):
        s_seq = np.clip(0.5 + np.random.default_rng(6).normal(0, 0.1, 600), 0, 1).tolist()
        plan = plan_weak_srandom(s_seq, c=1.0)
        eps = [e.eps_j for e in plan.entries]
        assert eps[-1] < eps[0]                 # the schedule halves inside the horizon
        for e, s_j in zip(plan.entries, s_seq):
            t_j = min(1.0, math.ceil(raise_profile(s_j, e.eps_j) * e.j - 1e-9) / e.j)
            assert (e.t_j, e.delta_j) == (t_j, min(1.0, 2.0 * e.eps_j)), e.j


class TestRaiseChunk:
    def test_radius_zero_identity(self):
        bits = gen_coin(100, 1).bits
        out, _ = raise_chunk(bits, None, 0.0, BernoulliOracle(), seed=0, target=1.0)
        assert np.array_equal(out, bits)

    def test_all_zero_greedy_exact_entropy(self):
        bits = np.zeros(100, dtype=np.uint8)
        for r in (0.1, 0.3, 0.5):
            out, _ = raise_chunk(bits, None, r, BernoulliOracle(), seed=0,
                                 target=1.0)
            flips = int(out.sum())
            assert flips == int(r * 100)
            assert BernoulliOracle().estimate(out) == pytest.approx(
                entropy(flips / 100), abs=1e-12)

    def test_budget_is_hard(self):
        bits = np.zeros(173, dtype=np.uint8)
        for r in (0.05, 0.217, 0.5):
            out, _ = raise_chunk(bits, None, r, BernoulliOracle(), seed=7, target=1.0)
            assert int(np.count_nonzero(out != bits)) <= math.floor(r * 173)

    def test_target_stops_early(self):
        bits = np.zeros(400, dtype=np.uint8)
        out, _ = raise_chunk(bits, None, 0.5, BernoulliOracle(), seed=0,
                             target=0.5)
        # H(x) = 0.5 at x ~ 0.11; greedy should stop near 44 flips, not 200
        flips = int(out.sum())
        assert flips < 60
        assert BernoulliOracle().estimate(out) >= 0.5

    def test_monotone_improvement(self):
        est = BernoulliOracle()
        rng = np.random.default_rng(3)
        for trial in range(5):
            bits = (rng.random(60) < 0.2).astype(np.uint8)
            before = est.estimate(bits)
            out, _ = raise_chunk(bits, None, 0.2, est, seed=trial, target=1.0)
            assert est.estimate(out) >= before - 1e-12

    def test_fair_coin_stays_high(self):
        est = BernoulliOracle()
        for seed in range(5):
            bits = gen_coin(10_000, seed).bits
            out, _ = raise_chunk(bits, None, 0.1, est, seed=seed, target=1.0)
            assert abs(est.estimate(out) - 1.0) <= 0.02

    # greedy is the one search raise_chunk has
    @pytest.mark.parametrize("searcher", ["greedy"])
    def test_fair_coin_any_searcher(self, searcher):
        est = BernoulliOracle()
        for seed in range(3):
            bits = gen_coin(10_000, seed).bits
            out, _ = raise_chunk(bits, None, 0.1, est, seed=seed, target=1.0)
            assert abs(est.estimate(out) - 1.0) <= 0.05

    def test_deterministic(self):
        bits = gen_bernoulli(0.2, 500, 4).bits
        a, _ = raise_chunk(bits, None, 0.3, BernoulliOracle(), seed=11, target=1.0)
        b, _ = raise_chunk(bits, None, 0.3, BernoulliOracle(), seed=11, target=1.0)
        assert np.array_equal(a, b)
        assert np.count_nonzero(a != bits) > 0      # the search moved the chunk


def _greedy_candidates(bits, radius, seed):
    """The greedy search's flip order and k_max, as raise_chunk draws them:
    k_max pool positions sampled in order without replacement."""
    ones, size = int(np.count_nonzero(bits)), bits.size
    if 2 * ones < size:
        pool, need = np.flatnonzero(bits == 0), size // 2 - ones
    elif 2 * ones > size:
        pool, need = np.flatnonzero(bits == 1), ones - (size + 1) // 2
    else:
        pool, need = np.empty(0, dtype=np.int64), 0
    k_max = min(int(math.floor(radius * size + 1e-9)), need)
    rng = np.random.default_rng(seed)
    return pool[rng.choice(pool.size, size=k_max, replace=False)], k_max


def _greedy_oracle(bits, context, radius, est, seed, target):
    """Copy-per-probe greedy search: candidate k is a fresh copy of the chunk
    with order[:k] flipped, estimated when it is made."""
    budget = int(math.floor(radius * bits.size + 1e-9))
    base = est.estimate(bits, context)
    if budget == 0 or base >= target:
        return bits.copy(), base
    order, k_max = _greedy_candidates(bits, radius, seed)

    def candidate(k):
        if k == 0:
            return bits.copy(), base
        out = bits.copy()
        out[order[:k]] ^= 1
        return out, est.estimate(out, context)

    best, best_val = candidate(k_max)
    if best_val >= target:
        lo, hi = 0, k_max
        while lo < hi:
            mid = (lo + hi) // 2
            out, val = candidate(mid)
            if val >= target:
                hi, best, best_val = mid, out, val
            else:
                lo = mid + 1
    return (best, best_val) if best_val >= base else (bits.copy(), base)


class _Recorder:
    """Passes estimates through and records the bytes of every chunk estimated."""

    def __init__(self, est):
        self.est, self.seen = est, []

    def estimate(self, chunk, context=None):
        self.seen.append(np.asarray(chunk).tobytes())
        return self.est.estimate(chunk, context)


class TestGreedyOracle:
    """raise_chunk's greedy search against the copy-per-probe search: the same
    chunk, value and sequence of estimated candidates."""

    SEED = 5
    CONTEXT = gen_coin(3000, 2).bits

    @staticmethod
    def _chunk(minority):
        # 900 bits (chunk 30) with about 1 in 10 bits of the minority value
        bits = gen_bernoulli(0.1, 900, 8).bits
        return bits if minority == "ones" else bits ^ 1

    def _run(self, search, bits, radius, make_est, target):
        rec = _Recorder(make_est())
        out, val = search(bits, self.CONTEXT, radius, rec, seed=self.SEED, target=target)
        return out.tobytes(), val, rec.seen

    def _value_at(self, bits, radius, make_est, k):
        order, _ = _greedy_candidates(bits, radius, self.SEED)
        out = bits.copy()
        out[order[:k]] ^= 1
        return make_est().estimate(out, self.CONTEXT)

    @pytest.mark.parametrize("minority", ["ones", "zeros"])
    @pytest.mark.parametrize("spec", ["bernoulli", "block:8", "zlib"])
    @pytest.mark.parametrize("case", ["budget0", "met", "unreachable", "k1", "kmax",
                                      "half"])
    def test_matches_copy_per_probe(self, spec, minority, case):
        make_est = {"bernoulli": BernoulliOracle, "block:8": lambda: BlockEntropy(8),
                    "zlib": lambda: Compressor("zlib")}[spec]
        bits = self._chunk(minority)
        # budget floor(0.9) = 0; 45 flips; 270 flips; 540 flips, past the
        # about 360 that bring the chunk to half ones
        radius = {"budget0": 0.001, "kmax": 0.05, "half": 0.6}.get(case, 0.3)
        _, k_max = _greedy_candidates(bits, radius, self.SEED)
        target = {"budget0": 1.0, "met": 0.0, "unreachable": 1.5, "half": 1.0,
                  "k1": self._value_at(bits, radius, make_est, 1),
                  "kmax": self._value_at(bits, radius, make_est, k_max)}[case]
        got = self._run(raise_chunk, bits, radius,
                        make_est, target)
        want = self._run(_greedy_oracle, bits, radius, make_est, target)
        assert got[0] == want[0] and got[1] == want[1]
        assert got[2] == want[2]
        if spec == "bernoulli":     # H of the flip count: the first hit is known
            flips = int(np.count_nonzero(np.frombuffer(got[0], np.uint8) != bits))
            expected = {"budget0": 0, "met": 0, "k1": 1, "kmax": k_max}
            assert flips == expected.get(case, k_max)
            assert k_max > 1 or case == "budget0"


class TestGreedyOrder:
    """The law of the greedy flip order, read off raise_chunk over fixed seeds:
    a 10-bit chunk with 2 ones has a pool of its 8 zeros and needs 3 flips
    to reach half ones.  With the bernoulli estimate, a target of H(3/10)
    is first met at one flip, H(4/10) at two, and 1.5 never."""

    BITS = np.array([0, 0, 1, 0, 0, 0, 0, 1, 0, 0], dtype=np.uint8)
    POOL = np.flatnonzero(BITS == 0)
    SEEDS = range(2000)
    CHI2_999_7DF = 24.32        # 0.999 quantile of chi-square with 7 degrees of freedom

    def _flipped(self, chunk):
        return np.flatnonzero(np.asarray(chunk) != self.BITS)

    def _search(self, seed, flips_to_target, radius=0.3):
        rec = _Recorder(BernoulliOracle())
        target = 1.5 if flips_to_target is None else float(entropy((2 + flips_to_target) / 10))
        out, _ = raise_chunk(self.BITS, None, radius, rec, seed=seed, target=target)
        return out, [np.frombuffer(c, np.uint8) for c in rec.seen]

    def test_first_flip_is_uniform_over_pool(self):
        counts = dict.fromkeys(self.POOL.tolist(), 0)
        for seed in self.SEEDS:
            out, _ = self._search(seed, 1)
            (first,) = self._flipped(out)
            counts[int(first)] += 1     # KeyError if it is not a pool position
        expected = len(self.SEEDS) / len(counts)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < self.CHI2_999_7DF, counts

    def test_every_ordered_pair_of_first_two_flips_occurs(self):
        pairs = set()
        for seed in self.SEEDS:
            out, seen = self._search(seed, 2)
            # estimated: the chunk, k_max = 3, k = 1 (below the target), k = 2
            assert [len(self._flipped(c)) for c in seen] == [0, 3, 1, 2]
            (first,) = self._flipped(seen[2])
            second = set(self._flipped(out).tolist()) - {int(first)}
            assert len(second) == 1
            pairs.add((int(first), second.pop()))
        pool = self.POOL.tolist()
        assert pairs == {(a, b) for a in pool for b in pool if a != b}

    def test_no_position_flips_twice(self):
        for seed in self.SEEDS:
            _, seen = self._search(seed, None)
            # the k_max probe holds order[:3]: three distinct pool positions
            flipped = self._flipped(seen[1])
            assert len(flipped) == 3 and set(flipped.tolist()) <= set(self.POOL.tolist())

    def test_flips_exactly_need_when_budget_covers_it(self):
        for seed in self.SEEDS:
            out, _ = self._search(seed, None, radius=0.5)     # budget 5, need 3
            assert len(self._flipped(out)) == 3
            assert int(np.count_nonzero(out)) == 5


class TestLowerChunk:
    def test_codeword_fixed_point(self):
        cover = quantizer_codebook(12, 0.5)
        word_bits, _ = lower_chunk(np.zeros(12, np.uint8), {12: cover}, 12)
        again, _ = lower_chunk(word_bits, {12: cover}, 12)
        assert np.array_equal(word_bits, again)

    def test_within_covering_radius(self):
        cover = quantizer_codebook(14, 0.4)
        rng = np.random.default_rng(5)
        for _ in range(200):
            chunk = rng.integers(0, 2, 14, dtype=np.uint8)
            out, _ = lower_chunk(chunk, {14: cover}, 14)
            assert int(np.count_nonzero(out != chunk)) <= cover.radius

    def test_length_mismatch(self):
        cover = quantizer_codebook(10, 0.5)
        with pytest.raises(ValueError):
            lower_chunk(np.zeros(12, np.uint8), {12: cover}, 12)

    @staticmethod
    def _per_block_reference(bits, codebooks, block_len):
        """One scalar search per block over every codeword of its width: the
        nearest-codeword distance of each block, and k index bits per block."""
        codewords = {}
        for width, code in codebooks.items():
            space = np.arange(1 << width, dtype=np.int64)
            codewords[width] = space[_syndromes(code, space) == 0]
        dists, index_bits = [], 0
        for pos in range(0, bits.size, block_len):
            block = bits[pos:pos + block_len]
            w = int((block.astype(np.int64) << np.arange(block.size, dtype=np.int64)).sum())
            dists.append(int(np.bitwise_count(codewords[block.size] ^ w).min()))
            index_bits += codebooks[block.size].k
        return dists, index_bits

    @pytest.mark.parametrize("size", [12 * 2000, 12 * 40 + 7, 5, 144])
    def test_matches_per_block_loop(self, size):
        # 487 and 5 bits end in (or are only) a remainder block; every output
        # block is a codeword of its width at the nearest distance
        codebooks = {w: quantizer_codebook(w, 0.5) for w in (12, 7, 5)}
        bits = np.random.default_rng(size).integers(0, 2, size, dtype=np.uint8)
        out, index_bits = lower_chunk(bits, codebooks, 12)
        want, want_bits = self._per_block_reference(bits, codebooks, 12)
        dists = []
        for pos in range(0, size, 12):
            x, y = bits[pos:pos + 12], out[pos:pos + 12]
            word = int((y.astype(np.int64) << np.arange(y.size, dtype=np.int64)).sum())
            assert _syndromes(codebooks[y.size], [word]).tolist() == [0]
            dists.append(int(np.count_nonzero(x != y)))
        assert dists == want and index_bits == want_bits


def _syndromes(code, words):
    """H x over GF(2) as a matrix product, H = [A | I] unpacked to bits."""
    r = code.n - code.k
    h = (code.columns[:, None] >> np.arange(r)) & 1              # n x r
    bits = (np.asarray(words, dtype=np.int64)[:, None] >> np.arange(code.n)) & 1
    return ((bits @ h) % 2) @ (1 << np.arange(r, dtype=np.int64))


def _covering_radius(n: int, words) -> int:
    """Exhaustive covering radius: grow balls around the words to the space."""
    reached = np.zeros(1 << n, dtype=bool)
    reached[np.asarray(words, dtype=np.int64)] = True
    radius = 0
    while not reached.all():
        reached = _expand_once(reached, n)
        radius += 1
    return radius


def _lower_every_word(code):
    """lower_chunk on a chunk of all 2^n words, one block each."""
    space = np.arange(1 << code.n, dtype=np.int64)
    bits = ((space[:, None] >> np.arange(code.n)) & 1).astype(np.uint8)
    out, index_bits = lower_chunk(bits.ravel(), {code.n: code}, code.n)
    return space, out.reshape(bits.shape), index_bits


class TestLinearQuantizer:
    """Every [L, k] code with L <= 12 against brute force over the space."""

    CODES = [(n, k) for n in range(1, 13) for k in range(n + 1)]

    @pytest.mark.parametrize("n, k", CODES)
    def test_leaders_have_minimum_coset_weight(self, n, k):
        code = systematic_code(n, k)
        assert code.columns[k:].tolist() == [1 << i for i in range(n - k)]
        space = np.arange(1 << n, dtype=np.int64)
        syn = _syndromes(code, space)
        lightest = np.full(1 << (n - k), n + 1)
        np.minimum.at(lightest, syn, np.bitwise_count(space))
        assert np.array_equal(_syndromes(code, code.leaders), np.arange(1 << (n - k)))
        assert np.array_equal(np.bitwise_count(code.leaders), lightest)

    @pytest.mark.parametrize("n, k", CODES)
    def test_lowering_reaches_a_nearest_codeword(self, n, k):
        code = systematic_code(n, k)
        space, out, index_bits = _lower_every_word(code)
        codewords = space[_syndromes(code, space) == 0]
        assert codewords.size == 1 << k
        y = (out.astype(np.int64) << np.arange(n)).sum(1)
        assert not _syndromes(code, y).any()
        nearest = np.concatenate([np.bitwise_count(part[:, None] ^ codewords).min(1)
                                  for part in np.array_split(space, 16)])
        assert np.array_equal(np.bitwise_count(y ^ space), nearest)
        assert code.radius == nearest.max() == _covering_radius(n, codewords)
        assert index_bits == k * space.size

    @pytest.mark.parametrize("n", [1, 7, 12, 32])
    def test_full_and_empty_codes(self, n):
        whole = quantizer_codebook(n, 1.0)              # k = n: every word
        assert (whole.k, whole.radius, whole.leaders.tolist()) == (n, 0, [0])
        bits = np.random.default_rng(n).integers(0, 2, 5 * n, dtype=np.uint8)
        out, index_bits = lower_chunk(bits, {n: whole}, n)
        assert np.array_equal(out, bits) and index_bits == 5 * n
        if n <= 12:
            zero = systematic_code(n, 0)                # k = 0: the zero word
            out, index_bits = lower_chunk(bits, {n: zero}, n)
            assert not out.any() and index_bits == 0 and zero.radius == n

    def test_syndrome_cap(self):
        with pytest.raises(ValueError, match="syndromes"):
            systematic_code(30, 7)
        with pytest.raises(ValueError, match="syndromes"):
            quantizer_codebook(40, 0.3)                 # [40, 13]: 2^27
        with pytest.raises(ValueError, match="syndromes"):
            plan_lower(30, 0.3, block_len=40)
        quantizer_codebook(40, 0.5)                     # [40, 21]: 2^19

    def test_same_output_after_cache_clear(self):
        bits = gen_coin(32 * 40 + 10, 8).bits
        codebooks = {w: quantizer_codebook(w, 0.4) for w in (32, 10)}
        first, first_bits = lower_chunk(bits, codebooks, 32)
        quantizer_codebook.cache_clear()
        rebuilt = {w: quantizer_codebook(w, 0.4) for w in codebooks}
        for w, code in rebuilt.items():
            assert code is not codebooks[w]
            assert np.array_equal(code.columns, codebooks[w].columns)
            assert np.array_equal(code.leaders, codebooks[w].leaders)
        again, again_bits = lower_chunk(bits, rebuilt, 32)
        assert np.array_equal(first, again) and first_bits == again_bits

    @pytest.mark.parametrize("s", [0.0, 0.05, 0.1, 0.2, 0.25, 0.26, 0.27, 0.3, 0.5, 1.0])
    def test_default_block_len(self, s):
        def syndrome_bits(L):
            return L - min(L, int((s + QUANTIZER_RATE_SLACK) * L + 1e-9))

        L = default_block_len(s)
        if s >= 0.27:
            assert L == 32
        else:
            assert syndrome_bits(L) <= 22 < syndrome_bits(L + 1)
        assert plan_lower(3, s).block_len == L


class TestApplyPlan:
    def test_empty_plan_identity(self):
        x = gen_coin(100, 0)
        plan = SurgeryPlan(strategy=RAISE, entries=[])
        y, report = apply_plan(x, plan, BernoulliOracle())
        assert y == x and report.distance == 0.0

    def test_too_short_sequence(self):
        plan = plan_randomize([0.5] * 30)
        with pytest.raises(ValueError):
            apply_plan(gen_coin(100, 0), plan, BernoulliOracle())

    def test_hard_distance_guarantee(self):
        n_chunks = 40
        x = gen_bernoulli(0.11, chunk_boundary(n_chunks + 1), 3)
        est = BernoulliOracle()
        plan = plan_randomize(chunk_dims(x, est))
        y, report = apply_plan(x, plan, est, seed=5)
        for entry, delta in zip(plan.entries, report.delta_achieved):
            assert delta <= entry.delta_j + 1e-15

    def test_randomize_bernoulli_tightness_small(self):
        # miniature version of the headline randomize experiment
        n_chunks = 60
        s = 0.5
        x = gen_bernoulli(float(entropy_inv(s)), chunk_boundary(n_chunks + 1), 7)
        est = BernoulliOracle()
        plan = plan_randomize(chunk_dims(x, est))
        y, report = apply_plan(x, plan, est, seed=2)
        assert report.dim_after >= 0.97
        want = 0.5 - entropy_inv(s)
        assert abs(report.distance - want) <= 0.05

    def test_lower_plan_on_coin(self):
        n_chunks = 40
        x = gen_coin(chunk_boundary(n_chunks + 1), 11)
        plan = plan_lower(n_chunks, 0.5)
        y, report = apply_plan(x, plan, BernoulliOracle())
        assert report.codebook_rate is not None
        assert report.codebook_rate <= 0.58
        assert report.distance <= entropy_inv(0.5) + 0.05
        for entry, delta in zip(plan.entries, report.delta_achieved):
            assert delta <= entry.delta_j + 1e-15

    def test_lower_plan_carries_its_codebooks(self, monkeypatch):
        # plan_lower builds one quantizer per block width its chunks use and
        # keeps it; applying the plan quantizes onto those and builds none
        import dimsurgery.surgery as surgery

        calls = []

        def spy(width, target_s):
            calls.append((width, target_s))
            return quantizer_codebook(width, target_s)

        monkeypatch.setattr(surgery, "quantizer_codebook", spy)
        count, block_len = 30, 12
        plan = plan_lower(count, 0.5, block_len=block_len)
        chunk_widths = []
        for j in range(1, count + 1):
            full, rest = divmod(j * j, block_len)
            chunk_widths.append(({block_len} if full else set()) | ({rest} if rest else set()))
        widths = set().union(*chunk_widths)
        assert sorted(calls) == sorted((w, 0.5) for w in widths)
        assert plan.block_len == block_len
        assert {w: book.n for w, book in plan.codebooks.items()} == {w: w for w in widths}
        for entry, ws in zip(plan.entries, chunk_widths):
            assert entry.delta_j == max(plan.codebooks[w].radius / w for w in ws)
        calls.clear()
        x = gen_coin(chunk_boundary(count + 1), 3)
        _, report = apply_plan(x, plan, BernoulliOracle())
        assert calls == [] and len(report.t_achieved) == count

    def test_plan_is_the_whole_contract(self):
        # nothing but the plan says what to achieve: no codebook source,
        # block length or tail start can be passed alongside.  The seed only
        # says how the search runs, so no plan holds one; there is one search
        assert list(inspect.signature(apply_plan).parameters) == [
            "x", "plan", "est", "seed"]
        assert "searcher" not in inspect.signature(raise_chunk).parameters
        assert list(inspect.signature(plan_randomize).parameters) == ["s_seq"]
        assert list(inspect.signature(plan_weak_srandom).parameters) == ["s_seq", "c"]
        assert list(inspect.signature(plan_raise).parameters) == ["s_seq", "t"]
        assert list(inspect.signature(plan_lower).parameters) == [
            "n_chunks", "target_s", "block_len"]
        assert "seed" not in {f.name for f in dataclasses.fields(SurgeryPlan)}
        target = inspect.signature(raise_chunk).parameters["target"]
        assert target.default is inspect.Parameter.empty

    @pytest.mark.parametrize("strategy", ["randomize", RAISE, WEAK_SRANDOM, LOWER])
    @pytest.mark.parametrize("est", [BlockEntropy(8), Compressor("zlib")],
                             ids=["block8", "zlib"])
    def test_single_pass_matches_reference(self, strategy, est):
        # dim_after aggregates the t_achieved values; it must equal a fresh
        # sequence_dim pass over the output exactly (zlib also reads the
        # prefix, so t_achieved must see the final one)
        count = 40
        used = chunk_boundary(count + 1)
        x = gen_bernoulli(float(entropy_inv(0.5)), used + 37, 3)
        s_seq = chunk_dims(x, est)
        if strategy == "randomize":
            plan = plan_randomize(s_seq)
        elif strategy == RAISE:
            plan = plan_raise(s_seq, 0.8)
        elif strategy == WEAK_SRANDOM:
            plan = plan_weak_srandom(s_seq, c=10.0)
        else:
            plan = plan_lower(count, 0.5, block_len=10)
        y, report = apply_plan(x, plan, est, seed=1)
        assert report.dim_after == sequence_dim(y[:used], est).tail_min

    def test_raise_estimates_are_not_repeated(self, monkeypatch):
        # apply_plan makes no estimate of its input: every estimate is made
        # inside raise_chunk, and t_achieved is the value it returned; the
        # search estimates no candidate (the one it returns included) twice
        import dimsurgery.surgery as surgery

        count = 40
        x = gen_bernoulli(float(entropy_inv(0.5)), chunk_boundary(count + 1), 3)
        plan = plan_raise(chunk_dims(x, BernoulliOracle()), 0.8)
        calls = []

        class SpyEstimator(BernoulliOracle):
            def estimate(self, chunk, context=None):
                calls.append(np.asarray(chunk).tobytes())
                return super().estimate(chunk, context)

        spans = []
        real_raise_chunk = surgery.raise_chunk

        def spy_raise_chunk(*args, **kwargs):
            start = len(calls)
            y_chunk, value = real_raise_chunk(*args, **kwargs)
            spans.append((start, len(calls), y_chunk.tobytes(), value))
            return y_chunk, value

        monkeypatch.setattr(surgery, "raise_chunk", spy_raise_chunk)
        _, report = apply_plan(x, plan, SpyEstimator(), 1)
        assert len(spans) == count and spans[0][0] == 0
        assert [end for _, end, _, _ in spans] == [s for s, _, _, _ in spans[1:]] + [len(calls)]
        assert report.t_achieved.tolist() == [v for _, _, _, v in spans]
        for start, end, returned, _ in spans:
            inside = calls[start:end]
            assert len(inside) == len(set(inside))
            assert returned in inside

    @pytest.mark.parametrize("strategy", ["raise", LOWER])
    @pytest.mark.parametrize("extra", [0, 1], ids=["at-budget", "over-budget"])
    def test_budget_violation_names_the_chunk(self, monkeypatch, strategy, extra):
        # a chunk step that changes more than floor(delta_j j^2) bits breaks
        # the hard budget: apply_plan names the chunk; at the budget it passes
        import dimsurgery.surgery as surgery

        count, j = 30, 5
        x = gen_bernoulli(float(entropy_inv(0.5)), chunk_boundary(count + 1), 3)
        est = BernoulliOracle()
        if strategy == LOWER:
            plan, step = plan_lower(count, 0.5), "lower_chunk"
        else:
            plan, step = plan_raise(chunk_dims(x, est), 0.8), "raise_chunk"
        budget = math.floor(plan.entries[j - 1].delta_j * j * j + 1e-9)
        assert budget + 1 < j * j
        real = getattr(surgery, step)

        def flip_on_chunk_j(chunk, *args, **kwargs):
            y_chunk, value = real(chunk, *args, **kwargs)
            if chunk.size == j * j:
                y_chunk = chunk.copy()
                y_chunk[:budget + extra] ^= 1
            return y_chunk, value

        monkeypatch.setattr(surgery, step, flip_on_chunk_j)
        if extra:
            with pytest.raises(RuntimeError,
                               match=f"^chunk {j}: achieved {budget + 1} flips over "
                                     f"budget {budget}$"):
                apply_plan(x, plan, est, seed=1)
        else:
            _, report = apply_plan(x, plan, est, seed=1)
            assert report.delta_achieved[j - 1] == budget / (j * j)

    @pytest.mark.parametrize("strategy", ["raise", LOWER])
    def test_one_count_per_chunk(self, monkeypatch, strategy):
        # one sequence_distance pass counts the changed bits of every chunk;
        # delta_achieved and the distance are read off it
        import dimsurgery.surgery as surgery

        count = 40
        x = gen_bernoulli(float(entropy_inv(0.5)), chunk_boundary(count + 1) + 11, 3)
        est = BernoulliOracle()
        if strategy == LOWER:
            plan = plan_lower(count, 0.5)
        else:
            plan = plan_raise(chunk_dims(x, est), 0.8)
        results = []

        def spy(*args):
            results.append(sequence_distance(*args))
            return results[-1]

        monkeypatch.setattr(surgery, "sequence_distance", spy)
        y, report = apply_plan(x, plan, est, seed=2)
        assert len(results) == 1
        counts = results[0].counts
        ends = chunk_boundary(np.arange(1, count + 2)).tolist()
        assert counts.tolist() == [int(np.count_nonzero(x.bits[lo:hi] != y.bits[lo:hi]))
                                   for lo, hi in zip(ends, ends[1:])]
        # delta_achieved is counts / j^2, each a correctly rounded division
        assert report.delta_achieved.tolist() == [
            c / (j * j) for j, c in enumerate(counts.tolist(), start=1)]
        assert report.distance == results[0].tail_max
        assert len(report.t_achieved) == len(plan.entries) == count

    def test_deterministic_given_seed(self):
        n_chunks = 30
        x = gen_bernoulli(0.2, chunk_boundary(n_chunks + 1), 9)
        est = BernoulliOracle()
        plan = plan_randomize([0.7] * n_chunks)
        y1, _ = apply_plan(x, plan, est, seed=21)
        y2, _ = apply_plan(x, plan, est, seed=21)
        assert y1 == y2
        assert apply_plan(x, plan, est, seed=22)[0] != y1     # the seed picks the bits

    def test_weak_srandom_end_to_end(self):
        # the applied output must keep the buffered complexity property:
        # sum of achieved chunk dims (weighted) clears s*n_j + c*j^2 - b
        n_chunks = 60
        c = 5.0
        s = 0.5
        x = gen_bernoulli(float(entropy_inv(s)), chunk_boundary(n_chunks + 1), 13)
        est = BernoulliOracle()
        s_seq = chunk_dims(x, est)
        plan = plan_weak_srandom(s_seq, c=c)
        y, report = apply_plan(x, plan, est, seed=4)
        from dimsurgery.entropy import buffer_schedule, tail_average_floor

        _, b = buffer_schedule(c, s_seq)
        s_sur = tail_average_floor(s_seq)
        # tiny chunks cannot reach their targets (frequency granularity);
        # fold their shortfall into the absorbing constant like b does
        shortfall = sum(max(0.0, e.t_j - t) * e.j ** 2
                        for e, t in zip(plan.entries, report.t_achieved) if e.j < 10)
        b_eff = b + shortfall
        prefix = 0.0
        for entry, t in zip(plan.entries, report.t_achieved):
            j = entry.j
            if j >= 10:
                # frequency granularity caps odd-length chunks just below 1
                cap = float(entropy((j ** 2 // 2) / j ** 2))
                assert t >= min(entry.t_j, cap) - 1e-12
            prefix += t * j ** 2
            assert prefix - c * j ** 2 > s_sur * chunk_boundary(j) - b_eff
        # distance stays inside the planned 2*eps budget per chunk
        for entry, delta in zip(plan.entries, report.delta_achieved):
            assert delta <= entry.delta_j + 1e-15


TIGHT_PAIR_BLOCK_LEN = 20


@dataclasses.dataclass
class TightPairReport:
    s: float
    t: float
    block_len: int
    subcode_size: int
    draw_radius: int
    x_rate: float               # log2 |D| / L
    y_rate: float               # log2(|D| * V(L, r_draw)) / L
    distance: float             # measured tail max
    expected_distance: float    # mean ball weight / L


def build_tight_pair(s: float, t: float, chunks: int, seed: int):
    """Construct (X, Y) with X on a rate-s linear code, Y = X + a random ball
    offset, realizing distance about g(t - s) with Y-rate about t.

    It shows that dim X <= dim Y + H(d) is nearly tight for code-like X.
    Per block of L = TIGHT_PAIR_BLOCK_LEN bits: X takes the codeword
    m | (p << k) of a uniform message m < 2^k in systematic_code(L, k),
    k = round(sL), where the parity p is the xor of columns[i] over the set
    bits i of m (syndrome 0 under [A | I]).  Y adds a uniform offset from
    the smallest ball whose index rate tops up the Y description to
    (t - 0.03) L bits.  The finite-block log-size allowance lands on the
    draw radius, so the measured distance sits within the fat-block
    tolerance of g(t - s) rather than strictly below it.
    """
    if not 0.0 <= s < t <= 1.0:
        raise ValueError(f"need 0 <= s < t <= 1, got s={s}, t={t}")
    L = TIGHT_PAIR_BLOCK_LEN
    code = systematic_code(L, round(s * L))
    k = code.k
    m = 1 << k
    want_bits = (t - 0.03) * L
    r_draw = 0
    while r_draw < L and math.log2(m * ball_volume(L, r_draw)) < want_bits:
        r_draw += 1
    offsets = ball_offsets(L, r_draw)
    pop = np.bitwise_count(offsets.astype(np.int64))
    expected_distance = float(pop.mean()) / L

    rng = np.random.default_rng(seed)
    total = chunk_boundary(chunks + 1)
    xb = np.zeros(total, dtype=np.uint8)
    yb = np.zeros(total, dtype=np.uint8)
    for j in range(1, chunks + 1):
        lo, hi = chunk_boundary(j), chunk_boundary(j + 1)
        count = (hi - lo) // L
        draws = np.array([(rng.integers(0, m), rng.integers(0, len(offsets)))
                          for _ in range(count)], dtype=np.int64).reshape(count, 2)
        msgs = draws[:, 0]
        parity = np.bitwise_xor.reduce(_word_to_bits(msgs, k) * code.columns[:k], axis=1)
        words = msgs | (parity << k)
        span = slice(lo, lo + count * L)
        xb[span] = _word_to_bits(words, L).ravel()
        yb[span] = _word_to_bits(words ^ offsets[draws[:, 1]], L).ravel()
        # remainder bits (< L) are copied zeros on both sides: zero distance,
        # zero rate, and a vanishing share of every tail chunk
    x, y = BitSequence(xb), BitSequence(yb)
    dist = sequence_distance(x, y).tail_max if chunks >= 2 else 0.0
    report = TightPairReport(
        s=s, t=t, block_len=L, subcode_size=m, draw_radius=r_draw,
        x_rate=k / L,
        y_rate=math.log2(m * ball_volume(L, r_draw)) / L,
        distance=dist, expected_distance=expected_distance)
    return x, y, report


class TestBuildTightPair:
    def test_quarter_three_quarter(self):
        x, y, report = build_tight_pair(0.25, 0.75, chunks=40, seed=0)
        assert report.x_rate <= 0.25 + 0.05
        assert report.y_rate >= 0.75 - 0.05
        want = float(entropy_inv(0.5))
        assert abs(report.distance - want) <= 0.05

    def test_degenerate_low_end(self):
        x, y, report = build_tight_pair(0.0, 1.0, chunks=20, seed=1)
        assert report.subcode_size == 1
        assert report.distance <= 0.5 + 1e-9

    def test_x_blocks_are_codewords(self):
        x, _, report = build_tight_pair(0.25, 0.75, chunks=12, seed=2)
        L = report.block_len
        code = systematic_code(L, round(0.25 * L))
        assert report.subcode_size == 2 ** code.k
        for j in range(1, 13):
            lo, hi = chunk_boundary(j), chunk_boundary(j + 1)
            blocks = x.bits[lo:lo + (hi - lo) // L * L].reshape(-1, L)
            assert not np.bitwise_xor.reduce(blocks * code.columns, axis=1).any()

    def test_deterministic(self):
        x1, y1, _ = build_tight_pair(0.25, 0.75, chunks=15, seed=5)
        x2, y2, _ = build_tight_pair(0.25, 0.75, chunks=15, seed=5)
        assert x1 == x2 and y1 == y2

    def test_domain(self):
        with pytest.raises(ValueError):
            build_tight_pair(0.7, 0.3, chunks=5, seed=0)
