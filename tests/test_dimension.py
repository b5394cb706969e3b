"""Tests for bit sequences, estimators, and the chunked dimension/distance proxies."""

import bz2
import lzma
import os
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimsurgery.bitseq import (
    BitSequence,
    gen_bernoulli,
    gen_coin,
    gen_join_dup,
    gen_zero_padded,
)
from dimsurgery.dimension import (
    MIN_TAIL_CHUNK,
    chunk_boundary,
    chunk_count,
    chunk_dims,
    chunk_spans,
    default_tail_start,
    planned_distance,
    sequence_dim,
    sequence_distance,
    weighted_series,
)
from dimsurgery.entropy import entropy
from dimsurgery.estimators import (
    CONTEXT_WINDOW_BITS,
    BernoulliOracle,
    BlockEntropy,
    Compressor,
    EstimatorError,
    parse_estimator,
)
from dimsurgery.surgery import raise_chunk


class TestBitSequence:
    def test_round_trip_file(self, tmp_path):
        seq = gen_coin(1001, seed=5)
        path = tmp_path / "x.bits"
        seq.to_file(path)
        back = BitSequence.from_file(path)
        assert back == seq

    @given(st.integers(min_value=0, max_value=4099), st.integers(min_value=0))
    @settings(deadline=None, max_examples=60)
    def test_round_trip_any_length(self, length, seed):
        # lengths off a multiple of 8 leave pad bits that the sidecar must cut
        seq = gen_coin(length, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "x.bits")
            seq.to_file(path)
            assert os.path.getsize(path) == (length + 7) // 8
            assert BitSequence.from_file(path) == seq

    def test_sidecar_header(self, tmp_path):
        seq = gen_coin(13, seed=0)
        path = tmp_path / "y.bits"
        seq.to_file(path)
        assert (tmp_path / "y.bits.len").read_text() == "len=13\n"
        # raw payload is packed MSB-first
        raw = path.read_bytes()
        assert len(raw) == 2
        assert (raw[0] >> 7) == seq.bits[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            BitSequence(np.array([0, 1, 2], dtype=np.uint8))

    def test_generators_deterministic(self):
        assert gen_coin(500, 9) == gen_coin(500, 9)
        assert gen_bernoulli(0.3, 500, 9) == gen_bernoulli(0.3, 500, 9)

    def test_join_dup_pairs_equal(self):
        seq = gen_join_dup(1000, seed=2)
        assert np.array_equal(seq.bits[0::2], seq.bits[1::2])

    def test_zero_padded(self):
        seq = gen_zero_padded(2, 1000, seed=3)
        assert not seq.bits[0::2].any()
        assert seq.bits[1::2].any()


class TestChunkSchedule:
    def test_boundaries(self):
        assert chunk_boundary(1) == 0
        assert chunk_boundary(4) == 14
        assert chunk_boundary(100) == 328350

    @given(st.integers(min_value=1, max_value=1_000_000))
    @settings(deadline=None)
    def test_increment_is_square(self, j):
        assert chunk_boundary(j + 1) - chunk_boundary(j) == j * j

    def test_closed_form_matches_loop(self):
        total = 0
        for j in range(1, 200):
            assert chunk_boundary(j) == total
            total += j * j

    def test_array_form_matches_int_form(self):
        js = np.arange(1, 200)
        got = chunk_boundary(js)
        assert got.dtype == np.int64
        assert got.tolist() == [chunk_boundary(j) for j in range(1, 200)]
        with pytest.raises(ValueError):
            chunk_boundary(np.arange(0, 5))
        with pytest.raises(ValueError):
            chunk_boundary(0)

    def test_chunk_count(self):
        assert chunk_count(14) == 3
        assert (chunk_boundary(3), chunk_boundary(4)) == (5, 14)
        assert chunk_count(15) == 3  # chunk 4 needs bits up to 30
        with pytest.raises(ValueError, match="length must be positive"):
            chunk_count(0)

    @given(st.integers(min_value=0, max_value=3000))
    @settings(deadline=None)
    def test_spans_walk_the_layout(self, count):
        # contiguous from bit 0, chunk j holds j^2 bits, and the walk ends
        # where chunk count + 1 starts
        spans = chunk_spans(count)
        ends = [0] + [hi for _, hi in spans]
        assert [lo for lo, _ in spans] == ends[:-1]
        assert [hi - lo for lo, hi in spans] == [j * j for j in range(1, count + 1)]
        assert ends[-1] == chunk_boundary(count + 1)

    @given(st.integers(min_value=1, max_value=10 ** 10))
    @settings(deadline=None)
    def test_chunk_count_matches_loop(self, length):
        # the count is one array call; the oracle walks boundaries one by one
        count = 0
        while chunk_boundary(count + 2) <= length:
            count += 1
        assert chunk_count(length) == count

    def test_chunk_count_at_every_short_length(self):
        for length in range(1, 20_000):
            count = chunk_count(length)
            assert chunk_boundary(count + 1) <= length < chunk_boundary(count + 2)


def _chunk_dims_loop(x, est) -> np.ndarray:
    """chunk_dims as one loop over j, each span from two chunk_boundary calls."""
    bits = x.bits
    values = np.empty(chunk_count(len(bits)))
    for j in range(1, len(values) + 1):
        lo, hi = chunk_boundary(j), chunk_boundary(j + 1)
        values[j - 1] = est.estimate(bits[lo:hi], bits[:lo])
    return values


def _sequence_distance_loop(x, y):
    """sequence_distance's counts and tail_max, one loop over j."""
    bx, by = x.bits, y.bits
    count = chunk_count(bx.size)
    ends = [chunk_boundary(j) for j in range(1, count + 2)]
    counts = np.array([np.count_nonzero(bx[lo:hi] != by[lo:hi])
                       for lo, hi in zip(ends, ends[1:])], dtype=np.int64)
    js = np.arange(1, count + 1, dtype=np.int64)
    series = np.cumsum(counts) / chunk_boundary(js + 1).astype(np.float64)
    return counts, float(series[max(0, default_tail_start(count) - 2):].max())


# 13 and 100 007 bits end mid-chunk; 5 and 14 end on a boundary
WALK_LENGTHS = [5, 13, 14, 100_007]


class TestWalkMatchesLoops:
    @pytest.mark.parametrize("length", WALK_LENGTHS)
    @pytest.mark.parametrize("spec", ["bernoulli", "block:8", "compressor:zlib"])
    def test_chunk_dims(self, length, spec):
        x = gen_bernoulli(0.11, length, length)
        got = chunk_dims(x, parse_estimator(spec))
        want = _chunk_dims_loop(x, parse_estimator(spec))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("length", WALK_LENGTHS)
    def test_sequence_distance(self, length):
        x, y = gen_bernoulli(0.11, length, length), gen_coin(length, length + 1)
        got = sequence_distance(x, y)
        counts, tail_max = _sequence_distance_loop(x, y)
        assert got.counts.dtype == np.int64 and np.array_equal(got.counts, counts)
        assert got.tail_max == tail_max


class TestEstimators:
    def test_bernoulli_all_zero(self):
        assert BernoulliOracle().estimate(np.zeros(100, np.uint8)) == 0.0

    def test_bernoulli_alternating_is_blind(self):
        # documents why the frequency oracle only suits Bernoulli sources
        bits = np.tile([0, 1], 50).astype(np.uint8)
        assert BernoulliOracle().estimate(bits) == 1.0

    def test_block_entropy_sees_structure(self):
        bits = np.tile([0, 1], 5000).astype(np.uint8)
        assert BlockEntropy(8).estimate(bits) < 0.3

    def test_block_entropy_fair_coin(self):
        for seed in range(5):
            bits = gen_coin(10_000, seed).bits
            assert abs(BlockEntropy(8).estimate(bits) - 1.0) <= 0.02

    def test_block_entropy_zero_padded_half(self):
        # phase mixing and add-one smoothing bias the k-gram rate upward a
        # little; the measured value at this size is ~0.54
        bits = gen_zero_padded(2, 100_000, seed=1).bits
        assert abs(BlockEntropy(8).estimate(bits) - 0.5) <= 0.1

    def test_lzma_zero_padded_half(self):
        x = gen_zero_padded(2, 150_000, seed=1)
        from dimsurgery.dimension import sequence_dim

        assert abs(sequence_dim(x, Compressor("lzma")).tail_min - 0.5) <= 0.06

    def test_compressor_conditional(self):
        est = Compressor("zlib")
        ctx = gen_coin(8192, 0).bits
        # a chunk equal to (part of) the context compresses well given it
        dup = est.estimate(ctx[:2048], ctx)
        fresh = est.estimate(gen_coin(2048, 1).bits, ctx)
        assert dup < 0.5 < fresh

    def test_compressor_unknown_backend(self):
        with pytest.raises(EstimatorError):
            Compressor("nope")

    def test_parse(self):
        assert type(parse_estimator("bernoulli")) is BernoulliOracle
        block = parse_estimator("block:4")
        assert type(block) is BlockEntropy and block.k == 4
        compressor = parse_estimator("compressor:lzma")
        assert type(compressor) is Compressor and compressor.backend == "lzma"
        for bad in ("magic", "block"):              # block needs its K: block:8
            with pytest.raises(ValueError):
                parse_estimator(bad)

    def test_estimate_chunk_dim_dispatch(self):
        # chunk_dims hands each chunk and its prefix to the estimator
        bits = np.ones(64, np.uint8)
        assert np.array_equal(chunk_dims(bits, BernoulliOracle()), np.zeros(5))
        seen = []

        class Spy:
            def estimate(self, chunk, context=None):
                seen.append((len(chunk), len(context)))
                return 0.5

        assert np.array_equal(chunk_dims(bits, Spy()), np.full(5, 0.5))
        assert seen == [(1, 0), (4, 1), (9, 5), (16, 14), (25, 30)]


def _reference_gram_entropy(bits: np.ndarray, m: int) -> float:
    """The sliding-window matmul form of the smoothed m-gram entropy."""
    if m == 0:
        return 0.0
    windows = np.lib.stride_tricks.sliding_window_view(bits, m)
    powers = (1 << np.arange(m - 1, -1, -1)).astype(np.int64)
    grams = windows.astype(np.int64) @ powers
    counts = np.bincount(grams, minlength=1 << m).astype(np.float64) + 1.0
    probs = counts / counts.sum()
    return float(-(probs * np.log2(probs)).sum())


def _reference_block_rate(bits: np.ndarray, k: int) -> float:
    k = min(k, bits.size)
    rate = _reference_gram_entropy(bits, k) - _reference_gram_entropy(bits, k - 1)
    return min(1.0, max(0.0, rate))


_ONE_SHOT = {
    "zlib": lambda data: len(zlib.compress(data, 9)),
    "lzma": lambda data: len(lzma.compress(data, preset=6)),
    "bz2": lambda data: len(bz2.compress(data, 9)),
}


def _reference_compressor_rate(backend: str, chunk: np.ndarray, ctx: np.ndarray) -> float:
    """(clen(ctx||chunk) - clen(ctx)) / |chunk| from two one-shot compressions."""
    ctx = ctx[-CONTEXT_WINDOW_BITS:] if ctx.size > CONTEXT_WINDOW_BITS else ctx

    def clen(bits):
        return 8 * _ONE_SHOT[backend](np.packbits(bits, bitorder="big").tobytes())

    rate = (clen(np.concatenate([ctx, chunk])) - clen(ctx)) / chunk.size
    return min(1.0, max(0.0, float(rate)))


class TestEstimatorKernels:
    """The shift-or k-gram counts and the primed compressor give exactly the
    values of the direct computations, bit for bit."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_block_matches_reference(self, k):
        rng = np.random.default_rng(k)
        lengths = [1, max(1, k - 1), k, k + 1, 2 * k + 3,
                   *rng.integers(1, 20_000, size=6).tolist()]
        est = BlockEntropy(k)
        for n in lengths:
            bits = (rng.random(n) < rng.uniform(0.0, 0.5)).astype(np.uint8)
            assert est.estimate(bits) == _reference_block_rate(bits, k), (k, n)

    @pytest.mark.parametrize("backend", ["zlib", "lzma", "bz2"])
    def test_compressor_matches_one_shot(self, backend):
        rng = np.random.default_rng(7)
        est = Compressor(backend)
        for ctx_len in (0, 13, 8_191, CONTEXT_WINDOW_BITS, CONTEXT_WINDOW_BITS + 1_003):
            ctx = (rng.random(ctx_len) < 0.11).astype(np.uint8)
            for chunk_len, p in ((1, 0.5), (7, 0.3), (2_000, 0.11), (9_000, 0.4)):
                chunk = (rng.random(chunk_len) < p).astype(np.uint8)
                expected = _reference_compressor_rate(backend, chunk, ctx)
                assert est.estimate(chunk, ctx) == expected, (ctx_len, chunk_len)
        chunk = (rng.random(500) < 0.2).astype(np.uint8)
        assert est.estimate(chunk) == _reference_compressor_rate(
            backend, chunk, np.empty(0, np.uint8))

    @pytest.mark.parametrize("backend", ["zlib", "lzma", "bz2"])
    def test_memo_keys_on_content(self, backend):
        # the same array mutated in place, in its whole bytes and in its
        # leftover bits, then a different context of equal length: none may
        # reuse the memo of the context seen before
        rng = np.random.default_rng(3)
        est = Compressor(backend)
        ctx = (rng.random(20_005) < 0.05).astype(np.uint8)
        chunk = (rng.random(3_000) < 0.3).astype(np.uint8)
        for flip in (None, slice(100, 4_000), slice(20_001, 20_005)):
            if flip is not None:
                ctx[flip] ^= 1
            assert est.estimate(chunk, ctx) == _reference_compressor_rate(
                backend, chunk, ctx)
        other = (rng.random(ctx.size) < 0.05).astype(np.uint8)
        assert est.estimate(chunk, other) == _reference_compressor_rate(
            backend, chunk, other)

    def test_raise_chunk_compresses_its_context_once(self, monkeypatch):
        primed = []
        real = zlib.compressobj
        monkeypatch.setattr(zlib, "compressobj",
                            lambda *a: primed.append(a) or real(*a))

        class Counting(Compressor):
            evaluations = 0

            def estimate(self, chunk, context=None):
                self.evaluations += 1
                return super().estimate(chunk, context)

        est = Counting("zlib")
        rng = np.random.default_rng(5)
        context = (rng.random(30_003) < 0.11).astype(np.uint8)
        chunk = (rng.random(6_000) < 0.05).astype(np.uint8)
        _, value = raise_chunk(chunk, context, 1800, est, seed=1, target=0.6)
        assert est.evaluations > 2
        assert len(primed) == 1
        assert value >= 0.6


class TestSequenceDim:
    def test_constant_chunks(self):
        class Const:
            name = "const"

            def estimate(self, chunk, context=None):
                return 0.625

        res = sequence_dim(gen_coin(3000, 0), Const())
        assert np.array_equal(res.chunk_values, np.full(chunk_count(3000), 0.625))
        assert res.tail_min == pytest.approx(0.625, abs=1e-12)
        assert np.allclose(weighted_series(res.chunk_values), 0.625)

    def test_parity_alternating_averages_to_half(self):
        class Parity:
            name = "parity"

            def __init__(self):
                self.j = 0

            def estimate(self, chunk, context=None):
                self.j += 1
                return 1.0 if self.j % 2 == 0 else 0.0

        n_bits = chunk_boundary(101)
        res = sequence_dim(gen_coin(n_bits, 0), Parity())
        # oracle: exact partial sums of i^2 over even i up to j-1
        j = 100
        even_sum = sum(i * i for i in range(2, j, 2))
        want = even_sum / chunk_boundary(j + 1) * (j + 1 == 101 and 1 or 1)
        got = weighted_series(res.chunk_values)[-1]
        assert got == pytest.approx(sum(i * i for i in range(2, 101, 2)) / chunk_boundary(101), abs=1e-12)
        assert abs(got - 0.5) <= 3.0 / 100

    def test_bernoulli_concentrates(self):
        for p, seed in [(0.11, 0), (0.3, 1)]:
            res = sequence_dim(gen_bernoulli(p, 200_000, seed), BernoulliOracle())
            assert abs(res.tail_min - entropy(p)) <= 0.02

    def test_bernoulli_spread_over_seeds(self):
        # concentration of the tail statistic at H(p): 100 seeds, 1e6 bits
        p = 0.11
        vals = [sequence_dim(gen_bernoulli(p, 1_000_000, seed),
                             BernoulliOracle()).tail_min
                for seed in range(100)]
        assert max(vals) - min(vals) < 0.02
        assert abs(np.mean(vals) - entropy(p)) < 0.01

    def test_too_short(self):
        # no bits, no chunk
        with pytest.raises(ValueError):
            sequence_dim(BitSequence(np.zeros(0, dtype=np.uint8)), BernoulliOracle())

    def test_short_input_reads_its_last_boundaries(self):
        # 30 bits hold 4 chunks, fewer than MIN_TAIL_CHUNK: the tail window
        # shrinks to start at boundary j = 4, so A_4 and A_5 are read
        res = sequence_dim(gen_coin(30, 0), BernoulliOracle())
        series = weighted_series(res.chunk_values)
        assert len(series) == 4
        assert res.tail_min == series[2:].min()


class TestSequenceDistance:
    def test_identical(self):
        x = gen_coin(5000, 3)
        res = sequence_distance(x, x)
        assert not res.counts.any() and res.tail_max == 0.0

    def test_complement(self):
        x = gen_coin(5000, 3)
        y = BitSequence(1 - x.bits)
        res = sequence_distance(x, y)
        js = np.arange(1, chunk_count(5000) + 1)
        assert np.array_equal(res.counts, js ** 2) and res.tail_max == 1.0

    def test_first_bit_of_each_chunk(self):
        n_bits = chunk_boundary(61)
        x = gen_coin(n_bits, 1)
        y = BitSequence(x.bits.copy())
        for j in range(1, 61):
            pos = chunk_boundary(j)
            y.bits[pos] ^= 1
        res = sequence_distance(x, y)
        # delta_i = 1/i^2, so the prefix density is (j-1)/n_j -> 0
        assert res.counts.dtype == np.int64 and res.counts.tolist() == [1] * 60
        # the density falls, so the tail's first boundary, n_30, holds the max
        assert res.tail_max == 29 / chunk_boundary(30)
        assert res.tail_max < 0.01

    def test_prefix_identity_exact(self):
        x = gen_coin(30_000, 7)
        y = gen_bernoulli(0.4, 30_000, 8)
        res = sequence_distance(x, y)
        # tail_max is the largest plain prefix density over the tail
        # boundaries n_{j+1}, bit for bit, and counts are the chunks' mismatches
        mism = x.bits != y.bits
        count = chunk_count(30_000)
        ends = [chunk_boundary(j) for j in range(1, count + 2)]
        assert res.counts.tolist() == [int(np.count_nonzero(mism[lo:hi]))
                                       for lo, hi in zip(ends, ends[1:])]
        prefix = [np.count_nonzero(mism[:b]) / b for b in ends[1:]]
        assert res.tail_max == max(prefix[default_tail_start(count) - 2:])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sequence_distance(gen_coin(100, 0), gen_coin(99, 0))

    @pytest.mark.parametrize("tail_start", [None, 3, 10, 20])
    def test_planned_distance_reads_the_same_tail(self, tail_start):
        # a plan whose densities are the measured ones plans the measured
        # distance, over the same boundaries.  tail_start is the tail the
        # input length leads to: under MIN_TAIL_CHUNK chunks (3), at the
        # minimum (10) and past it (20); None is a plain 30000-bit input
        if tail_start is None:
            n_bits = 30_000
        else:
            count = tail_start if tail_start <= MIN_TAIL_CHUNK else 2 * tail_start
            n_bits = chunk_boundary(count + 1)
        x = gen_coin(n_bits, 7)
        y = gen_bernoulli(0.4, n_bits, 8)
        res = sequence_distance(x, y)
        if tail_start is not None:
            assert default_tail_start(len(res.counts)) == tail_start
        deltas = res.counts / np.arange(1, len(res.counts) + 1) ** 2
        assert planned_distance(deltas) == pytest.approx(res.tail_max, rel=1e-12)


class TestDimBoundProxy:
    def test_bernoulli_oracle_obeys_bound(self):
        # |dim(Y) - dim(X)| <= H(d(X, Y)) up to a 0.1 proxy slack
        x = gen_bernoulli(0.11, 150_000, 5)
        y = gen_coin(150_000, 6)
        dim_x = sequence_dim(x, BernoulliOracle()).tail_min
        dim_y = sequence_dim(y, BernoulliOracle()).tail_min
        dist = sequence_distance(x, y).tail_max
        assert abs(dim_y - dim_x) - entropy(min(1.0, dist)) <= 0.1
