"""Round-trip and length tests for the join-sequence duplication coder."""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimsurgery.bitseq import BitSequence, gen_join_dup
from dimsurgery.duplication import (
    SUBSET_HEADER_BITS,
    _bits_to_int,
    _int_to_bits,
    duplication_decode,
    duplication_encode,
)
from dimsurgery.entropy import entropy_inv


def make_pair(n, flip_count, seed):
    rng = np.random.default_rng(seed)
    y = gen_join_dup(n, seed)
    x = BitSequence(y.bits.copy())
    if flip_count:
        pos = rng.choice(n, size=flip_count, replace=False)
        x.bits[pos] ^= 1
    return x, y


def every_pair_mismatched():
    # X differs from Y on the first bit of every pair
    y = gen_join_dup(600, seed=3)
    x = BitSequence(y.bits.copy())
    x.bits[0::2] ^= 1
    return x, y


def wide_header_pair():
    # k = 2^16 wrong equal pairs no longer fits a 16-bit header
    xb = np.zeros(140_000, dtype=np.uint8)
    xb[:2 * 65_536] = 1
    return BitSequence(xb), BitSequence(np.zeros(140_000, dtype=np.uint8))


def wire_fields(wire, n):
    """The wire's fields by the layout the coder documents: X, the bits Y(2i)
    for unequal X-pairs, the cardinality header, the rank."""
    x = wire[:n]
    unequal = int(np.count_nonzero(x[0::2] != x[1::2]))
    header = max(SUBSET_HEADER_BITS, (n // 2 - unequal).bit_length())
    k = _bits_to_int(wire[n + unequal:n + unequal + header])
    return x, wire[n:n + unequal], k, wire[n + unequal + header:]


class TestEncode:
    def test_identical_pair(self):
        x, y = make_pair(1000, 0, seed=2)
        wire = duplication_encode(y, y)
        assert wire.dtype == np.uint8
        _, mismatch, k, rank = wire_fields(wire, 1000)
        assert mismatch.size == 0 and k == 0 and rank.size == 0
        assert wire.size == 1000 + SUBSET_HEADER_BITS

    def test_every_pair_mismatched(self):
        # part 2 carries everything, the subset is empty
        x, y = every_pair_mismatched()
        wire = duplication_encode(x, y)
        x_part, mismatch, k, rank = wire_fields(wire, 600)
        assert np.array_equal(x_part, x.bits)
        assert np.array_equal(mismatch, y.bits[0::2])
        assert k == 0 and rank.size == 0
        assert wire.size == 600 + 300 + SUBSET_HEADER_BITS

    def test_length_formula_matches_parts(self):
        x, y = make_pair(2000, 150, seed=4)
        wire = duplication_encode(x, y)
        x_even, x_odd = x.bits[0::2], x.bits[1::2]
        unequal = int(np.count_nonzero(x_even != x_odd))
        equal = 1000 - unequal
        k = int(np.count_nonzero((x_even == x_odd) & (x_even != y.bits[0::2])))
        rank_bits = (math.comb(equal, k) - 1).bit_length()
        assert wire_fields(wire, 2000)[2] == k
        assert wire.size == 2000 + unequal + SUBSET_HEADER_BITS + rank_bits

    def test_rejects_non_join(self):
        x = BitSequence(np.zeros(10, np.uint8))
        bad = BitSequence(np.arange(10, dtype=np.uint8) % 2)
        with pytest.raises(ValueError):
            duplication_encode(x, bad)

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            duplication_encode(BitSequence(np.zeros(9, np.uint8)),
                               BitSequence(np.zeros(9, np.uint8)))


class TestDecode:
    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=60)
    def test_round_trip(self, half_n, seed):
        n = 2 * half_n
        rng = np.random.default_rng(seed)
        flips = int(rng.integers(0, n + 1))
        x, y = make_pair(n, flips, seed)
        assert duplication_decode(duplication_encode(x, y), n) == y

    def test_all_pairs_mismatched_decodes_from_part2(self):
        y = gen_join_dup(400, seed=6)
        x = BitSequence(y.bits.copy())
        x.bits[1::2] ^= 1
        assert duplication_decode(duplication_encode(x, y), 400) == y

    def test_malformed_subset_code(self):
        # a rank field that holds C(equal, k), one past the last k-subset
        x, y = make_pair(100, 10, seed=7)
        wire = duplication_encode(x, y)
        x_part, _, k, rank = wire_fields(wire, 100)
        subsets = math.comb(int(np.count_nonzero(x_part[0::2] == x_part[1::2])), k)
        assert subsets < 1 << rank.size
        rank[:] = _int_to_bits(subsets, rank.size)
        with pytest.raises(ValueError, match="malformed description"):
            duplication_decode(wire, 100)


class TestWirePins:
    """sha256 of np.packbits(wire) for three fixed pairs: the wire layout is
    a contract that a new rank or parser must keep."""

    @pytest.mark.parametrize("pair, digest", [
        (lambda: make_pair(1000, int(float(entropy_inv(0.5)) * 1000), seed=1),
         "4984a12fb6dde79ba28e53e9a2eee99c52a8f440633374bd4bab939948567de3"),
        (every_pair_mismatched,
         "35413a9c5983438e5c5d97f181aa46e1d563257c413969321774c9bfe2cb206d"),
        (wide_header_pair,
         "c9ceead8eed9ee1e233d0a780bcbe543194dfba63c762ec4bfefa6ff47f4d062"),
    ], ids=["radius", "every_pair_mismatched", "wide_header"])
    def test_wire_pin(self, pair, digest):
        wire = duplication_encode(*pair())
        assert hashlib.sha256(np.packbits(wire).tobytes()).hexdigest() == digest


def _int_to_bits_loop(value, width):
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def _bits_to_int_loop(bits):
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


class TestIntBits:
    """The array helpers against the per-bit loops they replaced."""

    @pytest.mark.parametrize("width", [*range(71), 4097])
    def test_matches_bit_loops(self, width):
        rng = random.Random(width)
        values = {0, (1 << width) - 1, *(rng.getrandbits(width) for _ in range(20))}
        if width:
            values |= {1, 1 << (width - 1)}
        for value in sorted(values):
            bits = _int_to_bits(value, width)
            assert bits.dtype == np.uint8
            assert np.array_equal(bits, _int_to_bits_loop(value, width))
            assert _bits_to_int(bits) == value
        noise = np.random.default_rng(width).integers(0, 2, size=width, dtype=np.uint8)
        assert _bits_to_int(noise) == _bits_to_int_loop(noise)

    @pytest.mark.parametrize("value, width", [
        (1 << 16, 16), (1 << 12, 12), ((1 << 70) + 5, 70), (1, 0), (-1, 8)])
    def test_value_wider_than_field(self, value, width):
        with pytest.raises(OverflowError):
            _int_to_bits(value, width)


class TestBitSerialization:
    @given(st.integers(min_value=2, max_value=300), st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=40)
    def test_wire_round_trip(self, half_n, seed):
        n = 2 * half_n
        rng = np.random.default_rng(seed)
        x, y = make_pair(n, int(rng.integers(0, n + 1)), seed)
        wire = duplication_encode(x, y)
        back = duplication_decode(wire, n)
        assert back == y
        assert np.array_equal(duplication_encode(x, back), wire)

    def test_large_pair_round_trip(self):
        # 1e5 bits at the coder's radius: encode to the wire and decode back
        n = 100_000
        x, y = make_pair(n, int(float(entropy_inv(0.5)) * n), seed=12)
        wire = duplication_encode(x, y)
        back = duplication_decode(wire, n)
        assert back == y
        assert np.array_equal(duplication_encode(x, back), wire)

    def test_wide_cardinality_header_round_trip(self):
        x, y = wide_header_pair()
        wire = duplication_encode(x, y)
        _, _, k, rank = wire_fields(wire, 140_000)
        assert (k, _bits_to_int(rank)) == (65_536, 0)
        assert duplication_decode(wire, 140_000) == y

    def test_truncated_wire_rejected(self):
        # every proper prefix, and the whole wire read with an odd or a
        # negative n, is rejected by name before any field is sliced
        x, y = make_pair(100, 10, seed=3)
        wire = duplication_encode(x, y)
        for cut in range(wire.size):
            with pytest.raises(ValueError, match="malformed description"):
                duplication_decode(wire[:cut], 100)
        for n in (-4, 101):
            with pytest.raises(ValueError, match="malformed description"):
                duplication_decode(wire, n)


class TestLengthBound:
    def test_bound_at_radius(self):
        # the advertised budget: n + g(1/2) n + n/4 + 2 log2 n + 16
        n = 4000
        radius = float(entropy_inv(0.5))
        bound = n + radius * n + n / 4 + 2 * math.log2(n) + 16
        rng = np.random.default_rng(9)
        for trial in range(50):
            y = gen_join_dup(n, seed=trial)
            x = BitSequence(y.bits.copy())
            pos = rng.choice(n, size=int(radius * n), replace=False)
            x.bits[pos] ^= 1
            wire = duplication_encode(x, y)
            assert wire.size <= bound
            assert duplication_decode(wire, n) == y
