"""Round-trip and length tests for the join-sequence duplication coder."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimsurgery.bitseq import BitSequence, gen_join_dup
from dimsurgery.duplication import (
    SUBSET_HEADER_BITS,
    DuplicationDescription,
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


class TestEncode:
    def test_identical_pair(self):
        x, y = make_pair(1000, 0, seed=2)
        desc = duplication_encode(y, y)
        assert desc.mismatch_bits.size == 0
        assert desc.subset_code == (0, 0)
        assert desc.to_bits().size == 1000 + SUBSET_HEADER_BITS

    def test_every_pair_mismatched(self):
        # X differs from Y on the first bit of every pair: part 2 carries
        # everything, the subset is empty
        y = gen_join_dup(600, seed=3)
        x = BitSequence(y.bits.copy())
        x.bits[0::2] ^= 1
        desc = duplication_encode(x, y)
        assert desc.mismatch_bits.size == 300
        assert desc.subset_code == (0, 0)
        assert desc.to_bits().size == 600 + 300 + SUBSET_HEADER_BITS

    def test_length_formula_matches_parts(self):
        x, y = make_pair(2000, 150, seed=4)
        desc = duplication_encode(x, y)
        x_even, x_odd = desc.x_bits.bits[0::2], desc.x_bits.bits[1::2]
        unequal = int(np.count_nonzero(x_even != x_odd))
        equal = 1000 - unequal
        k, rank = desc.subset_code
        rank_bits = (math.comb(equal, k) - 1).bit_length()
        assert desc.mismatch_bits.size == unequal
        assert desc.to_bits().size == 2000 + unequal + SUBSET_HEADER_BITS + rank_bits

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
        assert duplication_decode(duplication_encode(x, y)) == y

    def test_all_pairs_mismatched_decodes_from_part2(self):
        y = gen_join_dup(400, seed=6)
        x = BitSequence(y.bits.copy())
        x.bits[1::2] ^= 1
        desc = duplication_encode(x, y)
        assert duplication_decode(desc) == y

    def test_malformed_subset_code(self):
        x, y = make_pair(100, 10, seed=7)
        desc = duplication_encode(x, y)
        desc.subset_code = (desc.subset_code[0], 10**12)
        with pytest.raises(ValueError):
            duplication_decode(desc)


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
        desc = duplication_encode(x, y)
        wire = desc.to_bits()
        back = DuplicationDescription.from_bits(wire, n)
        assert duplication_decode(back) == y
        assert np.array_equal(back.to_bits(), wire)

    def test_large_pair_round_trip(self):
        # 1e5 bits at the coder's radius: serialize, parse and decode back
        n = 100_000
        x, y = make_pair(n, int(float(entropy_inv(0.5)) * n), seed=12)
        wire = duplication_encode(x, y).to_bits()
        back = DuplicationDescription.from_bits(wire, n)
        assert duplication_decode(back) == y
        assert np.array_equal(back.to_bits(), wire)

    def test_wide_cardinality_header_round_trip(self):
        # k = 2^16 wrong equal pairs no longer fits a 16-bit header
        n = 140_000
        xb = np.zeros(n, dtype=np.uint8)
        xb[:2 * 65_536] = 1
        y = BitSequence(np.zeros(n, dtype=np.uint8))
        desc = duplication_encode(BitSequence(xb), y)
        assert desc.subset_code == (65_536, 0)
        back = DuplicationDescription.from_bits(desc.to_bits(), n)
        assert back.subset_code == desc.subset_code
        assert duplication_decode(back) == y

    def test_truncated_wire_rejected(self):
        x, y = make_pair(100, 10, seed=3)
        wire = duplication_encode(x, y).to_bits()
        with pytest.raises(ValueError):
            DuplicationDescription.from_bits(wire[:-1], 100)


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
            desc = duplication_encode(x, y)
            assert desc.to_bits().size <= bound
            assert duplication_decode(desc) == y
