"""Three-part description of a join-type sequence Y relative to a nearby X.

Y must be a join (Y(2i) = Y(2i+1)).  The description stores X verbatim, one
bit Y(2i) per X-pair with X(2i) != X(2i+1), and the set
{i : X(2i) = X(2i+1) != Y(2i)} as an enumerative code over the equal-pair
indices (a cardinality header of 16 bits, or more when the equal-pair count
needs them, plus a colex combination rank).  It beats the
symmetric-difference counting bound whenever X sits within distance
H^{-1}(1/2) of Y: roughly n + H^{-1}(1/2) n + n/4 bits for a sequence pair
the naive bound prices at n + H(d) n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitseq import BitSequence, as_bits
from .hamming import colex_rank, colex_unrank

SUBSET_HEADER_BITS = 16


def _header_bits(equal: int) -> int:
    """Width of the cardinality header: 16 bits, or enough to hold `equal`."""
    return max(SUBSET_HEADER_BITS, equal.bit_length())


def _int_to_bits(value: int, width: int) -> np.ndarray:
    """`value` as `width` big-endian bits; OverflowError if it needs more."""
    if value.bit_length() > width:
        raise OverflowError(f"{value} does not fit in {width} bits")
    raw = np.frombuffer(value.to_bytes((width + 7) // 8, "big"), np.uint8)
    return np.unpackbits(raw)[(-width) % 8:]


def _bits_to_int(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> ((-bits.size) % 8)


@dataclass
class DuplicationDescription:
    x_bits: BitSequence
    mismatch_bits: np.ndarray        # Y(2i) for each pair with X(2i) != X(2i+1)
    subset_code: tuple[int, int]     # (cardinality, colex rank) over equal pairs

    def to_bits(self) -> np.ndarray:
        """Serialize to a flat bit array: X verbatim, the per-pair bits, the
        cardinality header, the rank.  Its size is the description's length."""
        k, rank = self.subset_code
        x_even, x_odd = _pair_views(self.x_bits.bits)
        equal = int(np.count_nonzero(x_even == x_odd))
        rank_bits = (math.comb(equal, k) - 1).bit_length()
        return np.concatenate([
            self.x_bits.bits,
            np.asarray(self.mismatch_bits, dtype=np.uint8),
            _int_to_bits(k, _header_bits(equal)),
            _int_to_bits(rank, rank_bits),
        ])

    @classmethod
    def from_bits(cls, bits: np.ndarray, n: int) -> "DuplicationDescription":
        """Parse a serialized description of an n-bit sequence pair."""
        bits = np.asarray(bits, dtype=np.uint8)
        x = bits[:n]
        x_even, x_odd = _pair_views(x)
        unequal = int(np.count_nonzero(x_even != x_odd))
        equal = n // 2 - unequal
        pos = n + unequal
        mismatch = bits[n:pos]
        width = _header_bits(equal)
        if bits.size < pos + width:
            raise ValueError("malformed description: truncated header")
        k = _bits_to_int(bits[pos:pos + width])
        pos += width
        if k > equal:
            raise ValueError("malformed subset code")
        rank_bits = (math.comb(equal, k) - 1).bit_length()
        if bits.size != pos + rank_bits:
            raise ValueError("malformed description: wrong length")
        rank = _bits_to_int(bits[pos:pos + rank_bits])
        return cls(x_bits=BitSequence(x.copy()), mismatch_bits=mismatch.copy(),
                   subset_code=(k, rank))


def _pair_views(bits: np.ndarray):
    return bits[0::2], bits[1::2]


def duplication_encode(x, y) -> DuplicationDescription:
    """Encode a join Y against X; raises ValueError when Y is not a join."""
    bx, by = as_bits(x), as_bits(y)
    if bx.size != by.size:
        raise ValueError(f"length mismatch: {bx.size} vs {by.size}")
    if bx.size % 2:
        raise ValueError("length must be even")
    y_even, y_odd = _pair_views(by)
    if not np.array_equal(y_even, y_odd):
        raise ValueError("Y is not a join: found a pair with unequal bits")
    x_even, x_odd = _pair_views(bx)
    unequal = x_even != x_odd
    mismatch_bits = y_even[unequal].copy()
    equal_pos = np.flatnonzero(~unequal)
    wrong = np.flatnonzero(y_even[equal_pos] != x_even[equal_pos])
    return DuplicationDescription(
        x_bits=BitSequence(bx.copy()),
        mismatch_bits=mismatch_bits,
        subset_code=(int(wrong.size), colex_rank(wrong.tolist())),
    )


def duplication_decode(desc: DuplicationDescription) -> BitSequence:
    """Reconstruct Y exactly from a description."""
    bx = desc.x_bits.bits
    x_even, x_odd = _pair_views(bx)
    unequal = x_even != x_odd
    n_unequal = int(np.count_nonzero(unequal))
    if desc.mismatch_bits.size != n_unequal:
        raise ValueError(
            f"malformed description: {desc.mismatch_bits.size} mismatch bits "
            f"for {n_unequal} unequal pairs")
    equal_pos = np.flatnonzero(~unequal)
    k, rank = desc.subset_code
    if not 0 <= k <= equal_pos.size or not 0 <= rank < max(1, math.comb(equal_pos.size, k)):
        raise ValueError("malformed subset code")
    y_even = x_even.copy()
    y_even[unequal] = desc.mismatch_bits
    if k:
        flip = np.array(colex_unrank(rank, equal_pos.size, k), dtype=np.int64)
        y_even[equal_pos[flip]] ^= 1
    return BitSequence(np.repeat(y_even, 2))
