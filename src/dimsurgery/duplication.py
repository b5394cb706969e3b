"""Enumerative coder for a join-type sequence Y relative to a nearby X.

Y must be a join (Y(2i) = Y(2i+1)).  `duplication_encode(x, y)` returns the
description as its wire, a flat 0/1 uint8 array: X verbatim, one bit Y(2i)
per X-pair with X(2i) != X(2i+1), then the set {i : X(2i) = X(2i+1) != Y(2i)}
as an enumerative code over the equal-pair indices (a cardinality header of
16 bits, or more when the equal-pair count needs them, plus a colex rank of
just enough bits for C(equal, k) subsets).  The wire's size is the
description's length; `duplication_decode(bits, n)` parses and checks it and
rebuilds Y.  It beats the symmetric-difference counting bound whenever X sits
within distance H^{-1}(1/2) of Y: roughly n + H^{-1}(1/2) n + n/4 bits for a
sequence pair the naive bound prices at n + H(d) n.
"""

from __future__ import annotations

import math

import numpy as np

from .bitseq import BitSequence, as_bits
from .hamming import colex_rank, colex_unrank

SUBSET_HEADER_BITS = 16


def _int_to_bits(value: int, width: int) -> np.ndarray:
    """`value` as `width` big-endian bits; OverflowError if it needs more."""
    if value.bit_length() > width:
        raise OverflowError(f"{value} does not fit in {width} bits")
    raw = np.frombuffer(value.to_bytes((width + 7) // 8, "big"), np.uint8)
    return np.unpackbits(raw)[(-width) % 8:]


def _bits_to_int(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> ((-bits.size) % 8)


def _layout(x: np.ndarray):
    """X's pairs and the header width: X's even bits, the unequal-pair mask,
    the equal-pair indices and the cardinality header's width."""
    x_even = x[0::2]
    unequal = x_even != x[1::2]
    equal_pos = np.flatnonzero(~unequal)
    return x_even, unequal, equal_pos, max(SUBSET_HEADER_BITS, equal_pos.size.bit_length())


def _rank_field(equal: int, k: int) -> tuple[int, int]:
    """C(equal, k), the count of k-subsets of the equal pairs, and the width
    of a rank below it."""
    subsets = math.comb(equal, k)
    return subsets, (subsets - 1).bit_length()


def duplication_encode(x, y) -> np.ndarray:
    """The wire of a join Y against X; raises ValueError when Y is not a join."""
    bx, by = as_bits(x), as_bits(y)
    if bx.size != by.size:
        raise ValueError(f"length mismatch: {bx.size} vs {by.size}")
    if bx.size % 2:
        raise ValueError("length must be even")
    y_even = by[0::2]
    if not np.array_equal(y_even, by[1::2]):
        raise ValueError("Y is not a join: found a pair with unequal bits")
    x_even, unequal, equal_pos, header = _layout(bx)
    wrong = np.flatnonzero(y_even[equal_pos] != x_even[equal_pos])
    _, rank_bits = _rank_field(equal_pos.size, wrong.size)
    return np.concatenate([bx, y_even[unequal], _int_to_bits(wrong.size, header),
                           _int_to_bits(colex_rank(wrong.tolist()), rank_bits)])


def duplication_decode(bits, n: int) -> BitSequence:
    """Parse the wire of an n-bit pair, check it and rebuild Y; a wire that
    does not parse raises ValueError("malformed description: ...")."""
    bits = np.asarray(bits, dtype=np.uint8)
    if n < 0 or n % 2 or bits.size < n:
        raise ValueError(f"malformed description: {bits.size} bits for n = {n}")
    x_even, unequal, equal_pos, header = _layout(bits[:n])
    pos = n + int(np.count_nonzero(unequal))
    if bits.size < pos + header:
        raise ValueError("malformed description: truncated header")
    k = _bits_to_int(bits[pos:pos + header])
    if k > equal_pos.size:
        raise ValueError(f"malformed description: cardinality {k} > {equal_pos.size} equal pairs")
    subsets, rank_bits = _rank_field(equal_pos.size, k)
    if bits.size != pos + header + rank_bits:
        raise ValueError("malformed description: wrong length")
    rank = _bits_to_int(bits[pos + header:])
    if rank >= subsets:
        raise ValueError(f"malformed description: rank {rank} >= C({equal_pos.size}, {k})")
    y_even = x_even.copy()
    y_even[unequal] = bits[n:pos]
    if k:
        flip = np.array(colex_unrank(rank, equal_pos.size, k), dtype=np.int64)
        y_even[equal_pos[flip]] ^= 1
    return BitSequence(np.repeat(y_even, 2))
