"""Chunked dimension and distance proxies for finite bit sequences.

Sequences are cut into chunks of quadratically growing size (chunk j has j^2
bits, starting at n_j = sum_{i<j} i^2).  The proxy dimension of a sequence is
the weighted running average of per-chunk conditional estimates, with a
tail extremum standing in for the infinite-horizon liminf; the distance
aggregator mirrors it with per-chunk Hamming densities and a tail maximum.
This module owns the chunk layout: chunk_boundary is the one n_j,
chunk_count the one number of complete chunks, chunk_spans the one walk over
them that every chunk traversal iterates, weighted_series the one quadratic
weighting and default_tail_start the one tail window every extremum reads.
chunk_dims is the one loop that measures a sequence; surgery estimates what
it writes (raise_chunk each candidate, apply_plan each lowered chunk).
Chunks are compared only by sequence_distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitseq import as_bits

# chunks below this index carry too much per-chunk overhead to be meaningful
MIN_TAIL_CHUNK = 10


def chunk_boundary(j):
    """n_j = sum_{i<j} i^2 = (j-1) j (2j-1) / 6; chunk j spans [n_j, n_j + j^2).

    An int j gives an int; an int array gives an int64 array, elementwise.
    """
    if not isinstance(j, int):
        j = np.asarray(j, dtype=np.int64)
    if np.any(j < 1):
        raise ValueError(f"chunk indices must be >= 1, got {j}")
    return (j - 1) * j * (2 * j - 1) // 6


def chunk_count(length: int) -> int:
    """Number of complete chunks in `length` bits: the largest count with
    chunk_boundary(count + 1) <= length, at most cbrt(3 length) as n_{c+1} >= c^3/3."""
    if length < 1:
        raise ValueError("length must be positive")
    ends = chunk_boundary(np.arange(2, int(np.cbrt(3 * length)) + 3))
    return int(np.count_nonzero(ends <= length))


def chunk_spans(count: int) -> list[tuple[int, int]]:
    """The bit spans (n_j, n_{j+1}) of chunks j = 1..count, in order: the one
    walk over the chunk layout."""
    ends = chunk_boundary(np.arange(1, count + 2)).tolist()
    return list(zip(ends, ends[1:]))


def default_tail_start(count: int) -> int:
    """First boundary j of the tail over `count` chunks: half the horizon,
    at least MIN_TAIL_CHUNK, at most count (so the tail is never empty)."""
    return min(max(MIN_TAIL_CHUNK, count // 2), count)


def _tail(series: np.ndarray) -> np.ndarray:
    # series index i holds boundary j = i + 2
    return series[max(0, default_tail_start(len(series)) - 2):]


def chunk_dims(x, est) -> np.ndarray:
    """Per-chunk conditional estimates s_j, chunk j against its prefix x[:n_j]:
    the one measurement loop, which estimates every complete chunk once."""
    bits = as_bits(x)
    return np.array([est.estimate(bits[lo:hi], bits[:lo])
                     for lo, hi in chunk_spans(chunk_count(len(bits)))], dtype=np.float64)


@dataclass
class DimSeries:
    """tail_min of the weighted averages A_j = (1/n_j) sum_{i<j} s_i i^2."""

    tail_min: float
    chunk_values: np.ndarray      # s_i for i = 1 .. count


@dataclass
class DistanceSeries:
    """tail_max of the prefix Hamming densities at the chunk boundaries."""

    tail_max: float
    counts: np.ndarray            # int64 changed bits of chunk i = 1 .. count


def weighted_series(values) -> np.ndarray:
    """Quadratic-weight running averages (1/n_{j+1}) sum_{i<=j} v_i i^2, j = 1..count."""
    js = np.arange(1, len(values) + 1, dtype=np.int64)
    weights = (js.astype(np.float64)) ** 2
    return np.cumsum(np.asarray(values) * weights) / chunk_boundary(js + 1)


def dim_series(values) -> DimSeries:
    """Aggregate per-chunk dimension values; tail_min is the finite liminf
    surrogate (min over the tail boundaries)."""
    values = np.asarray(values, dtype=np.float64)
    return DimSeries(tail_min=float(_tail(weighted_series(values)).min()),
                     chunk_values=values)


def planned_distance(deltas) -> float:
    """Tail max of weighted_series(deltas): the distance a plan's change
    densities add up to, over the tail that sequence_distance reads."""
    return float(_tail(weighted_series(deltas)).max())


def sequence_dim(x, est) -> DimSeries:
    """Proxy dimension of a sequence: chunk_dims aggregated by dim_series."""
    return dim_series(chunk_dims(x, est))


def sequence_distance(x, y) -> DistanceSeries:
    """Chunk-aggregated normalized distance between two equal-length sequences.

    The running mismatch count over n_{j+1} is integer arithmetic, so it
    equals the plain prefix Hamming density at every chunk boundary bit for
    bit; re-weighting float per-chunk densities would not be exact.
    tail_max, the finite limsup surrogate, is its maximum over the tail.
    """
    bx, by = as_bits(x), as_bits(y)
    if bx.size != by.size:
        raise ValueError(f"length mismatch: {bx.size} vs {by.size}")
    spans = chunk_spans(chunk_count(bx.size))
    # chunk by chunk: a whole-sequence bx != by would hold a byte per bit
    counts = np.array([np.count_nonzero(bx[lo:hi] != by[lo:hi]) for lo, hi in spans], np.int64)
    series = np.cumsum(counts) / np.array([hi for _, hi in spans], dtype=np.float64)
    return DistanceSeries(tail_max=float(_tail(series).max()), counts=counts)
