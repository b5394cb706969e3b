"""Chunked dimension and distance proxies for finite bit sequences.

Sequences are cut into chunks of quadratically growing size (chunk j has j^2
bits, starting at n_j = sum_{i<j} i^2).  The proxy dimension of a sequence is
the weighted running average of per-chunk conditional estimates, with a
tail extremum standing in for the infinite-horizon liminf; the distance
aggregator mirrors it with per-chunk Hamming densities and a tail maximum.
Chunks are measured only by chunk_dims and averaged only by weighted_series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitseq import as_bits
from .entropy import entropy

# chunks below this index carry too much per-chunk overhead to be meaningful
MIN_TAIL_CHUNK = 10


def chunk_boundary(j: int) -> int:
    """n_j = sum_{i<j} i^2 = (j-1) j (2j-1) / 6; chunk j spans [n_j, n_j + j^2)."""
    if j < 1:
        raise ValueError(f"chunk index must be >= 1, got {j}")
    return (j - 1) * j * (2 * j - 1) // 6


@dataclass(frozen=True)
class ChunkSchedule:
    """Chunk layout covering a given number of bits."""

    length: int
    count: int                    # complete chunks fitting in `length`
    boundaries: tuple             # n_1 .. n_{count+1}

    @classmethod
    def for_length(cls, length: int) -> "ChunkSchedule":
        if length < 1:
            raise ValueError("length must be positive")
        count = 0
        while chunk_boundary(count + 2) <= length:
            count += 1
        bounds = tuple(chunk_boundary(j) for j in range(1, count + 2))
        return cls(length=length, count=count, boundaries=bounds)

    def span(self, j: int) -> tuple[int, int]:
        if not 1 <= j <= self.count:
            raise ValueError(f"chunk {j} out of range (1..{self.count})")
        return self.boundaries[j - 1], self.boundaries[j]


def default_tail_start(count: int) -> int:
    return max(MIN_TAIL_CHUNK, count // 2)


def chunk_dims(x, est) -> np.ndarray:
    """Per-chunk conditional estimates s_j: chunk j against its prefix x[:n_j].

    This is the one measurement loop; every complete chunk is estimated once.
    """
    bits = as_bits(x)
    sched = ChunkSchedule.for_length(len(bits))
    values = np.empty(sched.count)
    for j in range(1, sched.count + 1):
        lo, hi = sched.span(j)
        values[j - 1] = est.estimate(bits[lo:hi], bits[:lo])
    return values


@dataclass
class DimSeries:
    """Weighted running averages A_j = (1/n_j) sum_{i<j} s_i i^2 with tail stats."""

    final: float
    tail_min: float
    series: np.ndarray            # A_j for j = 2 .. count+1
    chunk_values: np.ndarray      # s_i for i = 1 .. count
    tail_start: int


@dataclass
class DistanceSeries:
    final: float
    tail_max: float
    series: np.ndarray            # weighted averages at j = 2 .. count+1
    chunk_values: np.ndarray      # per-chunk normalized Hamming distances
    tail_start: int


def weighted_series(values) -> np.ndarray:
    """Quadratic-weight running averages (1/n_{j+1}) sum_{i<=j} v_i i^2, j = 1..count."""
    js = np.arange(1, len(values) + 1, dtype=np.int64)
    weights = (js.astype(np.float64)) ** 2
    n_next = (js * (js + 1) * (2 * js + 1) / 6.0)        # n_{j+1}
    return np.cumsum(np.asarray(values) * weights) / n_next


def _check_tail(count: int, tail_start: int | None) -> None:
    want = default_tail_start(count) if tail_start is None else tail_start
    if count < max(1, want):
        raise ValueError(
            f"sequence too short: {count} complete chunks, tail needs {want}")


def _tail_slice(count: int, tail_start: int | None):
    # the j < MIN_TAIL_CHUNK exclusion is a default; an explicit tail_start wins
    start = default_tail_start(count) if tail_start is None else tail_start
    start = min(start, count + 1)
    # series index i holds boundary j = i + 2
    return max(0, start - 2), start


def dim_series(values, tail_start: int | None = None) -> DimSeries:
    """Aggregate per-chunk dimension values; tail_min is the finite liminf
    surrogate (min over boundaries j >= tail_start)."""
    values = np.asarray(values, dtype=np.float64)
    series = weighted_series(values)
    idx, start = _tail_slice(len(values), tail_start)
    return DimSeries(
        final=float(series[-1]),
        tail_min=float(series[idx:].min()),
        series=series,
        chunk_values=values,
        tail_start=start,
    )


def planned_distance(deltas, tail_start: int | None = None) -> float:
    """Tail max of weighted_series(deltas): the distance a plan's change
    densities add up to, over the tail that sequence_distance reads."""
    series = weighted_series(deltas)
    idx, _ = _tail_slice(len(series), tail_start)
    return float(series[idx:].max())


def sequence_dim(x, est, tail_start: int | None = None) -> DimSeries:
    """Proxy dimension of a sequence: chunk_dims aggregated by dim_series."""
    bits = as_bits(x)
    _check_tail(ChunkSchedule.for_length(len(bits)).count, tail_start)
    return dim_series(chunk_dims(bits, est), tail_start)


def sequence_distance(x, y, tail_start: int | None = None) -> DistanceSeries:
    """Chunk-aggregated normalized distance between two equal-length sequences.

    `series` is the integer running mismatch count over n_{j+1}, so it equals
    the plain prefix Hamming density at every chunk boundary bit for bit;
    re-weighting the float per-chunk densities would not be exact.  tail_max
    is the finite limsup surrogate.
    """
    bx, by = as_bits(x), as_bits(y)
    if bx.size != by.size:
        raise ValueError(f"length mismatch: {bx.size} vs {by.size}")
    sched = ChunkSchedule.for_length(bx.size)
    _check_tail(sched.count, tail_start)
    mism = bx != by
    counts = np.empty(sched.count, dtype=np.int64)
    for j in range(1, sched.count + 1):
        lo, hi = sched.span(j)
        counts[j - 1] = int(np.count_nonzero(mism[lo:hi]))
    js = np.arange(1, sched.count + 1, dtype=np.int64)
    deltas = counts / (js.astype(np.float64) ** 2)
    n_next = js * (js + 1) * (2 * js + 1) // 6
    series = np.cumsum(counts) / n_next.astype(np.float64)
    idx, start = _tail_slice(sched.count, tail_start)
    return DistanceSeries(
        final=float(series[-1]),
        tail_max=float(series[idx:].max()),
        series=series,
        chunk_values=deltas,
        tail_start=start,
    )


@dataclass
class DimBoundCheck:
    """Soft proxy form of |dim(Y) - dim(X)| <= H(d(X,Y)): logged, not asserted."""

    dim_x: float
    dim_y: float
    distance: float
    gap: float              # |dim_y - dim_x| - H(distance); negative is fine
    within_slack: bool
    slack: float


def check_dim_bound_proxy(x, y, est, slack: float = 0.1,
                          tail_start: int | None = None) -> DimBoundCheck:
    """Measure the naive dimension/distance bound under a proxy estimator.

    Compressor-style estimators are not ideal codes, so the bound only holds
    up to a calibration slack; callers log failures with the instance rather
    than asserting.
    """
    dx = sequence_dim(x, est, tail_start).tail_min
    dy = sequence_dim(y, est, tail_start).tail_min
    dist = sequence_distance(x, y, tail_start).tail_max
    gap = abs(dy - dx) - float(entropy(min(1.0, dist)))
    return DimBoundCheck(dim_x=dx, dim_y=dy, distance=dist, gap=gap,
                         within_slack=gap <= slack, slack=slack)
