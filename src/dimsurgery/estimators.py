"""Computable proxies for the per-chunk description-rate of a bit string.

Three families, selectable by name string in CLI/config:

  bernoulli        H(fraction of ones); only valid for Bernoulli-type sources
  block:K          empirical entropy rate of overlapping K-grams
  compressor:NAME  conditional rate via compressed-concatenation difference
                   (NAME in zlib | lzma | bz2)

Every estimate is clamped to [0, 1].  Estimators are stateless and
deterministic; estimation failures raise EstimatorError rather than
returning a value.
"""

from __future__ import annotations

import bz2
import lzma
import zlib

import numpy as np

from .bitseq import as_bits
from .entropy import entropy


class EstimatorError(RuntimeError):
    """An estimator backend failed to produce an estimate."""


class BernoulliOracle:
    """H(empirical frequency of ones); context is ignored."""

    name = "bernoulli"

    def estimate(self, chunk, context=None) -> float:
        bits = as_bits(chunk)
        if bits.size == 0:
            raise EstimatorError("empty chunk")
        return float(entropy(float(np.count_nonzero(bits)) / bits.size))


def _gram_entropy(bits: np.ndarray, m: int) -> float:
    """Entropy of the add-one-smoothed overlapping m-gram distribution."""
    if m == 0:
        return 0.0
    windows = np.lib.stride_tricks.sliding_window_view(bits, m)
    powers = (1 << np.arange(m - 1, -1, -1)).astype(np.int64)
    grams = windows.astype(np.int64) @ powers
    counts = np.bincount(grams, minlength=1 << m).astype(np.float64) + 1.0
    probs = counts / counts.sum()
    return float(-(probs * np.log2(probs)).sum())


class BlockEntropy:
    """Empirical entropy rate from overlapping k-grams, add-one smoothed.

    Rate = H(k-grams) - H((k-1)-grams), the conditional entropy of one bit
    given k-1 bits of context; clamped to [0, 1].  Chunks shorter than k fall
    back to k = len(chunk).
    """

    def __init__(self, k: int = 8):
        if not 1 <= k <= 24:
            raise ValueError(f"k must lie in [1, 24], got {k}")
        self.k = k
        self.name = f"block:{k}"

    def estimate(self, chunk, context=None) -> float:
        bits = as_bits(chunk)
        if bits.size == 0:
            raise EstimatorError("empty chunk")
        k = min(self.k, bits.size)
        rate = _gram_entropy(bits, k) - _gram_entropy(bits, k - 1)
        return min(1.0, max(0.0, rate))


_BACKENDS = {
    "zlib": lambda data: len(zlib.compress(data, 9)),
    "lzma": lambda data: len(lzma.compress(data, preset=6)),
    "bz2": lambda data: len(bz2.compress(data, 9)),
}

CONTEXT_WINDOW_BITS = 1 << 16


class Compressor:
    """Conditional rate (clen(context||chunk) - clen(context)) * 8 / |chunk|.

    The context is truncated to its last 2^16 bits to keep compression cost
    bounded on long prefixes.
    """

    def __init__(self, backend: str = "zlib"):
        if backend not in _BACKENDS:
            raise EstimatorError(
                f"unknown compressor {backend!r}; expected one of {sorted(_BACKENDS)}")
        self.backend = backend
        self.name = f"compressor:{backend}"

    def _clen_bits(self, bits: np.ndarray) -> int:
        data = np.packbits(bits, bitorder="big").tobytes()
        try:
            return 8 * _BACKENDS[self.backend](data)
        except Exception as exc:  # pragma: no cover - backend failure path
            raise EstimatorError(f"{self.backend} failed: {exc}") from exc

    def estimate(self, chunk, context=None) -> float:
        bits = as_bits(chunk)
        if bits.size == 0:
            raise EstimatorError("empty chunk")
        ctx = as_bits(context) if context is not None else np.empty(0, np.uint8)
        if ctx.size > CONTEXT_WINDOW_BITS:
            ctx = ctx[-CONTEXT_WINDOW_BITS:]
        joint = np.concatenate([ctx, bits])
        rate = (self._clen_bits(joint) - self._clen_bits(ctx)) / bits.size
        return min(1.0, max(0.0, float(rate)))


def parse_estimator(spec: str):
    """Build an estimator from its CLI name: bernoulli | block:K | compressor:NAME."""
    if spec == "bernoulli":
        return BernoulliOracle()
    if spec.startswith("block:"):
        return BlockEntropy(int(spec.split(":", 1)[1]))
    if spec == "block":
        return BlockEntropy()
    if spec.startswith("compressor:") and spec.split(":", 1)[1] in _BACKENDS:
        return Compressor(spec.split(":", 1)[1])
    raise ValueError(f"unknown estimator spec {spec!r}")
