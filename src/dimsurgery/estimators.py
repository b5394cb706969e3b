"""Computable proxies for the per-chunk description-rate of a bit string.

Three families, selectable by name string in CLI/config:

  bernoulli        H(fraction of ones); only valid for Bernoulli-type sources
  block:K          empirical entropy rate of overlapping K-grams (K in 1..24)
  compressor:NAME  conditional rate via compressed-concatenation difference
                   (NAME in zlib | lzma | bz2)

Every estimate is clamped to [0, 1].  Estimators are deterministic: a
Compressor keeps a per-instance memo of the last context it saw, keyed on
the context's content, which saves work but never changes a value.
Estimation failures raise EstimatorError rather than returning a value.
"""

from __future__ import annotations

import bz2
import lzma
import zlib
from typing import NamedTuple

import numpy as np

from .bitseq import as_bits
from .entropy import entropy


class EstimatorError(RuntimeError):
    """An estimator backend failed to produce an estimate."""


class BernoulliOracle:
    """H(empirical frequency of ones); context is ignored."""

    def estimate(self, chunk, context=None) -> float:
        bits = as_bits(chunk)
        if bits.size == 0:
            raise EstimatorError("empty chunk")
        return float(entropy(float(np.count_nonzero(bits)) / bits.size))


def _smoothed_entropy(counts: np.ndarray) -> float:
    """Entropy of the add-one-smoothed distribution of integer counts."""
    smoothed = counts.astype(np.float64) + 1.0
    probs = smoothed / smoothed.sum()
    return float(-(probs * np.log2(probs)).sum())


def _gram_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Counts of the overlapping m-grams (m >= 1), indexed by their MSB-first code."""
    n = bits.size - m + 1
    codes = bits[:n].astype(np.int32)
    for i in range(1, m):
        codes <<= 1
        codes |= bits[i:i + n]
    return np.bincount(codes, minlength=1 << m)


class BlockEntropy:
    """Empirical entropy rate from overlapping k-grams, add-one smoothed.

    Rate = H(k-grams) - H((k-1)-grams), the conditional entropy of one bit
    given k-1 bits of context; clamped to [0, 1].  Chunks shorter than k fall
    back to k = len(chunk).
    """

    MAX_K = 24

    def __init__(self, k: int):
        if not 1 <= k <= self.MAX_K:
            raise ValueError(f"k must lie in [1, {self.MAX_K}], got {k}")
        self.k = k

    def estimate(self, chunk, context=None) -> float:
        bits = as_bits(chunk)
        if bits.size == 0:
            raise EstimatorError("empty chunk")
        k = min(self.k, bits.size)
        counts = _gram_counts(bits, k)
        # A k-gram's code is its leading (k-1)-gram's code shifted left by one,
        # so summing code pairs counts every (k-1)-gram but the last window.
        # For k = 1 that leaves the one empty gram, whose entropy is 0.
        shorter = counts.reshape(-1, 2).sum(axis=1)
        last = 0
        for bit in bits[bits.size - k + 1:].tolist():
            last = (last << 1) | bit
        shorter[last] += 1
        rate = _smoothed_entropy(counts) - _smoothed_entropy(shorter)
        return min(1.0, max(0.0, rate))


_BACKENDS = {
    "zlib": lambda data: len(zlib.compress(data, 9)),
    "lzma": lambda data: len(lzma.compress(data, preset=6)),
    "bz2": lambda data: len(bz2.compress(data, 9)),
}

CONTEXT_WINDOW_BITS = 1 << 16


class _ContextMemo(NamedTuple):
    head: bytes         # the context's whole bytes, packed
    tail: bytes         # its leftover bits (fewer than 8), one byte each
    stream: object      # zlib only: a compressobj that has consumed `head`
    stream_len: int     # bytes `stream` has emitted so far
    length: int         # compressed length of the context, in bytes


class Compressor:
    """Conditional rate (clen(context||chunk) - clen(context)) * 8 / |chunk|.

    The context is truncated to its last 2^16 bits to keep compression cost
    bounded on long prefixes.  The instance remembers its last context by
    content: a search that judges many candidates against one prefix
    compresses that prefix once.  packbits(ctx||chunk) is the context's whole
    bytes followed by packbits(leftover bits||chunk), so zlib resumes a copy
    of a stream primed on those bytes; deflate's output does not depend on
    how its input is split, so every length equals the one-shot compress.
    lzma and bz2 cannot copy a stream and reuse only clen(context).
    """

    def __init__(self, backend: str = "zlib"):
        if backend not in _BACKENDS:
            raise EstimatorError(
                f"unknown compressor {backend!r}; expected one of {sorted(_BACKENDS)}")
        self.backend = backend
        self._memo: _ContextMemo | None = None

    def _clen(self, memo: _ContextMemo, bits: np.ndarray) -> int:
        """Compressed length in bytes of the memo's context followed by `bits`."""
        rest = np.concatenate([np.frombuffer(memo.tail, np.uint8), bits])
        data = np.packbits(rest, bitorder="big").tobytes()
        try:
            if memo.stream is None:
                return _BACKENDS[self.backend](memo.head + data)
            stream = memo.stream.copy()
            return memo.stream_len + len(stream.compress(data)) + len(stream.flush())
        except (zlib.error, lzma.LZMAError, OSError) as exc:  # pragma: no cover
            raise EstimatorError(f"{self.backend} failed: {exc}") from exc

    def _context(self, ctx: np.ndarray) -> _ContextMemo:
        """The memo of `ctx`: the last one if its content matches, else a new one."""
        whole = ctx.size - ctx.size % 8
        head = np.packbits(ctx[:whole], bitorder="big").tobytes()
        tail = ctx[whole:].tobytes()
        memo = self._memo
        if memo is None or memo.head != head or memo.tail != tail:
            stream, stream_len = None, 0
            if self.backend == "zlib":
                stream = zlib.compressobj(9)
                stream_len = len(stream.compress(head))
            memo = _ContextMemo(head, tail, stream, stream_len, 0)
            memo = self._memo = memo._replace(length=self._clen(memo, ctx[:0]))
        return memo

    def estimate(self, chunk, context=None) -> float:
        bits = as_bits(chunk)
        if bits.size == 0:
            raise EstimatorError("empty chunk")
        ctx = as_bits(context) if context is not None else np.empty(0, np.uint8)
        if ctx.size > CONTEXT_WINDOW_BITS:
            ctx = ctx[-CONTEXT_WINDOW_BITS:]
        memo = self._context(ctx)
        rate = (8 * self._clen(memo, bits) - 8 * memo.length) / bits.size
        return min(1.0, max(0.0, float(rate)))


def parse_estimator(spec: str):
    """Build an estimator from its CLI name: bernoulli | block:K | compressor:NAME;
    any other name raises ValueError, which lists the accepted forms."""
    kind, _, arg = spec.partition(":")
    if spec == "bernoulli":
        return BernoulliOracle()
    if kind == "block" and arg.isdecimal() and 1 <= int(arg) <= BlockEntropy.MAX_K:
        return BlockEntropy(int(arg))
    if kind == "compressor" and arg in _BACKENDS:
        return Compressor(arg)
    raise ValueError(f"unknown estimator {spec!r}; expected bernoulli, block:K with K in [1, "
                     f"{BlockEntropy.MAX_K}] or compressor:NAME with NAME in {sorted(_BACKENDS)}")
