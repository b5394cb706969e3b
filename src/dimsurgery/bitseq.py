"""Finite bit sequences: the desk-scale stand-in for one-way infinite strings.

Bits live in a numpy uint8 array of 0/1 values.  On disk a sequence is raw
packed bytes (most-significant-bit first within each byte) plus a one-line
sidecar file `<path>.len` holding "len=<bits>" so trailing pad bits are
unambiguous.  The payload must hold exactly ceil(len/8) bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


class BitFileError(ValueError):
    """A bit file or its sidecar is malformed (the CLI reports an I/O error)."""


@dataclass
class BitSequence:
    bits: np.ndarray  # uint8 array of 0/1

    def __post_init__(self):
        arr = np.asarray(self.bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.size and arr.max() > 1:
            raise ValueError("bits must be 0/1 valued")
        self.bits = arr

    def __len__(self) -> int:
        return int(self.bits.size)

    def __getitem__(self, key) -> "BitSequence":
        return BitSequence(self.bits[key])

    def __eq__(self, other) -> bool:
        return isinstance(other, BitSequence) and np.array_equal(self.bits, other.bits)

    def to_file(self, path: str | os.PathLike) -> None:
        packed = np.packbits(self.bits, bitorder="big")
        with open(path, "wb") as fh:
            fh.write(packed.tobytes())
        with open(f"{os.fspath(path)}.len", "w", encoding="ascii") as fh:
            fh.write(f"len={len(self)}\n")

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "BitSequence":
        sidecar = f"{os.fspath(path)}.len"
        with open(sidecar, "rb") as fh:
            header = fh.readline().strip()
        digits = header[4:]
        if not (header.startswith(b"len=") and digits.isdigit()):
            raise BitFileError(f"{sidecar}: malformed sidecar header "
                               f"{header.decode('ascii', 'replace')!r}")
        length = int(digits)
        raw = np.fromfile(path, dtype=np.uint8)
        if raw.size != (length + 7) // 8:
            raise BitFileError(f"{os.fspath(path)}: {raw.size} bytes, but len={length} "
                               f"needs {(length + 7) // 8}")
        return cls(np.unpackbits(raw, bitorder="big")[:length])


def as_bits(x) -> np.ndarray:
    """The 0/1 uint8 array behind a BitSequence or an array-like."""
    return x.bits if isinstance(x, BitSequence) else np.asarray(x, dtype=np.uint8)


def gen_coin(n_bits: int, seed: int) -> BitSequence:
    """Fair-coin sequence."""
    rng = np.random.default_rng(seed)
    return BitSequence(rng.integers(0, 2, size=n_bits, dtype=np.uint8))


def gen_bernoulli(p: float, n_bits: int, seed: int) -> BitSequence:
    """Bernoulli(p) sequence: proxy dimension concentrates at H(p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p}")
    rng = np.random.default_rng(seed)
    return BitSequence((rng.random(n_bits) < p).astype(np.uint8))


def gen_join_dup(n_bits: int, seed: int) -> BitSequence:
    """Join of a coin sequence with itself: bit 2i == bit 2i+1 everywhere."""
    rng = np.random.default_rng(seed)
    half = rng.integers(0, 2, size=(n_bits + 1) // 2, dtype=np.uint8)
    return BitSequence(np.repeat(half, 2)[:n_bits])


def gen_zero_padded(stride: int, n_bits: int, seed: int) -> BitSequence:
    """Coin sequence with every position divisible by `stride` forced to 0."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    seq = gen_coin(n_bits, seed)
    seq.bits[::stride] = 0
    return seq


GENERATORS = {
    "coin": gen_coin,
    "bernoulli": gen_bernoulli,
    "join_dup": gen_join_dup,
    "zero_padded": gen_zero_padded,
}
