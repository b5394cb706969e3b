"""Shared test fixtures: the paper's oblivious raise plans and its Case 1 /
Case 2 selector, kept as the reference that the package's water-filling
planner is measured against, the per-position colex rank and unrank that
the package's jumping ones are checked against, and non-stationary inputs
built from the `verify buffer` families."""

import math

import numpy as np
import pytest

from dimsurgery.bitseq import BitSequence
from dimsurgery.cli import _buffer_families
from dimsurgery.dimension import chunk_count
from dimsurgery.entropy import _require_unit, entropy_inv
from dimsurgery.surgery import _round_up_to_grid, default_eps_seq


def entropy_deriv(p):
    """H'(p) = log2((1-p)/p) for p in (0, 1); infinite slope at the endpoints."""
    arr = np.asarray(p, dtype=float)
    if np.any(np.isnan(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")
    out = np.log2((1.0 - arr) / arr)
    return float(out) if arr.ndim == 0 else out


CASE1 = "case1"
CASE2 = "case2"


def _weighted_inv_slope(x: np.ndarray) -> np.ndarray:
    # (1-x) * g'(x) with g = entropy_inv; g'(x) = 1/H'(g(x)).  Limit 0 at x=0,
    # where g = 0 lies outside the domain of H' and is swapped for 1/4.
    inside = x > 0.0
    g = np.where(inside, entropy_inv(x), 0.25)
    return np.where(inside, (1.0 - x) / entropy_deriv(g), 0.0)


_CASE_TIE_TOL = 1e-9


def case_select(s, t):
    """Pick the paper's raise construction for the pair s < t (both in [0, 1)).

    Returns CASE1 iff (1-s)g'(s) <= (1-t)g'(t) with g = entropy_inv.  Both
    strategies are valid under a non-strict inequality, so near-ties (within
    1e-9) also resolve to CASE1.  Elementwise: array input gives an array of
    CASE1/CASE2 strings.
    """
    _require_unit(s, "s")
    _require_unit(t, "t")
    s_arr = np.asarray(s, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if not np.all(s_arr < t_arr) or np.any(t_arr >= 1.0):
        raise ValueError(f"need 0 <= s < t < 1, got s={s}, t={t}")
    case1 = _weighted_inv_slope(s_arr) <= _weighted_inv_slope(t_arr) + _CASE_TIE_TOL
    out = np.where(case1, CASE1, CASE2)
    return str(out) if out.ndim == 0 else out


def paper_raise_deltas(s_seq, s: float, t: float):
    """(label, delta_j) of the paper's plan from a declared dimension s to t.

    randomize (t = 1): delta_j = 1/2 + eps_j - g(s_j) + 1/j.  Case 1: the
    flat budget g(t) - g(s) + eps_j.  Case 2: targets on the chord through
    (s, t) and (1, 1), rounded up to 1/j, delta_j = g(t_j) - g(s_j) + eps_j.
    Every delta_j is clipped into [0, 1]; g = entropy_inv.
    """
    s_arr = np.asarray(s_seq, dtype=float)
    eps = np.array(default_eps_seq(len(s_arr)))
    js = np.arange(1, len(s_arr) + 1)
    if t == 1.0:
        return "randomize", np.clip(0.5 + eps - entropy_inv(s_arr) + 1.0 / js, 0.0, 1.0)
    if case_select(s, t) == CASE1:
        return "raise_case1", np.minimum(1.0, entropy_inv(t) - entropy_inv(s) + eps)
    chord = (1.0 - t) / (1.0 - s) * s_arr + (t - s) / (1.0 - s)
    t_arr = _round_up_to_grid(chord, js)
    return "raise_case2", np.clip(entropy_inv(t_arr) - entropy_inv(s_arr) + eps, 0.0, 1.0)


def colex_rank_walk(subset) -> int:
    """Colex rank sum_i C(c_i, i+1) by one exact step per position up to the
    largest element: C(m+1, i) = C(m, i) (m+1)/(m+1-i)."""
    rank = 0
    b = 1           # b == C(m, i): nonzero for m >= i, unlike C(c_i, i+1) at c_i = i
    m = 0
    for i, c in enumerate(subset):
        if c < m:
            raise ValueError(f"subset must be strictly ascending and nonnegative, got {c}")
        while m < c:
            m += 1
            b = b * m // (m - i)
        rank += b * (c - i) // (i + 1)      # C(c, i+1) = C(c, i) (c-i)/(i+1)
        m += 1
        b = b * m // (i + 1)                # C(c+1, i+1)
    return rank


def colex_unrank_walk(rank: int, n: int, k: int) -> tuple:
    """Inverse of colex_rank_walk for k-subsets of {0..n-1}, one exact step
    per position from n down; rank must lie in [0, C(n, k))."""
    out = [0] * k
    m = n
    c = math.comb(m, k)
    while k > 0:
        # c == C(m, k); exact updates C(m-1, k) = c (m-k)/m, C(m-1, k-1) = c k/m
        offset = c * (m - k) // m
        if rank >= offset:
            rank -= offset
            c = c * k // m
            k -= 1
            out[k] = m - 1
        else:
            c = offset
        m -= 1
    return tuple(out)


def profile_bits(family: str, n_bits: int, seed: int) -> BitSequence:
    """n_bits whose chunk j is Bernoulli(H^-1(s_j)), s_j from the `verify
    buffer` family (alternating: 0.8, 0.2, 0.8, ...; drifting: 0.3 up to 0.6);
    the bits past the last complete chunk follow the next s_j."""
    count = chunk_count(n_bits) + 1
    s_seq = dict(_buffer_families(count))[family]
    p = np.repeat(entropy_inv(np.array(s_seq)), np.arange(1, count + 1) ** 2)[:n_bits]
    return BitSequence((np.random.default_rng(seed).random(n_bits) < p).astype(np.uint8))


@pytest.fixture
def paper_plan():
    return paper_raise_deltas


@pytest.fixture
def profile_input():
    return profile_bits
