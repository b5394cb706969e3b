"""Shared test fixtures: the paper's oblivious raise plans, kept as the
reference that the package's water-filling planner is measured against, and
non-stationary inputs built from the `verify buffer` families."""

import numpy as np
import pytest

from dimsurgery.bitseq import BitSequence
from dimsurgery.cli import _buffer_families
from dimsurgery.dimension import chunk_count
from dimsurgery.entropy import CASE1, case_select, entropy_inv
from dimsurgery.surgery import _round_up_to_grid, default_eps_seq


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
