"""Per-chunk modification plans and their application.

A plan assigns every chunk a target proxy dimension t_j and a change-density
budget delta_j, following one of four strategies:

  raise          water-fill the measured chunk dimensions up to t:
                 t_j = max(s_j, tau), the least tau whose weighted tail
                 averages reach t; delta_j = g(t_j) - g(s_j) + eps_j
  randomize      raise at t = 1
  weak_srandom   buffered raise M(s_j, eps_j) with halving eps from the
                 slack schedule; keeps a complexity buffer above s
  lower          quantize each chunk onto linear block codes of rate ~ s

Application walks chunks left to right, estimating each modified chunk against
the already-constructed prefix; the per-chunk change budget is a hard
constraint (asserted on exact bit counts), target attainment is best-effort
search.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .bitseq import BitSequence, as_bits
from .dimension import (
    chunk_spans,
    default_tail_start,
    dim_series,
    planned_distance,
    sequence_distance,
)
from .entropy import (
    buffer_margin,
    buffer_schedule,
    entropy_inv,
)
from .hamming import (
    MAX_SYNDROME_BITS,
    LinearCode,
    systematic_code,
)

RAISE = "raise"
WEAK_SRANDOM = "weak_srandom"
LOWER = "lower"

EPS_MIN = 1e-3
_WATER_LEVEL_ITERS = 48  # bisection steps for tau: far below the 1/j^2 grid gaps
QUANTIZER_RATE_SLACK = 0.045  # extra code rate (bits per bit) for block quantizers


class PlanInvariantError(RuntimeError):
    """A constructed plan failed one of its arithmetic invariants."""


@dataclass(frozen=True)
class PlanEntry:
    j: int
    t_j: float
    delta_j: float
    eps_j: float


@dataclass
class SurgeryPlan:
    strategy: str
    entries: list[PlanEntry]
    bound: float    # the paper's distance bound for this plan, set by its planner
    # lower plans: the block quantizer of every width their chunks use, and
    # the block length of those chunk layouts; apply_plan quantizes onto them
    codebooks: dict[int, LinearCode] = field(default_factory=dict)
    block_len: int = 0

    def deltas(self) -> np.ndarray:
        return np.array([e.delta_j for e in self.entries])


def default_eps_seq(count: int) -> list[float]:
    """Slowly vanishing slack: eps_j = max(EPS_MIN, 1/ceil(log2(j+2))).

    Decays slower than the modulus of continuity of entropy_inv at 1 (which
    is ~sqrt(1/j)), so 1/j target rounding always fits inside one eps.
    """
    return [max(EPS_MIN, 1.0 / math.ceil(math.log2(j + 2))) for j in range(1, count + 1)]


def _round_up_to_grid(value, js: np.ndarray) -> np.ndarray:
    """Round each value up to the nearest fraction k/j, clamped into [0, 1]."""
    return np.minimum(1.0, np.ceil(value * js - 1e-9) / js)


def _entries(js, t_arr, delta_arr, eps) -> list[PlanEntry]:
    return [PlanEntry(j=j, t_j=t_j, delta_j=d_j, eps_j=e_j)
            for j, t_j, d_j, e_j in zip(js.tolist(), t_arr.tolist(), delta_arr.tolist(),
                                        eps.tolist())]


def plan_weak_srandom(s_seq, c: float) -> SurgeryPlan:
    """Buffered raise of bound planned_distance(delta): eps from the slack
    schedule, delta_j = 2 eps_j, t_j = M(s_j, eps_j) rounded up to 1/j.

    Re-checks the buffer inequality (buffer_margin) on the rounded targets
    before returning, at the schedule's floor and b.
    """
    sched = buffer_schedule(c, s_seq)
    js = np.arange(1, len(sched.eps) + 1)
    t_arr = _round_up_to_grid(sched.targets, js)
    if not np.all(buffer_margin(t_arr, c, sched.floor, sched.b) > 0):
        raise PlanInvariantError("rounded targets broke the buffer inequality")
    delta_arr = np.minimum(1.0, 2.0 * sched.eps)
    return SurgeryPlan(strategy=WEAK_SRANDOM,
                       entries=_entries(js, t_arr, delta_arr, sched.eps), bound=planned_distance(delta_arr))


def plan_raise(s_seq, t: float) -> SurgeryPlan:
    """Water-filling raise plan from the measured chunk dims s_j.

    t_j = max(s_j, tau rounded up to 1/j), tau the least single level in
    [0, 1] (bisection) whose targets keep dim_series(t_j).tail_min >= t,
    and delta_j = clip(g(t_j) - g(s_j) + eps_j, 0, 1), g = entropy_inv.
    Targets on more than one level can cost less under the tail-max
    planned_distance (README, Raise planning).  Its bound is gap =
    max(0, g(t) - g(s)), s = dim_series(s_seq).tail_min; asserts, from the
    plan alone, planned distance (over apply_plan's tail window, from j0 =
    default_tail_start) <= gap + max eps + 1/j0.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    s_arr = np.asarray(s_seq, dtype=float)
    eps, js = np.array(default_eps_seq(len(s_arr))), np.arange(1, len(s_arr) + 1)

    def targets(tau: float) -> np.ndarray:
        return np.maximum(s_arr, _round_up_to_grid(tau, js))

    lo, hi = 0.0, 1.0                           # targets(1) are all 1: feasible
    for _ in range(_WATER_LEVEL_ITERS):
        mid = 0.5 * (lo + hi)
        if dim_series(targets(mid)).tail_min >= t:
            hi = mid
        else:
            lo = mid
    t_arr = targets(hi)
    delta_arr = np.clip(entropy_inv(t_arr) - entropy_inv(s_arr) + eps, 0.0, 1.0)
    planned = planned_distance(delta_arr)
    gap = max(0.0, float(entropy_inv(t) - entropy_inv(dim_series(s_arr).tail_min)))
    budget = gap + float(eps.max()) + 1.0 / default_tail_start(len(s_arr))
    if planned > budget + 1e-12:
        raise PlanInvariantError(
            f"planned aggregate distance {planned:.6f} exceeds bound budget {budget:.6f}")
    return SurgeryPlan(strategy=RAISE, entries=_entries(js, t_arr, delta_arr, eps), bound=gap)


def plan_randomize(s_seq) -> SurgeryPlan:
    """Full-randomize plan: the raise plan at t = 1 (every t_j = 1).  A name
    of its own because perfbench/tracer.py times it: the raise workload's
    trace expects a surgery.plan_randomize span."""
    return plan_raise(s_seq, 1.0)


# ---------------------------------------------------------------------------
# Block quantizers for the lower strategy.
# ---------------------------------------------------------------------------

def _quantizer_dim(block_len: int, target_s: float) -> int:
    """k = floor((s + slack) L), at most L."""
    return min(block_len, math.floor((target_s + QUANTIZER_RATE_SLACK) * block_len + 1e-9))


@functools.lru_cache(maxsize=128)
def quantizer_codebook(block_len: int, target_s: float) -> LinearCode:
    """Block quantizer of rate (s + slack) at most: the systematic [L, k]
    code with k = floor((s + slack) L).  Its coset leaders decode to a
    nearest codeword, so the distance to it never exceeds `radius`; past
    2^22 syndromes it raises ValueError."""
    return systematic_code(block_len, _quantizer_dim(block_len, target_s))


def default_block_len(target_s: float) -> int:
    """The largest L <= 32 whose quantizer has at most 2^22 syndromes."""
    return max(L for L in range(1, 33)
               if L - _quantizer_dim(L, target_s) <= MAX_SYNDROME_BITS)


def _block_layout(size: int, block_len: int) -> list[tuple[int, int]]:
    """(width, count) pairs: the full blocks of a chunk, then its remainder."""
    full, rest = divmod(size, block_len)
    return [(w, c) for w, c in ((block_len, full), (rest, 1)) if w and c]


_BYTE_ROWS = np.arange(0, 256 * 8, 256)[:, None]   # flat offset of byte table b


def lower_chunk(chunk, codebooks: dict[int, LinearCode], block_len: int):
    """Replace each block x of a chunk (_block_layout) by its nearest
    codeword x ^ leaders[syndrome(x)] in codebooks[width].

    Each block is packed little-endian into bytes; its syndrome is the XOR
    of one code.byte_tables entry per byte, and its leader, read as
    little-endian int64 bytes, is unpacked to the width bits it flips.

    Returns (y_chunk, index_bits), index_bits = k bits per block.
    """
    bits = as_bits(chunk)
    out = np.empty_like(bits)
    index_bits = 0
    pos = 0
    for width, count in _block_layout(bits.size, block_len):
        code = codebooks[width]
        if code.n != width:
            raise ValueError(f"code length {code.n} != block width {width}")
        span = slice(pos, pos + width * count)
        blocks = bits[span].reshape(count, width)
        packed = np.packbits(blocks, axis=1, bitorder="little")
        # byte b of every block indexes row b of the flat-indexed tables
        rows = np.add(packed.T, _BYTE_ROWS[:packed.shape[1]], order="C")
        syndromes = np.bitwise_xor.reduce(code.byte_tables.take(rows), axis=0)
        leader_bytes = code.leaders.take(syndromes).astype("<i8", copy=False).view(np.uint8)
        flips = np.unpackbits(leader_bytes.reshape(count, 8), axis=1, count=width,
                              bitorder="little")
        np.bitwise_xor(blocks, flips, out=out[span].reshape(count, width))
        index_bits += count * code.k
        pos += width * count
    return out, index_bits


def plan_lower(n_chunks: int, target_s: float, block_len: int | None = None) -> SurgeryPlan:
    """Lower-to-s plan of bound H^-1(1 - s): one quantizer_codebook per block
    width the chunk layouts use, kept in the plan; per-chunk budget = worst
    block covering-radius ratio.  block_len defaults to default_block_len(s).

    The nearest-codeword step can never exceed the covering radius of the
    block code, so the per-chunk budget is exact, not statistical.
    """
    if block_len is None:
        block_len = default_block_len(target_s)
    layouts = [_block_layout(hi - lo, block_len) for lo, hi in chunk_spans(n_chunks)]
    widths = {w for layout in layouts for w, _ in layout}
    codebooks = {w: quantizer_codebook(w, target_s) for w in sorted(widths, reverse=True)}
    entries = [PlanEntry(j=j, t_j=target_s, eps_j=0.0,
                         delta_j=max(codebooks[w].radius / w for w, _ in layout))
               for j, layout in enumerate(layouts, start=1)]
    return SurgeryPlan(strategy=LOWER, entries=entries,
                       bound=float(entropy_inv(1.0 - target_s)),
                       codebooks=codebooks, block_len=block_len)


# ---------------------------------------------------------------------------
# Chunk-local search.
# ---------------------------------------------------------------------------

def _flips_toward_half(bits: np.ndarray):
    ones = int(np.count_nonzero(bits))
    size = bits.size
    if 2 * ones < size:
        return np.flatnonzero(bits == 0), size // 2 - ones
    if 2 * ones > size:
        return np.flatnonzero(bits == 1), ones - (size + 1) // 2
    return np.empty(0, dtype=np.int64), 0


def raise_chunk(chunk, context, budget: int, est, seed: int | tuple = 0, *,
                target: float):
    """Search for a nearby chunk whose estimate reaches `target`.

    Returns (y_chunk, est.estimate(y_chunk, context)), the value the search
    already measured.  Hard constraint: output differs from the input on at
    most `budget` bits.  The estimate never decreases (the original is
    returned if no candidate improves on it).  The search stops as soon as
    the estimate reaches the target, keeping the distance spent minimal
    rather than exhausting the budget.

    It flips majority-value bits, moving the frequency of ones toward 1/2:
    binary search on the flip count k over the prefixes order[:k] of a
    uniformly random ordered sample of k_max = min(budget, flips to 1/2)
    majority positions, drawn without replacement (a partial Fisher-Yates
    shuffle, not a shuffle of the whole pool).  Every probe moves one
    working buffer by flipping only the bits between the last flip count
    and the next, and is estimated once.
    """
    bits = as_bits(chunk)
    base = est.estimate(bits, context)
    if budget == 0 or base >= target:
        return bits.copy(), base
    rng = np.random.default_rng(seed)
    pool, need = _flips_toward_half(bits)
    k_max = min(budget, need)
    order = pool[rng.choice(pool.size, size=k_max, replace=False)]
    work, at = bits.copy(), 0                   # bits with order[:at] flipped

    def probe(k: int, measure: bool = True) -> float:
        # move work to candidate k by flipping only the bits that differ
        nonlocal at
        work[order[min(at, k):max(at, k)]] ^= 1
        at = k
        return est.estimate(work, context) if measure and k else base

    lo, hi, best_val = 0, k_max, probe(k_max)
    while lo < hi and best_val >= target:       # hi: the best candidate
        mid = (lo + hi) // 2
        val = probe(mid)
        if val >= target:
            hi, best_val = mid, val
        else:
            lo = mid + 1
    probe(hi, measure=False)
    return (work, best_val) if best_val >= base else (bits.copy(), base)


# ---------------------------------------------------------------------------
# Plan application.
# ---------------------------------------------------------------------------

@dataclass
class SurgeryReport:
    delta_achieved: np.ndarray           # per chunk, in plan order
    t_achieved: np.ndarray
    dim_after: float
    distance: float
    codebook_rate: float | None = None   # lower runs: index bits per sequence bit


def apply_plan(x, plan: SurgeryPlan, est, seed: int = 0):
    """Apply a surgery plan left to right over the walk chunk_spans(count),
    which also gives the bits the plan covers and each chunk's size j^2.

    The input is only read, never estimated: the plan was built from the
    caller's measurement of it, and y starts as its copy, so bits past the
    plan pass through.  `seed` says how the search runs, the plan what it
    must achieve, so one plan serves every seed.  Per chunk, one call
    modifies it within its bit budget floor(delta_j j^2), computed once:
    raise_chunk searches against the constructed prefix (seeded by
    (seed, j)) and returns its estimate, which is t_achieved; lower_chunk
    quantizes onto the plan's block codebooks, and t_achieved is estimated
    once.  One sequence_distance pass counts each chunk's changed bits
    once: the counts are asserted against the same budgets, and give
    delta_achieved and the distance.  dim_after aggregates t_achieved: each
    was estimated once its prefix was final, so it equals a sequence_dim
    pass over the output.  The report holds only achieved values; the
    planned ones stay in the plan.
    """
    bx = as_bits(x)
    count = len(plan.entries)
    if count == 0:
        return BitSequence(bx.copy()), SurgeryReport(
            delta_achieved=np.empty(0), t_achieved=np.empty(0),
            dim_after=float("nan"), distance=0.0)
    spans = chunk_spans(count)
    used = spans[-1][1]
    if used > bx.size:
        raise ValueError(f"plan covers {used} bits, sequence has {bx.size}")

    sizes = np.array([hi - lo for lo, hi in spans], dtype=np.int64)
    budgets = np.floor(plan.deltas() * sizes + 1e-9).astype(np.int64)
    y = bx.copy()
    t_achieved = np.empty(count)
    index_bits_total = 0.0
    for i, (entry, (lo, hi)) in enumerate(zip(plan.entries, spans)):
        if plan.strategy == LOWER:
            y_chunk, index_bits = lower_chunk(bx[lo:hi], plan.codebooks, plan.block_len)
            index_bits_total += index_bits
            t_achieved[i] = est.estimate(y_chunk, y[:lo])
        else:
            y_chunk, t_achieved[i] = raise_chunk(bx[lo:hi], y[:lo], int(budgets[i]), est,
                                                 seed=(seed, entry.j), target=entry.t_j)
        y[lo:hi] = y_chunk

    changed = sequence_distance(bx[:used], y[:used])
    over = np.flatnonzero(changed.counts > budgets)
    if over.size:
        i = over[0]
        raise RuntimeError(
            f"chunk {i + 1}: achieved {changed.counts[i]} flips over budget {budgets[i]}")
    report = SurgeryReport(
        delta_achieved=changed.counts / sizes, t_achieved=t_achieved,
        dim_after=dim_series(t_achieved).tail_min, distance=changed.tail_max,
        codebook_rate=(index_bits_total / used if plan.strategy == LOWER else None))
    return BitSequence(y), report
