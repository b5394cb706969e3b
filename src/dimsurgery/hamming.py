"""Hamming-space combinatorics on {0,1}^n for desk-scale n.

Words are plain Python ints: bit i of the int is sequence position i, so on
a fixed weight colex order is increasing word order.  Exact ball volumes,
colex ranks of subsets too large for a word, canonical extremal spheres (the
first words in weight ascending, value descending order, complemented for
the sphere at 1^n) and their distances read off one rank sweep over the
cube, the Harper check that measures random set pairs against them by cube
BFS, far-point counts, covering codes built by greedy set cover with their
greedy subcodes, and systematic linear codes with coset-leader tables.

Space-sized tables (2^n booleans) cap the exhaustive routines; each guard is
noted on the operation it protects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_EXHAUSTIVE_N = 22     # one byte per word for cover tables
MAX_FAR_COUNT_N = 20
MAX_HARPER_N = 14
MAX_SYNDROME_BITS = 22    # coset-leader tables hold 2^(n-k) words
_HARPER_BLOCK = 1 << 16   # membership entries (rows x 2^n) per block of set pairs
_SCAN_BLOCK = 1 << 12   # words per forward step of the greedy maximum scan


def ball_volume(n: int, k: int):
    """V(n, k) = sum_{i<=k} C(n, i), exactly (arbitrary precision)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    return sum(math.comb(n, i) for i in range(k + 1))


# ---------------------------------------------------------------------------
# Colex ranks of k-subsets given as ascending positions (duplication coder).
# ---------------------------------------------------------------------------

def _comb_from(b: int, m: int, c: int, i: int) -> int:
    """C(c, i) from b == C(m, i) (c != m >= i) in one exact step: with
    d = |c - m|, C(c, i) / C(m, i) is perm(c, d) / perm(c - i, d) for c > m,
    and its inverse below m; math.comb(c, i) when d > i costs less."""
    d = abs(c - m)
    if d > i:
        return math.comb(c, i)
    top = max(c, m)
    num, den = math.perm(top, d), math.perm(top - i, d)
    return b * num // den if c > m else b * den // num


def colex_rank(subset) -> int:
    """Colex rank sum_i C(c_i, i+1) of a k-subset given as an ascending
    iterable of integers: O(1) big-integer operations per element."""
    from operator import index
    rank = 0
    b = 1           # b == C(m, i): nonzero for m >= i, unlike C(c_i, i+1) at c_i = i
    m = 0
    for i, c in enumerate(subset):
        c = index(c)
        if c < m:
            raise ValueError(f"subset must be strictly ascending and nonnegative, got {c}")
        if c > m:
            b = _comb_from(b, m, c, i)
        rank += b * (c - i) // (i + 1)      # C(c, i+1) = C(c, i) (c-i)/(i+1)
        m = c + 1
        b = b * m // (i + 1)                # C(c+1, i+1)
    return rank


def _colex_guess(rank: int, c: int, m: int, k: int) -> int:
    """A guess in [k, m-1] at the largest e with C(e, k) <= rank, given
    c == C(m, k) > rank >= 1: a ratio start, then Newton steps on log C(e, k)."""
    ratio = math.log(rank) - math.log(c)    # log C(e, k)/C(m, k), about k log(e/m)
    target = ratio + math.lgamma(m + 1) - math.lgamma(m - k + 1)
    e = min(max(k / 2 + (m - k / 2) * math.exp(ratio / k), k), m - 1)
    for _ in range(4):
        last = e
        e -= ((math.lgamma(e + 1) - math.lgamma(e - k + 1) - target)
              / math.log((e + 0.5) / (e - k + 0.5)))
        e = min(max(e, k), m - 1)
        if abs(e - last) < 0.5:
            break
    return int(e)


def colex_unrank(rank: int, n: int, k: int) -> tuple:
    """Inverse of colex_rank for k-subsets of {0..n-1}: the largest element is
    the largest e < n with C(e, k) <= rank, and so on down.  Dense stretches
    (8k > m positions left) take one exact step per position; sparse ones
    jump to a log-gamma guess of e and correct it by exact steps."""
    c = math.comb(n, k) if 0 <= k <= n else 0
    if not 0 <= rank < c:
        shown = rank if rank.bit_length() <= 64 else f"a {rank.bit_length()}-bit int"
        raise ValueError(f"need 0 <= k <= n and 0 <= rank < C(n, k), "
                         f"got rank={shown}, n={n}, k={k}")
    out = list(range(k))                    # rank 0 leaves {0..k-1}
    m = n
    while rank:
        # c == C(m, k) > rank >= 1, so m > k; find e, the element k-1, and b == C(e, k)
        if 8 * k > m:                       # dense: step down from m-1
            e, b = m - 1, c * (m - k) // m
        else:
            e = _colex_guess(rank, c, m, k)
            b = _comb_from(c, m, e, k)
            while (up := b * (e + 1) // (e + 1 - k)) <= rank:
                b, e = up, e + 1
        while b > rank:                     # C(e-1, k) = C(e, k) (e-k)/e
            b = b * (e - k) // e
            e -= 1
        rank -= b
        c = b * k // (e - k + 1)            # C(e, k-1)
        k -= 1
        out[k] = e
        m = e
    return tuple(out)


# ---------------------------------------------------------------------------
# Harper spheres.
# ---------------------------------------------------------------------------

def sphere_words(n: int, size) -> np.ndarray:
    """The canonical sphere of `size` words centred at 0^n: the first `size`
    words in weight ascending, then value descending order.  That is Harper's
    simplicial order under the position reversal i -> n-1-i, a cube
    automorphism fixing 0^n and 1^n, so its partial layer is (reversed) a
    lex prefix, whose upper shadow is least (Kruskal-Katona).  Exhaustive,
    so capped at MAX_EXHAUSTIVE_N."""
    if n > MAX_EXHAUSTIVE_N:
        raise ValueError(f"sphere materialization capped at n={MAX_EXHAUSTIVE_N}")
    if not 1 <= size <= (1 << n):
        raise ValueError(f"size {size} out of range for n={n}")
    return np.lexsort((-np.arange(1 << n), popcount_table(n)))[:size]


def sphere_distance_bits(n: int, size_a, size_b) -> np.ndarray:
    """d(A_hat, B_hat) in bits, elementwise over two arrays of sizes of one
    shape: A_hat is the canonical sphere of size_a words, B_hat the complement
    of each word of the one of size_b words (the sphere at 1^n).

    One rank sweep over the cube, so no theorem is assumed: after r steps,
    -top[w] is the least sphere rank within r flips of w, and d counts the
    r in 0..n-1 at which every word of B_hat still lies more than r flips
    from A_hat.  n^2 2^n work in O(2^n) memory.
    """
    space = 1 << n
    words = sphere_words(n, space)
    top = np.empty(space, dtype=np.int64)
    top[words] = -np.arange(space)
    far = words ^ (space - 1)           # B_hat's words, in rank order
    size_a, size_b = np.asarray(size_a), np.asarray(size_b)
    dist = np.zeros(np.broadcast(size_a, size_b).shape, dtype=np.int64)
    for _ in range(n):
        dist += np.maximum.accumulate(top[far])[size_b - 1] <= -size_a
        top = _expand_once(top, n)
    return dist


def _word_array(words) -> np.ndarray:
    return np.asarray(words if isinstance(words, np.ndarray) else list(words), dtype=np.int64)


# ---------------------------------------------------------------------------
# Harper verification.
# ---------------------------------------------------------------------------

@dataclass
class HarperReport:
    checked: int
    failures: list
    tightest_gap: int
    tightest_sizes: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def _expand_once(table: np.ndarray, n: int) -> np.ndarray:
    """One bit flip of growth over (..., 2^n) tables: each entry becomes the
    largest over itself and its n neighbours (for bool tables, reached)."""
    out = table.copy()
    for b in range(n):
        np.maximum(out, table.reshape(-1, 2, 1 << b)[:, ::-1, :].reshape(table.shape), out=out)
    return out


def _set_distances(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact min Hamming distance (bits) between the sets of each row pair of
    two (rows, 2^n) membership tables, every row nonempty: one cube BFS grows
    A's rows by a bit flip per step, and a row drops out once it meets B's."""
    dist = np.zeros(len(a), dtype=np.int64)
    live, reached = np.arange(len(a)), a
    while (open_ := ~(reached & b[live]).any(axis=1)).any():
        live, reached = live[open_], _expand_once(reached[open_], n)
        dist[live] += 1
    return dist


def verify_harper(n: int, trials: int, seed: int) -> HarperReport:
    """Check d(A, B) <= d(A_hat, B_hat) on random and adversarial set pairs.

    Random pairs come first.  Each size is int(2^U) with U uniform on [0, n),
    drawn for all trials in one call, and each set is uniform among the sets
    of its size: the words whose rank in a uniform random permutation of the
    space lies below the size.  The sets are drawn a block of pairs at a
    time, at most 2^16 membership entries (rows x 2^n) per block.  Then the
    adversarial families: antipodal balls and canonical spheres with split
    layers (both should meet the sphere bound with equality), and one
    overfull random pair that must intersect.

    `_set_distances` measures every pair exactly and `sphere_distance_bits`
    its sphere pair, both as integer bit counts, so any violation is a
    genuine counterexample (an implementation bug).  Failures are recorded in pair order; the tightest
    pair is the first to reach the least gap.
    """
    if n > MAX_HARPER_N:
        raise ValueError(f"exhaustive verification capped at n={MAX_HARPER_N}")
    rng = np.random.default_rng(seed)
    space = 1 << n
    rank = np.empty(space, dtype=np.int64)      # each word's place in the sphere order
    rank[sphere_words(n, space)] = np.arange(space)

    def random_pairs(sizes):
        ranks = rng.permuted(np.tile(np.arange(space), (sizes.size, 1)), axis=1)
        rows = (ranks < sizes.reshape(-1, 1)).reshape(-1, 2, space)
        return rows[:, 0], rows[:, 1]

    def sphere_pairs(sizes):        # the sphere at 1^n is the one at 0^n reversed
        return rank < sizes[:, :1], (rank < sizes[:, 1:])[:, ::-1]

    balls = [ball_volume(n, k) for k in range(0, n + 1, max(1, n // 3))]
    spheres = [(sa, sb) for sa in balls for sb in balls]
    for k in range(0, n - 1):
        layer = math.comb(n, k + 1)
        spheres += [(ball_volume(n, k) + part,) * 2 for part in {1, layer // 2, layer - 1} - {0}]
    families = [
        ((2.0 ** rng.uniform(0.0, n, size=(trials, 2))).astype(np.int64), random_pairs),
        (np.array(spheres, dtype=np.int64), sphere_pairs),
        (np.full((1, 2), space // 2 + 1), random_pairs),
    ]
    block = max(1, _HARPER_BLOCK >> (n + 1))    # pairs, two rows each
    d_ab = np.concatenate([_set_distances(n, *draw(sizes[i:i + block]))
                           for sizes, draw in families for i in range(0, len(sizes), block)])
    sizes = np.concatenate([sizes for sizes, _ in families])
    d_sphere = sphere_distance_bits(n, sizes[:, 0], sizes[:, 1])
    gaps = d_sphere - d_ab
    first = int(np.argmin(gaps))
    return HarperReport(
        checked=len(gaps),
        failures=[{"sizes": tuple(sizes[i].tolist()), "d_ab_bits": int(d_ab[i]),
                   "d_sphere_bits": int(d_sphere[i])} for i in np.flatnonzero(gaps < 0)],
        tightest_gap=int(gaps[first]), tightest_sizes=tuple(sizes[first].tolist()))


def _within(n: int, words: np.ndarray, radius: int) -> np.ndarray:
    """Bool table over {0,1}^n: mark the words, grow by one bit flip `radius` times."""
    reached = np.zeros(1 << n, dtype=bool)
    reached[words] = True
    for _ in range(radius):
        reached = _expand_once(reached, n)
    return reached


def harper_far_count(n: int, words_a, eps: float) -> int:
    """Exact number of words at normalized distance > eps from the set A.

    BFS over the cube from A out to radius floor(eps * n); everything not
    reached is far.  Capped at n=20 (one bool per word).
    """
    if n > MAX_FAR_COUNT_N:
        raise ValueError(f"far count capped at n={MAX_FAR_COUNT_N}")
    words = _word_array(words_a)
    if words.size == 0:
        raise ValueError("A must be nonempty")
    radius = int(math.floor(eps * n + 1e-9))
    return int((1 << n) - np.count_nonzero(_within(n, words, radius)))


# ---------------------------------------------------------------------------
# Covering codes.
# ---------------------------------------------------------------------------

@dataclass
class Codebook:
    """A set of n-bit words with a covering-radius claim.

    `words` keeps construction order, `coverage_fraction` is the measured
    fraction of the space within `radius` of some word.
    """

    n: int
    radius: int
    words: np.ndarray
    coverage_fraction: float


def popcount_table(n: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.uint8)


def ball_offsets(n: int, r: int) -> np.ndarray:
    """All xor-offsets within Hamming distance r (the ball around 0)."""
    return np.flatnonzero(popcount_table(n) <= r)


def coverage_table(book: Codebook) -> np.ndarray:
    """Bool table over the whole space: within `radius` of some codeword."""
    if book.n > MAX_EXHAUSTIVE_N:
        raise ValueError(f"exhaustive coverage capped at n={MAX_EXHAUSTIVE_N}")
    return _within(book.n, _word_array(book.words), book.radius)


def delsarte_piret_bound(n: int, r: int) -> float:
    """Upper bound 1 + n 2^n ln2 / V(n, r) on the covering number kappa(n, r)."""
    return 1.0 + n * (1 << n) * math.log(2.0) / float(ball_volume(n, r))


def _wht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a length-2^n array, in place."""
    for b in range(a.size.bit_length() - 1):
        v = a.reshape(-1, 2, 1 << b)
        lo = v[:, 0].copy()
        v[:, 0] += v[:, 1]
        np.subtract(lo, v[:, 1], out=v[:, 1])
    return a


def _ball_transform(n: int, r: int) -> np.ndarray:
    return _wht((popcount_table(n) <= r).astype(np.int64))


def _marginal_table(uncovered: np.ndarray, ball_hat: np.ndarray) -> np.ndarray:
    """marg[x] = |B(x, r) & uncovered| for every x, as the xor-convolution
    WHT(WHT(U) * WHT(ball)) >> n, with ball_hat = _ball_transform(n, r).

    Exact in int64 for every n <= 22: int64 arithmetic is exact modulo 2^64,
    and the only value that must fit is the final 2^n * marg <= 2^44.
    """
    n = uncovered.size.bit_length() - 1
    return _wht(_wht(uncovered.astype(np.int64)) * ball_hat) >> n


def greedy_max_coverage(n: int, r: int, picks: int | None = None,
                        candidates=None) -> list[int]:
    """Greedy max coverage by radius-r balls over {0,1}^n: each pick is the
    lowest candidate word whose ball holds the most uncovered words.

    Stops after `picks` words, or as soon as no candidate covers a new word
    (full coverage when the candidates cover the space; there is no padding).
    `candidates` defaults to the whole space.  The exact table
    marg[x] = |B(x, r) & uncovered| is either decremented around each newly
    covered word (small balls) or recomputed per pick by `_marginal_table`
    (large balls); a work estimate over (n, |ball|, picks) chooses, and both
    give the same picks.
    """
    if n > MAX_EXHAUSTIVE_N:
        raise ValueError(f"greedy coverage capped at n={MAX_EXHAUSTIVE_N}")
    space = 1 << n
    offsets = ball_offsets(n, r)
    size = len(offsets)
    uncovered = np.ones(space, dtype=bool)
    excluded = np.zeros(space, dtype=bool)
    if candidates is not None:
        excluded[:] = True
        excluded[np.asarray(candidates, dtype=np.int64)] = False
    # table-entry updates: n 2^n per recomputed pick against |ball| per
    # newly covered word
    est = picks if picks is not None else math.ceil(delsarte_piret_bound(n, r))
    recompute = est * n * space < size * min(space, est * size)
    if recompute:
        ball_hat = _ball_transform(n, r)
    else:
        marg = np.full(space, size, dtype=np.int64)
        marg[excluded] = -space            # below any reachable marginal
        # marginals only shrink, so the first word holding the current maximum
        # only moves right: scan forward from it, full argmax when it drops
        top, pos = size, 0
    chosen: list[int] = []
    while picks is None or len(chosen) < picks:
        if recompute:
            marg = _marginal_table(uncovered, ball_hat)
            marg[excluded] = -1
            word = int(np.argmax(marg))
        else:
            while pos < space and not (hit := marg[pos:pos + _SCAN_BLOCK] == top).any():
                pos += _SCAN_BLOCK
            if pos < space:
                pos += int(np.argmax(hit))
            else:
                pos = int(np.argmax(marg))
                top = int(marg[pos])
            word = pos
        if marg[word] <= 0:
            break
        hood = word ^ offsets
        newly = hood[uncovered[hood]]
        uncovered[newly] = False
        chosen.append(word)
        if not recompute:
            step = max(1, (1 << 16) // size)     # index blocks of 512 KB
            for i in range(0, newly.size, step):
                np.subtract.at(marg, (newly[i:i + step, None] ^ offsets).ravel(), 1)
    return chosen


def greedy_cover(n: int, r: int) -> Codebook:
    """Greedy covering code: `greedy_max_coverage` run to full coverage
    (first-word ties; r = 0 is the whole space).

    `coverage_fraction` is measured exhaustively (`coverage_table`); callers
    check it and the size against the Delsarte-Piret bound, which textbook
    greedy always meets strictly.
    """
    if n > MAX_EXHAUSTIVE_N:
        raise ValueError(f"greedy cover capped at n={MAX_EXHAUSTIVE_N}")
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}")
    if r == 0:
        words = np.arange(1 << n, dtype=np.int64)
    else:
        words = np.array(greedy_max_coverage(n, r), dtype=np.int64)
    book = Codebook(n=n, radius=r, words=words, coverage_fraction=0.0)
    book.coverage_fraction = np.count_nonzero(coverage_table(book)) / float(1 << n)
    return book


def best_subcode(book: Codebook, m: int) -> Codebook:
    """Greedy max-coverage subcode of at most m words from a covering code
    (`greedy_max_coverage` over the code's words; it stops early once the
    whole space is covered).

    Asserts the provable greedy coverage (1 - (1 - 1/|C|)^m) 2^n via exact
    integer arithmetic.  The stronger existential (m/|C|) 2^n bound is a
    property of the best subcode, not of greedy; callers measure it.
    """
    c = len(book.words)
    if not 1 <= m <= c:
        raise ValueError(f"need 1 <= m <= |C|={c}, got {m}")
    n = book.n
    if n > MAX_EXHAUSTIVE_N:
        raise ValueError(f"subcode selection capped at n={MAX_EXHAUSTIVE_N}")
    chosen = greedy_max_coverage(n, book.radius, picks=m, candidates=book.words)
    sub = Codebook(n=n, radius=book.radius, words=np.array(chosen, dtype=np.int64),
                   coverage_fraction=0.0)
    covered = int(np.count_nonzero(coverage_table(sub)))
    # covered >= 2^n (1 - (1-1/c)^m)  <=>  uncovered * c^m <= 2^n (c-1)^m
    if ((1 << n) - covered) * c ** m > (1 << n) * (c - 1) ** m:
        raise RuntimeError("greedy subcode fell below its provable coverage bound")
    sub.coverage_fraction = covered / float(1 << n)
    return sub


@dataclass
class LinearCode:
    """A systematic [n, k] code with parity check [A | I]: `columns[i]` is the
    syndrome of position i, `leaders[z]` a lightest word of syndrome z, so
    x ^ leaders[syndrome(x)] is a nearest codeword and `radius`, the weight
    of the heaviest leader, is the covering radius.  `byte_tables[b][v]` is
    the syndrome of byte value v at bits 8b..8b+7 (bit i of v at position
    8b + i), so a block packed little-endian into bytes has the XOR of one
    table entry per byte as its syndrome."""

    n: int
    k: int
    columns: np.ndarray
    leaders: np.ndarray
    radius: int
    byte_tables: np.ndarray


def _byte_tables(columns: np.ndarray) -> np.ndarray:
    """ceil(n/8) x 256 int64: row b, entry v = XOR of columns[8b + i] over
    the set bits i of v (positions past n count as zero columns)."""
    padded = np.zeros((columns.size + 7) // 8 * 8, dtype=np.int64)
    padded[:columns.size] = columns
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1        # 256 x 8
    return np.bitwise_xor.reduce(bits * padded.reshape(-1, 1, 8), axis=2)


def systematic_code(n: int, k: int) -> LinearCode:
    """Random systematic [n, k] code, A drawn from a seed fixed by (n, k), with
    its coset leaders filled breadth-first in weight order: one pass extends
    every leader of weight w by each position in turn, and a syndrome first
    reached there has no lighter word (ties to the earlier leader, then the
    lower position).  The pass stops as soon as all 2^(n-k) syndromes have a
    leader; each weight class holds distinct syndromes, so a running count
    of the fresh ones tells when."""
    if not (1 <= n <= 62 and 0 <= k <= n):           # words are packed in int64
        raise ValueError(f"need 0 <= k <= n and 1 <= n <= 62, got n={n}, k={k}")
    r = n - k
    if r > MAX_SYNDROME_BITS:
        raise ValueError(f"[{n},{k}] code has 2^{r} syndromes; coset-leader "
                         f"tables are capped at 2^{MAX_SYNDROME_BITS}")
    rng = np.random.default_rng([n, k])
    columns = np.concatenate([rng.integers(0, 1 << r, size=k, dtype=np.int64),
                              np.left_shift(1, np.arange(r, dtype=np.int64))])
    leaders = np.zeros(1 << r, dtype=np.int64)
    seen = np.zeros(1 << r, dtype=bool)
    seen[0] = True
    syns = words = np.zeros(1, dtype=np.int64)      # the leaders of weight radius
    radius, filled = 0, 1
    while filled < leaders.size:
        radius += 1
        grown = []
        for i, col in enumerate(columns.tolist()):
            syn = syns ^ col
            fresh = ~seen[syn]
            syn, word = syn[fresh], words[fresh] ^ (1 << i)
            seen[syn] = True
            leaders[syn] = word
            grown.append((syn, word))
            filled += syn.size
            if filled == leaders.size:
                break
        syns, words = (np.concatenate(part) for part in zip(*grown))
    return LinearCode(n=n, k=k, columns=columns, leaders=leaders, radius=radius,
                      byte_tables=_byte_tables(columns))
