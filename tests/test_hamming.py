"""Tests for Hamming-space combinatorics.

Small-n oracles are exhaustive enumerations (itertools over the whole cube,
and every set of words at n <= 4); the sphere distance table is
cross-checked against the Harper check's cube BFS, and the BFS against
`_min_distance_bits`, the brute-force pairwise set distance.
"""

import hashlib
import itertools
import math
import time
import warnings

import numpy as np
import pytest
from conftest import colex_rank_walk, colex_unrank_walk
from hypothesis import given, settings
from hypothesis import strategies as st

from dimsurgery import hamming
from dimsurgery.entropy import entropy
from dimsurgery.hamming import (
    ball_volume,
    best_subcode,
    colex_rank,
    colex_unrank,
    delsarte_piret_bound,
    _ball_transform,
    _marginal_table,
    greedy_cover,
    greedy_max_coverage,
    harper_far_count,
    popcount_table,
    sphere_distance_bits,
    sphere_words,
    verify_harper,
)


MAX_PAIRWISE_PRODUCT = 1 << 30      # word pairs the brute-force oracle may compare


def _min_distance_bits(words_a, words_b) -> int:
    """Exact min pairwise Hamming distance (bits) between two word sets:
    arrays or any iterables of words."""
    a, b = (np.asarray(w if isinstance(w, np.ndarray) else list(w), dtype=np.int64)
            for w in (words_a, words_b))
    if a.size == 0 or b.size == 0:
        raise ValueError("sets must be nonempty")
    if a.size * b.size > MAX_PAIRWISE_PRODUCT:
        raise ValueError("pairwise product exceeds the desk-scale guard")
    best = 64  # no two int64 words differ in more bits
    step = max(1, (1 << 22) // max(1, b.size))
    for i in range(0, a.size, step):
        block = a[i:i + step, None] ^ b[None, :]
        best = min(best, int(np.bitwise_count(block).min()))
        if best == 0:
            break
    return best


class TestBallVolume:
    def test_small(self):
        assert ball_volume(4, 1) == 5
        assert ball_volume(10, 3) == 176  # 1 + 10 + 45 + 120

    def test_whole_space(self):
        for n in (1, 5, 16):
            assert ball_volume(n, n) == 2 ** n

    def test_complement_identity(self):
        for n in (1, 3, 8, 13, 40):
            for k in range(n):
                assert ball_volume(n, k) + ball_volume(n, n - k - 1) == 2 ** n

    def test_enumeration_oracle(self):
        for n in (3, 5, 7):
            for k in range(n + 1):
                count = sum(1 for w in range(2 ** n) if bin(w).count("1") <= k)
                assert ball_volume(n, k) == count

    def test_domain(self):
        with pytest.raises(ValueError):
            ball_volume(5, 6)
        with pytest.raises(ValueError):
            ball_volume(5, -1)


def check_volume_entropy_bounds(n: int, r: float) -> bool:
    """True iff H(r) n - 2 log2 n <= log2 V(n, floor(rn)) <= H(r) n.

    The explicit constant 2 on the log term is safe for n >= 4 (Stirling
    gives ~0.5 log n); this check exists to catch gross volume bugs.
    """
    if not 0.0 < r < 0.5:
        raise ValueError(f"need 0 < r < 1/2, got {r}")
    k = int(math.floor(r * n + 1e-9))
    log_v = math.log2(ball_volume(n, k))
    hn = entropy(r) * n
    return hn - 2.0 * math.log2(n) <= log_v <= hn + 1e-9


class TestVolumeEntropyBounds:
    def test_examples(self):
        assert check_volume_entropy_bounds(100, 0.25)
        assert check_volume_entropy_bounds(20, 0.49)

    def test_sweep(self):
        for n in (10, 30, 64, 200):
            for r in (0.05, 0.1, 0.3, 0.45):
                assert check_volume_entropy_bounds(n, r)

    def test_domain(self):
        with pytest.raises(ValueError):
            check_volume_entropy_bounds(10, 0.5)


def _colex(n: int, k: int) -> list:
    """The k-subsets of range(n) in colex order: sorted by the reversed tuple."""
    return sorted(itertools.combinations(range(n), k), key=lambda t: t[::-1])


def _layer_subsets(n: int, k: int) -> list:
    """The weight-k words of n bits in increasing order, as ascending bit tuples."""
    return [tuple(i for i in range(n) if w >> i & 1)
            for w in np.flatnonzero(popcount_table(n) == k).tolist()]


@st.composite
def _colex_case(draw):
    """(n, k, rank) with n <= 5000: sparse, dense, half and edge weights, and
    the first, the last or a random rank."""
    n = draw(st.integers(min_value=1, max_value=5000))
    k = draw(st.one_of(st.integers(0, max(1, n // 50)), st.integers(max(0, n - 8), n),
                       st.just(n // 2), st.sampled_from([0, 1, n])))
    top = math.comb(n, k) - 1
    return n, k, draw(st.one_of(st.just(0), st.just(top), st.integers(0, top)))


class TestColex:
    def test_order_matches_reversed_tuple_sort(self):
        # colex order on a fixed weight is increasing word order
        for n, k in [(7, 3), (6, 2), (5, 5), (8, 1), (4, 0)]:
            assert _layer_subsets(n, k) == _colex(n, k)

    def test_rank_is_position(self):
        for n, k in [(6, 2), (7, 3), (5, 5)]:
            for pos, s in enumerate(_layer_subsets(n, k)):
                assert colex_rank(s) == pos

    @given(st.integers(min_value=2, max_value=2000), st.data())
    @settings(deadline=None)
    def test_unrank_round_trip(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n))
        rank = data.draw(st.integers(min_value=0, max_value=math.comb(n, k) - 1))
        assert colex_rank(colex_unrank(rank, n, k)) == rank

    def test_both_directions_match_walk_on_every_small_subset(self):
        for n in range(11):
            for k in range(n + 1):
                for pos, s in enumerate(_colex(n, k)):
                    assert colex_rank(s) == colex_rank_walk(s) == pos
                    assert colex_unrank(pos, n, k) == colex_unrank_walk(pos, n, k) == s

    @given(_colex_case())
    @settings(deadline=None)
    def test_both_directions_match_walk(self, case):
        n, k, rank = case
        subset = colex_unrank(rank, n, k)
        assert subset == colex_unrank_walk(rank, n, k)
        assert colex_rank(subset) == colex_rank_walk(subset) == rank

    @pytest.mark.parametrize("guess", [lambda rank, c, m, k: m - 1,
                                       lambda rank, c, m, k: k,
                                       lambda rank, c, m, k: (k + m) // 2],
                             ids=["top", "bottom", "middle"])
    def test_unrank_corrects_any_guess(self, monkeypatch, guess):
        # the exact steps, not the log-gamma guess, decide each element
        monkeypatch.setattr(hamming, "_colex_guess", guess)
        for n, k in [(300, 5), (2000, 40)]:
            top = math.comb(n, k) - 1
            for rank in [0, 1, top // 3, top]:
                assert colex_unrank(rank, n, k) == colex_unrank_walk(rank, n, k)

    def test_rank_jumps_a_wide_gap(self):
        # one step per element: {0, 2^40} does not walk 2^40 positions
        t0 = time.perf_counter()
        rank = colex_rank([0, 2**40])
        assert time.perf_counter() - t0 < 1.0
        assert rank == math.comb(2**40, 2)
        assert colex_unrank(rank, 2**40 + 1, 2) == (0, 2**40)

    def test_rank_large(self):
        # O(1) big-integer steps per element: a random 5000-subset of 100 000
        # ranks in about 0.13 s on a 2-vCPU host (0.36 s one step per position)
        n, k = 100_000, 5_000
        subset = np.sort(np.random.default_rng(8).choice(n, size=k, replace=False))
        t0 = time.perf_counter()
        rank = colex_rank(subset.tolist())
        assert time.perf_counter() - t0 < 5.0
        assert 0 <= rank < math.comb(n, k)
        assert colex_unrank(rank, n, k) == tuple(subset.tolist())

    def test_rank_rejects_unordered(self):
        for bad in ([3, 1], [2, 2], [-1]):
            with pytest.raises(ValueError):
                colex_rank(bad)

    def test_rank_reads_numpy_ints_exactly(self):
        # a 300-subset of 3000 ranks past int64: no numpy scalar arithmetic
        subset = np.sort(np.random.default_rng(3).choice(3000, size=300, replace=False))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rank = colex_rank(subset)
        assert type(rank) is int and rank.bit_length() > 64
        assert rank == colex_rank_walk(subset.tolist())

    @pytest.mark.parametrize("bad", [[1.0, 2.5], [1.0, 2.0], np.array([1.0, 2.0])])
    def test_rank_rejects_floats(self, bad):
        with pytest.raises(TypeError):
            colex_rank(bad)

    @pytest.mark.parametrize("rank, n, k", [(15, 6, 2), (10**6, 6, 2), (-1, 6, 2), (0, 3, 5)])
    def test_unrank_rejects_out_of_range(self, rank, n, k):
        with pytest.raises(ValueError, match=f"rank={rank}, n={n}, k={k}"):
            colex_unrank(rank, n, k)

    def test_unrank_names_a_huge_rank_by_its_width(self):
        with pytest.raises(ValueError, match="a 20001-bit int"):
            colex_unrank(1 << 20000, 10, 3)

    def test_unrank_large(self):
        # colex order starts at {0..k-1}; rank C(n-1, k) is the first subset
        # holding n-1; the last rank is the top k elements
        n, k = 100_000, 5_000
        assert colex_unrank(0, n, k) == tuple(range(k))
        assert colex_unrank(math.comb(n - 1, k), n, k) == tuple(range(k - 1)) + (n - 1,)
        assert colex_unrank(math.comb(n, k) - 1, n, k) == tuple(range(n - k, n))


def _lex(n: int, k: int) -> list:
    """The k-subsets of range(n) in lex order: sorted by the ascending tuple."""
    return list(itertools.combinations(range(n), k))


def _every_set(n: int):
    """Every nonempty subset A of {0,1}^n, with n <= 4: the distance from
    each word to A, one row per set, and |A|."""
    space = 1 << n
    words = np.arange(space)
    dist = np.bitwise_count(words[:, None] ^ words).astype(np.int64)
    rows = np.full((1 << space, space), n + 1, dtype=np.int64)    # row i: the set of bits of i
    for v in range(space):
        rows[1 << v:2 << v] = np.minimum(rows[:1 << v], dist[v])
    return rows[1:], np.bitwise_count(np.arange(1, 1 << space))


class TestSphereForSize:
    def test_exact_ball(self):
        assert sorted(sphere_words(3, 4).tolist()) == [0, 1, 2, 4]

    def test_partial(self):
        # weight ascending, then value descending
        assert sphere_words(3, 5).tolist() == [0, 4, 2, 1, 6]

    def test_half_space(self):
        # the radius-4 ball (386 words) plus 126 of the 252 words of weight 5
        weights = popcount_table(10)[sphere_words(10, 2 ** 9)]
        assert np.bincount(weights).tolist() == [1, 10, 45, 120, 210, 512 - 386]

    def test_size_exact(self):
        for n in (4, 9):
            for size in range(1, 2 ** n + 1):
                assert len(sphere_words(n, size)) == size

    def test_partial_layer_is_reversed_lex_prefix(self):
        # Harper's simplicial order under the position reversal i -> n-1-i:
        # the radius-k ball, then a lex prefix of the reversed (k+1)-subsets
        n = 7
        for k in range(n):
            full = ball_volume(n, k)
            ball = np.flatnonzero(popcount_table(n) <= k).tolist()
            for part in range(1, math.comb(n, k + 1)):
                words = sphere_words(n, full + part)
                want = [sum(1 << (n - 1 - i) for i in t) for t in _lex(n, k + 1)[:part]]
                assert sorted(words[:full].tolist()) == ball, (k, part)
                assert words[full:].tolist() == want, (k, part)

    def test_words_are_ball_plus_reversed_lex_layer(self):
        # the sphere of every size is the largest radius-k ball that fits plus
        # the first p reversed lex (k+1)-subsets
        for n in (1, 5, 8):
            for size in range(1, 2 ** n + 1):
                k = max(r for r in range(n + 1) if ball_volume(n, r) <= size)
                p = size - ball_volume(n, k)
                ball = [w for w in range(2 ** n) if bin(w).count("1") <= k]
                layer = [sum(1 << (n - 1 - i) for i in t) for t in _lex(n, k + 1)[:p]]
                assert sorted(sphere_words(n, size).tolist()) == sorted(ball + layer), (n, size)

    def test_domain(self):
        with pytest.raises(ValueError):
            sphere_words(4, 0)
        with pytest.raises(ValueError):
            sphere_words(4, 17)
        with pytest.raises(ValueError):
            sphere_words(hamming.MAX_EXHAUSTIVE_N + 1, 1)


class TestOppositeSphereDistance:
    def test_nested_balls(self):
        assert sphere_distance_bits(10, ball_volume(10, 2), ball_volume(10, 3)) == 5

    def test_whole_space_touches(self):
        assert sphere_distance_bits(8, 2 ** 8, 5) == 0

    def test_half_and_half(self):
        for n in (4, 6, 8):
            assert sphere_distance_bits(n, 2 ** (n - 1), 2 ** (n - 1)) in (0, 1)

    def test_brute_force_cross_check(self):
        # every size pair at n <= 8: both spheres materialized as rows and
        # measured by the Harper check's cube BFS
        for n in range(1, 9):
            space = 1 << n
            rank = np.empty(space, dtype=np.int64)
            rank[sphere_words(n, space)] = np.arange(space)
            sizes = np.arange(1, space + 1)
            for lo in range(0, space, 16):
                sa, sb = (g.ravel() for g in np.meshgrid(sizes[lo:lo + 16], sizes, indexing="ij"))
                want = hamming._set_distances(n, rank < sa[:, None], (rank < sb[:, None])[:, ::-1])
                assert sphere_distance_bits(n, sa, sb).tolist() == want.tolist(), n

    def test_array_of_sizes(self):
        # one vectorized call equals the scalar calls, pair for pair
        for n in (1, 3, 6):
            sa, sb = (g.ravel() for g in np.meshgrid(np.arange(1, 2 ** n + 1),
                                                     np.arange(1, 2 ** n + 1)))
            got = sphere_distance_bits(n, sa, sb)
            assert got.tolist() == [int(sphere_distance_bits(n, a, b))
                                    for a, b in zip(sa.tolist(), sb.tolist())]

    def test_every_set_pair_oracle(self):
        # over every pair of sets at n <= 4, the largest d(A, B) for each
        # size pair is the sphere distance (the B farthest from A holds the
        # |B| words farthest from A); (2, 8) at n = 4 is a pair that a ball
        # with a colex partial layer brings one bit too close
        for n in range(1, 5):
            space = 1 << n
            rows, size = _every_set(n)
            farthest = -np.sort(-rows, axis=1)      # column b-1: the b-th largest
            sizes = np.arange(1, space + 1)
            for a in sizes.tolist():
                want = farthest[size == a].max(axis=0)
                got = sphere_distance_bits(n, np.full_like(sizes, a), sizes)
                assert got.tolist() == want.tolist(), (n, a)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_random_partial_layers_never_beat_the_table(self, n):
        # balls with randomly ordered partial layers, at 0^n and at 1^n, over
        # 40 orders a side and every size pair: none lie farther apart than
        # the spheres of their sizes
        rng = np.random.default_rng(n)
        space = 1 << n
        words = np.arange(space)
        sa, sb = np.meshgrid(words + 1, words + 1, indexing="ij")
        table = sphere_distance_bits(n, sa, sb)
        for _ in range(40):
            order_a, order_b = (np.lexsort((rng.permutation(space), popcount_table(n)))
                                for _ in range(2))
            # row a-1: each word's distance from the first a words of order_a
            near = np.minimum.accumulate(np.bitwise_count(order_a[:, None] ^ words), axis=0)
            d = np.minimum.accumulate(near[:, order_b ^ (space - 1)], axis=1)
            assert (d <= table).all(), np.argwhere(d > table)[:3] + 1


class TestBruteForceDistance:
    def test_identical(self):
        assert _min_distance_bits([0b101], [0b101]) == 0

    def test_antipodal(self):
        assert _min_distance_bits([0b000], [0b111]) == 3

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.integers(0, 2 ** 10, size=17)
            b = rng.integers(0, 2 ** 10, size=23)
            want = min(bin(int(x) ^ int(y)).count("1") for x in a for y in b)
            assert _min_distance_bits(a, b) == want

    def test_any_iterable_of_words(self):
        a = np.array([0b0011, 0b1100, 0b0110], dtype=np.int64)
        b = np.array([0b0111, 0b1010], dtype=np.uint8)
        want = _min_distance_bits(a, b)
        assert want == 1
        assert _min_distance_bits(a.tolist(), tuple(b.tolist())) == want
        assert _min_distance_bits(set(a.tolist()), (int(w) for w in b)) == want
        assert _min_distance_bits(range(3, 4), b) == 1

    def test_guards(self):
        with pytest.raises(ValueError):
            _min_distance_bits([], [1])
        with pytest.raises(ValueError):
            _min_distance_bits(np.arange(2 ** 16), np.arange(2 ** 16))


class TestVerifyHarper:
    def test_small_n_random(self):
        for n in range(1, 9):
            rep = verify_harper(n, trials=300, seed=n)
            assert rep.ok, rep.failures[:3]

    def test_extremal_equality_hits(self):
        rep = verify_harper(6, trials=50, seed=1)
        assert rep.ok
        assert rep.tightest_gap == 0  # sphere pairs meet the bound exactly

    def test_guard(self):
        with pytest.raises(ValueError):
            verify_harper(15, trials=1, seed=0)

    @staticmethod
    def _measured(monkeypatch) -> list:
        """Spy on the cube BFS: each call's (A rows, B rows, distances)."""
        calls = []
        bfs = hamming._set_distances

        def spy(n, a, b):
            dist = bfs(n, a, b)
            calls.append((a.copy(), b.copy(), dist))
            return dist

        monkeypatch.setattr(hamming, "_set_distances", spy)
        return calls

    @pytest.mark.parametrize("n", range(1, 11))
    def test_bfs_matches_brute_force(self, monkeypatch, n):
        # every pair the check measures, random and adversarial alike
        calls = self._measured(monkeypatch)
        rep = verify_harper(n, trials=60, seed=n)
        pairs = [pair for a, b, dist in calls for pair in zip(a, b, dist.tolist())]
        assert len(pairs) == rep.checked
        for a, b, dist in pairs:
            assert dist == _min_distance_bits(np.flatnonzero(a), np.flatnonzero(b))

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 13])
    def test_rows_hold_their_sizes(self, monkeypatch, n):
        # random rows hold int(2^U) words, U uniform on [0, n) replayed from
        # the seed; sphere rows are the canonical spheres at 0^n and 1^n; the
        # last pair is overfull
        calls = self._measured(monkeypatch)
        trials = 300
        rep = verify_harper(n, trials=trials, seed=7)
        a, b = (np.concatenate([call[side] for call in calls]) for side in (0, 1))
        sizes = np.stack([a.sum(axis=1), b.sum(axis=1)], axis=1)
        assert len(sizes) == rep.checked
        want = 2.0 ** np.random.default_rng(7).uniform(0.0, n, size=(trials, 2))
        assert sizes[:trials].tolist() == want.astype(np.int64).tolist()
        for row_a, row_b, (sa, sb) in zip(a[trials:-1], b[trials:-1], sizes[trials:-1]):
            assert np.flatnonzero(row_a).tolist() == sorted(sphere_words(n, sa).tolist())
            assert np.flatnonzero(row_b).tolist() == sorted(
                (sphere_words(n, sb) ^ (2 ** n - 1)).tolist())
        assert sizes[-1].tolist() == [2 ** (n - 1) + 1] * 2

    def test_planted_violation_is_reported(self, monkeypatch):
        # a sphere distance one bit low turns every pair that met the bound
        # with equality into a failure, recorded with its sizes in pair order
        clean = verify_harper(6, trials=50, seed=1)
        exact = hamming.sphere_distance_bits
        monkeypatch.setattr(hamming, "sphere_distance_bits",
                            lambda n, sa, sb: exact(n, sa, sb) - 1)
        rep = verify_harper(6, trials=50, seed=1)
        assert not rep.ok
        assert (rep.checked, rep.tightest_gap) == (clean.checked, -1)
        assert rep.failures[0]["sizes"] == rep.tightest_sizes == clean.tightest_sizes
        assert (1, 1) in [f["sizes"] for f in rep.failures]     # antipodal points
        for f in rep.failures:
            assert f["d_ab_bits"] == exact(6, *f["sizes"]) == f["d_sphere_bits"] + 1


class TestHarperFarCount:
    def test_whole_space(self):
        assert harper_far_count(6, list(range(2 ** 6)), 0.1) == 0

    def test_single_word_eps_zero(self):
        assert harper_far_count(8, [0], 0.0) == 2 ** 8 - 1

    def test_popcount_oracle(self):
        # independent route: min distance to A for every word via xor tables
        rng = np.random.default_rng(9)
        for n in (6, 8):
            a = rng.choice(2 ** n, size=5, replace=False).astype(np.int64)
            for eps in (0.1, 0.25, 0.5):
                t = int(np.floor(eps * n + 1e-9))
                all_words = np.arange(2 ** n, dtype=np.int64)
                dists = np.bitwise_count(all_words[:, None] ^ a[None, :]).min(axis=1)
                want = int(np.count_nonzero(dists > t))
                assert harper_far_count(n, a, eps) == want

    def test_every_set_oracle(self):
        # over every set at n <= 4, the most words any A leaves more than r
        # from it is far(S_hat, r) of the sphere of |A| words
        for n in range(1, 5):
            rows, size = _every_set(n)
            for a in range(1, 2 ** n + 1):
                for r in range(n):
                    want = int((rows[size == a] > r).sum(axis=1).max())
                    assert harper_far_count(n, sphere_words(n, a), r / n) == want, (n, a, r)

    def test_guard(self):
        with pytest.raises(ValueError):
            harper_far_count(21, [0], 0.1)


class TestGreedyCover:
    def test_radius_n_single_word(self):
        book = greedy_cover(8, 8)
        assert len(book.words) == 1 and book.coverage_fraction == 1.0

    def test_radius_zero_everything(self):
        book = greedy_cover(4, 0)
        assert len(book.words) == 16

    def test_example_bound(self):
        book = greedy_cover(10, 2)
        assert len(book.words) <= 127  # 1 + 10*2^10*ln2/56 ~ 127.7
        assert book.coverage_fraction == 1.0

    def test_coverage_independent_scan(self):
        # oracle: nearest-codeword distance for every word via xor popcounts
        book = greedy_cover(9, 2)
        words = np.asarray(book.words)
        all_words = np.arange(2 ** 9, dtype=np.int64)
        dists = np.bitwise_count(all_words[:, None] ^ words[None, :]).min(axis=1)
        assert int(dists.max()) <= 2

    def test_bound_sweep_small(self):
        for n in (4, 6, 8, 10):
            for ratio in (0.1, 0.2, 0.3, 0.4):
                r = max(1, int(ratio * n + 0.5))
                book = greedy_cover(n, r)
                assert len(book.words) < delsarte_piret_bound(n, r)

    def test_engine_covers_within_the_bound(self):
        for n, r in [(8, 1), (10, 2), (12, 3)]:
            words = np.asarray(greedy_max_coverage(n, r), dtype=np.int64)
            assert len(words) < delsarte_piret_bound(n, r)
            dists = np.bitwise_count(
                np.arange(1 << n, dtype=np.int64)[:, None] ^ words[None, :]
            ).min(axis=1)
            assert int(dists.max()) <= r

    def test_engine_matches_first_index_greedy(self, monkeypatch):
        # every n <= 10 and r, picks None or 3, candidates None or a random
        # half; the spy records which cases recompute the table by WHT
        recomputed = []
        monkeypatch.setattr(hamming, "_marginal_table", _spy(recomputed))
        sides = set()
        rng = np.random.default_rng(5)
        for n in range(1, 11):
            for r in range(n + 1):
                for picks in (None, 3):
                    for cands in (None, np.flatnonzero(rng.random(1 << n) < 0.5)):
                        recomputed.clear()
                        got = greedy_max_coverage(n, r, picks=picks, candidates=cands)
                        assert got == _first_index_greedy(n, r, picks, cands), (n, r, picks)
                        sides.add(bool(recomputed))
        assert sides == {True, False}

    def test_engine_stops_at_full_coverage(self):
        assert greedy_max_coverage(6, 6, picks=5) == [0]
        assert len(greedy_max_coverage(8, 2, picks=1 << 8)) == len(greedy_cover(8, 2).words)

    def test_wht_table_matches_shell_dp(self):
        rng = np.random.default_rng(3)
        for n in range(1, 13):
            for r in range(n + 1):
                uncovered = rng.random(1 << n) < rng.random()
                got = _marginal_table(uncovered, _ball_transform(n, r))
                assert np.array_equal(got, _marginals_by_shells(uncovered, n, r)), (n, r)

    def test_wht_table_exact_at_the_cap(self):
        # n = 22 wraps int64 in the middle of the transform; sampled entries
        # against a direct count
        n, r = 22, 11
        rng = np.random.default_rng(4)
        uncovered = rng.random(1 << n) < 0.5
        table = _marginal_table(uncovered, _ball_transform(n, r))
        members = np.flatnonzero(uncovered)
        for x in rng.integers(0, 1 << n, size=8):
            assert table[x] == np.count_nonzero(np.bitwise_count(members ^ x) <= r)


def _spy(calls):
    real = hamming._marginal_table

    def spy(*args):
        calls.append(1)
        return real(*args)

    return spy


def _first_index_greedy(n, r, picks, candidates):
    """Reference greedy: full gain vector per pick, first index of the max."""
    words = np.arange(1 << n)
    ball = (np.bitwise_count(words[:, None] ^ words[None, :]) <= r).astype(np.float64)
    allowed = np.zeros(1 << n, dtype=bool)
    allowed[words if candidates is None else candidates] = True
    uncovered = np.ones(1 << n)
    chosen = []
    while picks is None or len(chosen) < picks:
        gain = np.where(allowed, ball @ uncovered, -1.0)
        word = int(np.argmax(gain))
        if gain[word] <= 0:
            break
        chosen.append(word)
        uncovered[ball[word] > 0] = 0.0
    return chosen


def _flip_sum(arr: np.ndarray, n: int) -> np.ndarray:
    """sum_b arr[x ^ (1<<b)] for every x, via strided views."""
    out = np.zeros_like(arr)
    for b in range(n):
        out += arr.reshape(-1, 2, 1 << b)[:, ::-1, :].reshape(arr.shape)
    return out


def _marginals_by_shells(uncovered: np.ndarray, n: int, r: int) -> np.ndarray:
    """Reference table |ball(x, r) & uncovered| for every x, exactly.

    Shell counts N_d(x) = #{u uncovered : d(u,x) = d} satisfy
    sum_b N_d(x^b) = (d+1) N_{d+1}(x) + (n-d+1) N_{d-1}(x); integer DP up the
    shells.
    """
    n_prev = np.zeros(uncovered.shape, dtype=np.int64)
    n_cur = uncovered.astype(np.int64)
    total = n_cur.copy()
    for d in range(r):
        s = _flip_sum(n_cur, n)
        n_next = (s - (n - d + 1) * n_prev) // (d + 1)
        n_prev, n_cur = n_cur, n_next
        total += n_cur
    return total


class TestBestSubcode:
    def test_full_code(self):
        book = greedy_cover(8, 2)
        sub = best_subcode(book, len(book.words))
        assert sub.coverage_fraction == 1.0

    def test_single_ball_pigeonhole(self):
        book = greedy_cover(8, 2)
        sub = best_subcode(book, 1)
        assert sub.coverage_fraction * 2 ** 8 >= 2 ** 8 / len(book.words)

    def test_example_measured_bound(self):
        book = greedy_cover(10, 2)
        sub = best_subcode(book, 8)
        assert sub.coverage_fraction * 2 ** 10 >= (8 / len(book.words)) * 2 ** 10

    def test_greedy_guarantee_holds(self):
        book = greedy_cover(9, 1)
        for m in (1, 4, 16, 64):
            if m <= len(book.words):
                best_subcode(book, m)  # internal exact assert must not raise


class TestCodebookPins:
    """sha256 in sweep order of the greedy covers' words.tobytes() and the
    quantizers' columns and leaders: any change in which words the greedy
    engine picks, in their order, or in a linear code or its coset leaders,
    fails here."""

    def test_codebook_content_pinned(self):
        from dimsurgery.surgery import quantizer_codebook

        covers = hashlib.sha256()
        for n in range(4, 14):                      # the `verify cover` sweep
            for ratio in (0.1, 0.2, 0.3, 0.4):
                r = max(1, int(ratio * n + 0.5))
                covers.update(greedy_cover(n, r).words.tobytes())
        assert covers.hexdigest() == (
            "fce82a87c20f667ec43875922143157845c4cf77072ea42e02939db14db92fb8")
        quantizers = hashlib.sha256()
        for block_len in (9, 12, 16):
            for s in (0.3, 0.4, 0.5):
                code = quantizer_codebook(block_len, s)
                quantizers.update(code.columns.tobytes())
                quantizers.update(code.leaders.tobytes())
        assert quantizers.hexdigest() == (
            "6bc2a2b0f56fd97abc4e7b2b6fd9c861739eb5d93553509b456bf9362877dddc")

    def test_largest_quantizer_pinned(self):
        # [31, 9]: 2^22 syndromes, the largest table the cap allows
        from dimsurgery.surgery import quantizer_codebook

        code = quantizer_codebook(31, 0.25)
        assert (code.n, code.k, code.radius) == (31, 9, 10)
        assert hashlib.sha256(code.columns.tobytes()).hexdigest() == (
            "40a69b5e7f986831be23013237be114371bd4ebda80f80acd72c13a623612bca")
        assert hashlib.sha256(code.leaders.tobytes()).hexdigest() == (
            "cef54e739807a7e3098e7bd717ffe7d4136e23a5c61e4cd863f0bc769cf56a6b")
