"""Tests for the binary-entropy calculus.

Expected values marked as derived were computed with an independent root
finder (scipy.optimize.brentq on the entropy formula) and frozen here.
"""

import importlib
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CASE1, CASE2, case_select, entropy_deriv
from dimsurgery.entropy import (
    ScheduleError,
    bound_curves,
    buffer_margin,
    buffer_schedule,
    entropy,
    entropy_inv,
    raise_profile,
    uplift_gap,
    verify_concavity_lemma,
    verify_convexity_lemma,
)

from dimsurgery.cli import _buffer_families
from dimsurgery.dimension import chunk_boundary, dim_series

# the module itself: the package exports a function of the same name
entropy_module = importlib.import_module("dimsurgery.entropy")

# Independent brentq oracles, frozen.
HINV_HALF = 0.11002786443835955
H_011 = 0.499915958164528
M_05_01 = 0.7415359984074191

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestEntropy:
    def test_half_is_one(self):
        assert entropy(0.5) == 1.0

    def test_endpoints(self):
        assert entropy(0.0) == 0.0
        assert entropy(1.0) == 0.0

    def test_endpoints_are_positive_zero(self):
        # -0.0 == 0.0, but it prints as -0.000000 in the surgery CSV
        values = [entropy(0.0), entropy(1.0), *entropy(np.array([0.0, 1.0])),
                  raise_profile(0.0, 0.0), *raise_profile(np.zeros(2), np.zeros(2))]
        assert [math.copysign(1.0, v) for v in values] == [1.0] * len(values)

    def test_near_tenth(self):
        assert abs(entropy(0.11) - 0.4999) < 1e-3
        assert entropy(0.11) == pytest.approx(H_011, abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            entropy(-0.1)
        with pytest.raises(ValueError):
            entropy(1.0001)
        with pytest.raises(ValueError):
            entropy(float("nan"))

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.1])
    def test_domain_message(self, bad):
        for value in (bad, np.array([0.5, bad, 0.0])):
            with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
                entropy(value)

    def test_empty_array_passes(self):
        assert entropy(np.array([])).shape == (0,)

    @given(unit_floats)
    @settings(deadline=None)
    def test_symmetry(self, p):
        assert entropy(p) == pytest.approx(entropy(1.0 - p), abs=1e-12)

    def test_array_matches_scalar(self):
        ps = np.linspace(0.0, 1.0, 101)
        vec = entropy(ps)
        for p, v in zip(ps, vec):
            assert v == pytest.approx(entropy(float(p)), abs=1e-15)


class TestEntropyScalarPath:
    """A float skips the array path; its H equals the array element bit for
    bit, sign of zero included."""

    @staticmethod
    def _bits(values):
        return np.asarray(values, dtype=np.float64).view(np.uint64)

    def test_floats_match_array_elements(self):
        # the densities c/j^2 of chunks j are what the Bernoulli estimate takes
        small = [c / j ** 2 for j in range(1, 60) for c in range(j * j + 1)]
        large = [c / j ** 2 for j in (100, 143, 200, 310) for c in range(j * j + 1)]
        randoms = np.random.default_rng(16).random(100_000).tolist()
        specials = [0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53]
        ps = small + specials + large + randoms
        scalar = [entropy(p) for p in ps]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(self._bits(scalar), self._bits(entropy(np.array(ps))))
        # one-element arrays cost ~30 us a call: small and specials only
        few = len(small) + len(specials)
        single = [entropy(np.array([p]))[0] for p in ps[:few]]
        assert np.array_equal(self._bits(scalar[:few]), self._bits(single))

    def test_float64_returns_float(self):
        ps = [0.0, -0.0, 0.11, 0.5, 1.0, 5e-324, 1.0 - 2.0 ** -53]
        values = [entropy(np.float64(p)) for p in ps]
        assert all(type(v) is float for v in values)
        assert np.array_equal(self._bits(values), self._bits(entropy(np.array(ps))))

    @pytest.mark.parametrize("bad", [-5e-324, -0.1, 1.0 + 2.0 ** -52, 1.5,
                                     float("nan"), float("inf"), float("-inf")])
    def test_out_of_range_message(self, bad):
        for value in (bad, np.float64(bad)):
            message = "p must lie in [0, 1], got "
            with pytest.raises(ValueError, match=re.escape(message + repr(value))):
                entropy(value)
            with pytest.raises(ValueError, match=re.escape(message)):
                entropy(np.array([0.5, value]))


class TestEntropyInv:
    def test_one_is_half_exactly(self):
        assert entropy_inv(1.0) == 0.5

    def test_zero(self):
        assert entropy_inv(0.0) == 0.0

    def test_half(self):
        assert entropy_inv(0.5) == pytest.approx(HINV_HALF, abs=1e-12)
        assert abs(entropy_inv(0.5) - 0.110) < 1e-3

    def test_half_complement_near_point_four(self):
        assert 0.385 <= 0.5 - entropy_inv(0.5) <= 0.395

    @given(unit_floats)
    @settings(deadline=None, max_examples=300)
    def test_round_trip(self, y):
        x = entropy_inv(y)
        assert 0.0 <= x <= 0.5
        assert abs(entropy(x) - y) <= 1e-12

    @given(unit_floats, unit_floats)
    @settings(deadline=None)
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert entropy_inv(lo) <= entropy_inv(hi)

    def test_vectorized_round_trip(self):
        ys = np.random.default_rng(7).uniform(0.0, 1.0, 20_000)
        xs = entropy_inv(ys)
        assert np.max(np.abs(entropy(xs) - ys)) <= 1e-12

    def test_scalar_equals_array_bitwise(self):
        # one bisection: a scalar result is the matching element of the array
        # result, bit for bit, including next to both endpoints
        tiny = [5e-324, 1e-300, 1e-30, 1e-17, 1e-12, 1e-9, 1e-6]
        near_one = [1.0 - d for d in (2.0 ** -53, 1e-15, 1e-12, 1e-9, 1e-6)]
        grid = np.concatenate([[0.0, 1.0], tiny, near_one,
                               np.linspace(0.0, 1.0, 2001),
                               np.random.default_rng(3).uniform(0.0, 1.0, 2000)])
        batch = entropy_inv(grid)
        for i, y in enumerate(grid.tolist()):
            x = entropy_inv(y)
            assert type(x) is float
            assert x == entropy_inv(np.array([y]))[0] == batch[i], y
        # bisection's hard cases: y = h(m) at midpoints m and its neighbours
        rng = np.random.default_rng(35)
        ys = rng.permutation(_adversarial_points(rng))[:3000]
        for y, want in zip(ys.tolist(), _bits(entropy_inv(ys))):
            for value in (y, np.float64(y), np.array(y)):
                assert _bits(entropy_inv(value)) == want, y

    def test_superadditivity_grid(self):
        # entropy_inv(t) - entropy_inv(s) >= entropy_inv(t - s), 1e3 x 1e3 grid
        g = np.linspace(0.0, 1.0, 1001)
        s, t = np.meshgrid(g, g)
        keep = s <= t
        s, t = s[keep], t[keep]
        lhs = np.asarray(entropy_inv(t)) - np.asarray(entropy_inv(s))
        rhs = np.asarray(entropy_inv(t - s))
        assert np.min(lhs - rhs) >= -1e-12


LN2 = math.log(2.0)


def _bisection_h(mid):
    return -(mid * np.log2(mid) + (1.0 - mid) * (np.log1p(-mid) / LN2))


def reference_inv(y):
    """The defining 55-step bisection of [0, 1/2] on h(mid) < y, elementwise."""
    arr = np.asarray(y, dtype=float)
    lo = np.zeros_like(arr)
    hi = np.full_like(arr, 0.5)
    for _ in range(55):
        mid = 0.5 * (lo + hi)
        go_right = _bisection_h(mid) < arr
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    out = 0.5 * (lo + hi)
    out = np.where(arr >= 1.0, 0.5, out)
    out = np.where(arr <= 0.0, 0.0, out)
    return float(out) if arr.ndim == 0 else out


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def _adversarial_points(rng) -> np.ndarray:
    """y = h(m) at dyadic bisection midpoints m of levels 0..40 and both float
    neighbours, y near 0 and near 1, and 0 and 1 exactly."""
    mids = [np.array([0.25])]
    for level in range(1, 41):
        k = rng.integers(0, 1 << level, size=4000)
        mids.append((2 * k + 1) * 2.0 ** -(level + 2))
    hm = _bisection_h(np.concatenate(mids))
    return np.clip(np.concatenate([
        hm, np.nextafter(hm, 0.0), np.nextafter(hm, 2.0),
        10.0 ** -rng.uniform(0.0, 323.0, 40_000),
        1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 40_000),
        [0.0, 1.0, 5e-324, 1e-300, np.nextafter(1.0, 0.0), 1.0 - 2.0 ** -53],
    ]), 0.0, 1.0)


class TestEntropyInvBits:
    """entropy_inv returns the reference bisection's bits, not just its value."""

    def test_million_points(self):
        rng = np.random.default_rng(20)
        ys = np.concatenate([_adversarial_points(rng), rng.uniform(0.0, 1.0, 500_000)])
        assert len(ys) >= 1_000_000
        for chunk in np.array_split(ys, 8):
            got, want = entropy_inv(chunk), reference_inv(chunk)
            bad = np.flatnonzero(_bits(got) != _bits(want))
            assert len(bad) == 0, chunk[bad[:5]]

    def test_shapes(self):
        rng = np.random.default_rng(21)
        ys = rng.permutation(_adversarial_points(rng))[:6000]
        for y in ys[:300].tolist():
            got = entropy_inv(y)
            assert type(got) is float
            assert _bits(got) == _bits(reference_inv(y)), y
        assert type(entropy_inv(np.float64(0.5))) is float
        grid = ys.reshape(60, 100)
        for y in (grid, grid.T, grid[:, :1], ys[:0], ys[:1], ys[::3], ys[::-1],
                  grid[::-2, 5:], np.asfortranarray(grid)):
            got = entropy_inv(y)
            assert got.shape == y.shape
            assert np.array_equal(_bits(got), _bits(reference_inv(y)))

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_guess_off_by_one_bracket(self, monkeypatch, shift):
        # move every guess one finest-level bracket: the skip check must turn
        # those brackets down, and the answer must not change
        real = entropy_module._skip_to
        levels = entropy_module._SKIP_LEVELS
        rejected = []

        def shifted(y, lo, hi, x, at):
            if at == levels:
                x = x + shift * 2.0 ** -(levels[0] + 1)
            elif at == levels[1:]:
                rejected.append(len(y))
            return real(y, lo, hi, x, at)

        monkeypatch.setattr(entropy_module, "_skip_to", shifted)
        rng = np.random.default_rng(22)
        ys = np.concatenate([rng.uniform(0.05, 0.95, 20_000), _adversarial_points(rng)[::50]])
        assert np.array_equal(_bits(entropy_inv(ys)), _bits(reference_inv(ys)))
        assert sum(rejected) >= 0.9 * len(ys)

    def test_unshifted_guess_mostly_skips(self, monkeypatch):
        real = entropy_module._skip_to
        rejected = []

        def spy(y, lo, hi, x, at):
            if at == entropy_module._SKIP_LEVELS[1:]:
                rejected.append(len(y))
            return real(y, lo, hi, x, at)

        monkeypatch.setattr(entropy_module, "_skip_to", spy)
        ys = np.random.default_rng(23).uniform(0.05, 0.95, 20_000)
        entropy_inv(ys)
        assert sum(rejected) <= 0.2 * len(ys)


class TestEntropyInvKernel:
    """The array kernel reads its input only, and its blocks, small-size
    paths and seed search give the reference bisection's bits."""

    @staticmethod
    def _points(seed, size):
        rng = np.random.default_rng(seed)
        return rng.permutation(_adversarial_points(rng))[:size]

    @staticmethod
    def _assert_reference(ys):
        got = entropy_inv(ys)
        assert got.shape == np.shape(ys)
        bad = np.flatnonzero(_bits(got) != _bits(reference_inv(ys)))
        assert len(bad) == 0, np.ravel(ys)[bad[:5]]

    def test_input_is_never_written(self):
        ys = self._points(30, 40_000)
        kept = ys.copy()
        self._assert_reference(ys)
        assert np.array_equal(_bits(ys), _bits(kept))
        ys.flags.writeable = False
        self._assert_reference(ys)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_block_edges(self, offset):
        block = entropy_module._BLOCK
        self._assert_reference(self._points(32, 2 * block + offset))
        self._assert_reference(self._points(33, block + offset))

    @pytest.mark.parametrize("size", [1, 2, 15, 16, 17, 100])
    def test_small_sizes(self, size):
        # under 16 points every bisection runs in floats; at any size a rest
        # of a few points bisects in floats
        ys = self._points(34, 60 * size).reshape(60, size)
        for row in ys:
            self._assert_reference(row)

    def test_seed_search_is_searchsorted(self):
        table = entropy_module._seed_table()[0][:-1]    # the last entry is +inf
        rng = np.random.default_rng(36)
        edges = 1.0 - (np.arange(8193) / 8192.0) ** 2    # where buckets change
        for ys in (_adversarial_points(rng), rng.uniform(0.0, 1.0, 500_000),
                   table, np.nextafter(table, 0.0), np.nextafter(table, 2.0),
                   edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)):
            ys = np.clip(ys, 0.0, 1.0)
            lo = entropy_module._seed(ys)[0] * 2.0 ** (entropy_module._SEED_LEVEL + 1)
            assert np.array_equal(lo, np.searchsorted(table, ys, "left"))


class TestEntropyDeriv:
    def test_max_is_flat(self):
        assert entropy_deriv(0.5) == 0.0

    def test_quarter(self):
        assert entropy_deriv(0.25) == pytest.approx(math.log2(3), abs=1e-14)

    def test_antisymmetry(self):
        assert entropy_deriv(0.75) == pytest.approx(-math.log2(3), abs=1e-14)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                entropy_deriv(bad)


class TestRaiseProfile:
    def test_saturated(self):
        assert raise_profile(1.0, 0.2) == 1.0

    def test_zero_eps_identity(self):
        assert raise_profile(0.3, 0.0) == pytest.approx(0.3, abs=1e-12)

    def test_midpoint(self):
        assert raise_profile(0.5, 0.1) == pytest.approx(M_05_01, abs=1e-3)
        assert raise_profile(0.5, 0.1) == pytest.approx(M_05_01, abs=1e-12)

    def test_saturation_threshold(self):
        # equals 1 exactly once entropy_inv(s) + eps >= 1/2
        assert raise_profile(0.5, 0.39) == 1.0
        assert raise_profile(0.9, 0.2) == 1.0

    def test_monotone_grid(self):
        s = np.linspace(0.0, 1.0, 101)
        for eps in (0.0, 0.05, 0.2, 0.5):
            m = np.asarray(raise_profile(s, eps))
            assert np.all(m >= s - 1e-12)
            assert np.all(np.diff(m) >= -1e-12)
        m_by_eps = [np.asarray(raise_profile(s, e)) for e in (0.0, 0.1, 0.2, 0.3)]
        for a, b in zip(m_by_eps, m_by_eps[1:]):
            assert np.all(b >= a - 1e-12)

    def test_strictly_above_s_inside(self):
        # equality M(s, eps) = s only at eps = 0 or s = 1
        s = np.linspace(0.0, 0.999, 200)
        for eps in (0.01, 0.1, 0.4):
            assert np.all(np.asarray(raise_profile(s, eps)) > s)

    @given(unit_floats, unit_floats)
    @settings(deadline=None)
    def test_at_least_s(self, s, eps):
        assert raise_profile(s, eps) >= s - 1e-12


class TestBoundCurves:
    def test_paper_values_at_half(self):
        bc = bound_curves(0.5, 1.0)
        assert 0.385 <= bc.raise_ <= 0.395
        assert 0.105 <= bc.lower <= 0.115

    def test_degenerate(self):
        bc = bound_curves(0.3, 0.3)
        assert bc.naive == 0.0
        assert abs(bc.raise_) <= 1e-15

    def test_zero_start(self):
        bc = bound_curves(0.0, 0.5)
        assert bc.naive == pytest.approx(bc.raise_, abs=1e-12)
        assert bc.naive == pytest.approx(HINV_HALF, abs=1e-12)

    def test_ordering(self):
        for s, t in [(0.1, 0.4), (0.2, 0.9), (0.0, 1.0), (0.55, 0.6)]:
            bc = bound_curves(s, t)
            assert bc.naive <= bc.raise_ + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            bound_curves(0.7, 0.3)
        with pytest.raises(ValueError):
            bound_curves(np.array([0.1, 0.7]), np.array([0.2, 0.3]))

    def test_elementwise_matches_scalar(self):
        g = np.linspace(0.0, 1.0, 41)
        s, t = np.meshgrid(g, g)
        keep = s <= t
        s, t = s[keep], t[keep]
        bc = bound_curves(s, t)
        for i, (a, b) in enumerate(zip(s.tolist(), t.tolist())):
            one = bound_curves(a, b)
            assert (one.naive, one.raise_, one.lower) == (
                bc.naive[i], bc.raise_[i], bc.lower[i]), (a, b)


class TestCaseSelect:
    def test_near_tie_is_case1(self):
        assert case_select(0.5 - 1e-9, 0.5) == CASE1

    def test_known_cases(self):
        # oracles: evaluate (1-x)/H'(H^{-1}(x)) at both points (brentq route)
        assert case_select(0.1, 0.9) == CASE2
        assert case_select(0.05, 0.2) == CASE1

    def test_domain(self):
        with pytest.raises(ValueError):
            case_select(0.5, 0.5)
        with pytest.raises(ValueError):
            case_select(0.3, 1.0)
        with pytest.raises(ValueError):
            case_select(np.array([0.1, 0.3]), np.array([0.2, 1.0]))

    def test_elementwise_matches_scalar(self):
        g = np.linspace(0.0, 0.99, 34)
        s, t = np.meshgrid(g, g)
        keep = s < t
        s, t = s[keep], t[keep]
        cases = case_select(s, t)
        assert set(cases.tolist()) == {CASE1, CASE2}
        for i, (a, b) in enumerate(zip(s.tolist(), t.tolist())):
            one = case_select(a, b)
            assert type(one) is str and one == cases[i], (a, b)


@dataclass(frozen=True)
class LineFn:
    """Affine function x -> slope*x + intercept."""

    slope: float
    intercept: float

    def __call__(self, x):
        if np.ndim(x):
            return self.slope * np.asarray(x, dtype=float) + self.intercept
        return self.slope * float(x) + self.intercept


def chord_line(s: float, t: float) -> LineFn:
    """The line through (s, t) and (1, 1): x -> (1-t)/(1-s) x + (t-s)/(1-s).

    Along it the concavity lemma's drop g(a x + 1 - a) - g(x) has slope
    a = (1-t)/(1-s).
    """
    entropy_module._require_unit(s, "s")
    entropy_module._require_unit(t, "t")
    if s >= 1.0:
        raise ValueError("chord line undefined at s = 1")
    return LineFn(slope=(1.0 - t) / (1.0 - s), intercept=(t - s) / (1.0 - s))


def tangent_line(s: float, delta: float) -> LineFn:
    """Tangent line to r(x) = raise_profile(x, delta) at x = s.

    Slope g'(s)/g'(t) with t = M(s, delta).  Requires g(s) + delta < 1/2
    (otherwise r is flat at 1 near s and has no informative tangent).
    """
    entropy_module._require_unit(s, "s")
    entropy_module._require_unit(delta, "delta")
    g_s = entropy_inv(s)
    if g_s + delta >= 0.5:
        raise ValueError(f"raise profile saturates at (s={s}, delta={delta}); no tangent")
    value = raise_profile(s, delta)
    if delta == 0.0:
        slope = 1.0
    elif s == 0.0:
        slope = 0.0
    else:
        slope = entropy_deriv(g_s + delta) / entropy_deriv(g_s)
    return LineFn(slope=slope, intercept=value - slope * s)


def drop_profile(x, line: LineFn):
    """p(x) = g(line(x)) - g(x) with g = entropy_inv; line(x) must stay in [0,1]."""
    entropy_module._require_unit(x, "x")
    y = line(x)
    entropy_module._require_unit(y, "line(x)")
    out = np.asarray(entropy_inv(y)) - np.asarray(entropy_inv(x))
    return float(out) if out.ndim == 0 else out


class TestLines:
    def test_tangent_delta_zero(self):
        line = tangent_line(0.3, 0.0)
        assert line.slope == pytest.approx(1.0)
        assert line(0.3) == pytest.approx(0.3, abs=1e-12)

    def test_tangent_touches_profile(self):
        line = tangent_line(0.3, 0.05)
        assert line(0.3) == pytest.approx(raise_profile(0.3, 0.05), abs=1e-12)
        assert line.slope == pytest.approx(0.7510601057490901, abs=1e-9)

    def test_tangent_saturated_domain(self):
        with pytest.raises(ValueError):
            tangent_line(0.9, 0.3)

    def test_tangent_below_profile_case1(self):
        # Case-1 conclusion: the tangent stays below the raise profile.
        s, delta = 0.05, entropy_inv(0.2) - entropy_inv(0.05)
        t = raise_profile(s, delta)
        assert case_select(s, t) == CASE1
        line = tangent_line(s, delta)
        xs = np.linspace(0.0, 1.0, 2001)
        r = np.asarray(raise_profile(xs, delta))
        assert np.all(line(xs) <= r + 1e-9)

    def test_tangent_below_profile_case1_sweep(self):
        xs = np.linspace(0.0, 1.0, 1001)
        hits = 0
        for s in (0.01, 0.02, 0.05, 0.1, 0.15, 0.2):
            for delta in (0.01, 0.02, 0.05, 0.1):
                if entropy_inv(s) + delta >= 0.5:
                    continue
                t = raise_profile(s, delta)
                if t >= 1.0 or case_select(s, t) != CASE1:
                    continue
                line = tangent_line(s, delta)
                assert np.all(line(xs) <= np.asarray(raise_profile(xs, delta)) + 1e-9), (s, delta)
                hits += 1
        assert hits >= 5  # the sweep must actually exercise Case 1

    def test_chord_identity(self):
        line = chord_line(0.4, 0.4)
        assert line.slope == pytest.approx(1.0)
        assert line.intercept == pytest.approx(0.0)

    def test_chord_simple(self):
        line = chord_line(0.0, 0.5)
        assert line.slope == 0.5
        assert line.intercept == 0.5

    @given(st.floats(min_value=0.0, max_value=1.0 - 1e-6), unit_floats)
    @settings(deadline=None)
    def test_chord_through_corner(self, s, t):
        line = chord_line(s, t)
        assert line(1.0) == pytest.approx(1.0, abs=1e-9)
        assert line(s) == pytest.approx(t, abs=1e-9)

    def test_chord_domain(self):
        with pytest.raises(ValueError):
            chord_line(1.0, 1.0)


class TestDropProfile:
    def test_corner_zero(self):
        assert drop_profile(1.0, chord_line(0.3, 0.7)) == pytest.approx(0.0, abs=1e-12)

    def test_at_s(self):
        line = chord_line(0.3, 0.7)
        expect = entropy_inv(0.7) - entropy_inv(0.3)
        assert drop_profile(0.3, line) == pytest.approx(expect, abs=1e-12)

    def test_at_zero(self):
        assert drop_profile(0.0, chord_line(0.0, 0.5)) == pytest.approx(HINV_HALF, abs=1e-12)

    def test_concave_and_decreasing_case2(self):
        s, t = 0.5, 0.8
        assert case_select(s, t) == CASE2
        line = chord_line(s, t)
        xs = np.linspace(s, 1.0, 400)
        p = np.asarray(drop_profile(xs, line))
        assert np.all(np.diff(p) <= 1e-9)          # nonincreasing on [s, 1]
        d2 = p[2:] - 2 * p[1:-1] + p[:-2]
        assert np.all(d2 <= 1e-9)                  # concave

    def test_domain(self):
        with pytest.raises(ValueError):
            drop_profile(0.9, LineFn(slope=2.0, intercept=0.5))


class TestConvexityVerification:
    def test_standard_delta(self):
        rep = verify_convexity_lemma(0.1, grid_step=1e-3)
        assert rep.sign_pattern_ok
        assert rep.inflection is not None and 0.0 < rep.inflection < 1.0
        assert rep.worst_violation == 0.0

    def test_w_boundary_signs(self):
        from dimsurgery.entropy import _f_aux

        for delta in (0.05, 0.2, 0.4):
            assert _f_aux(delta) > 0.0                      # w(0+) = f(delta)
            assert -_f_aux(0.5 - delta) < 0.0               # w((1/2-delta)-)

    def test_f_second_derivative_negative_inside(self):
        from dimsurgery.entropy import _f_aux_d2

        ys = np.linspace(1e-3, 0.5 - 1e-3, 999)
        assert np.all(_f_aux_d2(ys) < 0.0)

    def test_curvature_sign_matches_w(self):
        # independent route: sign of the raw second difference of r agrees
        # with the sign of w(g(x)) away from the inflection
        from dimsurgery.entropy import _f_aux

        delta = 0.1
        rep = verify_convexity_lemma(delta, grid_step=1e-3)
        xs = np.linspace(0.02, 0.98, 49)
        h = 1e-4
        r = np.asarray(raise_profile(np.concatenate([xs - h, xs, xs + h]), delta))
        m = len(xs)
        d2 = r[2 * m:] - 2 * r[m:2 * m] + r[:m]
        g = np.asarray(entropy_inv(xs))
        w = np.where(g + delta < 0.5, _f_aux(np.clip(g + delta, 1e-12, 1 - 1e-12)) - _f_aux(np.clip(g, 1e-12, 1 - 1e-12)), -1.0)
        far = np.abs(xs - rep.inflection) > 0.05
        big = np.abs(d2) > 1e-10
        check = far & big
        assert np.all(np.sign(d2[check]) == np.sign(w[check]))

    def test_coarse_grid_is_unresolved(self):
        # (0, 0.05) holds 4 samples at step 0.01, all with w > 0
        rep = verify_convexity_lemma(0.45, grid_step=0.01)
        assert rep.sign_pattern_ok is None and rep.inflection is None
        # (0, 0.45) holds one sample at step 0.3
        assert verify_convexity_lemma(0.05, grid_step=0.3).sign_pattern_ok is None

    def test_unresolved_grid_still_reports_a_seen_violation(self, monkeypatch):
        # f'' is sampled on (0, 1/2) whatever w shows: a positive f'' fails
        monkeypatch.setattr(entropy_module, "_f_aux_d2", lambda y: np.ones_like(y))
        assert verify_convexity_lemma(0.45, grid_step=0.01).sign_pattern_ok is False

    def test_domain(self):
        with pytest.raises(ValueError):
            verify_convexity_lemma(0.0)
        with pytest.raises(ValueError):
            verify_convexity_lemma(0.5)


class TestConcavityVerification:
    def test_grid(self):
        rep = verify_concavity_lemma(grid_step=5e-3)
        assert rep.sign_pattern_ok
        assert rep.worst_violation == 0.0

    def test_h_center_exact(self):
        from dimsurgery.entropy import _h_aux

        assert abs(float(_h_aux(0.5))) <= 1e-12

    def test_identity_slope_flat(self):
        # a = 1 gives p identically 0
        xs = np.linspace(0.01, 0.99, 99)
        p = np.asarray(drop_profile(xs, LineFn(1.0, 0.0)))
        assert np.max(np.abs(p)) <= 1e-15


def _concavity_per_slope(grid_step, tol):
    """verify_concavity_lemma's second-difference scan, one inversion per slope."""
    n = max(4, round(1.0 / grid_step))
    a_grid = np.linspace(0.0, 1.0, n + 1)[1:]
    xs = np.linspace(0.0, 1.0, n + 2)[1:-1]
    x_stencil = np.concatenate([xs - 1e-4, xs, xs + 1e-4])
    g_x = np.asarray(entropy_inv(x_stencil))
    m = len(xs)
    worst, ok = 0.0, True
    for a in a_grid:
        p = np.asarray(entropy_inv(np.clip(a * x_stencil + (1.0 - a), 0.0, 1.0))) - g_x
        d2 = p[2 * m:] - 2.0 * p[m:2 * m] + p[:m]
        v = float(np.max(d2 - tol, initial=0.0))
        if v > 0.0:
            ok = False
            worst = max(worst, v)
    return worst, ok


class TestConcavityRows:
    @pytest.mark.parametrize("grid_step", [0.01, 0.002])
    @pytest.mark.parametrize("tol", [-1e-9, 1e-6])
    def test_matches_per_slope_loop(self, grid_step, tol):
        # at tol = -1e-9 every slope violates, so worst is the largest d2 + 1e-9
        rep = verify_concavity_lemma(grid_step=grid_step, tol=tol)
        worst, ok = _concavity_per_slope(grid_step, tol)
        assert _bits(rep.worst_violation) == _bits(worst)
        assert rep.sign_pattern_ok == ok
        assert ok == (tol > 0.0)


def _uplift_by_profile(eps, grid_step=1e-4):
    """uplift_gap computed with raise_profile over the whole grid per eps."""
    xs = np.arange(0.0, 1.0, grid_step)
    phi = (np.asarray(raise_profile(xs, eps)) - xs) / (1.0 - xs)
    i = int(np.argmin(phi))
    lo = max(0.0, xs[i] - 2.0 * grid_step)
    hi = min(1.0 - grid_step, xs[i] + 2.0 * grid_step)
    xf = np.linspace(lo, hi, 4001)
    fine = (np.asarray(raise_profile(xf, eps)) - xf) / (1.0 - xf)
    return max(0.0, min(float(phi[i]), float(fine.min())) - 1e-9)


class TestUpliftGap:
    @pytest.mark.parametrize("k", range(21))
    def test_equals_profile_over_grid(self, k):
        assert _bits(uplift_gap(2.0 ** -k)) == _bits(_uplift_by_profile(2.0 ** -k))

    def test_zero_eps(self):
        assert uplift_gap(0.0) == 0.0

    def test_positive_and_monotone(self):
        gaps = [uplift_gap(e) for e in (0.02, 0.05, 0.1, 0.2, 0.4)]
        assert all(g > 0.0 for g in gaps)
        assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))

    # uplift_gap(2**-k) for k = 0..20 at the default grid, recorded with the
    # earlier scalar-minimizer refinement; the oracle below only shows that
    # d is not too large, this shows the array bracket is not looser
    FROZEN = [
        0.999999999, 0.999999999, 0.8104080962493243, 0.5306681946986012,
        0.30950323513158445, 0.16825173899866475, 0.08789079381802838,
        0.044941958818228066, 0.02272750537796278, 0.011428838426608906,
        0.005730811630413487, 0.002869518843296228, 0.0014357892241611135,
        0.0007181519282810654, 0.0003591399482940917, 0.00017958559895032714,
        8.979633114667146e-05, 4.4898673549990375e-05, 2.244908877640369e-05,
        1.1224107389580916e-05, 5.611569445080515e-06,
    ]

    @pytest.mark.parametrize("k", range(len(FROZEN)))
    def test_matches_frozen_refinement(self, k):
        assert abs(uplift_gap(2.0 ** -k) - self.FROZEN[k]) <= 1e-12

    def test_rejection_oracle(self):
        rng = np.random.default_rng(11)
        for eps in (0.05, 0.15, 0.3):
            d = uplift_gap(eps)
            xs = rng.uniform(0.0, 1.0, 100_000)
            m = np.asarray(raise_profile(xs, eps))
            assert np.all(m >= d + (1.0 - d) * xs - 1e-12)


def _loop_buffer_schedule(c, s_seq):
    """The slack schedule built one j at a time: eps_j halves at j when j
    clears the threshold of eps_{j-1} / 2, each threshold computed once and
    cached by eps.  buffer_schedule builds eps from its switch points."""
    s_arr = np.asarray(s_seq, dtype=float)
    horizon = len(s_arr)
    js = np.arange(1, horizon + 1)
    w = js.astype(float) ** 2
    n = chunk_boundary(js)
    prefix = np.cumsum(s_arr * w)
    s_sur = dim_series(s_arr).tail_min
    thresh_cache = {}

    def threshold(eps):
        if eps in thresh_cache:
            return thresh_cache[eps]
        d = uplift_gap(eps)
        if d <= 0.0:
            thresh_cache[eps] = horizon
            return horizon
        delta = 0.5 * d * (1.0 - s_sur) / (2.0 - d)
        ok = (prefix >= (s_sur - delta) * n) & (delta * n > c * w)
        bad = np.flatnonzero(~ok)
        thresh_cache[eps] = int(bad[-1] + 1) if len(bad) else 0
        return thresh_cache[eps]

    eps = np.empty(horizon)
    eps[0] = 1.0
    for j in range(2, horizon + 1):
        half = eps[j - 2] / 2.0
        eps[j - 1] = half if j > threshold(half) else eps[j - 2]
    m_prefix = np.cumsum(np.asarray(raise_profile(s_arr, eps)) * w)
    n1 = min(threshold(1.0), horizon)
    b = 1.0
    if n1 >= 1:
        b = max(1.0, float(np.max(s_sur * n[:n1] + c * w[:n1] - m_prefix[:n1])) + 1.0)
    return eps.tolist(), b


def _random_schedule_inputs():
    """60 (c, s_seq) pairs: c in {0, 0.1, 1, 10, 100}, horizons 2..3000,
    chunk values uniform, constant or alternating."""
    rng = np.random.default_rng(28)
    for i in range(60):
        c = (0.0, 0.1, 1.0, 10.0, 100.0)[i % 5]
        horizon = int(rng.integers(2, 3001))
        kind = i % 3
        if kind == 0:
            s_seq = rng.uniform(0.0, 1.0, horizon)
        elif kind == 1:
            s_seq = np.full(horizon, rng.uniform(0.0, 0.95))
        else:
            lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
            s_seq = np.where(np.arange(horizon) % 2, lo, hi)
        yield c, s_seq.tolist()


SCHEDULE_INPUTS = list(_random_schedule_inputs())


def _list_buffer_families(horizon: int):
    """The `verify buffer` families built as Python float lists."""
    yield "constant", [0.5] * horizon
    yield "alternating", [0.2 if i % 2 else 0.8 for i in range(horizon)]
    yield "drifting", [0.3 + 0.3 * i / horizon for i in range(horizon)]


@pytest.mark.parametrize("horizon", [2, 3, 10_000, 1_000_000])
def test_buffer_families_match_float_lists(horizon):
    # profile_bits (conftest) reads these families too, so its inputs stay
    # the same bytes
    got = list(_buffer_families(horizon))
    want = list(_list_buffer_families(horizon))
    assert [name for name, _ in got] == [name for name, _ in want]
    for (_, arr), (_, values) in zip(got, want):
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
        assert np.array_equal(_bits(arr), _bits(values))


class TestBufferSchedule:
    def _check(self, s_list, c):
        horizon = len(s_list)
        sched = buffer_schedule(c, s_list)
        eps, b = sched.eps, sched.b
        assert len(eps) == horizon
        assert eps[0] == 1.0
        for prev, cur in zip(eps, eps[1:]):
            assert cur in (prev, prev / 2.0)
        # direct loop: the defining inequality at every index
        js = np.arange(1, horizon + 1)
        w = js.astype(float) ** 2
        n = (js - 1) * js * (2 * js - 1) / 6.0
        s_arr = np.asarray(s_list, dtype=float)
        prefix = np.cumsum(np.asarray(raise_profile(s_arr, eps)) * w)
        # the floor: the least A_j = (1/n_j) sum_{i<j} s_i i^2 over the tail
        # boundaries j = min(max(10, horizon // 2), horizon) .. horizon + 1
        jb = np.arange(min(max(10, horizon // 2), horizon), horizon + 2)
        nb = (jb - 1) * jb * (2 * jb - 1) / 6.0
        s_sur = float(np.min(np.cumsum(s_arr * w)[jb - 2] / nb))
        assert np.all(prefix - c * w > s_sur * n - b)
        return eps, b

    def test_constant_half(self):
        eps, _ = self._check([0.5] * 600, c=1.0)
        assert eps[-1] < eps[0]

    def test_alternating(self):
        s = [0.2 if i % 2 else 0.8 for i in range(600)]
        self._check(s, c=1.0)

    def test_saturated_input_rejected(self):
        with pytest.raises(ScheduleError):
            buffer_schedule(1.0, [1.0] * 200)

    def test_buffer_margin_matches_scalar_loop(self):
        # sum_{i<=j} t_i i^2 - c j^2 - (s n_j - b), n_j = sum_{i<j} i^2
        t = np.random.default_rng(3).uniform(0, 1, 300)
        margin = buffer_margin(t, 2.5, 0.4, 7.0)
        assert margin.shape == (300,)
        acc, n_j = 0.0, 0
        for j in range(1, 301):
            acc += float(t[j - 1]) * j * j
            assert margin[j - 1] == pytest.approx(acc - 2.5 * j * j - (0.4 * n_j - 7.0),
                                                  rel=1e-12, abs=1e-9), j
            n_j += j * j

    @pytest.mark.parametrize("case", range(len(SCHEDULE_INPUTS)))
    def test_switch_points_match_per_j_loop(self, case):
        c, s_seq = SCHEDULE_INPUTS[case]
        sched = buffer_schedule(c, s_seq)
        want_eps, want_b = _loop_buffer_schedule(c, s_seq)
        assert np.array_equal(_bits(sched.eps), _bits(want_eps))
        assert _bits(sched.b) == _bits(want_b)

    @pytest.mark.parametrize("family", ["constant", "alternating", "drifting"])
    def test_switch_points_match_per_j_loop_on_verify_families(self, family):
        # the three families of `verify buffer`, at its default horizon and c
        s_seq = dict(_buffer_families(10_000))[family]
        sched = buffer_schedule(10.0, s_seq)
        want_eps, want_b = _loop_buffer_schedule(10.0, s_seq)
        assert np.array_equal(_bits(sched.eps), _bits(want_eps))
        assert _bits(sched.b) == _bits(want_b)
        assert len(np.unique(sched.eps)) > 1     # the schedule halves inside the horizon

    @pytest.mark.parametrize("case", [*range(len(SCHEDULE_INPUTS)),
                                      "constant", "alternating", "drifting"])
    def test_floor_and_targets_are_what_callers_would_compute(self, case):
        # the schedule hands over its floor and M(s_j, eps_j); they equal
        # what a caller would rebuild from s_seq and eps, bit for bit
        c, s_seq = (SCHEDULE_INPUTS[case] if isinstance(case, int)
                    else (10.0, dict(_buffer_families(10_000))[case]))
        sched = buffer_schedule(c, s_seq)
        assert sched.eps.dtype == np.float64 and sched.targets.dtype == np.float64
        assert np.array_equal(_bits(sched.targets), _bits(raise_profile(s_seq, sched.eps)))
        assert _bits(sched.floor) == _bits(dim_series(s_seq).tail_min)
        assert np.all(buffer_margin(sched.targets, c, sched.floor, sched.b) > 0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -1.0])
    def test_c_must_be_finite_and_nonnegative(self, c):
        with pytest.raises(ValueError, match=f"c must be finite and >= 0, got {c}"):
            buffer_schedule(c, [0.5] * 200)

    def test_eps_nonincreasing(self):
        eps, _ = self._check([0.4] * 400, c=5.0)
        assert all(b <= a for a, b in zip(eps, eps[1:]))
