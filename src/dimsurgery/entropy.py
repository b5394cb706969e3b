"""Binary entropy calculus: H, its [0,1/2] inverse branch, the raise profile
M(s, eps) = H(min(1/2, H^{-1}(s) + eps)), bound curves between dimensions,
and numeric verification of the convexity/concavity facts the paper's two
raise constructions rest on.

All inputs named like probabilities/dimensions live in [0, 1].  entropy,
entropy_inv, raise_profile and bound_curves work elementwise on numpy
arrays and return Python scalars for scalar input; a scalar result
equals the matching element of the array result bit for bit, so callers that
loop over chunks or grid points make one array call instead.

entropy_inv is defined as a 55-step bisection of [0, 1/2] on the predicate
h(mid) < y, h the float formula for H.  A float, or a bisection of under 16
points, runs in Python floats with numpy's log2 and log1p, whose 0-d calls
round as the array loops do (math.log2 and math.log1p differ on 576 and
75 896 of 1.1 million midpoints, x86-64, numpy 2.4).  Arrays get the bits from
far fewer midpoints, in place on blocks of _BLOCK points, in three stages:

1. Seed: a table of h at the 2^K0 - 1 midpoints of levels 0 .. K0 - 1,
   K0 = 12, built once and checked nondecreasing.  A binary search of a
   monotone predicate is a bisection, so searchsorted(table, y) is the
   level-K0 bracket exactly; it is read off the buckets of sqrt(1 - y).
2. Skip: interpolation of sqrt(1 - H) in that bracket and two Newton steps
   guess x; the level-K (K = 38) dyadic bracket [lo, hi] around x is taken
   when each end that is not a seed end satisfies h(lo) < y - tau and
   h(hi) > y + tau, tau = 1e-13.  This is sound whenever |h - H| <= tau/2 on
   [0, 1/2] (numpy's log2 and log1p are a few ulp off; tau is ~450 ulp of
   1): every midpoint m bisection would visit on the way lies at or left of
   lo, where h(m) <= H(lo) + tau/2 < y, or at or right of hi, where
   h(m) > y, so it compares as bisection compares it.  Where the check fails
   the next coarser level (30, then 20) is tried, then bisection from the
   seed.
3. Finish: the last 55 - K bisection steps, with the reference formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dimension import chunk_boundary, dim_series

LN2 = math.log(2.0)

# Bisection iteration count for the entropy inverse.  55 halvings of [0, 1/2]
# put the bracket width near 1.4e-17, which keeps |H(Hinv(y)) - y| below
# ~6e-15 even where H' blows up (y -> 0).  A 1e-13 bracket is NOT enough for
# a 1e-12 round-trip guarantee near zero.
_INV_ITERS = 55
# The seed table's level K0, the skip levels K tried finest first, and the
# skip check's margin tau (see the module docstring).
_SEED_LEVEL = 12
_SKIP_LEVELS = (38, 30, 20)
_SKIP_TOL = 1e-13
_BLOCK = 16384   # points per pass of entropy_inv: a block's buffers stay in cache


def _require_unit(value, name: str) -> None:
    # One pass: NaN fails both comparisons, and np.all of nothing is True.
    if isinstance(value, float):                # np.float64 included
        ok = 0.0 <= value <= 1.0
    else:
        arr = np.asarray(value, dtype=float)
        ok = np.all((arr >= 0.0) & (arr <= 1.0))
    if not ok:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def _entropy_raw(p):
    # log1p keeps (1-p)*log2(1-p) accurate for small p; the guards produce
    # exact zeros at the endpoints without NaN intermediates; there
    # 0.0 - (...) gives +0.0 where -(...) would give -0.0.  A float takes
    # its guards by comparison, an array by where(); both run numpy's logs.
    if isinstance(p, float):
        a, b = (p if p > 0.0 else 1.0), (p if p < 1.0 else 0.0)
    else:
        a, b = np.where(p > 0.0, p, 1.0), np.where(p < 1.0, p, 0.0)
    left = a * (np.log(a) / LN2)
    right = (1.0 - b) * (np.log1p(-b) / LN2)
    return 0.0 - (left + right)


def entropy(p):
    """Binary entropy H(p) = -p log2 p - (1-p) log2(1-p), with H(0)=H(1)=0.

    A float (np.float64 included) skips the array path and returns a float
    equal to the array path's element bit for bit.
    """
    _require_unit(p, "p")
    if isinstance(p, float):
        return float(_entropy_raw(p))
    arr = np.asarray(p, dtype=float)
    out = _entropy_raw(arr)
    return float(out) if arr.ndim == 0 else out


def _neg_h(mid, out=None, tmp=None):
    """-h(mid), into out with tmp as scratch if given: the bisection's h, its
    float operations in their order.  Midpoints stay inside (0, 1/2]."""
    out, tmp = (np.empty_like(mid), np.empty_like(mid)) if out is None else (out, tmp)
    np.divide(np.log1p(np.negative(mid, out=tmp), out=tmp), LN2, out=tmp)
    np.multiply(np.subtract(1.0, mid, out=out), tmp, out=tmp)
    return np.add(np.multiply(mid, np.log2(mid, out=out), out=out), tmp, out=out)


def _bisect(y, lo, hi, steps: int):
    """`steps` reference bisection steps on the brackets [lo, hi] of y, in
    place.  h(mid) < y is -h(mid) > -y; as 0 <= lo <= mid <= hi, where(r, mid,
    lo) is maximum(lo, mid r) and where(r, hi, mid) maximum(mid, hi r)."""
    if lo.size < 16:  # a few points step faster in floats than by array passes
        for k, args in enumerate(zip(y.tolist(), lo.tolist(), hi.tolist())):
            lo[k], hi[k] = _bisect_float(*args, steps)
        return lo, hi
    mid, a, b, right = (np.empty_like(lo) for _ in range(4))
    neg_y = -y
    for _ in range(steps):
        np.multiply(np.add(lo, hi, out=mid), 0.5, out=mid)
        np.greater(_neg_h(mid, a, b), neg_y, out=right)
        np.maximum(lo, np.multiply(mid, right, out=a), out=lo)
        np.maximum(mid, np.multiply(hi, right, out=a), out=hi)
    return lo, hi


@lru_cache(maxsize=None)
def _seed_table():
    """h at the midpoints j 2^-(K0+1), j = 1 .. 2^K0 - 1, that bisection
    visits at levels 0 .. K0 - 1, then +inf; sqrt(1 - H) at the level-K0
    bracket ends; and per bucket of y the number of entries in higher ones."""
    table = -_neg_h(np.arange(1, 1 << _SEED_LEVEL) * 2.0 ** -(_SEED_LEVEL + 1))
    assert np.all(np.diff(table) >= 0.0), "h is not monotone on the seed grid"
    root = np.sqrt(1.0 - np.concatenate([[0.0], table, [1.0]]))
    bucket = (root[1:-1] * 2.0 ** (_SEED_LEVEL + 1)).astype(np.intp)
    assert np.all(np.diff(bucket) < 0), "two seed entries share a bucket"
    above = np.searchsorted(-bucket, -np.arange((2 << _SEED_LEVEL) + 1), "left")
    table = np.append(table, np.inf)
    for arr in (table, root, above):
        arr.flags.writeable = False
    return table, root, above


def _seed(y):
    """Level-K0 bisection brackets [lo, hi] of y from the seed table, and a
    guess x of H^{-1}(y): interpolation of sqrt(1 - H), which stays nearly
    linear where H flattens at 1/2, then two Newton steps on H(x) = y."""
    table, root, above = _seed_table()
    u = np.sqrt(1.0 - y)
    # searchsorted(table, y, "left"), exactly: the buckets floor(2^(K0+1) u)
    # of y and of the table entries (root, the same float operations) reverse
    # their order, and one compare settles the entry, if any, in y's bucket
    i = above.take((u * 2.0 ** (_SEED_LEVEL + 1)).astype(np.intp))
    i += table.take(i) < y
    width = 2.0 ** -(_SEED_LEVEL + 1)
    lo = i * width
    l0, l1, num, t = root.take(i), root[1:].take(i), np.empty_like(y), np.empty_like(y)
    x = lo + width * ((u - l0) / (l1 - l0))
    for _ in range(2):
        # H'(x) = log2(1 - x) - log2(x); the clip keeps both logs finite and
        # H' nonzero; x += (y + x l0 + (1 - x) l1) / (l1 - l0)
        np.clip(x, 1e-300, 0.5 - 2.0 ** -30, out=x)
        np.log2(x, out=l0)
        np.divide(np.log1p(np.negative(x, out=l1), out=l1), LN2, out=l1)
        np.add(y, np.multiply(x, l0, out=num), out=num)
        np.add(num, np.multiply(np.subtract(1.0, x, out=t), l1, out=t), out=num)
        np.add(x, np.divide(num, np.subtract(l1, l0, out=t), out=num), out=x)
    return lo, lo + width, x


def _skip_to(y, lo, hi, x, levels):
    """Bisection brackets of y at level levels[0], given its level-K0
    brackets [lo, hi] and guesses x of H^{-1}(y); 1-d arrays.

    Takes the dyadic bracket around x where the tau check proves it; the rest
    recurse to the coarser levels (the seed after the last) and bisect down.
    """
    level = levels[0]
    scale = 2.0 ** (level + 1)
    lo_k = np.minimum(np.maximum(np.floor(x * scale), lo * scale), hi * scale - 1.0) / scale
    hi_k = lo_k + 1.0 / scale
    # lo_k is 0 only where it is the seed end, whose check is skipped; the
    # floor keeps log2 finite there
    ok = (lo_k == lo) | (-_neg_h(np.maximum(lo_k, 5e-324)) < y - _SKIP_TOL)
    ok &= (hi_k == hi) | (-_neg_h(hi_k) > y + _SKIP_TOL)
    if ok.all():
        return lo_k, hi_k
    rest = ~ok
    y, lo, hi = y[rest], lo[rest], hi[rest]
    start = _SEED_LEVEL
    if len(levels) > 1:
        lo, hi = _skip_to(y, lo, hi, x[rest], levels[1:])
        start = levels[1]
    lo_k[rest], hi_k[rest] = _bisect(y, lo, hi, level - start)
    return lo_k, hi_k


def _bisect_float(y: float, lo: float, hi: float, steps: int):
    """_bisect of one float: Python floats, numpy's logs, ~1 us a step."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        h = -(mid * float(np.log2(mid)) + (1.0 - mid) * (float(np.log1p(-mid)) / LN2))
        lo, hi = (mid, hi) if h < y else (lo, mid)
    return lo, hi


def entropy_inv(y):
    """Inverse of H on the branch mapping [0, 1] onto [0, 1/2].

    Elementwise; monotone nondecreasing, entropy_inv(0) = 0 and
    entropy_inv(1) = 0.5 exactly, and |entropy(entropy_inv(y)) - y| <= 1e-12
    everywhere on [0, 1].  Scalar input gives a float.

    The value is the midpoint of the final bracket of 55 bisection steps on
    h(mid) < y, bit for bit; the module docstring says how it is reached.
    """
    _require_unit(y, "y")
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 0:
        y = float(arr)
        lo, hi = _bisect_float(y, 0.0, 0.5, _INV_ITERS)
        return 0.5 if y >= 1.0 else 0.0 if y <= 0.0 else 0.5 * (lo + hi)
    flat = arr.reshape(-1)
    out = np.empty(flat.shape)
    for at in range(0, flat.size, _BLOCK):
        y, mid = flat[at:at + _BLOCK], out[at:at + _BLOCK]
        lo, hi = _bisect(y, *_skip_to(y, *_seed(y), _SKIP_LEVELS), _INV_ITERS - _SKIP_LEVELS[0])
        np.multiply(np.add(lo, hi, out=mid), 0.5, out=mid)
        np.copyto(mid, 0.5, where=y >= 1.0)
        np.copyto(mid, 0.0, where=y <= 0.0)
    return out.reshape(arr.shape)


def raise_profile(s, eps):
    """M(s, eps) = H(min(1/2, H^{-1}(s) + eps)).

    The largest dimension reachable from dimension s by changing an eps
    density of bits.  Nondecreasing in both arguments, M(s, 0) = s, and
    M(s, eps) = 1 once H^{-1}(s) + eps >= 1/2.
    """
    _require_unit(s, "s")
    _require_unit(eps, "eps")
    g = np.asarray(entropy_inv(s), dtype=float)
    out = _raise_from_inv(g, np.asarray(eps, dtype=float))
    return float(out) if out.ndim == 0 else out


def _raise_from_inv(g: np.ndarray, eps) -> np.ndarray:
    """M(s, eps) given g = H^{-1}(s)."""
    return _entropy_raw(np.minimum(0.5, g + eps))


@dataclass(frozen=True)
class BoundCurves:
    """The three distance bounds between a dimension-s and a dimension-t
    sequence; floats for scalar (s, t), arrays for array input."""

    naive: float   # H^{-1}(t - s): symmetric-difference counting bound
    raise_: float  # H^{-1}(t) - H^{-1}(s): cost of raising s up to t
    lower: float   # H^{-1}(1 - s): cost of lowering an arbitrary sequence to s


def bound_curves(s, t) -> BoundCurves:
    """Evaluate all three bound curves at (s, t), elementwise; requires s <= t."""
    _require_unit(s, "s")
    _require_unit(t, "t")
    s_arr = np.asarray(s, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if np.any(s_arr > t_arr):
        raise ValueError(f"need s <= t, got s={s}, t={t}")
    return BoundCurves(
        naive=entropy_inv(t_arr - s_arr),
        raise_=entropy_inv(t_arr) - entropy_inv(s_arr),
        lower=entropy_inv(1.0 - s_arr),
    )


# ---------------------------------------------------------------------------
# Numeric verification of the shape facts behind the two raise constructions.
# ---------------------------------------------------------------------------

# Central second differences use this step; tolerances are on the raw
# (undivided) differences, so float noise sits ~8 orders below them.
_D2_STEP = 1e-4
_D2_TOL = 1e-6


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of a grid check of a convex-then-concave (or concave) shape claim."""

    inflection: float | None
    sign_pattern_ok: bool | None    # None: the grid saw no sign change to check
    worst_violation: float


def _f_aux(y):
    """f(y) = y(1-y) log2(1/y - 1); sign proxy for the curvature of the raise profile."""
    y = np.asarray(y, dtype=float)
    return y * (1.0 - y) * np.log2(1.0 / y - 1.0)


def _f_aux_d2(y):
    """f''(y) = -(1-2y)/(ln2 (y - y^2)) - 2 log2(1/y - 1)."""
    y = np.asarray(y, dtype=float)
    return -(1.0 - 2.0 * y) / (LN2 * (y - y * y)) - 2.0 * np.log2(1.0 / y - 1.0)


def verify_convexity_lemma(delta: float, grid_step: float = 1e-3,
                           tol: float = _D2_TOL) -> ConvexityReport:
    """Check that r(x) = raise_profile(x, delta) is convex then concave on (0, 1).

    Locates the unique sign change z of w(y) = f(y+delta) - f(y) on
    (0, 1/2 - delta) by grid scan plus bisection, checks f'' < 0 on (0, 1/2),
    and checks the raw second differences of r: >= -tol left of the
    inflection H(z), <= +tol right of it.  sign_pattern_ok is None when the
    samples of w show no sign change (fewer than two of them, or one sign)
    and f'' passes: the grid is too coarse to place z, and nothing failed.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    if grid_step <= 0.0:
        raise ValueError("grid_step must be positive")

    hi = 0.5 - delta
    ys = np.arange(grid_step, hi, grid_step)
    ys = ys[(ys > 0.0) & (ys < hi)]
    w = _f_aux(ys + delta) - _f_aux(ys)
    signs = np.sign(w)
    changes = np.flatnonzero(np.diff(signs < 0))
    single_change = len(changes) == 1 and signs[0] > 0 and signs[-1] < 0

    inflection = None
    if single_change:
        a, b = ys[changes[0]], ys[changes[0] + 1]
        for _ in range(80):
            mid = 0.5 * (a + b)
            if _f_aux(mid + delta) - _f_aux(mid) > 0:
                a = mid
            else:
                b = mid
        z_y = 0.5 * (a + b)
        inflection = float(entropy(z_y))  # back to x-space: x = H(y)

    interior = np.arange(grid_step, 0.5, grid_step)
    interior = interior[(interior > 0.0) & (interior < 0.5)]
    f_dd_ok = bool(np.all(_f_aux_d2(interior) < 0.0))

    worst = 0.0
    d2_ok = True
    if inflection is not None:
        h = _D2_STEP
        xs = np.arange(grid_step, 1.0, grid_step)
        xs = xs[(xs - h > 0.0) & (xs + h < 1.0)]
        stencil = np.concatenate([xs - h, xs, xs + h])
        r = raise_profile(stencil, delta)
        m = len(xs)
        d2 = r[2 * m:] - 2.0 * r[m:2 * m] + r[:m]
        convex_side = xs < inflection
        viol = np.maximum(np.where(convex_side, -d2, d2) - tol, 0.0)
        worst = float(viol.max(initial=0.0))
        d2_ok = worst == 0.0

    ok = single_change and f_dd_ok and d2_ok
    return ConvexityReport(
        inflection=inflection,
        sign_pattern_ok=None if len(changes) == 0 and f_dd_ok else ok,
        worst_violation=worst,
    )


def _h_aux(y):
    """h(y) = ln(2-2y) - y(2-3y+2y^2) ln(1/y - 1); appears under p''(x) <= 0."""
    y = np.asarray(y, dtype=float)
    return np.log(2.0 - 2.0 * y) - y * (2.0 - 3.0 * y + 2.0 * y * y) * np.log(1.0 / y - 1.0)


def _h_aux_d2(y):
    """h''(y) = (3(1-y)y ln(1/y-1) + (1-2y)) / (2y(1-y)(1-2y))."""
    y = np.asarray(y, dtype=float)
    num = 3.0 * (1.0 - y) * y * np.log(1.0 / y - 1.0) + (1.0 - 2.0 * y)
    den = 2.0 * y * (1.0 - y) * (1.0 - 2.0 * y)
    return num / den


_CONCAVITY_ROWS = 8


def verify_concavity_lemma(grid_step: float = 2e-3, tol: float = _D2_TOL,
                           h_tol: float = 1e-9) -> ConvexityReport:
    """Check that p(x) = g(a x + 1 - a) - g(x) is concave for every slope a in (0, 1].

    Grid check of raw second differences of p over an (a, x) grid, plus the
    independent route: h'' >= -h_tol on a grid and h(1/2) = h'(1/2) = 0.
    """
    if grid_step <= 0.0:
        raise ValueError("grid_step must be positive")
    n = max(4, round(1.0 / grid_step))
    a_grid = np.linspace(0.0, 1.0, n + 1)[1:]
    xs = np.linspace(0.0, 1.0, n + 2)[1:-1]

    h = _D2_STEP
    x_stencil = np.concatenate([xs - h, xs, xs + h])
    g_x = np.asarray(entropy_inv(x_stencil))

    worst = 0.0
    ok = True
    m = len(xs)
    # rows of a few slopes per inversion: fewer calls, small temporaries
    for k in range(0, len(a_grid), _CONCAVITY_ROWS):
        a = a_grid[k:k + _CONCAVITY_ROWS, None]
        ell = a * x_stencil + (1.0 - a)
        p = entropy_inv(np.clip(ell, 0.0, 1.0)) - g_x
        d2 = p[:, 2 * m:] - 2.0 * p[:, m:2 * m] + p[:, :m]
        v = float(np.max(d2 - tol, initial=0.0))
        if v > 0.0:
            ok = False
            worst = max(worst, v)

    y_grid = np.linspace(0.0, 1.0, n + 2)[1:-1]
    y_grid = y_grid[np.abs(y_grid - 0.5) > 1e-9]
    h_dd = _h_aux_d2(y_grid)
    h_ok = bool(np.all(h_dd >= -h_tol))
    if not h_ok:
        worst = max(worst, float(np.max(-h_dd - h_tol)))

    u = 1e-4
    center_ok = abs(float(_h_aux(0.5))) <= 1e-12
    deriv_ok = abs(float(_h_aux(0.5 + u) - _h_aux(0.5 - u)) / (2 * u)) <= 1e-7

    return ConvexityReport(
        inflection=None,
        sign_pattern_ok=ok and h_ok and center_ok and deriv_ok,
        worst_violation=worst,
    )


_UPLIFT_GRID = 1e-4   # uplift_gap's coarse grid step


@lru_cache(maxsize=1)
def _inverse_grid():
    """The grid arange(0, 1, _UPLIFT_GRID) and entropy_inv of it, read-only."""
    xs = np.arange(0.0, 1.0, _UPLIFT_GRID)
    g = entropy_inv(xs)
    xs.flags.writeable = False
    g.flags.writeable = False
    return xs, g


def uplift_gap(eps: float) -> float:
    """Largest d >= 0 (to grid precision) with M(x, eps) >= d + (1-d)x on [0, 1].

    Grid minimization of phi(x) = (M(x, eps) - x)/(1 - x), refined on 4001
    points of the bracket two grid steps either side of the grid argmin,
    then shaved by a 1e-9 guard so the affine lower bound holds at off-grid
    points too.  Positive for eps > 0, nondecreasing in eps, and 0 at
    eps = 0.
    """
    _require_unit(eps, "eps")
    if eps == 0.0:
        return 0.0
    xs, g = _inverse_grid()
    phi = (_raise_from_inv(g, float(eps)) - xs) / (1.0 - xs)
    i = int(np.argmin(phi))
    lo = max(0.0, xs[i] - 2.0 * _UPLIFT_GRID)
    hi = min(1.0 - _UPLIFT_GRID, xs[i] + 2.0 * _UPLIFT_GRID)
    xf = np.linspace(lo, hi, 4001)
    fine = (np.asarray(raise_profile(xf, eps)) - xf) / (1.0 - xf)
    d = min(float(phi[i]), float(fine.min())) - 1e-9
    return max(0.0, d)


class ScheduleError(RuntimeError):
    """A slack schedule cannot be built (tail average of the input is too high)."""


def buffer_margin(t_seq, c: float, s: float, b: float) -> np.ndarray:
    """sum_{i<=j} t_i i^2 - c j^2 - (s n_j - b) at every j = 1..len(t_seq),
    n_j = sum_{i<j} i^2: the buffer inequality holds where this is positive."""
    t = np.asarray(t_seq, dtype=float)
    js = np.arange(1, len(t) + 1)
    return np.cumsum(t * js * js) - c * js * js - (s * chunk_boundary(js) - b)


@dataclass(frozen=True)
class BufferSchedule:
    """A slack schedule and what it was proved against: the buffer inequality
    holds for targets, at floor s, with constant b (see buffer_schedule)."""

    eps: np.ndarray      # eps_j, j = 1..horizon: 1, then halving
    b: float             # the absorbing constant
    floor: float         # s = dim_series(s_seq).tail_min
    targets: np.ndarray  # M(s_j, eps_j), the targets b was set for


def buffer_schedule(c: float, s_seq) -> BufferSchedule:
    """Halving slack schedule eps_1=1, eps_{j} in {eps_{j-1}, eps_{j-1}/2} and a
    constant b such that for every j <= horizon = len(s_seq)

        sum_{i<=j} M(s_i, eps_i) i^2  -  c j^2  >  s n_j - b,

    where s = dim_series(s_seq).tail_min, the dim_before a surgery run reports.

    eps_j = 2^-k from the switch point j_k = max(j_{k-1} + 1, N_k + 1) on
    (j_0 = 1), N_k the last j where the affine uplift bound of uplift_gap
    at 2^-k fails; b absorbs every j up to N_0.  Callers check the
    inequality with buffer_margin on the targets they use.  Raises
    ValueError unless c is finite and >= 0, and ScheduleError when the
    surrogate s is 1 (no headroom; use a full randomize plan instead).
    """
    if not 0.0 <= c < math.inf:
        raise ValueError(f"c must be finite and >= 0, got {c}")
    s_arr = np.asarray(s_seq, dtype=float)
    horizon = len(s_arr)
    if horizon < 2:
        raise ValueError("need at least two chunk values")
    _require_unit(s_arr, "s_seq")

    js = np.arange(1, horizon + 1)
    w = js.astype(float) ** 2
    n = chunk_boundary(js)
    prefix = np.cumsum(s_arr * w)                    # sum_{i<=j} s_i i^2
    s_sur = dim_series(s_arr).tail_min
    if s_sur >= 1.0 - 1e-12:
        raise ScheduleError("tail average is 1; no buffer headroom")

    def threshold(eps: float) -> int:       # the horizon when eps gives no uplift
        d = uplift_gap(eps)
        if d <= 0.0:
            return horizon
        delta = 0.5 * d * (1.0 - s_sur) / (2.0 - d)
        bad = np.flatnonzero(~((prefix >= (s_sur - delta) * n) & (delta * n > c * w)))
        return int(bad[-1] + 1) if len(bad) else 0

    switches = [1]                                   # j_0, j_1, ..., past the horizon
    while switches[-1] <= horizon:
        switches.append(max(switches[-1] + 1, threshold(0.5 ** len(switches)) + 1))
    eps = 0.5 ** np.searchsorted(switches[1:], js, side="right")

    targets = raise_profile(s_arr, eps)
    m_prefix = np.cumsum(targets * w)
    n1 = min(threshold(1.0), horizon)
    head = s_sur * n[:n1] + c * w[:n1] - m_prefix[:n1]
    b = max(1.0, float(head.max()) + 1.0) if n1 >= 1 else 1.0
    return BufferSchedule(eps=eps, b=b, floor=s_sur, targets=targets)
