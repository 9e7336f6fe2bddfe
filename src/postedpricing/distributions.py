"""Single-agent cost priors: CDFs, cost curves, and ironing.

Cost distributions live on a bounded support [support_lo, support_hi].  The
cost curve of a distribution maps an acceptance probability q to the expected
spend q * F^{-1}(q) of posting the price F^{-1}(q).  Irregular distributions
(non-convex cost curves) are handled by taking the lower convex hull of the
curve; interior quantiles of a hull segment are implemented with a two-price
lottery.

All objects here are immutable after construction and safe to share across
concurrent workers.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_GRID = 10_001   # uniform quantile grid, step 1e-4
CONTACT_TOL = 1e-9      # hull-vs-curve contact detection


def _maybe_scalar(x, arr):
    out = np.asarray(arr)
    return float(out) if np.isscalar(x) or getattr(x, "ndim", 1) == 0 else out


class CostDistribution:
    """Base class for one-agent cost priors on a finite support.

    Subclasses implement cdf / inverse_cdf; both are vectorized over numpy
    arrays, and cdf clamps cost arguments to the support.
    """

    support_lo: float
    support_hi: float

    def cdf(self, c):
        raise NotImplementedError

    def inverse_cdf(self, q):
        raise NotImplementedError

    def sample(self, rng, size=None):
        """Draw costs by inverse-transform sampling."""
        return self.inverse_cdf(rng.random(size))

    def _clamp(self, c):
        return np.clip(np.asarray(c, dtype=float), self.support_lo, self.support_hi)


@dataclass(frozen=True)
class Uniform(CostDistribution):
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or self.hi <= self.lo:
            raise ValueError("uniform support must be finite with lo < hi")
        if self.lo < 0:
            raise ValueError("costs must be nonnegative")

    @property
    def support_lo(self):
        return self.lo

    @property
    def support_hi(self):
        return self.hi

    def cdf(self, c):
        arr = self._clamp(c)
        return _maybe_scalar(c, (arr - self.lo) / (self.hi - self.lo))

    def inverse_cdf(self, q):
        arr = np.clip(np.asarray(q, dtype=float), 0.0, 1.0)
        return _maybe_scalar(q, self.lo + arr * (self.hi - self.lo))


@dataclass(frozen=True)
class TruncatedExponential(CostDistribution):
    """Exponential with given rate, truncated and renormalized to [lo, hi]."""

    rate: float
    lo: float
    hi: float

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) \
                or self.hi <= self.lo or self.lo < 0:
            raise ValueError("support must be finite with 0 <= lo < hi")

    @property
    def support_lo(self):
        return self.lo

    @property
    def support_hi(self):
        return self.hi

    @property
    def _mass(self):
        # total untruncated mass on [lo, hi]
        return -math.expm1(-self.rate * (self.hi - self.lo))

    def cdf(self, c):
        arr = self._clamp(c)
        return _maybe_scalar(c, -np.expm1(-self.rate * (arr - self.lo)) / self._mass)

    def inverse_cdf(self, q):
        arr = np.clip(np.asarray(q, dtype=float), 0.0, 1.0)
        out = self.lo - np.log1p(-arr * self._mass) / self.rate
        return _maybe_scalar(q, np.clip(out, self.lo, self.hi))


@dataclass(frozen=True)
class PiecewiseLinearCDF(CostDistribution):
    """CDF interpolated linearly through (cost, F) breakpoints.

    Breakpoint costs must be strictly increasing; F must be nondecreasing
    with F = 0 at the first breakpoint and F = 1 at the last.  Plateaus
    (repeated F values) are allowed: the inverse CDF returns the leftmost
    (cheapest) cost achieving the quantile.
    """

    points: tuple

    def __post_init__(self):
        pts = tuple((float(c), float(F)) for c, F in self.points)
        object.__setattr__(self, "points", pts)
        cs = [c for c, _ in pts]
        Fs = [F for _, F in pts]
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        if not all(map(math.isfinite, cs + Fs)):
            raise ValueError("breakpoints must be finite")
        if any(b <= a for a, b in zip(cs, cs[1:])):
            raise ValueError("breakpoint costs must be strictly increasing")
        if any(b < a for a, b in zip(Fs, Fs[1:])):
            raise ValueError("CDF values must be nondecreasing")
        if abs(Fs[0]) > 1e-12 or abs(Fs[-1] - 1.0) > 1e-12:
            raise ValueError("CDF must run from 0 to 1 over the support")
        if cs[0] < 0:
            raise ValueError("costs must be nonnegative")

    @property
    def support_lo(self):
        return self.points[0][0]

    @property
    def support_hi(self):
        return self.points[-1][0]

    def _arrays(self):
        pts = np.asarray(self.points, dtype=float)
        return pts[:, 0], pts[:, 1]

    def cdf(self, c):
        cs, Fs = self._arrays()
        arr = self._clamp(c)
        return _maybe_scalar(c, np.interp(arr, cs, Fs))

    def inverse_cdf(self, q):
        cs, Fs = self._arrays()
        arr = np.atleast_1d(np.clip(np.asarray(q, dtype=float), 0.0, 1.0))
        idx = np.searchsorted(Fs, arr, side="left")
        idx = np.minimum(idx, len(Fs) - 1)
        out = np.empty_like(arr)
        exact = Fs[idx] == arr
        out[exact] = cs[idx[exact]]
        interp = ~exact
        if np.any(interp):
            j = idx[interp]
            # F[j-1] < q < F[j] on these entries, so the segment has slope > 0
            frac = (arr[interp] - Fs[j - 1]) / (Fs[j] - Fs[j - 1])
            out[interp] = cs[j - 1] + frac * (cs[j] - cs[j - 1])
        return _maybe_scalar(q, out.reshape(np.shape(q)))


def empirical_from_sample(sample) -> PiecewiseLinearCDF:
    """Piecewise-linear interpolated CDF of an observed cost sample.

    Duplicate observations are collapsed; F at each distinct cost is the
    fraction of the sample at or below it, rescaled so the CDF spans [0, 1]
    over [min(sample), max(sample)].
    """
    xs = np.sort(np.asarray(sample, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise ValueError("sample values must be finite")
    if xs.size < 2 or xs[0] == xs[-1]:
        raise ValueError("need at least two distinct sample values")
    if xs[0] < 0:
        raise ValueError("costs must be nonnegative")
    ranks = np.linspace(0.0, 1.0, xs.size)
    # keep the highest rank per distinct value so the CDF stays a function
    pts = {}
    for x, r in zip(xs, ranks):
        pts[float(x)] = float(r)
    items = sorted(pts.items())
    items[0] = (items[0][0], 0.0)
    items[-1] = (items[-1][0], 1.0)
    return PiecewiseLinearCDF(tuple(items))


# ---------------------------------------------------------------------------
# Cost curves and ironing
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IronedCurve:
    """Lower convex hull of a cost curve with its ironed intervals.

    `slopes` holds the hull slope of each grid segment (the marginal cost of
    acceptance probability); convexity makes the array nondecreasing, so
    `slopes.searchsorted(slopes[k], side="right")` ends the run through k.
    `intervals` lists maximal (a, b) quantile pairs where the hull lies
    strictly below the curve.
    """

    quantiles: np.ndarray
    curve: np.ndarray
    hull: np.ndarray
    slopes: np.ndarray
    intervals: tuple

    def hull_at(self, q):
        return _maybe_scalar(q, np.interp(q, self.quantiles, self.hull))

    @property
    def total_spend(self) -> float:
        return float(self.hull[-1])

    def inverse_spend(self, s):
        """Largest quantile whose hull spend does not exceed s, elementwise."""
        H, q = self.hull, self.quantiles
        arr = np.clip(np.asarray(s, dtype=float), H[0], H[-1])
        j = np.minimum(np.searchsorted(H, arr, side="right") - 1, len(H) - 2)
        out = q[j] + (arr - H[j]) / (H[j + 1] - H[j]) * (q[j + 1] - q[j])
        return _maybe_scalar(s, np.where(arr >= H[-1], 1.0, out))

    def interval_containing(self, q: float):
        """The ironed interval (a, b) with a < q < b, or None."""
        starts = [a for a, _ in self.intervals]
        k = bisect.bisect_right(starts, q) - 1
        if k >= 0:
            a, b = self.intervals[k]
            if a < q < b:
                return (a, b)
        return None


def _lower_hull_vertices(x: np.ndarray, y: np.ndarray) -> list:
    """Indices of the lower convex hull of points sorted by x (monotone chain).

    The chain only ever tests the cross product of its top two entries and
    the next point.  When those are i - 2 and i - 1, that is the cross of the
    consecutive triple (i - 2, i - 1, i), precomputed here for every triple
    with the same expression, one elementwise float64 ufunc per operation
    (no fused multiply-add), so each value is bit-equal to the loop's.  Where
    it is > 0 the loop would append i without popping, and the top two
    become (i - 1, i); so the whole run up to the next triple that is not
    > 0 is pushed at once.  Zero and NaN crosses, and every point after a
    pop, take the scalar loop, whose vertices are therefore unchanged.
    """
    n = len(x)
    triples = ((x[1:-1] - x[:-2]) * (y[2:] - y[:-2])
               - (y[1:-1] - y[:-2]) * (x[2:] - x[:-2]))
    # points i >= 2 whose triple (i - 2, i - 1, i) is not strictly convex,
    # then n: each convex run ends at the first of these after it
    stops = (np.flatnonzero(~(triples > 0.0)) + 2).tolist()
    stops.append(n)
    # Python floats do the same IEEE double arithmetic as float64 scalars, so
    # the vertices are the same; indexing a list is several times cheaper.
    x, y = x.tolist(), y.tolist()
    # the loop pushes the first two points without a test, so from i = 2 on
    # the hull holds at least two entries, and hull[-1] == i - 1
    hull = list(range(min(n, 2)))
    i = 2
    while i < n:
        if hull[-2] == i - 2:
            end = stops[bisect.bisect_left(stops, i)]
            if end > i:
                hull.extend(range(i, end))
                i = end
                continue
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            cross = (x[i1] - x[i0]) * (y[i] - y[i0]) - (y[i1] - y[i0]) * (x[i] - x[i0])
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
        i += 1
    return hull


def iron(q: np.ndarray, P: np.ndarray) -> IronedCurve:
    """Lower convex hull of the cost curve P tabulated at grid quantiles q,
    with ironed-interval bookkeeping."""
    # one list-to-array conversion for both gathers; the array is freed before
    # the arrays below are allocated (held to the end, it lifted a
    # design-sweep run's peak RSS by about 3 MB)
    verts = np.asarray(_lower_hull_vertices(q, P), dtype=np.intp)
    hull = np.interp(q, q[verts], P[verts])
    del verts
    hull = np.minimum(hull, P)  # guard interpolation round-off
    slopes = np.diff(hull) / np.diff(q)
    slopes = np.maximum.accumulate(slopes)  # enforce convexity against jitter
    scale = max(1.0, float(P[-1]))
    below = hull < P - CONTACT_TOL * scale
    # a run of below-points opens after a +1 step and closes at the point
    # after a -1 step; the grid endpoints always touch, so every run does both
    step = np.diff(below.astype(np.int8))
    opens = q[np.flatnonzero(step == 1)].tolist()
    closes = q[np.flatnonzero(step == -1) + 1].tolist()
    hull.flags.writeable = False
    slopes.flags.writeable = False
    return IronedCurve(quantiles=q, curve=P, hull=hull, slopes=slopes,
                       intervals=tuple(zip(opens, closes)))


# An entry holds four arrays of grid_size floats (320 kB at the default grid);
# 128 entries (40 MB) bound the cache yet keep a market of <= 128 priors warm.
@lru_cache(maxsize=128)
def _ironed(dist: CostDistribution, grid_size: int) -> IronedCurve:
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    q = np.linspace(0.0, 1.0, grid_size)
    spend = q * np.asarray(dist.inverse_cdf(q), dtype=float)
    spend[0] = 0.0
    q.flags.writeable = False
    spend.flags.writeable = False
    return iron(q, spend)


def ironed_curve(dist: CostDistribution, grid_size: int = DEFAULT_GRID) -> IronedCurve:
    """The cost curve q * F^{-1}(q) on a uniform grid of grid_size quantiles,
    ironed; cached, and distributions hash by value.  A default, positional or
    keyword grid_size reaches the same cache entry.  A regular prior is one
    with no ironed intervals."""
    return _ironed(dist, grid_size)


ironed_curve.cache_info, ironed_curve.cache_clear = _ironed.cache_info, _ironed.cache_clear


# ---------------------------------------------------------------------------
# Price lotteries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PriceLottery:
    """Offer price_lo with probability prob_lo, else price_hi.

    q_lo and q_hi are the acceptance probabilities F(price_lo), F(price_hi);
    the induced overall acceptance probability is the target quantile.
    """

    price_lo: float
    price_hi: float
    prob_lo: float
    q_lo: float
    q_hi: float

    def __post_init__(self):
        if not 0.0 <= self.prob_lo <= 1.0:
            raise ValueError("prob_lo must lie in [0, 1]")
        if self.price_lo > self.price_hi + 1e-12:
            raise ValueError("price_lo must not exceed price_hi")

    @property
    def degenerate(self) -> bool:
        return self.prob_lo >= 1.0 or self.price_lo == self.price_hi

    @property
    def quantile(self) -> float:
        return self.prob_lo * self.q_lo + (1.0 - self.prob_lo) * self.q_hi

    @property
    def expected_spend(self) -> float:
        return (self.prob_lo * self.q_lo * self.price_lo
                + (1.0 - self.prob_lo) * self.q_hi * self.price_hi)

    @property
    def max_price(self) -> float:
        return self.price_lo if self.degenerate else max(self.price_lo, self.price_hi)


def degenerate_lottery(dist: CostDistribution, q: float) -> PriceLottery:
    p = float(dist.inverse_cdf(q))
    return PriceLottery(price_lo=p, price_hi=p, prob_lo=1.0, q_lo=q, q_hi=q)


def two_price_lottery(ic: IronedCurve, dist: CostDistribution, q: float) -> PriceLottery:
    """Lottery achieving acceptance probability q at expected spend hull(q).

    Quantiles where the hull touches the curve get a single deterministic
    price F^{-1}(q); quantiles strictly inside an ironed interval (a, b) mix
    the endpoint prices with weight (b - q)/(b - a) on the lower one.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must lie in [0, 1]")
    interval = ic.interval_containing(q)
    if interval is None:
        return degenerate_lottery(dist, q)
    a, b = interval
    prob_lo = (b - q) / (b - a)
    return PriceLottery(price_lo=float(dist.inverse_cdf(a)),
                        price_hi=float(dist.inverse_cdf(b)),
                        prob_lo=prob_lo, q_lo=a, q_hi=b)
