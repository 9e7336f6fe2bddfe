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
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache

import numpy as np

DEFAULT_GRID = 10_001   # uniform quantile grid, step 1e-4
CONTACT_TOL = 1e-9      # hull-vs-curve contact detection


def _maybe_scalar(x, arr):
    out = np.asarray(arr)
    return float(out) if np.isscalar(x) or getattr(x, "ndim", 1) == 0 else out


def _clip(x, lo, hi):
    """np.clip(x, lo, hi) as float64 in two ufunc calls: the same values,
    signed zeros and NaNs, without np.clip's dispatch cost."""
    return np.minimum(hi, np.maximum(lo, np.asarray(x, dtype=float)))


class CostDistribution:
    """Base class for one-agent cost priors on a finite support.

    Subclasses implement cdf / inverse_cdf; both are vectorized over numpy
    arrays.  cdf clamps cost arguments to the support; inverse_cdf clamps
    quantiles to [0, 1] and returns a cost in the support (NaN stays NaN).
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
        return _clip(c, self.support_lo, self.support_hi)


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
        return _maybe_scalar(q, self.lo + _clip(q, 0.0, 1.0) * (self.hi - self.lo))


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
        out = self.lo - np.log1p(-_clip(q, 0.0, 1.0) * self._mass) / self.rate
        return _maybe_scalar(q, self._clamp(out))


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
        # the read-only (cost, F) columns, built once; not a field, so
        # equality, hash and repr ignore them
        table = np.array([cs, Fs])
        table.flags.writeable = False
        object.__setattr__(self, "_table", table)

    @property
    def support_lo(self):
        return self.points[0][0]

    @property
    def support_hi(self):
        return self.points[-1][0]

    def cdf(self, c):
        cs, Fs = self._table
        arr = self._clamp(c)
        return _maybe_scalar(c, np.interp(arr, cs, Fs))

    def inverse_cdf(self, q):
        """One array pass: each quantile's segment F[j - 1] < q <= F[j] from
        one searchsorted, the linear interpolation on it everywhere, and the
        breakpoint cost where F[j] == q (the cheapest cost on a plateau).
        Below F[0] and past F[-1], which lie within 1e-12 of 0 and 1, the
        result is clamped to the support."""
        cs, Fs = self._table
        arr = _clip(q, 0.0, 1.0)
        j = np.minimum(Fs.searchsorted(arr), len(Fs) - 1)
        F0, F1, c0, c1 = Fs.take(j - 1), Fs.take(j), cs.take(j - 1), cs.take(j)
        out = np.where(F1 == arr, c1, c0 + (arr - F0) / (F1 - F0) * (c1 - c0))
        return _maybe_scalar(q, self._clamp(out))


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

    @cached_property
    def _interval_starts(self) -> list:
        return [a for a, _ in self.intervals]

    def interval_containing(self, q: float):
        """The ironed interval (a, b) with a < q < b, or None."""
        k = bisect.bisect_right(self._interval_starts, q) - 1
        if k >= 0:
            a, b = self.intervals[k]
            if a < q < b:
                return (a, b)
        return None


_SHORT_RUN = 256   # convex runs shorter than this take the chain's scalar steps
_WINDOW = 128      # first window of a bridge search; each miss quadruples it


def _lower_hull_vertices(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull of points sorted by x (monotone chain).

    The chain tests the cross product of its top two entries and the next
    point, and pops while that is <= 0.  One array pass computes the cross of
    every consecutive triple (i - 2, i - 1, i).  Where it is > 0, the chain
    pushes i without popping whenever its top two are i - 2 and i - 1, so the
    table splits into maximal convex runs that start at the points whose
    triple is not > 0 (the stops).  A table without stops is its own hull.

    A run s .. e - 1 is merged into the stack as a whole by the bridge search
    of divide-and-conquer hulls (Preparata and Hong): pop back from the top
    of the stack for run point r (first r = s), then walk the tangent forward
    from the new top to the first r' whose successor does not pop it, and
    repeat from r' until neither end moves.  Each search tests a window at a
    time, `_WINDOW` points first and four times as many after each miss, so
    a bridge costs a few numpy calls however long it is.  The stack is an
    intp array, and r' .. e - 1 goes onto it as one range.  Runs shorter
    than `_SHORT_RUN` points take the chain's scalar steps instead, which
    cost less than those numpy calls on a many-kink prior.

    The vertices are the chain's bit for bit.  Every test is the chain's
    own: a (top pair, next point) triple, the same float64 expression in the
    same operation order (elementwise ufuncs, so no fused multiply-add), pop
    on <= 0, so a NaN cross never pops.  The bridge search skips tests the
    chain makes, so where one sits within rounding of 0 the two could part;
    `_chain_path_holds` therefore makes every test the chain makes on its
    way to the bridge, and a run where one comes out otherwise takes the
    scalar steps.
    """
    n = len(x)
    triples = ((x[1:-1] - x[:-2]) * (y[2:] - y[:-2])
               - (y[1:-1] - y[:-2]) * (x[2:] - x[:-2]))
    stops = np.flatnonzero(~(triples > 0.0)) + 2
    if not stops.size:
        return np.arange(n)
    bounds = np.append(stops, n)
    lengths = np.diff(bounds)
    long = lengths >= _SHORT_RUN
    # a scalar step on Python floats (the same IEEE arithmetic as float64
    # scalars) costs a fifth of one on numpy scalars; converting both tables
    # costs about as much as n / 16 steps
    scalar_points = int(lengths[~long].sum())
    xs, ys = (x.tolist(), y.tolist()) if 16 * scalar_points > n else (x, y)
    bounds = bounds.tolist()
    hull = np.empty(n, dtype=np.intp)
    top = i = bounds[0]
    hull[:top] = np.arange(top)
    for j in np.flatnonzero(long).tolist():
        s, e = bounds[j], bounds[j + 1]
        if j and bounds[j - 1] == s - 1:
            # a concave kink stops two points in a row; the merge only needs
            # convex triples from its third point on, so it takes both
            s -= 1
        if i < s:
            top = _chain_steps(xs, ys, hull, top, i, s, bounds)
        merged = _merge_run(x, y, hull, top, s, e)
        top = _chain_steps(xs, ys, hull, top, s, e, bounds) if merged is None else merged
        i = e
    if i < n:
        top = _chain_steps(xs, ys, hull, top, i, n, bounds)
    return hull[:top]


def _merge_run(x, y, hull, top, s, e):
    """Merge the convex run s .. e - 1 into the stack hull[:top]; the new
    height, or None where the chain's path to the bridge does not hold."""
    start = top = _pop_back(x, y, hull, top, s)
    r = s
    while True:
        r_next = _tangent_forward(x, y, hull[top - 1], r, e)
        if r_next == r:
            break
        r = r_next
        top_next = _pop_back(x, y, hull, top, r)
        if top_next == top:
            break
        top = top_next
    if r > s and not _chain_path_holds(x, y, hull, start, s, top, r):
        return None
    hull[top:top + e - r] = np.arange(r, e)
    return top + e - r


def _pop_back(x, y, hull, top, p):
    """Stack height after the chain's pops for point p: the top pairs
    (hull[j - 1], hull[j]) tested against p from j = top - 1 down."""
    xp, yp = x[p], y[p]
    w = _WINDOW
    while top >= 2:
        lo = max(0, top - 1 - w)
        idx = hull[lo:top]
        xh, yh = x[idx], y[idx]
        x0, y0 = xh[:-1], yh[:-1]
        pops = (xh[1:] - x0) * (yp - y0) - (yh[1:] - y0) * (xp - x0) <= 0.0
        k = int(pops[::-1].argmin())
        if not pops[-1 - k]:
            return top - k
        top = lo + 1
        w *= 4
    return top


def _tangent_forward(x, y, b, r, e):
    """The chain's top on base b as points r + 1, r + 2, ... < e arrive: the
    first r' >= r that its successor does not pop, or e - 1."""
    xb, yb = x[b], y[b]
    w = _WINDOW
    while r < e - 1:
        hi = min(e, r + 1 + w)
        u, v = x[r:hi] - xb, y[r:hi] - yb
        pops = u[:-1] * v[1:] - v[:-1] * u[1:] <= 0.0
        k = int(pops.argmin())
        if not pops[k]:
            return r + k
        r = hi - 1
        w *= 4
    return r


def _chain_path_holds(x, y, hull, t0, s, t1, r1):
    """Whether the chain, from height t0 with run point s on top, reaches
    height t1 with r1 on top, tested the way the chain tests it.

    A bisection over (s, r1] finds, for each stack position j in [t1, t0),
    the first run point that pops (hull[j - 1], hull[j]); a position goes no
    earlier than the one above it.  That fixes the height h(r) under each
    run point r, and with it every test the chain makes: r - 1 popped by r
    on the top of h(r - 1); each position popped by its run point; and the
    pops for r stopped by the pair under h(r).
    """
    first = np.full(t0 - t1, s + 1)
    if t0 > t1:
        i0, i1 = hull[t1 - 1:t0 - 1], hull[t1:t0]
        x0, y0 = x[i0], y[i0]
        dx, dy = x[i1] - x0, y[i1] - y0
        # the bisection only guesses, so it may rearrange the expression
        c = dx * y0 - dy * x0
        n = r1 - s
        while n > 1:
            half = n // 2
            mid = first + (half - 1)
            first = np.where(dx * y[mid] - dy * x[mid] <= c, first, mid + 1)
            n -= half
        first = np.maximum.accumulate(first[::-1])[::-1]
        if not np.all(dx * (y[first] - y0) - dy * (x[first] - x0) <= 0.0):
            return False
    rs = np.arange(s, r1 + 1)
    h = t0 - np.searchsorted(first[::-1], rs, side="right")
    v = hull[h - 1]
    xv, yv = x[v], y[v]
    xr, yr = x[s:r1 + 1], y[s:r1 + 1]
    xb, yb = xv[:-1], yv[:-1]
    if not np.all((xr[:-1] - xb) * (yr[1:] - yb) - (yr[:-1] - yb) * (xr[1:] - xb) <= 0.0):
        return False
    h, xv, yv, xr, yr = h[1:], xv[1:], yv[1:], xr[1:], yr[1:]
    if t1 < 2:
        keep = h >= 2
        h, xv, yv, xr, yr = h[keep], xv[keep], yv[keep], xr[keep], yr[keep]
    w = hull[h - 2]
    xw, yw = x[w], y[w]
    return not np.any((xv - xw) * (yr - yw) - (yv - yw) * (xr - xw) <= 0.0)


def _chain_steps(xs, ys, hull, top, i, end, bounds):
    """The chain's scalar steps for points i .. end - 1 on the stack
    hull[:top]; the new height.  The top of the stack lives in a list
    meanwhile, and a convex run is pushed at once where the top two are its
    first point's predecessors (`bounds` lists where the runs end)."""
    tail = hull[top - 2:top].tolist()
    top -= 2
    while i < end:
        if tail[-2] == i - 2:
            run_end = bounds[bisect.bisect_left(bounds, i)]
            if run_end > i:
                tail.extend(range(i, run_end))
                i = run_end
                continue
        while True:
            if len(tail) < 2:
                if not top:
                    break
                top -= 1
                tail.insert(0, hull.item(top))
            i0, i1 = tail[-2], tail[-1]
            if ((xs[i1] - xs[i0]) * (ys[i] - ys[i0])
                    - (ys[i1] - ys[i0]) * (xs[i] - xs[i0])) <= 0.0:
                tail.pop()
            else:
                break
        tail.append(i)
        i += 1
    hull[top:top + len(tail)] = tail
    return top + len(tail)


def iron(q: np.ndarray, P: np.ndarray) -> IronedCurve:
    """Lower convex hull of the cost curve P tabulated at grid quantiles q,
    with ironed-interval bookkeeping."""
    verts = _lower_hull_vertices(q, P)
    if len(verts) == len(q):
        # a convex table is its own hull: np.interp at its own knots
        # returns them exactly
        hull = P.copy()
    else:
        hull = np.interp(q, q[verts], P[verts])
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
    return IronedCurve(quantiles=q, hull=hull, slopes=slopes,
                       intervals=tuple(zip(opens, closes)))


@lru_cache(maxsize=4)
def _quantile_grid(grid_size: int) -> np.ndarray:
    """The read-only grid of grid_size quantiles that every entry of one grid
    size shares."""
    q = np.linspace(0.0, 1.0, grid_size)
    q.flags.writeable = False
    return q


# An entry holds two arrays of grid_size floats (160 kB at the default grid)
# beside the shared quantile grid; 128 entries (20 MB) bound the cache yet
# keep a market of <= 128 priors warm.
@lru_cache(maxsize=128)
def _ironed(dist: CostDistribution, grid_size: int) -> IronedCurve:
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    q = _quantile_grid(grid_size)
    spend = q * np.asarray(dist.inverse_cdf(q), dtype=float)
    spend[0] = 0.0
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

@dataclass(frozen=True, eq=False)
class PriceLotteries:
    """Every agent's price lottery as five read-only columns: agent i is
    offered price_lo[i] with probability prob_lo[i], else price_hi[i], which
    it accepts with probability q_lo[i] = F(price_lo[i]), else q_hi[i].  A
    degenerate row offers its one price, price_lo[i]."""

    price_lo: np.ndarray
    price_hi: np.ndarray
    prob_lo: np.ndarray
    q_lo: np.ndarray
    q_hi: np.ndarray

    def __post_init__(self):
        cols = [np.array(getattr(self, f.name), dtype=float) for f in fields(self)]
        if cols[0].ndim != 1 or any(c.shape != cols[0].shape for c in cols):
            raise ValueError("every lottery column needs one entry per agent")
        price_lo, price_hi, prob_lo = cols[:3]
        if not np.all((0.0 <= prob_lo) & (prob_lo <= 1.0)):
            raise ValueError("prob_lo must lie in [0, 1]")
        if np.any(price_lo > price_hi + 1e-12):
            raise ValueError("price_lo must not exceed price_hi")
        for f, col in zip(fields(self), cols):
            col.flags.writeable = False
            object.__setattr__(self, f.name, col)

    def __len__(self) -> int:
        return len(self.price_lo)

    def with_rows(self, rows: dict) -> PriceLotteries:
        """A copy in which agent i offers rows[i], five numbers in column
        order, for every i of rows."""
        table = np.array([getattr(self, f.name) for f in fields(self)])
        for i, row in rows.items():
            table[:, i] = row
        return PriceLotteries(*table)

    @property
    def degenerate(self) -> np.ndarray:
        return (self.prob_lo >= 1.0) | (self.price_lo == self.price_hi)

    @property
    def expected_spend(self) -> np.ndarray:
        return (self.prob_lo * self.q_lo * self.price_lo
                + (1.0 - self.prob_lo) * self.q_hi * self.price_hi)

    @property
    def max_price(self) -> np.ndarray:
        return np.where(self.degenerate, self.price_lo, np.maximum(self.price_lo, self.price_hi))


def two_price_lottery(ic: IronedCurve, dist: CostDistribution, q: float) -> tuple:
    """The PriceLotteries row (price_lo, price_hi, prob_lo, q_lo, q_hi) of the
    lottery achieving acceptance probability q at expected spend hull(q).

    Quantiles where the hull touches the curve get a single deterministic
    price F^{-1}(q); quantiles strictly inside an ironed interval (a, b) mix
    the endpoint prices with weight (b - q)/(b - a) on the lower one.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must lie in [0, 1]")
    interval = ic.interval_containing(q)
    if interval is None:
        p = float(dist.inverse_cdf(q))
        return p, p, 1.0, q, q
    a, b = interval
    return (float(dist.inverse_cdf(a)), float(dist.inverse_cdf(b)),
            (b - q) / (b - a), a, b)
