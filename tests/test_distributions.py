import functools
import itertools
import math
import re

import numpy as np
import pytest

from postedpricing import (PiecewiseLinearCDF, SymmetricValue,
                           TruncatedExponential, Uniform, concave_hull_sizes,
                           empirical_from_sample, iron, ironed_curve,
                           two_price_lottery)
from postedpricing import distributions
from postedpricing.distributions import (CONTACT_TOL, DEFAULT_GRID,
                                         _lower_hull_vertices)

from oracles import (PriceLottery, chord_hull_lower, cost_curve,
                     finite_difference_virtual_cost, hull_at, interp_hull,
                     iron_scan, ironed_intervals_scan, irregular_priors, lottery_quantile,
                     masked_inverse_cdf, monotone_chain_scalars)


def test_uniform_cdf_identity():
    d = Uniform(0, 1)
    assert d.cdf(0.3) == pytest.approx(0.3)
    assert d.cdf(d.support_lo) == 0.0
    assert d.cdf(d.support_hi) == 1.0


def test_cdf_clamps_outside_support():
    d = Uniform(0.5, 2.0)
    assert d.cdf(0.0) == 0.0
    assert d.cdf(5.0) == 1.0


def test_piecewise_cdf_interpolation():
    d = PiecewiseLinearCDF(((0.0, 0.0), (0.5, 0.8), (1.0, 1.0)))
    # hand enumeration: 0.25 sits halfway up the first segment
    assert d.cdf(0.25) == pytest.approx(0.4)
    assert d.cdf(0.75) == pytest.approx(0.9)


# The virtual cost c + F(c)/f(c) defines a regular prior; the library decides
# regularity from the ironed intervals, and the tests take the virtual cost
# from a finite-difference oracle, checked here on closed forms.

def test_virtual_cost_uniform_is_twice_cost():
    d = Uniform(0, 1)
    assert finite_difference_virtual_cost(d, 0.4) == pytest.approx(0.8)
    assert finite_difference_virtual_cost(d, 0.0) == pytest.approx(0.0)


def test_virtual_cost_at_lower_boundary_is_boundary():
    d = Uniform(0.3, 1.3)
    assert finite_difference_virtual_cost(d, 0.3) == pytest.approx(0.3)


def test_virtual_cost_texp_matches_finite_difference():
    # F(c)/f(c) = expm1(rate * (c - lo)) / rate for the truncated exponential
    d = TruncatedExponential(1.0, 0.0, 2.0)
    for c in (0.25, 1.0, 1.7):
        assert c + math.expm1(c) == pytest.approx(
            finite_difference_virtual_cost(d, c), rel=1e-5)


@pytest.mark.parametrize("d", [
    Uniform(0, 1),
    Uniform(0.2, 1.7),
    TruncatedExponential(1.5, 0.0, 2.0),
    PiecewiseLinearCDF(((0.0, 0.0), (0.4, 0.3), (0.7, 0.6), (1.0, 1.0))),
])
def test_inverse_cdf_is_inverse(d):
    cs = np.linspace(d.support_lo, d.support_hi, 101)
    back = d.inverse_cdf(d.cdf(cs))
    assert np.allclose(back, cs, atol=1e-9)


def test_inverse_cdf_plateau_returns_cheapest_cost():
    d = PiecewiseLinearCDF(((0.0, 0.0), (0.3, 0.5), (0.6, 0.5), (1.0, 1.0)))
    assert d.inverse_cdf(0.5) == pytest.approx(0.3)


# Priors for the bitwise inverse tests: plateaus inside and at F = 0 and
# F = 1, and a table whose end F values sit within the 1e-12 tolerance.
BITWISE_PRIORS = [
    Uniform(0.2, 1.7),
    Uniform(0.0, 1.0),
    TruncatedExponential(1.5, 0.1, 2.0),
    TruncatedExponential(0.7, 0.0, 1.3),
    PiecewiseLinearCDF(((0.1, 0.0), (0.3, 0.5), (0.6, 0.5), (0.8, 0.7), (1.0, 1.0))),
    PiecewiseLinearCDF(((0.0, 0.0), (0.4, 0.0), (0.7, 0.6), (0.9, 1.0), (1.0, 1.0))),
    PiecewiseLinearCDF(((0.5, 1e-13), (1.0, 0.4), (2.0, 1.0 - 1e-13))),
]


def _probe_quantiles(d):
    """0, 1, signed zero, out-of-range and non-finite quantiles, every
    breakpoint F value and its float neighbours, and random ones."""
    breaks = np.array([F for _, F in getattr(d, "points", ())])
    return np.concatenate([
        [0.0, -0.0, 1.0, -0.5, 1.5, -1e-13, 1.0 + 1e-13, math.nan, math.inf, -math.inf],
        breaks, np.nextafter(breaks, 2.0), np.nextafter(breaks, -1.0),
        np.random.default_rng(3).random(64)])


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("d", BITWISE_PRIORS)
def test_inverse_cdf_array_matches_scalar_calls_bitwise(d):
    qs = _probe_quantiles(d)
    out = d.inverse_cdf(qs)
    scalars = [d.inverse_cdf(q) for q in qs.tolist()]
    assert all(type(c) is float for c in scalars)
    assert _bits(out) == _bits(scalars)
    assert _bits(out) == _bits([d.inverse_cdf(np.float64(q)) for q in qs])
    table = qs[:len(qs) // 2 * 2].reshape(2, -1)
    assert _bits(d.inverse_cdf(table)) == _bits(out[:table.size])
    finite = out[~np.isnan(qs)]
    assert np.all((finite >= d.support_lo) & (finite <= d.support_hi))
    assert np.isnan(out[np.isnan(qs)]).all()


@pytest.mark.parametrize("d", [d for d in BITWISE_PRIORS if isinstance(d, PiecewiseLinearCDF)]
                         + irregular_priors(4, 8)[1::2]
                         + [empirical_from_sample(np.random.default_rng(5).random(300))])
def test_piecewise_inverse_matches_masked_route_bitwise(d):
    # the masked route does not clamp; inside the support the two agree bit
    # for bit, and where only the masked route leaves it the clamp is the
    # whole difference
    qs = np.concatenate([_probe_quantiles(d), np.linspace(0.0, 1.0, 1001)])
    out, masked = d.inverse_cdf(qs), masked_inverse_cdf(d, qs)
    assert _bits(out) == _bits(np.clip(masked, d.support_lo, d.support_hi))
    inside = (masked >= d.support_lo) & (masked <= d.support_hi)
    assert _bits(out[inside]) == _bits(masked[inside])


def test_piecewise_inverse_stays_in_support_at_tolerant_ends():
    top = PiecewiseLinearCDF(((0.5, 0.0), (1.0, 0.4), (2.0, 1.0 - 1e-13)))
    assert masked_inverse_cdf(top, 1.0) > 2.0  # the unclamped route overshoots
    assert top.inverse_cdf(1.0) == top.support_hi == 2.0
    bottom = PiecewiseLinearCDF(((0.5, 1e-13), (1.0, 0.4), (2.0, 1.0)))
    assert masked_inverse_cdf(bottom, 0.0) < 0.5
    assert bottom.inverse_cdf(0.0) == bottom.support_lo == 0.5
    assert bottom.inverse_cdf([0.0, 1.0]).tolist() == [0.5, 2.0]
    inner = np.linspace(0.01, 0.99, 99)
    for d in (top, bottom):
        assert _bits(d.inverse_cdf(inner)) == _bits(masked_inverse_cdf(d, inner))


def test_empirical_sample_interpolated_cdf():
    d = empirical_from_sample([0.1, 0.9, 0.5, 0.3])
    assert d.support_lo == pytest.approx(0.1)
    assert d.support_hi == pytest.approx(0.9)
    assert d.cdf(0.1) == 0.0
    assert d.cdf(0.9) == 1.0
    cs = np.linspace(0.1, 0.9, 33)
    assert np.allclose(d.inverse_cdf(d.cdf(cs)), cs, atol=1e-9)


def test_cost_curve_uniform_is_square():
    ic = ironed_curve(Uniform(0, 1), 101)
    curve = cost_curve(Uniform(0, 1), 101)
    assert np.allclose(curve, ic.quantiles ** 2)
    assert not ic.intervals
    assert curve[0] == 0.0


def test_cost_curve_bimodal_flagged_irregular():
    # density high-low-high: the spend curve dips below its chords
    d = PiecewiseLinearCDF(((0.0, 0.0), (0.2, 0.45), (0.8, 0.55), (1.0, 1.0)))
    ic = ironed_curve(d)
    curve = cost_curve(d)
    assert ic.intervals
    second = curve[2:] - 2 * curve[1:-1] + curve[:-2]
    assert second.min() < 0


def test_iron_convex_curve_is_identity():
    ic = ironed_curve(Uniform(0, 1))
    curve = cost_curve(Uniform(0, 1))
    assert ic.intervals == ()
    assert np.allclose(ic.hull, curve)
    assert np.all(np.diff(ic.slopes) >= -1e-12)


def _assert_irons_alike(q, P):
    """iron(q, P) equals the scan reference bit for bit; returns it."""
    ic, ref = iron(q, P), iron_scan(q, P)
    assert _bits(ic.hull) == _bits(ref.hull)
    assert _bits(ic.slopes) == _bits(ref.slopes)
    assert ic.intervals == ref.intervals
    return ic


@pytest.mark.parametrize("grid", [2, 3, 101, 1_001, DEFAULT_GRID])
@pytest.mark.parametrize("d", [Uniform(0, 1), Uniform(0.2, 1.7),
                               TruncatedExponential(2.0, 0.1, 1.3),
                               TruncatedExponential(0.5, 0.0, 1.0)])
def test_iron_takes_a_convex_table_as_its_hull_bitwise(d, grid):
    q = np.linspace(0.0, 1.0, grid)
    P = cost_curve(d, grid)
    assert len(_lower_hull_vertices(q, P)) == grid  # the table is convex
    ic = _assert_irons_alike(q, P)
    assert _bits(ic.hull) == _bits(interp_hull(q, P)) == _bits(P)
    assert _bits(ironed_curve(d, grid).hull) == _bits(ic.hull)
    assert ic.intervals == ()
    assert P.flags.writeable and not np.shares_memory(ic.hull, P)


@pytest.mark.parametrize("grid", [101, 1_001, DEFAULT_GRID])
@pytest.mark.parametrize("d", irregular_priors(3, 4))
def test_iron_matches_the_scan_reference_on_irregular_priors(d, grid):
    q = np.linspace(0.0, 1.0, grid)
    _assert_irons_alike(q, cost_curve(d, grid))


_Q21 = np.linspace(0.0, 1.0, 21)


@pytest.mark.parametrize("q, P", [
    # a line: the interpolated hull's float slopes dip by one ulp
    (_Q21, _Q21 * 1.1),
    # a run of zero slopes, then a run of equal ones
    (np.linspace(0.0, 1.0, 8), np.array([0.0, 0.0, 0.0, 0.0, 0.25, 0.5, 0.75, 1.25])),
    # a -0.0 slope after a +0.0 one, and one before it
    (np.linspace(0.0, 1.0, 6), np.array([0.0, 0.0, -0.0, 0.0, 0.5, 1.0])),
    (np.linspace(0.0, 1.0, 6), np.array([0.0, -0.0, -0.0, 0.25, 0.5, 1.0])),
], ids=["ulp-dip", "zero-and-equal-runs", "zero-then-minus-zero", "minus-zero-first"])
def test_iron_keeps_the_running_max_bits_on_crafted_slopes(q, P):
    raw = np.diff(_assert_irons_alike(q, P).hull) / np.diff(q)
    # each table reaches a case the skipped running max must get right
    assert (np.any(raw[1:] < raw[:-1]) or np.signbit(raw).any()
            or np.any((raw[1:] == raw[:-1]) & (raw[1:] > 0)))


def test_iron_endpoints_pinned():
    d = PiecewiseLinearCDF(((0.0, 0.0), (0.2, 0.5), (0.8, 0.6), (1.0, 1.0)))
    ic = ironed_curve(d)
    curve = cost_curve(d)
    assert ic.hull[0] == 0.0
    assert ic.hull[-1] == pytest.approx(curve[-1])


def test_iron_matches_chord_oracle():
    d = PiecewiseLinearCDF(((0.0, 0.0), (0.2, 0.5), (0.8, 0.6), (1.0, 1.0)))
    ic = ironed_curve(d, 201)
    curve = cost_curve(d, 201)
    oracle = chord_hull_lower(ic.quantiles, curve)
    assert np.allclose(ic.hull, oracle, atol=1e-9)


def test_iron_single_dip_gives_one_interval():
    # one concave kink in the curve produces exactly one ironed interval
    d = PiecewiseLinearCDF(((0.0, 0.0), (0.2, 0.5), (0.8, 0.6), (1.0, 1.0)))
    ic = ironed_curve(d, 201)
    curve = cost_curve(d, 201)
    assert len(ic.intervals) == 1
    a, b = ic.intervals[0]
    oracle = chord_hull_lower(ic.quantiles, curve)
    below = np.flatnonzero(oracle < curve - 1e-9)
    assert a <= ic.quantiles[below[0]] <= b
    assert a <= ic.quantiles[below[-1]] <= b


def test_lottery_regular_is_degenerate():
    d = Uniform(0, 1)
    ic = ironed_curve(d)
    lot = PriceLottery(*two_price_lottery(ic, d, 0.37))
    assert lot.degenerate
    assert lot.price_lo == pytest.approx(0.37)


def test_lottery_at_interval_endpoint_is_degenerate():
    d = PiecewiseLinearCDF(((0.0, 0.0), (0.2, 0.5), (0.8, 0.6), (1.0, 1.0)))
    ic = ironed_curve(d)
    a, b = ic.intervals[0]
    lot = PriceLottery(*two_price_lottery(ic, d, a))
    assert lot.degenerate
    assert lot.price_lo == pytest.approx(float(d.inverse_cdf(a)))


def test_lottery_midpoint_mixes_evenly():
    d = PiecewiseLinearCDF(((0.0, 0.0), (0.2, 0.5), (0.8, 0.6), (1.0, 1.0)))
    ic = ironed_curve(d)
    curve = cost_curve(d)
    a, b = ic.intervals[0]
    q = 0.5 * (a + b)
    lot = PriceLottery(*two_price_lottery(ic, d, q))
    assert lot.prob_lo == pytest.approx(0.5)
    pa, pb = np.interp([a, b], ic.quantiles, curve)
    assert lot.expected_spend == pytest.approx(0.5 * (pa + pb), abs=1e-9)
    assert lottery_quantile(lot) == pytest.approx(q, abs=1e-12)


def _random_piecewise(rng, force_irregular=False):
    for _ in range(200):
        m = int(rng.integers(2, 6))
        cs = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, m)), [1.0]])
        Fs = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, m)), [1.0]])
        if len(np.unique(cs)) != len(cs):
            continue
        d = PiecewiseLinearCDF(tuple(zip(map(float, cs), map(float, Fs))))
        if not force_irregular or ironed_curve(d).intervals:
            return d
    raise AssertionError("could not generate a distribution")


@pytest.mark.parametrize("seed", range(5))
def test_property_slopes_nondecreasing(seed):
    rng = np.random.default_rng(seed)
    d = _random_piecewise(rng)
    ic = ironed_curve(d)
    curve = cost_curve(d)
    assert np.all(np.diff(ic.slopes) >= -1e-12)
    assert np.all(ic.hull <= curve + 1e-12)


@pytest.mark.parametrize("d", [Uniform(0, 1), TruncatedExponential(2.0, 0.0, 1.5)])
def test_property_regular_virtual_cost_monotone(d):
    cs = np.linspace(d.support_lo + 1e-9, d.support_hi, 500)
    phi = finite_difference_virtual_cost(d, cs)
    assert np.all(np.diff(phi) >= -1e-9)
    assert not ironed_curve(d).intervals


@pytest.mark.parametrize("seed", range(3))
def test_property_lottery_monte_carlo(seed):
    rng = np.random.default_rng(1234 + seed)
    d = _random_piecewise(rng, force_irregular=True)
    ic = ironed_curve(d)
    a, b = ic.intervals[0]
    q = float(rng.uniform(a + 1e-6, b - 1e-6))
    lot = PriceLottery(*two_price_lottery(ic, d, q))
    trials = 40_000
    u = rng.random(trials)
    prices = np.where(u < lot.prob_lo, lot.price_lo, lot.price_hi)
    costs = d.inverse_cdf(rng.random(trials))
    accepted = costs <= prices
    freq = accepted.mean()
    se = math.sqrt(freq * (1 - freq) / trials)
    assert abs(freq - q) <= 3 * se
    payments = prices * accepted
    se_pay = payments.std(ddof=1) / math.sqrt(trials)
    assert abs(payments.mean() - hull_at(ic, q)) <= 3 * se_pay


def test_ironed_curve_rejects_tiny_grid():
    with pytest.raises(ValueError):
        ironed_curve(Uniform(0, 1), 1)


def test_ironed_curve_cache_is_bounded():
    maxsize = ironed_curve.cache_info().maxsize
    assert maxsize is not None
    for i in range(maxsize + 8):
        ironed_curve(Uniform(0.0, 1.0 + i / 1024), 11)
    assert ironed_curve.cache_info().currsize <= maxsize


def test_ironed_curve_call_forms_share_one_cache_entry():
    d = Uniform(0.0, 1.0 + 1 / 3)
    misses = ironed_curve.cache_info().misses
    ic = ironed_curve(d)
    assert ironed_curve(d, DEFAULT_GRID) is ic
    assert ironed_curve(d, grid_size=DEFAULT_GRID) is ic
    assert ironed_curve.cache_info().misses == misses + 1


def test_ironed_curves_share_one_read_only_quantile_grid():
    a, b = (ironed_curve(Uniform(0.0, 1.0 + k / 5), 101) for k in (1, 2))
    assert a.quantiles is b.quantiles
    assert a.quantiles.tolist() == np.linspace(0.0, 1.0, 101).tolist()
    assert not a.quantiles.flags.writeable
    assert ironed_curve(Uniform(0.0, 1.2), 11).quantiles.size == 11


IRREGULAR = irregular_priors(7, 64)


def test_hull_chain_matches_scalar_chain_on_random_tables():
    rng = np.random.default_rng(5)
    for _ in range(5000):
        n = int(rng.integers(2, 40))
        x = np.arange(n, dtype=float) if rng.random() < 0.5 else np.sort(rng.random(n))
        # small integer heights make exactly collinear triples common
        y = rng.integers(0, 4, n).astype(float) if rng.random() < 0.5 else rng.normal(size=n)
        assert _lower_hull_vertices(x, y).tolist() == monotone_chain_scalars(x, y)


def test_hull_chain_matches_scalar_chain_on_irregular_priors():
    for d in IRREGULAR:
        ic = ironed_curve(d)
        curve = cost_curve(d)
        assert (_lower_hull_vertices(ic.quantiles, curve).tolist()
                == monotone_chain_scalars(ic.quantiles, curve))


def _kinked_table(rng, n, kinks):
    """n points on convex pieces (rising slopes) whose slope drops at each kink
    index, so the hull bridges convex stretches after a kink."""
    x = np.arange(n, dtype=float) if rng.random() < 0.5 else np.sort(rng.random(n))
    slope = np.cumsum(rng.random(n - 1))
    for k in kinks:
        slope[k:] -= rng.uniform(0.5, 3.0) * slope[-1] + 1.0
    return x, np.concatenate(([0.0], np.cumsum(slope * np.diff(x))))


def test_hull_chain_matches_scalar_chain_on_long_kinked_tables():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(4, 2000))
        inner = rng.choice(np.arange(2, n - 2), size=int(rng.integers(0, 4)), replace=False)
        for kinks in ([1], [n - 2], [1, n - 2], sorted(inner.tolist())):
            x, y = _kinked_table(rng, n, kinks)
            assert _lower_hull_vertices(x, y).tolist() == monotone_chain_scalars(x, y)


def test_hull_chain_pops_exactly_collinear_points():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(3, 2000))
        # integer points on sorted integer slopes with repeats: convex runs
        # broken by exactly collinear triples, whose cross is exactly 0
        x = np.cumsum(rng.integers(1, 4, n)).astype(float)
        slope = np.sort(rng.integers(-3, 4, n - 1))
        y = np.concatenate(([0.0], np.cumsum(slope * np.diff(x))))
        verts = _lower_hull_vertices(x, y).tolist()
        assert verts == monotone_chain_scalars(x, y)
        # the hull keeps exactly the points where the slope changes
        assert verts == [0, *(np.flatnonzero(np.diff(slope)) + 1).tolist(), n - 1]


def test_hull_chain_matches_scalar_chain_with_nan_entries():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n = int(rng.integers(3, 400))
        x, y = _kinked_table(rng, n, rng.integers(1, n - 1, size=2).tolist())
        for arr in (x, y) if rng.random() < 0.3 else (y,):
            arr[rng.integers(0, n, size=int(rng.integers(1, 4)))] = np.nan
        assert _lower_hull_vertices(x, y).tolist() == monotone_chain_scalars(x, y)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_hull_chain_matches_scalar_chain_on_tiny_tables(n):
    heights = (0.0, 1.0, -1.0, np.nan)
    for ys in itertools.product(heights, repeat=n):
        x, y = np.arange(n, dtype=float), np.array(ys, dtype=float)
        assert _lower_hull_vertices(x, y).tolist() == monotone_chain_scalars(x, y)


def test_size_hull_matches_scalar_chain_on_random_symmetric_values():
    rng = np.random.default_rng(14)
    for _ in range(200):
        n = int(rng.integers(1, 1500))
        # mostly falling increments (concave runs), zeros for plateaus
        inc = np.sort(rng.random(n))[::-1] * (rng.random(n) < 0.9)
        if rng.random() < 0.5:
            inc = rng.integers(0, 3, n).astype(float)
        g = np.concatenate(([0.0], np.cumsum(inc)))
        hull_xs, hull_ys = concave_hull_sizes(SymmetricValue(tuple(g)))
        xs = np.arange(n + 1, dtype=float)
        verts = monotone_chain_scalars(xs, -g)
        assert hull_xs.tolist() == xs[verts].tolist()
        assert hull_ys.tolist() == g[verts].tolist()


def _assert_hull_is_chain(x, y):
    assert _lower_hull_vertices(x, y).tolist() == monotone_chain_scalars(x, y)


@pytest.fixture
def merges(monkeypatch):
    """Counts the runs the hull chain merges by a bridge search, and those of
    them whose chain path did not hold (which then take the scalar steps)."""
    counts = {"runs": 0, "fallbacks": 0}
    merge = distributions._merge_run

    def counted(*args):
        top = merge(*args)
        counts["runs"] += 1
        counts["fallbacks"] += top is None
        return top

    monkeypatch.setattr(distributions, "_merge_run", counted)
    return counts


def test_convex_table_is_its_own_hull(merges):
    q = np.linspace(0.0, 1.0, DEFAULT_GRID)
    verts = _lower_hull_vertices(q, cost_curve(TruncatedExponential(2.0, 0.1, 1.3)))
    assert verts.dtype == np.intp
    assert verts.tolist() == list(range(DEFAULT_GRID))
    assert merges["runs"] == 0


@pytest.mark.parametrize("size", [200, 2000])
def test_hull_chain_matches_scalar_chain_on_empirical_priors(size):
    rng = np.random.default_rng(size)
    q = np.linspace(0.0, 1.0, DEFAULT_GRID)
    for _ in range(3):
        _assert_hull_is_chain(q, cost_curve(empirical_from_sample(rng.gamma(2.0, 1.0, size))))


def _many_kink_pwcdf(rng):
    """A CDF with 5 to 40 breakpoints, about one piece in six flat."""
    k = int(rng.integers(5, 40))
    costs = np.cumsum(rng.uniform(0.01, 1.0, k + 1))
    steps = rng.exponential(1.0, k) * (rng.random(k) < 0.85)
    steps[rng.integers(k)] += 1.0
    F = np.concatenate(([0.0], np.cumsum(steps)))
    return PiecewiseLinearCDF(tuple(zip(costs.tolist(), (F / F[-1]).tolist())))


@pytest.mark.parametrize("grid", [101, 1001, DEFAULT_GRID])
def test_hull_chain_matches_scalar_chain_on_many_kink_priors(grid, merges):
    rng = np.random.default_rng(grid)
    q = np.linspace(0.0, 1.0, grid)
    for _ in range(40 if grid < DEFAULT_GRID else 8):
        _assert_hull_is_chain(q, cost_curve(_many_kink_pwcdf(rng), grid))
    if grid == DEFAULT_GRID:
        assert merges["runs"] > 0


def test_hull_bridge_pops_back_across_two_runs(merges):
    # three convex runs of 400 points; the third falls so far below the
    # second that its bridge leaves from inside the first
    x = np.arange(1200, dtype=float)
    slope = np.concatenate([np.linspace(0.0, 1.0, 400), np.linspace(0.5, 1.5, 400),
                            np.linspace(-3.0, 4.0, 399)])
    y = np.concatenate(([0.0], np.cumsum(slope)))
    verts = _lower_hull_vertices(x, y).tolist()
    assert verts == monotone_chain_scalars(x, y)
    assert 100 < max(v for v in verts if v < 800) < 400
    assert merges == {"runs": 2, "fallbacks": 0}


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_hull_chain_matches_scalar_chain_around_the_short_run_length(offset, merges):
    length = distributions._SHORT_RUN + offset
    rng = np.random.default_rng(18)
    for _ in range(5):
        # slopes rise within each run and drop at both kinks, so the runs
        # hold 300, `length` and 300 points, and later runs bridge back
        pieces = [np.sort(rng.uniform(0.0, 1.0, 300)),
                  np.sort(rng.uniform(-1.0, 0.5, length)),
                  np.sort(rng.uniform(-2.0, 2.0, 300))]
        x = np.arange(sum(map(len, pieces)) + 1, dtype=float)
        y = np.concatenate(([0.0], np.cumsum(np.concatenate(pieces))))
        _assert_hull_is_chain(x, y)
    assert merges == {"runs": 5 * (2 if offset >= 0 else 1), "fallbacks": 0}


@pytest.mark.parametrize("axis", ["x", "y"])
def test_hull_chain_matches_scalar_chain_with_nan_inside_long_runs(axis, merges):
    rng = np.random.default_rng(19)
    for _ in range(30):
        x, y = _kinked_table(rng, 2000, sorted(rng.choice(np.arange(600, 1400), 2,
                                                          replace=False).tolist()))
        (x if axis == "x" else y)[rng.integers(300, 1700)] = np.nan
        _assert_hull_is_chain(x, y)
    assert merges["runs"] > 30


def test_hull_merge_falls_back_where_a_test_sits_within_rounding(merges, monkeypatch):
    # points on a line, rounded: every cross is within rounding of 0, so a
    # bridge search that skipped the chain's tests would keep other vertices;
    # runs of 3 points and windows of 2 make every run merge
    monkeypatch.setattr(distributions, "_SHORT_RUN", 3)
    monkeypatch.setattr(distributions, "_WINDOW", 2)
    rng = np.random.default_rng(21)
    for _ in range(400):
        n = int(rng.integers(5, 200))
        x = np.sort(rng.random(n)) if rng.random() < 0.5 else np.arange(n) * 0.1
        _assert_hull_is_chain(x, float(rng.choice([0.1, 0.3, 0.7])) * x + 0.3)
    assert merges["fallbacks"] > 0
    assert merges["runs"] > 10 * merges["fallbacks"]


def _near_tangent_table(rng):
    """Points on a rounded line, then a convex run that bends back down to
    touch the line: its bridge runs within rounding of the line's points."""
    n1, n2 = int(rng.integers(20, 300)), int(rng.integers(80, 600))
    x = np.sort(rng.random(n1 + n2)) if rng.random() < 0.5 else np.linspace(0, 1, n1 + n2)
    a = rng.choice([0.1, 0.3, 1 / 3, 0.7, 1.1, np.pi])
    y = a * x + 0.2
    xt = x[n1 + int(rng.integers(0, n2 // 2))]
    c = 10.0 ** rng.uniform(-11, -4)
    y[n1:] += c * (x[n1:] - xt) ** 2 + (c * 0.01 if rng.random() < 0.5 else 0)
    y[n1] += float(rng.uniform(0, 1e-3))
    return x, y


def test_hull_merge_checks_the_chain_path_on_a_near_tangent_bridge(merges, monkeypatch):
    rng = np.random.default_rng(1)
    for _ in range(23):
        x, y = _near_tangent_table(rng)
    chain = monotone_chain_scalars(x, y)
    assert _lower_hull_vertices(x, y).tolist() == chain
    assert merges["fallbacks"] == 1
    # the bridge search alone keeps other vertices on this table
    monkeypatch.setattr(distributions, "_chain_path_holds", lambda *args: True)
    assert _lower_hull_vertices(x, y).tolist() != chain


def _tabulated_curve(d):
    return ironed_curve(d).quantiles, cost_curve(d)


def _interval_at_grid_index_1():
    # concave from the left end, so the hull leaves the curve at index 1
    q = np.linspace(0.0, 1.0, 11)
    return q, np.sqrt(q) * (q < 0.55) + q * q * (q >= 0.55)


IRONED_CURVES = pytest.mark.parametrize(
    "make_curve", [*(functools.partial(_tabulated_curve, d) for d in IRREGULAR),
                   _interval_at_grid_index_1],
    ids=[*(f"prior{k}" for k in range(len(IRREGULAR))), "index1"])


@IRONED_CURVES
def test_iron_intervals_match_scan(make_curve):
    q, P = make_curve()
    ic = iron(q, P)
    below = ic.hull < P - CONTACT_TOL * max(1.0, float(P[-1]))
    assert ic.intervals == ironed_intervals_scan(q, below)
    assert all(type(a) is float and type(b) is float for a, b in ic.intervals)


@IRONED_CURVES
def test_interval_containing_matches_scan(make_curve):
    ic = iron(*make_curve())
    ends = np.array([x for interval in ic.intervals for x in interval])
    qs = {0.0, 1.0, *ends.tolist(), *np.nextafter(ends, 0.0).tolist(),
          *np.nextafter(ends, 1.0).tolist(), *np.linspace(0.0, 1.0, 97).tolist()}
    for q in sorted(qs) * 2:  # the second pass reads the starts the first one kept
        assert ic.interval_containing(q) == next(
            ((a, b) for a, b in ic.intervals if a < q < b), None), q


def test_iron_interval_can_start_at_grid_index_1():
    ic = iron(*_interval_at_grid_index_1())
    assert ic.intervals[0][0] == 0.0


@pytest.mark.parametrize("make", [
    lambda: TruncatedExponential(math.nan, 0.0, 1.0),
    lambda: TruncatedExponential(math.inf, 0.0, 1.0),
    lambda: TruncatedExponential(1.0, math.nan, 1.0),
    lambda: TruncatedExponential(1.0, -math.inf, 1.0),
    lambda: PiecewiseLinearCDF(((0.0, 0.0), (math.nan, 0.5), (1.0, 1.0))),
    lambda: PiecewiseLinearCDF(((0.0, 0.0), (0.5, math.nan), (1.0, 1.0))),
    lambda: PiecewiseLinearCDF(((0.0, 0.0), (0.5, 0.5), (math.inf, 1.0))),
    lambda: empirical_from_sample([0.1, math.nan, 0.5]),
    lambda: empirical_from_sample([0.1, math.inf, 0.5]),
    lambda: SymmetricValue((0.0, math.nan, 2.0)),
    lambda: SymmetricValue((0.0, 1.0, math.inf)),
], ids=["texp-nan-rate", "texp-inf-rate", "texp-nan-lo", "texp-inf-lo",
        "pwcdf-nan-cost", "pwcdf-nan-F", "pwcdf-inf-cost", "empirical-nan",
        "empirical-inf", "symmetric-nan", "symmetric-inf"])
def test_constructors_reject_non_finite_numbers(make):
    with pytest.raises(ValueError, match="finite"):
        make()


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearCDF(((0.0, 0.1), (1.0, 1.0)))  # F(lo) != 0
    with pytest.raises(ValueError):
        PiecewiseLinearCDF(((0.0, 0.0), (0.5, 0.7), (0.5, 0.9), (1.0, 1.0)))
    with pytest.raises(ValueError):
        PiecewiseLinearCDF(((0.0, 0.0), (0.5, 0.9), (1.0, 0.8)))


@pytest.mark.parametrize("make, message", [
    (lambda: Uniform(1.0, 1.0), "uniform support must be finite with lo < hi"),
    (lambda: Uniform(-0.5, 1.0), "costs must be nonnegative"),
    (lambda: PiecewiseLinearCDF(((0.0, 0.0),)), "need at least two breakpoints"),
    (lambda: PiecewiseLinearCDF(((-0.5, 0.0), (1.0, 1.0))), "costs must be nonnegative"),
    (lambda: empirical_from_sample([0.5, 0.5]), "need at least two distinct sample values"),
    (lambda: empirical_from_sample([-0.5, 0.5]), "costs must be nonnegative"),
    (lambda: two_price_lottery(ironed_curve(Uniform(0, 1), 11), Uniform(0, 1), 1.5),
     "quantile must lie in [0, 1]"),
], ids=["uniform-support", "uniform-negative", "pwcdf-one-point", "pwcdf-negative",
        "empirical-one-value", "empirical-negative", "lottery-quantile"])
def test_bad_input_raises_its_own_message(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()
