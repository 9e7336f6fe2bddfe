"""Independent brute-force oracles used to verify the library.

Everything here is deliberately implemented by a different route than the
library code it checks (enumeration, chord minimization, exact rational
binomials), so agreement is evidence rather than tautology.  Where a faster
route must give bit-identical results, the slower one it replaced is kept
here as the reference.  `irregular_priors` builds a market the ironing and
solver tests share.
"""

import ast
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from postedpricing.config import ConfigError, _unread_keys
from postedpricing.distributions import (DEFAULT_GRID, PiecewiseLinearCDF,
                                         TruncatedExponential, Uniform, ironed_curve)
from postedpricing.mechanism import MECHANISM_ORDERS
from postedpricing.values import (AdditiveValue, CoverageValue, SymmetricValue,
                                  ValueFunction)


def brute_multilinear(vf, q):
    """Exact expectation over all 2^n subsets under independent inclusion."""
    n = vf.n
    q = np.asarray(q, dtype=float)
    total = 0.0
    for mask in range(1 << n):
        p = 1.0
        members = []
        for i in range(n):
            if mask >> i & 1:
                p *= q[i]
                members.append(i)
            else:
                p *= 1.0 - q[i]
        if p:
            total += p * vf.evaluate(members)
    return total


def chord_hull_lower(x, y):
    """Lower convex hull values by minimizing over all chords (O(G^2))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    out = np.array(y, dtype=float)
    for i in range(n):
        for j in range(i + 1, n):
            mid = slice(i, j + 1)
            t = (x[mid] - x[i]) / (x[j] - x[i])
            chord = y[i] + t * (y[j] - y[i])
            np.minimum(out[mid], chord, out=out[mid])
    return out


def chord_hull_upper(x, y):
    return -chord_hull_lower(x, -np.asarray(y, dtype=float))


def grid_oracle_additive(dists, values, budget, grid_n=200):
    """Maximize sum v_i q_i over a coarse quantile grid s.t. sum q F^{-1}(q) <= B."""
    q = ironed_curve(dists[0], grid_n).quantiles
    spends = [cost_curve(d, grid_n) for d in dists]
    values = np.asarray(values, dtype=float)
    n = len(dists)
    if n == 1:
        afford = spends[0] <= budget
        return float(np.max(values[0] * q[afford]))
    if n == 2:
        best = 0.0
        for i in range(grid_n):
            rem = budget - spends[0][i]
            if rem < 0:
                break
            j = np.searchsorted(spends[1], rem, side="right") - 1
            best = max(best, values[0] * q[i] + values[1] * q[j])
        return float(best)
    if n == 3:
        best = 0.0
        for i in range(grid_n):
            rem_i = budget - spends[0][i]
            if rem_i < 0:
                break
            rem = rem_i - spends[1]
            ok = rem >= 0
            if not ok.any():
                continue
            j3 = np.searchsorted(spends[2], rem[ok], side="right") - 1
            vals = values[0] * q[i] + values[1] * q[ok] + values[2] * q[j3]
            best = max(best, float(vals.max()))
        return float(best)
    raise ValueError("oracle supports up to three agents")


def lp_vertex_fractional(values, prices, budget, subset):
    """Fractional knapsack optimum by enumerating LP vertices: integral
    subsets plus at most one fractional pivot."""
    values = np.asarray(values, dtype=float)
    prices = np.asarray(prices, dtype=float)
    items = sorted(subset)
    best = 0.0
    for mask in range(1 << len(items)):
        chosen = [items[t] for t in range(len(items)) if mask >> t & 1]
        spend = prices[chosen].sum() if chosen else 0.0
        if spend > budget + 1e-12:
            continue
        base = values[chosen].sum() if chosen else 0.0
        best = max(best, float(base))
        rem = budget - spend
        for piv in items:
            if piv in chosen or rem <= 0:
                continue
            frac = min(1.0, rem / prices[piv])
            best = max(best, float(base + frac * values[piv]))
    return best


def binom_pmf_exact(n, p, k):
    """Exact Binomial(n, p) pmf via rationals where p is a simple float."""
    pf = Fraction(p).limit_denominator(10 ** 12)
    return float(math.comb(n, k) * pf ** k * (1 - pf) ** (n - k))


def binom_tail_gt(n, p, threshold):
    """Pr[Binomial(n, p) > threshold], exact."""
    kmin = math.floor(threshold) + 1
    return sum(binom_pmf_exact(n, p, k) for k in range(kmin, n + 1))


def reference_walk(prices, accepts, order, budget):
    """Independent re-implementation of the sequential budgeted walk."""
    selected = []
    spent = 0.0
    for i in order:
        p = prices[i]
        if p is None or p != p:
            continue
        if spent + p > budget:
            continue
        if accepts[i]:
            selected.append(i)
            spent = spent + p
    return selected, spent


def select_within_budget_masks(prices, accepts, order, budget):
    """The budgeted walk as it was before it returned only what it offered,
    and while batches were trial-major: (selected, offered, spent) for one
    row of n agents or a (trials, n) batch, with a 1-D call giving n-vectors
    and a float spend.  Its offered and spent are the trial-major walk's."""
    prices = np.asarray(prices, dtype=float)
    single = prices.ndim == 1
    prices = np.atleast_2d(prices)
    accepts = np.atleast_2d(np.asarray(accepts, dtype=bool))
    order = np.asarray(order, dtype=np.intp)
    at = (slice(None), order) if order.ndim == 1 \
        else (np.arange(len(prices))[:, None], order)
    pos_prices = np.ascontiguousarray(prices[at].T)
    pos_accepts = np.ascontiguousarray(accepts[at].T)
    spent = np.zeros(len(prices))
    pos_offered = np.empty(pos_prices.shape, dtype=bool)
    pos_selected = np.empty(pos_prices.shape, dtype=bool)
    for p, acc, off, sel in zip(pos_prices, pos_accepts, pos_offered, pos_selected):
        new_spent = spent + p
        np.less_equal(new_spent, budget, out=off)
        np.logical_and(off, acc, out=sel)
        spent = np.where(sel, new_spent, spent)
    selected = np.zeros(prices.shape, dtype=bool)
    offered = np.zeros(prices.shape, dtype=bool)
    selected[at] = pos_selected.T
    offered[at] = pos_offered.T
    if single:
        return selected[0], offered[0], float(spent[0])
    return selected, offered, spent


def select_within_budget_where(prices, accepts, order, budget: float):
    """mechanism.select_within_budget as it was before it read a shared
    order's rows in place and kept its spends without np.where: it gathers
    every order position's row (a flat gather for per-trial orders) and
    keeps each trial's spend with np.where, which branches on every trial.

    prices (NaN marks agents that are never offered) and accepts are
    (n, trials) batches, one row per agent.  order is one sequence of agent
    indices shared by every trial, or an (n, trials) array with one order per
    column.  Returns (offered, spent): the (n, trials) mask of agents offered
    their price and each trial's spend.  A trial hires offered & accepts.

    Skipped (over-budget) agents are discarded permanently.  The walk steps
    through the order positions, vectorised across trials; each trial adds
    its own prices in its own order and keeps a sum only when it stays at
    most the budget, so the bound is exact in floats.
    """
    prices = np.asarray(prices, dtype=float)
    accepts = np.asarray(accepts, dtype=bool)
    order = np.asarray(order, dtype=np.intp)
    trials = prices.shape[1]
    offered = np.zeros(prices.shape, dtype=bool)
    out = offered
    if order.ndim == 2:
        # one order per trial: index the flattened batches, which numpy
        # gathers and scatters faster than through a pair of index arrays
        order = order * trials + np.arange(trials)
        prices, accepts, out = prices.ravel(), accepts.ravel(), offered.ravel()
    # row j of the gathered batches holds every trial's j-th agent in its order
    pos_prices, pos_accepts = prices[order], accepts[order]
    spent = np.zeros(trials)
    pos_offered = np.empty(pos_prices.shape, dtype=bool)
    for p, acc, off in zip(pos_prices, pos_accepts, pos_offered):
        new_spent = spent + p
        np.less_equal(new_spent, budget, out=off)  # False for NaN: never offered
        spent = np.where(off & acc, new_spent, spent)
    out[order] = pos_offered
    return offered, spent


def realize_prices_trial_major(menu, rng, trials):
    """mechanism.realize_prices as it was while batches were trial-major: a
    (trials, n) batch, one column per agent, from the same draws."""
    lots = menu.lotteries
    degenerate = lots.degenerate
    prices = np.full((trials, menu.n), np.nan)
    for i, q in enumerate(menu.quantiles):
        if q <= 0:
            continue
        if degenerate[i]:
            prices[:, i] = lots.price_lo[i]
        else:
            u = rng.random(trials)
            prices[:, i] = np.where(u < lots.prob_lo[i], lots.price_lo[i], lots.price_hi[i])
    return prices


def bang_per_buck_order_trial_major(values, prices):
    """mechanism.bang_per_buck_order on one row of n prices or a trial-major
    (trials, n) batch, one order per row."""
    values = np.asarray(values, dtype=float)
    prices = np.asarray(prices, dtype=float)
    active = ~np.isnan(prices)
    if (active & (prices <= 0)).any():
        raise ValueError("zero price offered to an agent")
    ratio = np.divide(-values, prices, out=np.zeros(prices.shape), where=active)
    return np.lexsort((ratio, ~active))


def policy_orders_trial_major(policy, menu, vf, prices, rng=None, sampled=()):
    """mechanism.policy_orders on a trial-major (trials, n) batch: each order
    is 1-D or (trials, n), one order per row.  Walk them with
    select_within_budget_masks, which is the trial-major walk."""
    additive = isinstance(vf, AdditiveValue)
    trials, n = prices.shape
    if policy == "fixed":
        return [np.arange(n)]
    if policy == "uniform-random":
        return [np.argsort(rng.random((trials, n)), axis=1, kind="stable")]
    shared = not menu.has_lotteries
    if shared:
        prices = prices[:1]
    if policy == "bang-per-buck":
        orders = [bang_per_buck_order_trial_major(vf.as_array(), prices)]
    else:
        filled = np.where(np.isnan(prices), 0.0, prices)
        key = filled
        if additive:
            key = np.divide(vf.as_array(), filled, out=np.full(filled.shape, np.inf),
                            where=filled > 0)
        orders = [np.argsort(-filled, axis=1, kind="stable"),
                  np.argsort(key, axis=1, kind="stable")]
    return list(sampled) + [o[0] if shared else o for o in orders]


def overflow_probability_full_matrix(menu, budget, k, trials, seed=None):
    """simulate.overflow_probability as it was when it realized every
    agent's prices into one (trials, n) matrix."""
    from postedpricing import OverflowEstimate
    from postedpricing.mechanism import overflow_ceiling

    rng = np.random.default_rng(seed)
    threshold = (1.0 - 1.0 / k) * budget
    prices = realize_prices_trial_major(menu, rng, trials)
    lots = menu.lotteries
    degenerate = lots.degenerate
    total = np.zeros(trials)
    for i, q in enumerate(menu.quantiles):
        if q <= 0:
            continue
        price = prices[:, i]
        acc_q = q if degenerate[i] else np.where(price == lots.price_lo[i],
                                                 lots.q_lo[i], lots.q_hi[i])
        total += price * (rng.random(trials) < acc_q)
    hits = total > threshold
    p_hat = float(hits.mean())
    stderr = float(math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials))
    ceiling = None if menu.epsilon is None else float(overflow_ceiling(k, menu.epsilon))
    return OverflowEstimate(p_hat=p_hat, stderr=stderr, ceiling=ceiling)


def mechanism_expectation(lotteries, quantilemask, vf, order, budget):
    """Exact expected value of the walk over lottery branches and acceptance
    patterns for the rows of a PriceLotteries; quantilemask marks agents
    that are offered at all."""
    n = len(lotteries)
    price_lo, price_hi, prob_lo, q_lo, q_hi = (getattr(lotteries, c).tolist()
                                               for c in LOTTERY_COLUMNS)
    rand_idx = [i for i in range(n) if quantilemask[i] and prob_lo[i] < 1.0]
    total = 0.0
    for branch in product((0, 1), repeat=len(rand_idx)):
        pb = 1.0
        prices = []
        accept_prob = []
        for i in range(n):
            if not quantilemask[i]:
                prices.append(float("nan"))
                accept_prob.append(0.0)
                continue
            if i in rand_idx:
                hi = branch[rand_idx.index(i)]
                pb *= (1.0 - prob_lo[i]) if hi else prob_lo[i]
                prices.append(price_hi[i] if hi else price_lo[i])
                accept_prob.append(q_hi[i] if hi else q_lo[i])
            else:
                prices.append(price_lo[i])
                accept_prob.append(q_lo[i])
        for mask in range(1 << n):
            pa = pb
            accepts = [False] * n
            for i in range(n):
                if mask >> i & 1:
                    if accept_prob[i] == 0.0:
                        pa = 0.0
                        break
                    accepts[i] = True
                    pa *= accept_prob[i]
                else:
                    pa *= 1.0 - accept_prob[i]
            if pa == 0.0:
                continue
            selected, _ = reference_walk(prices, accepts, order, budget)
            total += pa * vf.evaluate(selected)
    return total


def simulate_runs_all_orders(menu, instance, order_policy=None, trials=100_000, seed=None,
                             n_orders=20):
    """simulate.simulate_runs as it was before later orders skipped settled
    trials: every order policy_orders gives walks every trial of a batch, and
    each trial keeps its lowest value (the first on ties) and that order's
    spend."""
    from postedpricing.mechanism import policy_orders, realize_prices, select_within_budget
    from postedpricing.simulate import TRIAL_CHUNK

    order_policy = order_policy or menu.ordering_policy
    cost_rng, lot_rng, order_rng = (np.random.default_rng(c)
                                    for c in np.random.SeedSequence(seed).spawn(3))
    vf = instance.value
    sampled = [order_rng.permutation(instance.n) for _ in range(n_orders)] \
        if order_policy == "worst-of-sampled" else ()
    values_out = np.empty(trials)
    spends_out = np.empty(trials)
    for done in range(0, trials, TRIAL_CHUNK):
        t = min(TRIAL_CHUNK, trials - done)
        costs = np.stack([d.sample(cost_rng, t) for d in instance.dists])
        prices = realize_prices(menu, lot_rng, t)
        accepts = costs <= prices
        v = np.full(t, np.inf)
        s = np.zeros(t)
        for order in policy_orders(order_policy, menu, vf, prices, order_rng, sampled):
            offered, spent = select_within_budget(prices, accepts, order, instance.budget)
            cv = vf._evaluate_hires(offered & accepts)
            better = cv < v
            v[better] = cv[better]
            s[better] = spent[better]
        values_out[done:done + t] = v
        spends_out[done:done + t] = s
    return values_out, spends_out


def _worst_over_orders(menu, instance, trials, seed, orders):
    """Each trial's lowest value over the given orders, on the costs and
    realized prices simulate_runs draws for (trials <= one batch, seed):
    every order walked position by position, an agent hired where it
    accepts and its price fits what is left of the budget."""
    from postedpricing.mechanism import realize_prices

    cost_rng, lot_rng, _ = (np.random.default_rng(c)
                            for c in np.random.SeedSequence(seed).spawn(3))
    costs = np.stack([d.sample(cost_rng, trials) for d in instance.dists])
    prices = realize_prices(menu, lot_rng, trials)
    accepts = costs <= prices
    worst = np.full(trials, np.inf)
    for order in orders:
        spent = np.zeros(trials)
        hired = np.zeros((instance.n, trials), dtype=bool)
        for i in order:
            total = spent + prices[i]
            hired[i] = take = accepts[i] & (total <= instance.budget)
            spent = np.where(take, total, spent)
        worst = np.minimum(worst, instance.value._evaluate_hires(hired))
    return worst


def exact_worst_order_values(menu, instance, trials, seed=None):
    """Each trial's lowest value over all n! orders (see _worst_over_orders)."""
    return _worst_over_orders(menu, instance, trials, seed, permutations(range(instance.n)))


def subset_first_worst_order_values(menu, instance, trials, seed=None):
    """exact_worst_order_values over 2**n orders instead of n!: for each subset
    S, the order that offers S first and then everyone else, both in index
    order.  Where an order hires H, offering H first hires all of H (its
    partial sums are at most its total, which fits) and then no one else
    (every other accepter was too dear for a part of H already), so the
    lowest value is the same as over all n! orders, up to rounding in the
    spend sums."""
    n = instance.n
    orders = ([i for i in range(n) if mask >> i & 1] + [i for i in range(n) if not mask >> i & 1]
              for mask in range(1 << n))
    return _worst_over_orders(menu, instance, trials, seed, orders)


def finite_difference_virtual_cost(dist, c, h=1e-6):
    """c + F(c)/f(c) with the density from a centered difference of the CDF."""
    f = (dist.cdf(c + h) - dist.cdf(c - h)) / (2.0 * h)
    return c + dist.cdf(c) / f


def irregular_priors(seed, n):
    """n distinct priors whose cost curves need ironing: even agents truncated
    exponential, odd agents a CDF with 3 kinks and a nearly flat middle piece
    (exactly flat for every other one)."""
    rng = np.random.default_rng(seed)
    priors = []
    for i in range(n):
        lo = float(rng.uniform(0.0, 0.2))
        hi = lo + float(rng.uniform(0.8, 1.6))
        if i % 2 == 0:
            priors.append(TruncatedExponential(float(rng.uniform(0.5, 3.0)), lo, hi))
            continue
        c1, c2, c3 = (float(c) for c in lo + (hi - lo) * np.sort(rng.uniform(0.1, 0.9, 3)))
        f1 = float(rng.uniform(0.35, 0.55))
        f2 = f1 if i % 4 == 1 else f1 + float(rng.uniform(0.02, 0.08))
        f3 = f2 + float(rng.uniform(0.15, 0.3))
        priors.append(PiecewiseLinearCDF(((lo, 0.0), (c1, f1), (c2, f2), (c3, f3), (hi, 1.0))))
    return priors


def monotone_chain_scalars(x, y):
    """Lower convex hull vertex indices of points sorted by x: the monotone
    chain run over numpy float64 scalars, one array index at a time."""
    hull = []
    for i in range(len(x)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            cross = (x[i1] - x[i0]) * (y[i] - y[i0]) - (y[i1] - y[i0]) * (x[i] - x[i0])
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def ironed_intervals_scan(q, below):
    """Maximal runs of `below` as (q[start - 1], q[end + 1]) pairs, found by
    walking the grid one point at a time."""
    intervals = []
    i = 0
    n = len(q)
    while i < n:
        if below[i]:
            j = i
            while j + 1 < n and below[j + 1]:
                j += 1
            intervals.append((float(q[i - 1]), float(q[j + 1])))
            i = j + 1
        i += 1
    return tuple(intervals)


def iron_scan(q, P):
    """distributions.iron as it was before convex tables skipped work: the
    running max over every table's slopes, and the ironed-interval scan over
    every table, the convex ones too."""
    from postedpricing.distributions import CONTACT_TOL, IronedCurve, _lower_hull_vertices

    verts = _lower_hull_vertices(q, P)
    if len(verts) == len(q):
        hull = P.copy()
    else:
        hull = np.minimum(np.interp(q, q[verts], P[verts]), P)
    slopes = np.maximum.accumulate(np.diff(hull) / np.diff(q))
    below = hull < P - CONTACT_TOL * max(1.0, float(P[-1]))
    step = np.diff(below.astype(np.int8))
    opens = q[np.flatnonzero(step == 1)].tolist()
    closes = q[np.flatnonzero(step == -1) + 1].tolist()
    return IronedCurve(quantiles=q, hull=hull, slopes=slopes,
                       intervals=tuple(zip(opens, closes)))


def cost_curve(dist, grid_size=DEFAULT_GRID):
    """The cost curve q * F^{-1}(q) at the grid quantiles of
    ironed_curve(dist, grid_size), with spend 0 at q = 0."""
    q = np.linspace(0.0, 1.0, grid_size)
    spend = q * np.asarray(dist.inverse_cdf(q), dtype=float)
    spend[0] = 0.0
    return spend


def lottery_quantile(lot):
    """The acceptance probability a price lottery induces."""
    return lot.prob_lo * lot.q_lo + (1.0 - lot.prob_lo) * lot.q_hi


# ---------------------------------------------------------------------------
# Price lotteries one object per agent: the library's route before it held a
# menu's lotteries as the five columns of one distributions.PriceLotteries
# ---------------------------------------------------------------------------

LOTTERY_COLUMNS = ("price_lo", "price_hi", "prob_lo", "q_lo", "q_hi")


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
    def expected_spend(self) -> float:
        return (self.prob_lo * self.q_lo * self.price_lo
                + (1.0 - self.prob_lo) * self.q_hi * self.price_hi)

    @property
    def max_price(self) -> float:
        return self.price_lo if self.degenerate else max(self.price_lo, self.price_hi)


def degenerate_lottery(dist, q):
    p = float(dist.inverse_cdf(q))
    return PriceLottery(price_lo=p, price_hi=p, prob_lo=1.0, q_lo=q, q_hi=q)


def two_price_lottery(ic, dist, q):
    """distributions.two_price_lottery as one PriceLottery object."""
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


def lottery_columns(lotteries):
    """The five columns, as float64 bytes, of a PriceLotteries or of a
    sequence of PriceLottery objects, and the three derived ones
    (degenerate, expected_spend, max_price): equal tuples are equal bit for
    bit."""
    columns = LOTTERY_COLUMNS + ("degenerate", "expected_spend", "max_price")
    if isinstance(lotteries, (list, tuple)):
        return tuple(np.array([getattr(lot, c) for lot in lotteries]).tobytes()
                     for c in columns)
    return tuple(getattr(lotteries, c).tobytes() for c in columns)


def lottery_objects(lotteries):
    """The rows of a PriceLotteries as a list of PriceLottery objects."""
    return [PriceLottery(*row)
            for row in zip(*(getattr(lotteries, c).tolist() for c in LOTTERY_COLUMNS))]


def menu_of(lotteries, quantiles, **kw):
    """A PriceMenu offering agent i the PriceLottery lotteries[i]."""
    from postedpricing import PriceLotteries, PriceMenu

    cols = [[getattr(lot, c) for lot in lotteries] for c in LOTTERY_COLUMNS]
    return PriceMenu(lotteries=PriceLotteries(*cols),
                     quantiles=np.asarray(quantiles, dtype=float), **kw)


def _slope_at(h, q):
    seg = min(int(np.searchsorted(h.quantiles, q, side="right")) - 1, len(h.slopes) - 1)
    return float(h.slopes[max(seg, 0)])


def reduce_lottery_pairs_per_agent(lots, quantiles, dists, values, grid_size=DEFAULT_GRID):
    """The hull-slope route that mechanism.reduce_lottery_pairs replaced, on a
    list of PriceLottery objects: mass moves at the slopes of each prior's
    hull re-ironed at grid_size, and each moved agent's lottery is rebuilt
    from that hull: (lotteries, quantiles)."""
    from postedpricing import ironed_curve

    values = np.asarray(values, dtype=float)
    hulls = [ironed_curve(d, grid_size) for d in dists]
    q = np.array(quantiles, dtype=float)
    lots = list(lots)
    randomized = [i for i, lot in enumerate(lots) if q[i] > 0 and not lot.degenerate]
    while len(randomized) >= 2:
        rates = sorted((_slope_at(hulls[i], q[i]) / values[i] if values[i] > 0 else math.inf, i)
                       for i in randomized)
        lo_i, hi_i = rates[0][1], rates[-1][1]
        b_lo, a_hi, b_hi = lots[lo_i].q_hi, lots[hi_i].q_lo, lots[hi_i].q_hi
        s_lo, s_hi = _slope_at(hulls[lo_i], q[lo_i]), _slope_at(hulls[hi_i], q[hi_i])
        if s_hi <= 0.0:
            q[hi_i] = b_hi
        else:
            room_up = b_lo - q[lo_i]
            room_dn = (q[hi_i] - a_hi) * s_hi / s_lo if s_lo > 0 else math.inf
            dq = min(room_up, room_dn)
            q[lo_i] += dq
            q[hi_i] -= dq * s_lo / s_hi
            if abs(q[lo_i] - b_lo) < 1e-12:
                q[lo_i] = b_lo
            if abs(q[hi_i] - a_hi) < 1e-12:
                q[hi_i] = a_hi
        for i in (lo_i, hi_i):
            lots[i] = two_price_lottery(hulls[i], dists[i], float(q[i]))
        randomized = [i for i in randomized if q[i] > 0 and not lots[i].degenerate]
    return lots, q


def reduce_lottery_pairs_chord_per_agent(lots, quantiles, values):
    """mechanism.reduce_lottery_pairs on a list of PriceLottery objects, one
    rebuilt per moved agent from its own chord: (lotteries, quantiles)."""
    values = [float(v) for v in values]
    q = [float(x) for x in quantiles]
    lots = list(lots)
    randomized = [i for i, lot in enumerate(lots) if q[i] > 0 and not lot.degenerate]
    rate = {i: (lots[i].q_hi * lots[i].price_hi - lots[i].q_lo * lots[i].price_lo)
               / (lots[i].q_hi - lots[i].q_lo) for i in randomized}
    while len(randomized) >= 2:
        rates = sorted((rate[i] / values[i] if values[i] > 0 else math.inf, i)
                       for i in randomized)
        lo_i, hi_i = rates[0][1], rates[-1][1]
        up = lots[lo_i].q_hi - q[lo_i]
        dn = (q[hi_i] - lots[hi_i].q_lo) * rate[hi_i] / rate[lo_i]
        if up <= dn:
            q[lo_i] = lots[lo_i].q_hi
            q[hi_i] = max(q[hi_i] - up * rate[lo_i] / rate[hi_i], lots[hi_i].q_lo)
        else:
            q[lo_i] = min(q[lo_i] + dn, lots[lo_i].q_hi)
            q[hi_i] = lots[hi_i].q_lo
        for i in (lo_i, hi_i):
            lot = lots[i]
            if lot.q_lo < q[i] < lot.q_hi:
                lots[i] = PriceLottery(lot.price_lo, lot.price_hi,
                                       (lot.q_hi - q[i]) / (lot.q_hi - lot.q_lo),
                                       lot.q_lo, lot.q_hi)
            else:
                p = lot.price_lo if q[i] == lot.q_lo else lot.price_hi
                lots[i] = PriceLottery(p, p, 1.0, q[i], q[i])
        randomized = [i for i in randomized if lots[i].q_lo < q[i] < lots[i].q_hi]
    return lots, np.array(q)


def derandomize_additive_per_agent(lots, quantiles, values, budget, samples=10_000,
                                   seed=None):
    """mechanism.derandomize_additive on a list of PriceLottery objects:
    (lotteries, quantiles)."""
    from postedpricing.mechanism import _mean_knapsack_value

    values = np.asarray(values, dtype=float)
    lots, q = reduce_lottery_pairs_chord_per_agent(lots, quantiles, values)
    randomized = [i for i, lot in enumerate(lots) if q[i] > 0 and not lot.degenerate]
    if randomized:
        i = randomized[0]
        lot = lots[i]
        rng = np.random.default_rng(seed)
        other_prices = np.array([l.price_lo for l in lots])
        other_q = q.copy()
        best_price, best_q, best_val = lot.price_lo, lot.q_lo, -math.inf
        for price, q_i in ((lot.price_lo, lot.q_lo), (lot.price_hi, lot.q_hi)):
            other_prices[i] = price
            other_q[i] = q_i
            draws = rng.random((samples, len(lots))) < other_q
            mean = _mean_knapsack_value(values, other_prices, budget, draws)
            if mean > best_val:
                best_price, best_val, best_q = price, mean, q_i
        q[i] = best_q
        lots[i] = PriceLottery(best_price, best_price, 1.0, best_q, best_q)
    return lots, q


class SampledCoverageValue(CoverageValue):
    """CoverageValue as it was before its extension and gains were exact:
    both sampled by the base ValueFunction routes, with each sampled row's
    marginal read off the incidence matrix."""

    multilinear = ValueFunction.multilinear
    _gains = ValueFunction._gains

    def _row_marginals(self, rows, i):
        A = self._incidence
        others = rows.copy()
        others[:, i] = False
        covered = (others.astype(float) @ A) > 0
        gain = (~covered) & (A[i] > 0)
        return gain @ np.asarray(self.weights)


def coverage_rows_product(vf, rows):
    """CoverageValue._evaluate_hires on the (trials, n) rows of a mask, as a
    matrix product of the covered mask and the weights, whose sum order
    depends on where a row sits in the batch."""
    covered = (rows.astype(float) @ vf._incidence) > 0
    return covered @ np.asarray(vf.weights)


def sampled_gain_rows(vf, q, dq, samples, seed):
    """The (samples, n) per-row terms whose column means are the sampled
    vf.marginal_gains(q, dq, samples, seed): where row r's draw moves agent
    i from out of the base set to in the raised one, i's row marginal."""
    U = np.random.default_rng(seed).random((samples, vf.n))
    base = U < q
    rows = np.zeros((samples, vf.n))
    for i in np.flatnonzero(dq):
        flips = ~base[:, i] & (U[:, i] < q[i] + dq[i])
        rows[flips, i] = vf._row_marginals(base[flips], i)
    return rows


def marginal_estimate_per_candidate(vf, q, i, dq, samples, rng):
    """Sampled V(q + dq * e_i) - V(q) from a fresh (samples, n) uniform draw of
    its own: the estimator before candidates shared one draw per step."""
    q = np.clip(np.asarray(q, dtype=float), 0.0, 1.0)
    U = rng.random((samples, vf.n))
    base = U < q
    flips = (~base[:, i]) & (U[:, i] < q[i] + dq)
    if not np.any(flips):
        return 0.0
    return float(vf._row_marginals(base[flips], i).sum() / samples)


def marginal_gains_per_candidate(vf, q, dq, samples, rng):
    """One marginal_estimate_per_candidate per raised agent, in index order,
    on one generator; 0 where dq[i] is 0."""
    gains = np.zeros(vf.n)
    for i in np.flatnonzero(dq):
        gains[i] = marginal_estimate_per_candidate(vf, q, i, dq[i], samples, rng)
    return gains


def fractional_knapsack_value(values, prices, budget, subset):
    """Greedy-by-ratio packing of the subset (ratio descending, ties by
    index); the first non-fitting element contributes the fraction of its
    value that fills the remaining capacity."""
    values = np.asarray(values, dtype=float)
    prices = np.asarray(prices, dtype=float)
    total, remaining = 0.0, budget
    for i in sorted(set(subset), key=lambda i: (-values[i] / prices[i], i)):
        if prices[i] <= remaining:
            total += values[i]
            remaining -= prices[i]
        else:
            total += values[i] * remaining / prices[i]
            break
    return float(total)


def integral_knapsack_value(values, prices, budget, subset):
    """Greedy-by-ratio packing of the subset (ratio descending, ties by index)
    that stops at the first element that does not fit: the integral side of
    fractional_knapsack_value."""
    total, remaining = 0.0, budget
    for i in sorted(set(subset), key=lambda i: (-values[i] / prices[i], i)):
        if prices[i] > remaining:
            break
        total += values[i]
        remaining -= prices[i]
    return float(total)


def mean_knapsack_value_rows(values, prices, budget, draws):
    """Mean of fractional_knapsack_value over the subsets in the boolean rows
    of draws, one call per row, the row values summed in row order:
    derandomize_additive's scoring before it packed every row at once."""
    total = 0.0
    for row in draws:
        total += fractional_knapsack_value(values, prices, budget, np.flatnonzero(row))
    return total / len(draws)


def _value_table(v):
    n = v.n
    table = np.empty(1 << n)
    for mask in range(1 << n):
        table[mask] = v.evaluate([i for i in range(n) if mask >> i & 1])
    return table


def check_submodular(v, tol=1e-9):
    """Exhaustively verify monotonicity and diminishing returns (n <= 16)."""
    if v.n > 16:
        raise ValueError("exhaustive check limited to n <= 16")
    n = v.n
    table = _value_table(v)
    masks = np.arange(1 << n)
    for i in range(n):
        without = masks[(masks >> i) & 1 == 0]
        if np.any(table[without | (1 << i)] < table[without] - tol):
            return False
    # pairwise characterization: v(S+i) + v(S+j) >= v(S+i+j) + v(S)
    for i in range(n):
        for j in range(i + 1, n):
            free = masks[((masks >> i) & 1 == 0) & ((masks >> j) & 1 == 0)]
            lhs = table[free | (1 << i)] + table[free | (1 << j)]
            rhs = table[free | (1 << i) | (1 << j)] + table[free]
            if np.any(lhs < rhs - tol):
                return False
    return True


def inverse_spend_scalar(ic, s):
    """Largest quantile whose hull spend does not exceed the float s: the
    scalar IronedCurve.inverse_spend, with its guards for a top segment and
    a flat one."""
    H = ic.hull
    if s >= H[-1]:
        return 1.0
    if s <= H[0]:
        s = H[0]
    j = int(np.searchsorted(H, s, side="right")) - 1
    if j >= len(H) - 1:
        return 1.0
    q0, q1 = ic.quantiles[j], ic.quantiles[j + 1]
    if H[j + 1] == H[j]:
        return float(q1)
    return float(q0 + (s - H[j]) / (H[j + 1] - H[j]) * (q1 - q0))


def discretize_loop(dists, budget, m, noisy=False, seed=None):
    """exante.discretize as a scalar double loop: one inverse_spend_scalar per
    (agent, increment), each increment the difference of two inversions."""
    from postedpricing import ironed_curve

    n = len(dists)
    rng = np.random.default_rng(seed)
    step = budget / m
    exact = np.zeros((n, m))
    for i, d in enumerate(dists):
        h = ironed_curve(d)
        prev = 0.0
        for j in range(m):
            cum = inverse_spend_scalar(h, min((j + 1) * step, h.total_spend))
            exact[i, j] = max(cum - prev, 0.0)
            prev = cum
    if noisy:
        return exact * (1.0 - rng.random((n, m)) / n ** 3)
    return exact


def greedy_submodular_per_step(dists, vf, budget, m=None, samples=10_000, seed=None,
                               noisy=False, grid_size=DEFAULT_GRID):
    """exante.greedy_submodular as it was before it called the unchecked
    gains: each step calls the checked, public vf.marginal_gains on a fresh
    gather of every agent's next increment from an (n, m + 1) table."""
    from postedpricing.exante import _solution, discretize

    n = len(dists)
    if m is None:
        m = n * n
    noise_ss, marg_ss, obj_ss = np.random.SeedSequence(seed).spawn(3)
    increments = discretize(dists, budget, m, noisy=noisy,
                            seed=np.random.default_rng(noise_ss), grid_size=grid_size)
    hulls = [ironed_curve(d, grid_size) for d in dists]
    marg_rng = np.random.default_rng(marg_ss)
    deltas = np.column_stack((increments, np.zeros(n)))
    q = np.zeros(n)
    next_j = np.zeros(n, dtype=int)
    selection = []
    for _ in range(m):
        gains = vf.marginal_gains(q, deltas[np.arange(n), next_j],
                                  samples=samples, seed=marg_rng)
        best = int(np.argmax(gains))
        if gains[best] <= 0.0:
            break
        j = next_j[best]
        q[best] = min(q[best] + float(deltas[best, j]), 1.0)
        next_j[best] += 1
        selection.append((best, int(j)))
    objective = vf.multilinear(q, samples=samples, seed=np.random.default_rng(obj_ss))[0]
    meta = {"m": m, "noisy": noisy, "selection_order": tuple(selection), "budget": budget}
    if type(vf)._gains is ValueFunction._gains:
        meta["samples"] = samples
    return _solution("greedy", hulls, dists, q, objective, meta)


def lagrangian_segments(hulls, values, lam):
    """Per agent, the number of hull segments whose marginal cost is at most
    v_i / lam (none for agents of zero value), and the expected spend at
    those quantiles summed in agent order, one scalar step per agent."""
    counts = []
    spend = 0.0
    for h, v in zip(hulls, values):
        count = 0 if v <= 0.0 else int(h.slopes.searchsorted(v / lam, side="right"))
        counts.append(count)
        spend += float(h.hull[count])
    return counts, spend


def bisect_multiplier(hulls, values, budget):
    """The Lagrangian multiplier of exante.solve_additive found the way it
    was before the vectorised search: grow an upper bracket through
    lam = 1, 4, 16, ..., then bisect from 0 for at most 200 steps, since
    spend is nonincreasing in lam.  Returns lam and the per-agent segment
    counts there."""
    values = np.asarray(values, dtype=float)
    lam_hi = 1.0
    for _ in range(400):
        if lagrangian_segments(hulls, values, lam_hi)[1] <= budget:
            break
        lam_hi *= 4.0
    else:
        raise RuntimeError("could not bracket the budget multiplier")
    lam_lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lam_lo + lam_hi)
        if mid in (lam_lo, lam_hi):
            break
        if lagrangian_segments(hulls, values, mid)[1] > budget:
            lam_lo = mid
        else:
            lam_hi = mid
    return lam_hi, lagrangian_segments(hulls, values, lam_hi)[0]


def solve_additive_stepwise(dists, values, budget, grid_size=DEFAULT_GRID):
    """exante.solve_additive as it was before the one-pass split of its
    pivotal agents: after the multiplier search, a loop of water-fill steps.
    Each step re-scans the agents, re-sums what is left of the budget, takes
    the tie group at the least next slope-to-value ratio, caps each member at
    the end of its run of equal slopes, moves every member by the smaller of
    the equal share and the least cap, and snaps a member within 1e-15·scale
    of its cap onto it.  Returns the solution and the number of steps."""
    from postedpricing.exante import (_BIND_TOL, _CURVE_TOL, _curve_quantile,
                                      _search_multiplier, _solution)

    values = np.asarray(values, dtype=float)
    hulls = [ironed_curve(d, grid_size) for d in dists]
    n = len(hulls)
    grid = hulls[0].quantiles
    nseg = len(grid) - 1
    if sum(h.total_spend for h in hulls) <= budget + _BIND_TOL * max(1.0, budget):
        q = np.ones(n)
        return _solution("additive", hulls, dists, q, np.dot(values, q), {}), 0

    lam, seg, spend_i, evals = _search_multiplier(hulls, values, budget)
    pos = grid[seg]
    scale = max(1.0, budget)
    for fill_steps in range(200_000):
        remaining = budget - spend_i.sum()
        if remaining <= _BIND_TOL * scale:
            break
        active = [i for i in range(n) if seg[i] < nseg and values[i] > 0]
        if not active:
            break
        ratios = np.array([hulls[i].slopes[seg[i]] / values[i] for i in active])
        r_star = ratios.min()
        group = [i for i, r in zip(active, ratios) if r <= r_star + 1e-12 * (1.0 + r_star)]
        ends = {i: int(hulls[i].slopes.searchsorted(hulls[i].slopes[seg[i]], side="right"))
                for i in group}
        caps = np.array([hulls[i].hull[ends[i]] - spend_i[i] for i in group])
        step = min(remaining / len(group), caps.min())
        if step <= 0:
            break
        for i in group:
            h, end = hulls[i], ends[i]
            spend_i[i] += step
            if spend_i[i] >= h.hull[end] - 1e-15 * scale:
                spend_i[i] = float(h.hull[end])
                seg[i] = end
                pos[i] = grid[end]
            else:
                pos[i] += step / h.slopes[seg[i]]
    else:
        raise RuntimeError("budget water-fill failed to converge")

    q = np.clip(pos, 0.0, 1.0)
    j = grid.searchsorted(q, side="right") - 1
    for i in np.flatnonzero(q != grid[j]).tolist():
        if hulls[i].interval_containing(q[i]) is None:
            q[i] = _curve_quantile(dists[i], *grid[j[i]:j[i] + 2], spend_i[i], _CURVE_TOL * scale)
    return (_solution("additive", hulls, dists, q, np.dot(values, q), {"lambda": lam}),
            fill_steps)


def masked_inverse_cdf(dist, q):
    """PiecewiseLinearCDF.inverse_cdf as it was before the array pass: one
    boolean mask for the quantiles that hit a breakpoint F value and one for
    the rest, each written through its own gathers, with no clamp to the
    support."""
    cs, Fs = dist._table
    arr = np.atleast_1d(np.clip(np.asarray(q, dtype=float), 0.0, 1.0))
    idx = np.searchsorted(Fs, arr, side="left")
    idx = np.minimum(idx, len(Fs) - 1)
    out = np.empty_like(arr)
    exact = Fs[idx] == arr
    out[exact] = cs[idx[exact]]
    interp = ~exact
    if np.any(interp):
        j = idx[interp]
        frac = (arr[interp] - Fs[j - 1]) / (Fs[j] - Fs[j - 1])
        out[interp] = cs[j - 1] + frac * (cs[j] - cs[j - 1])
    return out.reshape(np.shape(q))


def interp_hull(q, P):
    """The hull iron() builds, always by re-interpolating the table at its
    hull vertices and guarding the round-off with a minimum."""
    from postedpricing.distributions import _lower_hull_vertices

    verts = _lower_hull_vertices(q, P)
    return np.minimum(np.interp(q, q[verts], P[verts]), P)


def hull_at(ic, q):
    """An ironed curve's hull spend at one quantile, by scalar np.interp."""
    return float(np.interp(q, ic.quantiles, ic.hull))


def interp_spend_sum(hulls, quantiles):
    """The hull spend of a solution: one scalar np.interp per agent, summed
    in agent order as Python floats."""
    return float(sum(hull_at(h, q) for h, q in zip(hulls, quantiles)))


def check_quantiles_clip(q, n):
    """values._check_quantiles with its two np.any range tests and np.clip."""
    q = np.asarray(q, dtype=float)
    if q.shape != (n,):
        raise ValueError(f"expected {n} marginals, got shape {q.shape}")
    if np.any(q < -1e-12) or np.any(q > 1 + 1e-12):
        raise ValueError("marginals must lie in [0, 1]")
    return np.clip(q, 0.0, 1.0)


def literal_eval_numbers(text, pairs=False):
    """config's number-list route before its tokenizer: `ast.literal_eval` of
    the list, then float() of each number, or of each (c, F) pair's two."""
    if pairs:
        return tuple((float(c), float(F)) for c, F in ast.literal_eval(text))
    return tuple(float(v) for v in ast.literal_eval(text))


def serialize_config(cfg) -> str:
    """Round-trippable textual form of a parsed configuration, to 12
    significant digits; coverage values have no text form."""
    def dist_text(d):
        if isinstance(d, Uniform):
            return f"uniform({d.lo:.12g}, {d.hi:.12g})"
        if isinstance(d, TruncatedExponential):
            return f"texp({d.rate:.12g}, {d.lo:.12g}, {d.hi:.12g})"
        if isinstance(d, PiecewiseLinearCDF):
            pts = ", ".join(f"({c:.12g}, {F:.12g})" for c, F in d.points)
            return f"pwcdf([{pts}])"
        raise ConfigError(f"cannot serialize distribution {d!r}")

    terms = []
    i = 0
    ds = cfg.dists
    while i < len(ds):
        j = i
        while j + 1 < len(ds) and ds[j + 1] == ds[i]:
            j += 1
        text = dist_text(ds[i])
        terms.append(text if j == i else f"{j - i + 1} * {text}")
        i = j + 1

    if isinstance(cfg.value, AdditiveValue):
        vals = ", ".join(f"{v:.12g}" for v in cfg.value.values)
        value_text = f"additive([{vals}])"
    elif isinstance(cfg.value, SymmetricValue):
        g = ", ".join(f"{x:.12g}" for x in cfg.value.g)
        value_text = f"symmetric([{g}])"
    else:
        raise ConfigError("cannot serialize coverage values (file-backed)")

    eps = "auto" if cfg.epsilon is None else f"{cfg.epsilon:.12g}"
    sections = {
        "instance": (("distributions", "; ".join(terms)), ("value", value_text),
                     ("budget", f"{cfg.budget:.12g}")),
        "solver": (("kind", cfg.solver_kind), ("grid", cfg.grid), ("m", cfg.m),
                   ("noisy", str(cfg.noisy).lower())),
        "mechanism": (("kind", cfg.mechanism_kind),
                      ("order", MECHANISM_ORDERS[cfg.mechanism_kind]),
                      ("epsilon", eps), ("n_orders", cfg.n_orders)),
        "harness": (("trials", cfg.trials), ("seed", cfg.seed), ("out", cfg.out)),
    }
    unread = _unread_keys(cfg)  # written back, they would be rejected
    blocks = []
    for section, items in sections.items():
        lines = [f"[{section}]"] + [f"{key} = {text}" for key, text in items
                                    if text is not None and (section, key) not in unread]
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)
