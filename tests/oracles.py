"""Independent brute-force oracles used to verify the library.

Everything here is deliberately implemented by a different route than the
library code it checks (enumeration, chord minimization, exact rational
binomials), so agreement is evidence rather than tautology.  Where a faster
route must give bit-identical results, the slower one it replaced is kept
here as the reference.  `irregular_priors` builds a market the ironing and
solver tests share.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np


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
    from postedpricing import ironed_curve

    curves = [ironed_curve(d, grid_n) for d in dists]
    q = curves[0].quantiles
    spends = [c.curve for c in curves]
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
    """The budgeted walk as it was before it returned only what it offered:
    (selected, offered, spent) for one row of n agents or a (trials, n)
    batch, with a 1-D call giving n-vectors and a float spend."""
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


def mechanism_expectation(lotteries, quantilemask, vf, order, budget):
    """Exact expected value of the walk over lottery branches and acceptance
    patterns; quantilemask marks agents that are offered at all."""
    n = len(lotteries)
    rand_idx = [i for i in range(n) if quantilemask[i] and lotteries[i].prob_lo < 1.0]
    total = 0.0
    for branch in product((0, 1), repeat=len(rand_idx)):
        pb = 1.0
        prices = []
        accept_prob = []
        for i in range(n):
            lot = lotteries[i]
            if not quantilemask[i]:
                prices.append(float("nan"))
                accept_prob.append(0.0)
                continue
            if i in rand_idx:
                hi = branch[rand_idx.index(i)]
                pb *= (1.0 - lot.prob_lo) if hi else lot.prob_lo
                prices.append(lot.price_hi if hi else lot.price_lo)
                accept_prob.append(lot.q_hi if hi else lot.q_lo)
            else:
                prices.append(lot.price_lo)
                accept_prob.append(lot.q_lo)
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


def finite_difference_virtual_cost(dist, c, h=1e-6):
    """c + F(c)/f(c) with the density from a centered difference of the CDF."""
    f = (dist.cdf(c + h) - dist.cdf(c - h)) / (2.0 * h)
    return c + dist.cdf(c) / f


def irregular_priors(seed, n):
    """n distinct priors whose cost curves need ironing: even agents truncated
    exponential, odd agents a CDF with 3 kinks and a nearly flat middle piece
    (exactly flat for every other one)."""
    from postedpricing import PiecewiseLinearCDF, TruncatedExponential

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
