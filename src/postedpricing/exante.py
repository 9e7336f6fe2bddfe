"""Solvers for the ex ante relaxation: optimal acceptance probabilities under
an expected-spend budget.

Three routes, by value-function shape:
  * additive   -- Lagrangian relaxation of the budget constraint: the
                  multiplier is the smallest float whose spend fits the
                  budget, found exactly in a few vectorised rounds (see
                  solve_additive), then a water-filling top-up makes what
                  the menu pays bind the budget;
  * symmetric  -- a single shared quantile found by inverting the shared
                  (ironed) cost curve at spend B/n;
  * submodular -- a reduction to cardinality-constrained greedy over equal
                  spend increments of each agent's cost curve.

solver_kind picks the route for an instance and solve_ex_ante runs it; every
caller that solves by shape goes through that pair.  An entry point (a
parsed config, mechanism_menu) resolves 'auto' once and passes the concrete
kind down, which solve_ex_ante checks fits.  Greedy asks the value function
for its step gains (ValueFunction.marginal_gains): exact for additive,
symmetric and coverage values; a black-box oracle samples them, `samples`
draws per greedy step shared by every candidate of the step.  All three
solvers return through one constructor that stacks each agent's
two_price_lottery row into one PriceLotteries table, sums what those
lotteries pay in agent order and names the solver in solver_meta['solver'].
Solvers are pure functions of their inputs and seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (DEFAULT_GRID, PriceLotteries, ironed_curve,
                            two_price_lottery)
from .values import (AdditiveValue, SymmetricValue, ValueFunction,
                     concave_hull_sizes)

_BIND_TOL = 1e-11
_CURVE_TOL = 1e-13  # an off-grid agent's curve spend against its chord spend
_ROUND_STEPS = np.linspace(0.0, 1.0, 65)  # one _curve_quantile round's points


@dataclass(frozen=True, eq=False)
class ExAnteSolution:
    """Optimal acceptance probabilities, their price offers and what those pay."""

    quantiles: np.ndarray
    lotteries: PriceLotteries  # one row per agent
    expected_spend: float
    objective: float
    solver_meta: dict


def _solution(solver, hulls, dists, quantiles, objective, meta) -> ExAnteSolution:
    """The solution at these quantiles: the realizing lotteries, the spend
    they pay summed in agent order, the quantiles frozen, and the solver's
    name in solver_meta['solver']."""
    rows = [two_price_lottery(h, d, q) for h, d, q in zip(hulls, dists, quantiles.tolist())]
    lotteries = PriceLotteries(*np.array(rows, dtype=float).reshape(-1, 5).T)
    spend = float(sum(lotteries.expected_spend.tolist()))
    quantiles.flags.writeable = False
    return ExAnteSolution(quantiles=quantiles, lotteries=lotteries,
                          expected_spend=spend, objective=float(objective),
                          solver_meta={"solver": solver, **meta})


def _curve_quantile(dist, lo, hi, target: float, tol: float) -> float:
    """The quantile in [lo, hi] where q * F^{-1}(q) spends target: each round
    of 65 points narrows the bracket and interpolates in it, until from the
    second round on the curve there is within tol (ten shrink a cell to ulps)."""
    for r in range(10):
        sub = lo + (hi - lo) * _ROUND_STEPS
        spend = sub * dist.inverse_cdf(sub)
        k = min(max(int(spend.searchsorted(target)), 1), 64)
        lo, hi = sub[k - 1:k + 1]
        q = float(np.interp(target, spend[k - 1:k + 1], sub[k - 1:k + 1]))
        if r and abs(q * dist.inverse_cdf(q) - target) <= tol:
            break
    return q


def _counts_and_spend(hulls, values, lams, c_lo, c_hi):
    """Per agent, the number of hull segments whose marginal cost is at most
    v_i / lam at each multiplier of `lams` (none for agents of zero value),
    as an (n, len(lams)) array, and the expected spend at each multiplier
    summed in agent order, one agent's row at a time.  Every multiplier lies
    where agent i's count is known to lie in c_hi[i] .. c_lo[i]; an agent
    whose two bounds agree adds the same hull value to every column."""
    counts = np.empty((len(hulls), len(lams)), dtype=np.intp)
    spend = np.zeros(len(lams))
    ratios = np.divide.outer(values, lams)
    for i, (h, a, b) in enumerate(zip(hulls, c_hi.tolist(), c_lo.tolist())):
        if a == b:
            counts[i] = a
            spend += h.hull[a]
        else:
            counts[i] = c = h.slopes.searchsorted(ratios[i], side="right")
            spend += h.hull.take(c)
    return counts, spend


def _inclusion_bounds(hulls, values, c_lo, c_hi, lo, hi):
    """The segments that flip between multipliers lo and hi (agent i's
    c_hi[i] .. c_lo[i] - 1): for each, the largest float lam in [lo, hi)
    that takes it in, fl(v_i / lam) >= slope.  v / slope lands within an ulp
    or two of that bound, and `nextafter` steps settle it exactly."""
    movers = np.flatnonzero(c_lo > c_hi)
    v = np.repeat(values[movers], (c_lo - c_hi)[movers])
    s = np.concatenate([hulls[i].slopes[c_hi[i]:c_lo[i]] for i in movers])
    lam = np.clip(v / s, lo, np.nextafter(hi, 0.0))
    while True:
        out = v / lam < s
        if not out.any():
            break
        lam[out] = np.nextafter(lam[out], 0.0)
    while True:
        up = np.nextafter(lam, np.inf)
        step = (up < hi) & (v / up >= s)
        if not step.any():
            return lam
        lam[step] = up[step]


_NARROW_POINTS = 63       # multipliers one round evaluates at once
_MERGE_CAP = 1_024        # flipping segments few enough to bound one by one
_LAM_FLOOR = 2.0 ** -200  # the multiplier reported when every one fits


def _search_multiplier(hulls, values, budget: float):
    """The smallest float multiplier lam whose agent-order spend is at most
    the budget, each agent's segment count at it, and the search's work as
    (spend evaluations, merged segments).

    Spend only falls as lam grows, and it changes only where a segment
    flips.  A bracket lo < lam <= hi grows through lam = 1, 4, 16, ...; a
    narrowing round evaluates the spend at _NARROW_POINTS evenly spaced
    multipliers inside it at once and keeps the pair that brackets the
    budget.  Once at most _MERGE_CAP segments flip between lo and hi, their
    exact inclusion bounds are the candidates: spend is constant between
    consecutive ones, so lam is the float just above the largest candidate
    that overspends.  Rounds of _NARROW_POINTS candidates narrow them down
    until one round takes all that are left.  Where every lam > 0 fits
    (agents of zero value hold spend back), lam is _LAM_FLOOR, 2^-200,
    where halving from lam = 1 two hundred times ends.
    """
    # the counts as lam -> 0+ and at lam = inf bound the counts everywhere
    c_lo = np.array([len(h.slopes) if v > 0.0 else 0
                     for h, v in zip(hulls, values.tolist())], dtype=np.intp)
    c_hi = np.zeros_like(c_lo)
    lo, hi = 0.0, 1.0   # lo stays 0 until some multiplier overspends
    evals = merged = 0
    for _ in range(400):
        counts, spend = _counts_and_spend(hulls, values, np.array([hi]), c_lo, c_hi)
        evals += 1
        if spend[0] <= budget:
            c_hi = counts[:, 0]
            break
        lo, c_lo = hi, counts[:, 0]
        hi *= 4.0
    else:
        raise RuntimeError("could not bracket the budget multiplier")
    cands, final = None, False
    while True:
        if lo == 0.0:
            # the first round also tries the floor
            lams = np.linspace(0.0, hi, _NARROW_POINTS + 2)[1:-1]
            lams = np.concatenate(([_LAM_FLOOR], lams))
        elif np.nextafter(lo, np.inf) == hi:
            return hi, c_hi, evals, merged
        else:
            if cands is None and int((c_lo - c_hi).sum()) <= _MERGE_CAP:
                bounds = _inclusion_bounds(hulls, values, c_lo, c_hi, lo, hi)
                merged, cands = len(bounds), np.unique(bounds)
            if cands is None:
                lams = np.linspace(lo, hi, _NARROW_POINTS + 2)[1:-1]
                lams = np.unique(np.clip(lams, np.nextafter(lo, np.inf),
                                         np.nextafter(hi, 0.0)))
            else:
                cands = cands[(cands >= lo) & (cands < hi)]
                final = len(cands) <= _NARROW_POINTS
                picks = np.arange(1, _NARROW_POINTS + 1) * len(cands) // (_NARROW_POINTS + 1)
                lams = cands if final else cands[picks]
        counts, spend = _counts_and_spend(hulls, values, lams, c_lo, c_hi)
        evals += len(lams)
        k = int(np.count_nonzero(spend > budget))
        if k:
            lo, c_lo = float(lams[k - 1]), counts[:, k - 1]
        if k < len(lams):
            hi, c_hi = float(lams[k]), counts[:, k]
        if lo == 0.0:
            return _LAM_FLOOR, c_hi, evals, merged
        if final:
            return float(np.nextafter(lo, np.inf)), c_hi, evals, merged


def solve_additive(dists, values, budget: float,
                   grid_size: int = DEFAULT_GRID) -> ExAnteSolution:
    """Spend-optimal quantiles for per-agent values under an expected budget.

    On the ironed hulls the Lagrangian relaxation takes, per agent, every
    hull segment whose marginal cost is at most v_i / lam.  The multiplier
    lam is the smallest float at which that spend, summed in agent order,
    fits the budget; _search_multiplier finds it exactly with a bracket, a
    few vectorised narrowing rounds and a merge of the segments left near
    the threshold.  The marginal agents then advance along their current
    hull segments (splitting ties at equal spend rates) until the budget
    binds.  On irregular inputs the marginal quantile lands inside an ironed
    interval and is realized by a two-price lottery; a marginal agent left
    inside a grid cell elsewhere moves along it to where its one price pays
    the chord spend it was given (_curve_quantile).  solver_meta records
    lam and the work done: spend evaluations, merged segments and water-fill
    steps.
    """
    values = np.asarray(values, dtype=float)
    if not budget > 0:
        raise ValueError("budget must be positive")
    if not np.all(values >= 0):
        raise ValueError("agent values must be nonnegative")
    hulls = [ironed_curve(d, grid_size) for d in dists]
    n = len(hulls)
    if len(values) != n:
        raise ValueError("one value per distribution required")
    grid = hulls[0].quantiles
    nseg = len(grid) - 1

    full_spend = sum(h.total_spend for h in hulls)
    if full_spend <= budget + _BIND_TOL * max(1.0, budget):
        q = np.ones(n)
        return _solution("additive", hulls, dists, q, np.dot(values, q),
                         {"lambda": 0.0, "budget": budget, "spend_evals": 0,
                          "merged_segments": 0, "waterfill_steps": 0})

    lam, seg, evals, merged = _search_multiplier(hulls, values, budget)
    pos = grid[seg]
    spend_i = np.array([h.hull[c] for h, c in zip(hulls, seg)])

    # water-fill the pivotal agents until the budget binds
    scale = max(1.0, budget)
    for fill_steps in range(200_000):
        remaining = budget - spend_i.sum()
        if remaining <= _BIND_TOL * scale:
            break
        active = [i for i in range(n) if seg[i] < nseg and values[i] > 0]
        if not active:
            break
        # the multiplier takes every zero-slope segment of a valued agent, and
        # a step only moves onto a larger slope, so every slope here is > 0
        ratios = np.array([hulls[i].slopes[seg[i]] / values[i] for i in active])
        r_star = ratios.min()
        group = [i for i, r in zip(active, ratios) if r <= r_star + 1e-12 * (1.0 + r_star)]
        # each pivotal agent's run of equal slopes ends where a larger one starts
        ends = {i: int(hulls[i].slopes.searchsorted(hulls[i].slopes[seg[i]], side="right"))
                for i in group}
        caps = np.array([hulls[i].hull[ends[i]] - spend_i[i] for i in group])
        share = remaining / len(group)
        step = min(share, caps.min())
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
    return _solution("additive", hulls, dists, q, np.dot(values, q),
                     {"lambda": lam, "budget": budget, "spend_evals": evals,
                      "merged_segments": merged, "waterfill_steps": fill_steps})


def solve_symmetric(dist, g, budget: float, grid_size: int = DEFAULT_GRID) -> ExAnteSolution:
    """Common quantile for identical agents with a size-based value function.

    The budget binds at the largest shared quantile with n * hull(q) <= B;
    the objective is the size hull evaluated at the expected set size n * q.
    """
    vf = g if isinstance(g, SymmetricValue) else SymmetricValue(tuple(g))
    if not budget >= 0:  # NaN fails too
        raise ValueError("budget must be nonnegative")
    n = vf.n
    h = ironed_curve(dist, grid_size)
    q = h.inverse_spend(budget / n)
    objective = np.interp(n * q, *concave_hull_sizes(vf))
    return _solution("symmetric", [h] * n, [dist] * n, np.full(n, q), objective,
                     {"q": float(q), "budget": budget})


def discretize(dists, budget: float, m: int, noisy: bool = False, seed=None,
               grid_size: int = DEFAULT_GRID) -> np.ndarray:
    """Split each agent's ironed curve into m quantile increments of spend B/m.

    Returns the read-only (n, m) array whose [i, j] entry is agent i's j-th
    quantile increase, found by inverting the piecewise-linear hull at the
    cumulative spend targets j * B/m (capped at the full spend, so the
    increment that saturates the curve may cost less and the ones after it
    are zero).  Noisy mode shrinks each increment by an independent factor
    in [1 - 1/n^3, 1].
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not budget >= 0:  # NaN fails too
        raise ValueError("budget must be nonnegative")
    n = len(dists)
    rng = np.random.default_rng(seed)
    targets = np.arange(1, m + 1) * (budget / m)
    deltas = np.zeros((n, m))
    for i, d in enumerate(dists):
        h = ironed_curve(d, grid_size)
        cum = h.inverse_spend(np.minimum(targets, h.total_spend))
        deltas[i] = np.maximum(np.diff(cum, prepend=0.0), 0.0)
    if noisy:
        deltas *= 1.0 - rng.random((n, m)) / n ** 3
    deltas.flags.writeable = False
    return deltas


def greedy_submodular(dists, vf: ValueFunction, budget: float, m: int | None = None,
                      samples: int = 10_000, seed=None, noisy: bool = False,
                      grid_size: int = DEFAULT_GRID) -> ExAnteSolution:
    """Greedy over equal-spend quantile increments for submodular objectives.

    Each of the m steps scores every agent's next increment with one
    vf.marginal_gains call (exact, except for a black-box oracle, which takes
    `samples` draws per step, shared by every candidate, and records them in
    solver_meta['samples']) and adds the largest, breaking ties by lowest
    agent index.  Within one agent,
    increments are taken in order since they shrink along the convex hull.
    """
    n = len(dists)
    if vf.n != n:
        raise ValueError("value function and distribution count disagree")
    if not budget >= 0:  # NaN fails too
        raise ValueError("budget must be nonnegative")
    if m is None:
        m = n * n
    if m < n:
        raise ValueError("need at least one increment per agent (m >= n)")

    ss = np.random.SeedSequence(seed)
    noise_ss, marg_ss, obj_ss = ss.spawn(3)
    increments = discretize(dists, budget, m, noisy=noisy,
                            seed=np.random.default_rng(noise_ss), grid_size=grid_size)
    hulls = [ironed_curve(d, grid_size) for d in dists]
    marg_rng = np.random.default_rng(marg_ss)

    # a zero column past the last increment ends an agent's run
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
    if type(vf).marginal_gains is ValueFunction.marginal_gains:
        meta["samples"] = samples  # only the base route samples its gains
    return _solution("greedy", hulls, dists, q, objective, meta)


SOLVER_KINDS = ("auto", "additive", "symmetric", "greedy")


def solver_kind(dists, vf: ValueFunction, kind: str = "auto") -> str:
    """The ex ante solver for an instance: 'additive', 'symmetric' or 'greedy'.

    'auto' picks by value-function shape: the Lagrangian solve for additive
    values, the common-quantile solve for symmetric values over one shared
    prior, and greedy otherwise.  An explicit kind that does not fit the
    instance raises ValueError; greedy fits every instance.
    """
    additive = isinstance(vf, AdditiveValue)
    symmetric = isinstance(vf, SymmetricValue) and len(set(dists)) == 1
    if kind == "auto":
        return "additive" if additive else "symmetric" if symmetric else "greedy"
    if kind not in SOLVER_KINDS:
        raise ValueError(f"unknown solver kind {kind!r}; expected one of "
                         + ", ".join(SOLVER_KINDS))
    if kind == "additive" and not additive:
        raise ValueError("additive solver needs an additive value function")
    if kind == "symmetric" and not symmetric:
        raise ValueError("symmetric solver needs a symmetric value function "
                         "and one common distribution")
    return kind


def solve_ex_ante(dists, vf: ValueFunction, budget: float, kind: str = "auto",
                  grid_size: int = DEFAULT_GRID, **greedy_opts) -> ExAnteSolution:
    """Solve with the solver solver_kind picks (named in solver_meta['solver']).

    greedy_opts (m, samples, seed, noisy, ...) reach greedy_submodular only.
    """
    kind = solver_kind(dists, vf, kind)
    if kind == "additive":
        return solve_additive(dists, vf.as_array(), budget, grid_size=grid_size)
    if kind == "symmetric":
        return solve_symmetric(dists[0], vf, budget, grid_size=grid_size)
    return greedy_submodular(dists, vf, budget, grid_size=grid_size, **greedy_opts)
