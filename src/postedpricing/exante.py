"""Solvers for the ex ante relaxation: optimal acceptance probabilities under
an expected-spend budget.

Three routes, by value-function shape:
  * additive   -- Lagrangian relaxation of the budget constraint: the
                  multiplier is the smallest float whose spend fits the
                  budget, found exactly by a search over float bit patterns
                  that evaluates 63 multipliers a round (see
                  _search_multiplier), then one split of what is left
                  among the agents tied at it makes what the menu pays
                  bind the budget;
  * symmetric  -- a single shared quantile found by inverting the shared
                  (ironed) cost curve at spend B/n;
  * submodular -- a reduction to cardinality-constrained greedy over equal
                  spend increments of each agent's cost curve.

solver_kind picks the route for an instance and solve_ex_ante runs it; every
caller that solves by shape goes through that pair.  An entry point (a
parsed config, mechanism_menu) resolves 'auto' once and passes the concrete
kind down, which solve_ex_ante checks fits.  Greedy asks the value function
for its step gains (ValueFunction._gains, unchecked, since greedy builds its
marginals itself): exact for additive, symmetric and coverage values; a
black-box oracle samples them, `samples` draws per greedy step shared by
every candidate of the step.  All three
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


_ROUND = 63               # multipliers one search round evaluates at once
_LAM_FLOOR = 2.0 ** -200  # the multiplier reported when every one fits


def _search_multiplier(hulls, values, budget: float):
    """The smallest float multiplier lam >= _LAM_FLOOR whose agent-order
    spend is at most the budget, each agent's segment count at it (the hull
    segments whose marginal cost is at most v_i / lam; none for agents of
    zero value), each agent's hull spend there (a fresh array, not a view of
    the search's last table), and the number of spend evaluations.

    Nonnegative floats sort as their int64 bit patterns, and spend only
    falls as lam grows.  So the search keeps lo, the largest pattern known
    to overspend, and hi, the smallest known to fit; each round evaluates
    _ROUND evenly spaced patterns of the open bracket (or every one left)
    and keeps the pair that brackets the budget, until the two are adjacent
    floats: at most 11 rounds.  The first pattern tried is _LAM_FLOOR, so
    where every lam > 0 fits (agents of zero value hold spend back) it ends
    there.  An agent whose counts at lo and hi agree adds one hull value to
    every column; the spend is summed in agent order, row by row.
    """
    bits = np.array([_LAM_FLOOR, np.inf]).view(np.int64).tolist()
    lo, hi = bits[0] - 1, bits[1]
    # an agent's count lies between none and all of its segments (every hull
    # of one grid has as many; none at zero value) until probes at lo and hi
    # narrow it; s_hi holds the hull value at c_hi, and every hull starts at 0
    c_lo = np.where(values > 0.0, len(hulls[0].slopes), 0)
    c_hi = np.zeros_like(c_lo)
    s_hi = np.zeros(len(hulls))
    evals = 0
    while hi - lo > 1:
        left = hi - lo - 1
        k = min(left, _ROUND)
        pats = [lo + 1 + j * left // k for j in range(k)]
        lams = np.array(pats, dtype=np.int64).view(float)
        counts = np.repeat(c_hi[:, None], k, axis=1)
        table = np.repeat(s_hi[:, None], k, axis=1)
        for i in np.flatnonzero(c_lo != c_hi).tolist():
            h = hulls[i]
            counts[i] = c = h.slopes.searchsorted(values[i] / lams, side="right")
            table[i] = h.hull.take(c)
        spend = np.add.accumulate(table, axis=0)[-1]
        evals += k
        over = int(np.count_nonzero(spend > budget))
        if over:
            lo, c_lo = pats[over - 1], counts[:, over - 1]
        if over < k:
            hi, c_hi, s_hi = pats[over], counts[:, over], table[:, over]
    if hi == bits[1]:
        raise RuntimeError("could not bracket the budget multiplier")
    return float(np.int64(hi).view(float)), c_hi, s_hi.copy(), evals


def solve_additive(dists, values, budget: float,
                   grid_size: int = DEFAULT_GRID) -> ExAnteSolution:
    """Spend-optimal quantiles for per-agent values under an expected budget.

    On the ironed hulls the Lagrangian relaxation takes, per agent, every
    hull segment whose marginal cost is at most v_i / lam.  The multiplier
    lam is the smallest float at which that spend, summed in agent order,
    fits the budget; _search_multiplier finds it exactly by narrowing a
    bracket of float bit patterns, 63 at a time.  The pivotal agents, whose
    next slope-to-value ratio is within 1e-12 of the least, then split what
    is left in one pass at one level of spend: an agent whose cap (where its
    ratio leaves that tie) is at or below the level lands on the cap's grid
    point, and every other one advances the level along its hull segment.
    On irregular inputs a pivotal quantile inside an ironed interval is
    realized by a two-price lottery; one left inside a grid cell elsewhere
    moves along it to where its one price pays the chord spend it was given
    (_curve_quantile).  solver_meta records lam and the work done: spend
    evaluations and pivotal agents.
    """
    values = np.asarray(values, dtype=float)
    if not budget > 0:
        raise ValueError("budget must be positive")
    if not np.all(values >= 0):
        raise ValueError("agent values must be nonnegative")
    n = len(dists)
    if len(values) != n:
        raise ValueError("one value per distribution required")
    hulls = [ironed_curve(d, grid_size) for d in dists]
    grid = hulls[0].quantiles
    nseg = len(grid) - 1

    full_spend = sum(h.total_spend for h in hulls)
    if full_spend <= budget + _BIND_TOL * max(1.0, budget):
        q = np.ones(n)
        return _solution("additive", hulls, dists, q, np.dot(values, q),
                         {"lambda": 0.0, "budget": budget, "spend_evals": 0,
                          "pivotal_agents": 0})

    lam, seg, spend_i, evals = _search_multiplier(hulls, values, budget)
    q = grid[seg]
    scale = max(1.0, budget)
    left = budget - spend_i.sum()
    # the pivotal agents tie at the least next slope-to-value ratio (each is
    # > 0: the multiplier takes every zero-slope segment of a valued agent),
    # and each may spend up to where its ratio leaves the tie, at least to
    # the end of its current segment, which tie * v_i can round below
    active = ([i for i in range(n) if seg[i] < nseg and values[i] > 0]
              if left > _BIND_TOL * scale else [])
    ratios = np.array([hulls[i].slopes[seg[i]] / values[i] for i in active])
    r_star = ratios.min(initial=np.inf)
    tie = r_star + 1e-12 * (1.0 + r_star)
    group = [i for i, r in zip(active, ratios) if r <= tie]
    ends = [max(int(hulls[i].slopes.searchsorted(tie * values[i], side="right")), seg[i] + 1)
            for i in group]
    caps = np.array([hulls[i].hull[e] - spend_i[i] for i, e in zip(group, ends)])
    # one level of spend splits what is left: at level srt[j] the members
    # spend below[j] + srt[j]·(m - j), so the k caps at levels that fit are
    # spent whole and the other m - k members share the rest equally
    m = len(group)
    srt = np.sort(caps)
    below = np.concatenate(([0.0], np.cumsum(srt)))
    k = int((below[:-1] + srt * np.arange(m, 0, -1)).searchsorted(left, side="right"))
    level = (left - below[k]) / (m - k) if k < m else np.inf
    for i, e, cap in zip(group, ends, caps.tolist()):
        h, s = hulls[i], seg[i]
        if cap <= level:
            q[i] = grid[e]
            continue
        q[i] += level / h.slopes[s]
        if grid[s] < q[i] < grid[s + 1] and h.interval_containing(q[i]) is None:
            q[i] = _curve_quantile(dists[i], *grid[s:s + 2], spend_i[i] + level,
                                   _CURVE_TOL * scale)
    return _solution("additive", hulls, dists, q, np.dot(values, q),
                     {"lambda": lam, "budget": budget, "spend_evals": evals,
                      "pivotal_agents": m})


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

    Each of the m steps scores every agent's next increment with one call of
    the value function's gains (exact, except for a black-box oracle, which
    takes `samples` draws per step, shared by every candidate, and records
    them in solver_meta['samples']) and adds the largest, breaking ties by
    lowest agent index.  Within one agent, increments are taken in order
    since they shrink along the convex hull.

    The loop calls vf._gains, not the checked vf.marginal_gains, so it checks
    nothing per step: q starts at zeros and each step sets one entry to
    min(q + delta, 1) with delta >= 0, so q stays n marginals in [0, 1].
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

    # each agent's increments as floats, with a zero past the last one to
    # end its run; dq holds every agent's next increment
    steps = [row + [0.0] for row in increments.tolist()]
    dq = increments[:, 0].copy()
    q = np.zeros(n)
    next_j = [0] * n
    selection = []
    for _ in range(m):
        gains = vf._gains(q, dq, samples, marg_rng)
        best = int(np.argmax(gains))
        if gains[best] <= 0.0:
            break
        j = next_j[best]
        q[best] = min(q[best] + steps[best][j], 1.0)
        next_j[best] = j + 1
        dq[best] = steps[best][j + 1]
        selection.append((best, j))

    objective = vf.multilinear(q, samples=samples, seed=np.random.default_rng(obj_ss))[0]
    meta = {"m": m, "noisy": noisy, "selection_order": tuple(selection), "budget": budget}
    if type(vf)._gains is ValueFunction._gains:
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
