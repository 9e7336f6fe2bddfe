"""Solvers for the ex ante relaxation: optimal acceptance probabilities under
an expected-spend budget.

Three routes, by value-function shape:
  * additive   -- Lagrangian relaxation of the budget constraint with a
                  binary search on the multiplier, plus a water-filling
                  top-up so the budget binds exactly;
  * symmetric  -- a single shared quantile found by inverting the shared
                  (ironed) cost curve at spend B/n;
  * submodular -- a reduction to cardinality-constrained greedy over equal
                  spend increments of each agent's cost curve.

solver_kind picks the route for an instance and solve_ex_ante runs it; every
caller that solves by shape goes through that pair.  An entry point (a
parsed config, mechanism_menu) resolves 'auto' once and passes the concrete
kind down, which solve_ex_ante checks fits.  Greedy asks the value function
for its step gains (ValueFunction.marginal_gains), so whether they are exact
or sampled is the value function's choice; sampled gains take `samples`
draws per greedy step, shared by every candidate of the step.  All three
solvers return through one constructor that sums the hull spend in agent
order, builds the lotteries and names the solver in solver_meta['solver'].
Solvers are pure functions of their inputs and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DEFAULT_GRID, ironed_curve, two_price_lottery
from .values import (AdditiveValue, SymmetricValue, ValueFunction,
                     concave_hull_sizes)

_BIND_TOL = 1e-11


@dataclass(frozen=True, eq=False)
class ExAnteSolution:
    """Optimal acceptance probabilities with their realizing price offers."""

    quantiles: np.ndarray
    lotteries: tuple          # one PriceLottery per agent
    expected_spend: float
    objective: float
    solver_meta: dict


def _hulls(dists, grid_size):
    return [ironed_curve(d, grid_size) for d in dists]


def _solution(solver, hulls, dists, quantiles, objective, meta) -> ExAnteSolution:
    """The solution at these quantiles: hull spend summed in agent order, the
    realizing lotteries, the quantiles frozen, and the solver's name in
    solver_meta['solver']."""
    spend = float(sum(h.hull_at(q) for h, q in zip(hulls, quantiles)))
    lotteries = tuple(two_price_lottery(h, d, float(q))
                      for h, d, q in zip(hulls, dists, quantiles))
    quantiles.flags.writeable = False
    return ExAnteSolution(quantiles=quantiles, lotteries=lotteries,
                          expected_spend=spend, objective=float(objective),
                          solver_meta={"solver": solver, **meta})


def _lagrangian_segments(hulls, values, lam: float):
    """Per agent, the number of hull segments whose marginal cost is at most
    v_i / lam (none for agents of zero value), and the expected spend at
    those quantiles summed in agent order."""
    counts = []
    spend = 0.0
    for h, v in zip(hulls, values):
        count = 0 if v <= 0.0 else int(h.slopes.searchsorted(v / lam, side="right"))
        counts.append(count)
        spend += float(h.hull[count])
    return counts, spend


def solve_additive(dists, values, budget: float,
                   grid_size: int = DEFAULT_GRID) -> ExAnteSolution:
    """Spend-optimal quantiles for per-agent values under an expected budget.

    Binary searches the Lagrangian multiplier until the expected spend
    brackets the budget, then advances the marginal agents along their
    current hull segments (splitting ties at equal spend rates) until the
    budget binds.  On irregular inputs the marginal quantile lands inside an
    ironed interval and is realized by a two-price lottery.
    """
    values = np.asarray(values, dtype=float)
    if not budget > 0:
        raise ValueError("budget must be positive")
    if not np.all(values >= 0):
        raise ValueError("agent values must be nonnegative")
    hulls = _hulls(dists, grid_size)
    n = len(hulls)
    if len(values) != n:
        raise ValueError("one value per distribution required")
    grid = hulls[0].quantiles
    nseg = len(grid) - 1

    full_spend = sum(h.total_spend for h in hulls)
    if full_spend <= budget + _BIND_TOL * max(1.0, budget):
        q = np.ones(n)
        return _solution("additive", hulls, dists, q, np.dot(values, q),
                         {"lambda": 0.0, "budget": budget})

    # grow an upper bracket, then bisect: spend is nonincreasing in lambda
    lam_hi = 1.0
    for _ in range(400):
        if _lagrangian_segments(hulls, values, lam_hi)[1] <= budget:
            break
        lam_hi *= 4.0
    else:
        raise RuntimeError("could not bracket the budget multiplier")
    lam_lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lam_lo + lam_hi)
        if mid in (lam_lo, lam_hi):
            break
        if _lagrangian_segments(hulls, values, mid)[1] > budget:
            lam_lo = mid
        else:
            lam_hi = mid

    seg = np.array(_lagrangian_segments(hulls, values, lam_hi)[0])
    pos = grid[seg]
    spend_i = np.array([h.hull[c] for h, c in zip(hulls, seg)])

    # water-fill the pivotal agents until the budget binds
    scale = max(1.0, budget)
    for _ in range(200_000):
        remaining = budget - spend_i.sum()
        if remaining <= _BIND_TOL * scale:
            break
        active = [i for i in range(n) if seg[i] < nseg and values[i] > 0]
        if not active:
            break
        ratios = np.array([hulls[i].slopes[seg[i]] / values[i] for i in active])
        r_star = ratios.min()
        group = [i for i, r in zip(active, ratios) if r <= r_star + 1e-12 * (1.0 + r_star)]
        # each pivotal agent's run of equal slopes ends where a larger one starts
        ends = {i: int(hulls[i].slopes.searchsorted(hulls[i].slopes[seg[i]], side="right"))
                for i in group}
        advanced_free = False
        for i in list(group):
            if hulls[i].slopes[seg[i]] == 0.0:
                seg[i] = ends[i]
                pos[i] = grid[ends[i]]
                advanced_free = True
                group.remove(i)
        if advanced_free and not group:
            continue
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
    return _solution("additive", hulls, dists, q, np.dot(values, q),
                     {"lambda": float(lam_hi), "budget": budget})


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
    objective = concave_hull_sizes(vf)(n * q)
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
                      appendix_schedule: bool = False,
                      grid_size: int = DEFAULT_GRID) -> ExAnteSolution:
    """Greedy over equal-spend quantile increments for submodular objectives.

    Each of the m steps scores every agent's next increment with one
    vf.marginal_gains call (the value function decides whether its gains are
    exact or sampled; sampled gains take `samples` draws per step, shared by
    every candidate) and adds the largest, breaking ties by lowest agent
    index.  Within one agent, increments are taken in order since they shrink
    along the convex hull.
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
    if appendix_schedule:
        # worst-case sample schedule with accuracy parameter 1/n
        samples = int(math.ceil(10.0 * n ** 4 * (1.0 + math.log(max(n, 2)))))

    ss = np.random.SeedSequence(seed)
    noise_ss, marg_ss, obj_ss = ss.spawn(3)
    increments = discretize(dists, budget, m, noisy=noisy,
                            seed=np.random.default_rng(noise_ss), grid_size=grid_size)
    hulls = _hulls(dists, grid_size)
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
    meta = {"m": m, "samples": samples, "noisy": noisy,
            "selection_order": tuple(selection), "budget": budget}
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
