"""Ex post posted-pricing execution and menu construction.

A menu offers every agent a (possibly degenerate) price lottery; agents are
processed in some order, each offered her realized price while it fits the
remaining budget, and paid that price on acceptance.  The realized spend can
never exceed the budget.  A menu names the order it runs in.
mechanism_variant is the one decision of what a mechanism kind runs under a
resolved solver, and mechanism_menu resolves it once and builds that menu.
realize_prices is the one lottery realization and policy_orders the one map
from an order policy to orders; run() and simulate.simulate_runs both
execute through them.  A batch of trials is agent-major: an (n, trials)
array holds one row per agent and one column per trial, so the walk reads
each order position as a row.

run() is pure given (inputs, seed); menus are immutable, so many runs may
execute concurrently with independent seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import PriceLotteries
from .exante import ExAnteSolution, solve_ex_ante, solver_kind
from .values import AdditiveValue, ValueFunction

# by realized value per price, by index, one permutation per trial, or the
# worst of sampled and heuristic orders per trial (an adversarial-order proxy)
ORDER_POLICIES = ("bang-per-buck", "fixed", "uniform-random", "worst-of-sampled")
# the order policy each mechanism kind runs in
MECHANISM_ORDERS = {"sequential": "bang-per-buck", "oblivious": "worst-of-sampled"}


@dataclass(frozen=True, eq=False)
class PriceMenu:
    """Every agent's price lottery plus the order policy they run in.

    quantiles[i] is the overall acceptance probability of lotteries row i;
    agents with quantile 0 are never offered.  ordering_policy names an
    ORDER_POLICIES entry, or "external" when callers always name the order.
    epsilon records the budget shrink used for order-oblivious execution.
    """

    lotteries: PriceLotteries
    quantiles: np.ndarray
    ordering_policy: str = "external"
    epsilon: float | None = None

    def __post_init__(self):
        if self.ordering_policy not in ORDER_POLICIES + ("external",):
            raise ValueError(f"unknown ordering policy {self.ordering_policy!r}")
        q = np.array(self.quantiles, dtype=float)  # a copy: the caller's stays writeable
        lots = self.lotteries
        if q.shape != (len(lots),):
            raise ValueError("one lottery per agent required")
        offered = np.array([lots.price_lo, lots.price_hi])[:, q > 0]
        if not np.all((0.0 < offered) & (offered < np.inf)):  # NaN fails too
            raise ValueError("prices must be positive wherever the quantile is positive")
        q.flags.writeable = False
        object.__setattr__(self, "quantiles", q)

    @property
    def n(self) -> int:
        return len(self.lotteries)

    @property
    def randomized_agents(self) -> tuple:
        return tuple(np.flatnonzero((self.quantiles > 0) & ~self.lotteries.degenerate).tolist())

    @property
    def has_lotteries(self) -> bool:
        return bool(self.randomized_agents)


@dataclass(frozen=True, eq=False)
class RunOutcome:
    """Realized selection, payments, and value for one cost draw."""

    selected: tuple
    offers_made: tuple
    payments: np.ndarray
    realized_prices: np.ndarray
    total_spend: float
    value: float


@dataclass(frozen=True)
class MarketSize:
    """Budget over the largest price any offered agent might see."""

    k: float

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError("market size must be positive")


def market_size(menu: PriceMenu, budget: float) -> MarketSize:
    prices = menu.lotteries.max_price[menu.quantiles > 0]
    return MarketSize(k=budget / float(prices.max()) if prices.size else math.inf)


def menu_from_solution(sol: ExAnteSolution, ordering_policy: str = "external",
                       epsilon: float | None = None) -> PriceMenu:
    return PriceMenu(lotteries=sol.lotteries, quantiles=sol.quantiles,
                     ordering_policy=ordering_policy, epsilon=epsilon)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def bang_per_buck_order(values, prices):
    """Agents sorted by value over price, descending; ties by agent index.

    Agents priced NaN (never offered, as realize_prices marks them) have a
    NaN ratio, which sorts last: they go last, in index order.  One column
    of n prices gives one order; an (n, trials) batch of prices gives an
    (n, trials) array holding each column's order.
    """
    values = np.asarray(values, dtype=float)
    prices = np.asarray(prices, dtype=float)
    if prices.ndim == 2:
        values = values[:, None]
    if (prices <= 0).any():  # False for NaN
        raise ValueError("zero price offered to an agent")
    return np.argsort(-values / prices, axis=0, kind="stable")  # ties keep index order


def select_within_budget(prices, accepts, order, budget: float):
    """Walk agents in order; offer while the price fits the remaining spend.

    prices (NaN marks agents that are never offered) and accepts are
    (n, trials) batches, one row per agent.  order is one sequence of agent
    indices shared by every trial, or an (n, trials) integer array with one
    order per column.  Returns (offered, spent): the (n, trials) mask of
    agents offered their price and each trial's spend.  A trial hires
    offered & accepts.  prices, accepts and order are never written.

    Skipped (over-budget) agents are discarded permanently.  The walk steps
    through the order positions, vectorised across trials; each trial adds
    its own prices in its own order and keeps a sum only when it stays at
    most the budget, so the bound is exact in floats.  A shared order reads
    each agent's rows in place; per-trial orders gather every position's row
    once, through the flattened batches.  Each position zeroes the new sums
    of the trials that do not hire and takes the larger of spend and sum
    (np.fmax), with no branch per trial: a hiring trial's sum is at least its
    spend, and any other trial's product is +0.0, or NaN where the price is
    NaN or the sum overflowed, which np.fmax never takes.  That needs every
    price to be at least 0 or NaN, as every menu's realized prices are; it
    is not checked, since that would cost a pass over the batch.

    Raises ValueError when accepts is not prices' shape, when a per-trial
    order is not an integer array of prices' shape, or when a shared order
    is not a permutation of range(n).  Each column of a per-trial order is
    not checked either.
    """
    prices = np.asarray(prices, dtype=float)
    accepts = np.asarray(accepts, dtype=bool)
    order = np.asarray(order)
    if accepts.shape != prices.shape:
        raise ValueError("accepts must have the shape of prices")
    n, trials = prices.shape
    offered = np.zeros(prices.shape, dtype=bool)
    if order.ndim == 2:
        if order.shape != prices.shape:
            raise ValueError("a per-trial order must have the shape of prices")
        if order.dtype.kind not in "iu":
            raise ValueError("a per-trial order must hold integer agent indices")
        # index the flattened batches, which numpy gathers and scatters faster
        # than through a pair of index arrays; row j of the gathered batches
        # holds every trial's j-th agent in its order
        order = order.astype(np.intp, copy=False) * trials
        order += np.arange(trials)
        pos_offered = np.empty(order.shape, dtype=bool)
        rows = zip(prices.ravel()[order], accepts.ravel()[order], pos_offered)
    else:
        agents = order.tolist()  # checked by value, so 0.5 is not cast to 0
        if order.shape != (n,) or sorted(agents) != list(range(n)):
            raise ValueError("order must be a permutation of all agents")
        rows = ((prices[i], accepts[i], offered[i]) for i in map(int, agents))
    spent = np.zeros(trials)
    new = np.empty(trials)
    hire = np.empty(trials, dtype=bool)
    for p, acc, off in rows:
        np.add(spent, p, out=new)
        np.less_equal(new, budget, out=off)  # False for NaN: never offered
        np.logical_and(off, acc, out=hire)
        np.multiply(new, hire, out=new)
        np.fmax(spent, new, out=spent)
    if order.ndim == 2:
        offered.ravel()[order] = pos_offered
    return offered, spent


def realize_prices(menu: PriceMenu, rng, trials: int) -> np.ndarray:
    """An (n, trials) batch of realized menu prices, one row per agent; NaN
    marks never-offered agents.

    Each agent with a non-degenerate lottery takes one rng.random(trials)
    draw, in index order, and gets its low price where the draw is below
    prob_lo; every other agent draws nothing.  The batch is written once:
    every agent's fixed price (or NaN) across its row, then the lottery rows.
    """
    lots = menu.lotteries
    prices = np.empty((menu.n, trials))
    prices[...] = np.where((menu.quantiles > 0) & lots.degenerate, lots.price_lo, np.nan)[:, None]
    for i in menu.randomized_agents:
        u = rng.random(trials)
        prices[i] = np.where(u < lots.prob_lo[i], lots.price_lo[i], lots.price_hi[i])
    return prices


def policy_orders(policy: str, menu: PriceMenu, vf: ValueFunction, prices,
                  rng=None, sampled=()) -> list:
    """The orders a policy walks on an (n, trials) batch of realized prices.

    One order for 'bang-per-buck', 'fixed' and 'uniform-random' (whose
    per-trial permutations rng draws); for 'worst-of-sampled', the sampled
    orders, then each trial's descending-price order and, for additive
    values, its ascending value-per-price order (bang_per_buck_order of the
    negated values: never-offered agents last), else its ascending-price
    order; a price order counts never-offered prices as 0, and ties keep
    index order.  An order is 1-D (shared by every trial) or (n, trials),
    one order per column.  Without lotteries every trial holds the same
    prices, so per-trial orders come from trial 0.
    """
    if policy not in ORDER_POLICIES:  # an external menu needs one named
        raise ValueError(f"cannot run in order {policy!r}; expected one of "
                         f"{', '.join(ORDER_POLICIES)}")
    additive = isinstance(vf, AdditiveValue)
    if policy == "bang-per-buck" and not additive:
        raise ValueError("bang-per-buck ordering requires additive values")
    n, trials = prices.shape
    if policy == "fixed":
        return [np.arange(n)]
    if policy == "uniform-random":
        # the rank order of n i.i.d. uniforms is a uniform permutation; the
        # draw keeps its (trials, n) shape, so trial t ranks row t of it
        return [np.argsort(rng.random((trials, n)).T, axis=0, kind="stable")]
    shared = not menu.has_lotteries
    if shared:
        prices = prices[:, :1]
    if policy == "bang-per-buck":
        orders = [bang_per_buck_order(vf.as_array(), prices)]
    else:
        filled = np.where(np.isnan(prices), 0.0, prices)
        ascending = bang_per_buck_order(-vf.as_array(), prices) if additive \
            else np.argsort(filled, axis=0, kind="stable")
        orders = [np.argsort(-filled, axis=0, kind="stable"), ascending]
    return list(sampled) + [o[:, 0] if shared else o for o in orders]


def run(menu: PriceMenu, value_fn: ValueFunction, costs, budget: float,
        order=None, rng=None) -> RunOutcome:
    """Execute the posted pricing on one cost draw: one trial of simulate_runs.

    realize_prices draws the lotteries from rng.  Agents are offered in the
    given order, else in the menu's own (see policy_orders): index order for
    a "fixed" menu, realized bang-per-buck order for a "bang-per-buck" one;
    other menus need an order.  Zero-quantile agents are never offered.
    """
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (menu.n,):
        raise ValueError("one cost per agent required")
    if order is None and menu.ordering_policy not in ("bang-per-buck", "fixed"):
        raise ValueError(f"a {menu.ordering_policy!r} menu needs an explicit order "
                         f"here; simulate_runs runs every order policy")
    rng = np.random.default_rng(rng)

    prices = realize_prices(menu, rng, 1)
    if order is None:
        (order,) = policy_orders(menu.ordering_policy, menu, value_fn, prices)
    accepts = costs[:, None] <= prices  # False where the price is NaN (never offered)
    offered, spent = select_within_budget(prices, accepts, order, budget)
    prices, offered, hired = prices[:, 0], offered[:, 0], offered[:, 0] & accepts[:, 0]

    payments = np.where(hired, prices, 0.0)
    sel = tuple(int(i) for i in np.flatnonzero(hired))
    return RunOutcome(selected=sel,
                      offers_made=tuple(int(i) for i in np.flatnonzero(offered)),
                      payments=payments, realized_prices=prices,
                      total_spend=float(spent[0]), value=value_fn.evaluate(sel))


# ---------------------------------------------------------------------------
# Order-oblivious menus via budget shrinking
# ---------------------------------------------------------------------------

# Each guarantee is one numpy expression, for scalars and arrays alike.

def correlation_gap_bound(k):
    """1 - 1/sqrt(2 pi k): the correlation gap of a cardinality cap k."""
    return 1.0 - 1.0 / np.sqrt(2.0 * np.pi * k)


def sequential_guarantee(k):
    """Approximation factor of bang-per-buck sequential pricing in a k-large market."""
    return correlation_gap_bound(k) * (1.0 - 1.0 / k)


def overflow_ceiling(k, eps):
    """Bound on the chance that a (1 - eps) B menu's accepters overspend (1 - 1/k) B."""
    return np.exp(-eps * eps * (1.0 - eps) * k / 12.0)


def oblivious_guarantee(k, eps):
    """Approximation factor of the shrunken-budget menu under any order."""
    return (1.0 - eps) * (1.0 - overflow_ceiling(k, eps))


class SmallMarketError(ValueError):
    """No budget shrink exists: the market size k is at most 4."""

    def __init__(self, k: float):
        super().__init__(f"no valid shrink exists for markets of size at most 4 "
                         f"(k = {k:.6g})")
        self.k = k


# interior points of (2/k, 1/2) that choose_epsilon searches
_EPSILON_GRID_POINTS = 10_000


def choose_epsilon(k: float) -> float:
    """Budget shrink maximizing the order-oblivious guarantee at market size k."""
    if k <= 4.0:
        raise SmallMarketError(k)
    eps = np.linspace(2.0 / k, 0.5, _EPSILON_GRID_POINTS + 2)[1:-1]
    return float(eps[int(np.argmax(oblivious_guarantee(k, eps)))])


def build_oblivious(dists, vf: ValueFunction, budget: float, epsilon: float,
                    **solve_opts) -> PriceMenu:
    """Solve the ex ante problem at budget (1 - epsilon) B for any-order use.

    solve_opts (kind, grid_size, greedy options) go to solve_ex_ante.  The
    returned menu runs in worst-of-sampled order and carries the shrink.  The
    guarantee applies only when market_size(menu, budget).k > 2 / epsilon;
    below that the mechanism still runs.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    sol = solve_ex_ante(dists, vf, (1.0 - epsilon) * budget, **solve_opts)
    return menu_from_solution(sol, ordering_policy="worst-of-sampled", epsilon=epsilon)


def mechanism_variant(mechanism: str, solver: str, vf: ValueFunction) -> str:
    """The report variant a mechanism kind runs under a resolved solver.

    'sequential' gives 'additive-sequential' (additive values only).
    'oblivious' gives 'symmetric-oblivious' under the symmetric solver, which
    runs the full-budget menu, else 'submodular-oblivious', which runs the
    (1 - epsilon) B menu.  An unknown kind, or one that does not fit vf,
    raises ValueError.
    """
    if mechanism not in MECHANISM_ORDERS:
        raise ValueError(f"unknown mechanism kind {mechanism!r}; expected "
                         + " or ".join(MECHANISM_ORDERS))
    if mechanism == "sequential":
        if not isinstance(vf, AdditiveValue):
            raise ValueError("sequential mechanism requires an additive value function")
        return "additive-sequential"
    return "symmetric-oblivious" if solver == "symmetric" else "submodular-oblivious"


def mechanism_menu(dists, vf: ValueFunction, budget: float, mechanism: str,
                   epsilon: float | None = None, kind: str = "auto", **solve_opts):
    """The menu a mechanism kind runs, labelled with MECHANISM_ORDERS[mechanism].

    kind is resolved once; the concrete kind and solve_opts go to every
    solve_ex_ante call.  A submodular-oblivious variant (see
    mechanism_variant) runs build_oblivious's (1 - epsilon) B menu, with
    epsilon None the best shrink at the market size of the full-budget solve;
    every other variant runs the full-budget solve.  Returns (menu,
    full-budget solve or None); the shrink used is menu.epsilon.
    """
    kind = solver_kind(dists, vf, kind)
    if mechanism_variant(mechanism, kind, vf) != "submodular-oblivious":
        sol = solve_ex_ante(dists, vf, budget, kind, **solve_opts)
        return menu_from_solution(sol, MECHANISM_ORDERS[mechanism]), sol
    full = None
    if epsilon is None:
        full = solve_ex_ante(dists, vf, budget, kind, **solve_opts)
        epsilon = choose_epsilon(market_size(menu_from_solution(full), budget).k)
    return build_oblivious(dists, vf, budget, epsilon, kind=kind, **solve_opts), full


# ---------------------------------------------------------------------------
# Derandomization for additive values
# ---------------------------------------------------------------------------

def _mean_knapsack_value(values, prices, budget: float, draws) -> float:
    """Mean over the boolean rows of draws of the fractional knapsack value
    of each row's subset: its agents packed by value per price, highest
    first (ties by index), while they fit, and the first that does not fit
    adds the fraction of its value that fills the budget left.

    Each row's subset sorts as it does within the ratio order of the agents
    drawn in any row, so every row packs in that one order, and all rows
    pack at once: sequential accumulates do each row's subtractions and
    additions in the order a per-row packing loop does them, and the row
    totals are summed in row order, so the mean is that loop's bit for bit.
    Agents no row draws stay out of the order: one of value 0 at price 0
    has a NaN ratio, which would break the sort.
    """
    drawn = np.flatnonzero(draws.any(axis=0))
    order = np.array(sorted(drawn, key=lambda i: (-values[i] / prices[i], i)), dtype=np.intp)
    rows, m = len(draws), len(order)
    taken = draws[:, order]
    p = np.where(taken, prices[order], 0.0)
    v = values[order]
    # the budget left before each position, were every earlier agent packed
    left = np.subtract.accumulate(np.column_stack((np.full(rows, budget, dtype=float), p)),
                                  axis=1)
    # the first agent that does not fit ends the row; a last column stands in
    # for rows where every agent fits
    stop = np.column_stack((taken & ~(p <= left[:, :m]), np.ones(rows, bool))).argmax(axis=1)
    packed = np.where(taken & (np.arange(m) < stop[:, None]), v, 0.0)
    totals = np.add.accumulate(np.column_stack((np.zeros(rows), packed)), axis=1)[:, -1]
    cut = np.flatnonzero(stop < m)
    k = stop[cut]
    totals[cut] += v[k] * left[cut, k] / p[cut, k]
    return float(np.add.accumulate(np.concatenate(([0.0], totals)))[-1] / rows)


def reduce_lottery_pairs(menu: PriceMenu, values) -> PriceMenu:
    """Shift quantile mass between lottery pairs until at most one remains.

    A randomized agent's lottery pays linearly along its own chord, at rate
    r_i = (q_hi p_hi - q_lo p_lo) / (q_hi - q_lo) per unit of quantile.
    While two randomized agents remain, mass moves from the agent with the
    highest r_i / v_i to the one with the lowest at equal spend, until one
    of them reaches an end of its lottery, which then offers that end's
    single price.  Only the menu is read: what its lotteries pay is kept and
    the objective never decreases.
    """
    values = np.asarray(values, dtype=float)
    if len(values) != menu.n:
        raise ValueError("one value per agent required")
    q = np.array(menu.quantiles, dtype=float)
    lots = menu.lotteries
    p_lo, p_hi, a, b = lots.price_lo, lots.price_hi, lots.q_lo, lots.q_hi
    randomized = list(menu.randomized_agents)
    for i in randomized:
        if a[i] == b[i]:
            raise ValueError(f"agent {i}'s lottery has no chord: q_lo = q_hi")
    rate = {i: (b[i] * p_hi[i] - a[i] * p_lo[i]) / (b[i] - a[i]) for i in randomized}

    moved = set()
    while len(randomized) >= 2:
        order = sorted((rate[i] / values[i] if values[i] > 0 else math.inf, i)
                       for i in randomized)
        lo_i, hi_i = order[0][1], order[-1][1]
        room_up = b[lo_i] - q[lo_i]
        room_dn = (q[hi_i] - a[hi_i]) * rate[hi_i] / rate[lo_i]
        # the agent with less room reaches its end; the other is held on its
        # chord, which rounding could carry an ulp past an end when the rooms tie
        if room_up <= room_dn:
            q[lo_i], q[hi_i] = b[lo_i], max(q[hi_i] - room_up * rate[lo_i] / rate[hi_i], a[hi_i])
        else:
            q[lo_i], q[hi_i] = min(q[lo_i] + room_dn, b[lo_i]), a[hi_i]
        moved.update((lo_i, hi_i))
        randomized = [i for i in randomized if a[i] < q[i] < b[i]]

    rows = {}
    for i in moved:  # an agent at an end of its chord offers that end's price
        p = p_lo[i] if q[i] == a[i] else p_hi[i]
        rows[i] = ((p_lo[i], p_hi[i], (b[i] - q[i]) / (b[i] - a[i]), a[i], b[i])
                   if a[i] < q[i] < b[i] else (p, p, 1.0, q[i], q[i]))
    return replace(menu, lotteries=lots.with_rows(rows), quantiles=q)


def derandomize_additive(menu: PriceMenu, dists, values, budget: float,
                         samples: int = 10_000, seed=None) -> PriceMenu:
    """Turn a lottery menu into a deterministic one without losing value.

    Runs the spend-preserving pairwise reduction (reduce_lottery_pairs), then
    the last randomized agent keeps whichever of its two prices wins a
    sampled fractional-knapsack comparison against the other agents'
    acceptance draws.  Only the menu is read; dists must hold one prior per
    agent.
    """
    values = np.asarray(values, dtype=float)
    if samples < 1:
        raise ValueError("samples must be positive")
    if len(dists) != menu.n:
        raise ValueError("one distribution per agent required")
    reduced = reduce_lottery_pairs(menu, values)
    randomized = list(reduced.randomized_agents)
    q = np.array(reduced.quantiles, dtype=float)
    lots = reduced.lotteries

    if randomized:
        i = randomized[0]
        rng = np.random.default_rng(seed)
        other_prices = lots.price_lo.copy()
        other_q = q.copy()
        best_price, best_q, best_val = lots.price_lo[i], lots.q_lo[i], -math.inf
        for price, q_i in ((lots.price_lo[i], lots.q_lo[i]), (lots.price_hi[i], lots.q_hi[i])):
            other_prices[i] = price
            other_q[i] = q_i
            draws = rng.random((samples, reduced.n)) < other_q
            mean = _mean_knapsack_value(values, other_prices, budget, draws)
            if mean > best_val:
                best_price, best_val, best_q = price, mean, q_i
        q[i] = best_q
        lots = lots.with_rows({i: (best_price, best_price, 1.0, best_q, best_q)})

    return replace(reduced, lotteries=lots, quantiles=q)
