"""Ex post posted-pricing execution and menu construction.

A menu offers every agent a (possibly degenerate) price lottery; agents are
processed in some order, each offered her realized price while it fits the
remaining budget, and paid that price on acceptance.  The realized spend can
never exceed the budget.

run() is pure given (inputs, seed); menus are immutable, so many runs may
execute concurrently with independent seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (DEFAULT_GRID, PriceLottery, ironed_curve,
                            two_price_lottery)
from .exante import ExAnteSolution, solve_ex_ante
from .values import AdditiveValue, ValueFunction

ORDER_POLICIES = ("fixed-sequence", "bang-per-buck", "external")


@dataclass(frozen=True, eq=False)
class PriceMenu:
    """Per-agent price lotteries plus an ordering policy.

    quantiles[i] is the overall acceptance probability of agent i's lottery;
    agents with quantile 0 are never offered.  epsilon records the budget
    shrink used when the menu was built for order-oblivious execution.
    """

    lotteries: tuple
    quantiles: np.ndarray
    ordering_policy: str = "external"
    order: tuple | None = None
    epsilon: float | None = None
    market_warning: bool = False

    def __post_init__(self):
        if self.ordering_policy not in ORDER_POLICIES:
            raise ValueError(f"unknown ordering policy {self.ordering_policy!r}")
        q = np.asarray(self.quantiles, dtype=float)
        if len(self.lotteries) != len(q):
            raise ValueError("one lottery per agent required")
        for lot, qi in zip(self.lotteries, q):
            if qi > 0 and min(lot.price_lo, lot.price_hi) <= 0.0:
                raise ValueError("prices must be positive wherever the quantile is positive")
        q.flags.writeable = False
        object.__setattr__(self, "quantiles", q)
        if self.ordering_policy == "fixed-sequence" and self.order is None:
            object.__setattr__(self, "order", tuple(range(len(q))))

    @property
    def n(self) -> int:
        return len(self.lotteries)

    @property
    def randomized_agents(self) -> tuple:
        return tuple(i for i, lot in enumerate(self.lotteries)
                     if self.quantiles[i] > 0 and not lot.degenerate)

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
    prices = [lot.max_price for lot, q in zip(menu.lotteries, menu.quantiles) if q > 0]
    if not prices:
        return MarketSize(k=math.inf)
    return MarketSize(k=budget / max(prices))


def menu_from_solution(sol: ExAnteSolution, ordering_policy: str = "external",
                       order=None, epsilon: float | None = None) -> PriceMenu:
    return PriceMenu(lotteries=sol.lotteries, quantiles=np.array(sol.quantiles),
                     ordering_policy=ordering_policy,
                     order=None if order is None else tuple(order),
                     epsilon=epsilon)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def bang_per_buck_order(values, prices, quantiles=None) -> tuple:
    """Agents sorted by value over price, descending; ties by agent index.

    Agents with zero acceptance probability go last (they are never offered).
    """
    values = np.asarray(values, dtype=float)
    prices = np.asarray(prices, dtype=float)
    if quantiles is None:
        quantiles = np.ones_like(prices)
    active, inactive = [], []
    for i, (v, p, q) in enumerate(zip(values, prices, np.asarray(quantiles))):
        if q <= 0:
            inactive.append(i)
            continue
        if p <= 0:
            raise ValueError("zero price offered to an agent with positive quantile")
        active.append(i)
    active.sort(key=lambda i: (-values[i] / prices[i], i))
    return tuple(active + inactive)


def select_within_budget(prices, accepts, order, budget: float):
    """Walk agents in order; offer while the price fits the remaining spend.

    Returns (selected_mask, offered_mask, spent).  Skipped (over-budget)
    agents are discarded permanently.  The accumulated spend is only updated
    when it stays at most the budget, so the bound is exact in floats.
    """
    n = len(prices)
    selected = np.zeros(n, dtype=bool)
    offered = np.zeros(n, dtype=bool)
    spent = 0.0
    for i in order:
        p = prices[i]
        if p != p:  # NaN marks agents that are never offered
            continue
        new_spent = spent + p
        if new_spent > budget:
            continue
        offered[i] = True
        if accepts[i]:
            selected[i] = True
            spent = new_spent
    return selected, offered, spent


def run(menu: PriceMenu, value_fn: ValueFunction, costs, budget: float,
        order=None, rng=None) -> RunOutcome:
    """Execute the posted pricing on one cost draw.

    Lotteries are realized with the supplied RNG: at arrival time for fixed
    and external orders, and upfront when the bang-per-buck policy needs the
    realized prices to sort by.  Zero-quantile agents are skipped entirely.
    """
    costs = np.asarray(costs, dtype=float)
    n = menu.n
    if costs.shape != (n,):
        raise ValueError("one cost per agent required")
    if rng is None or not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    active = menu.quantiles > 0
    prices = np.full(n, np.nan)
    policy = menu.ordering_policy
    if order is not None:
        order = tuple(order)
    elif policy == "fixed-sequence":
        order = menu.order
    elif policy == "external":
        raise ValueError("externally ordered menus need an explicit order")

    if policy == "bang-per-buck" and order is None:
        if not isinstance(value_fn, AdditiveValue):
            raise ValueError("bang-per-buck ordering requires additive values")
        for i in range(n):  # realize everything upfront, then sort
            if active[i]:
                prices[i] = menu.lotteries[i].realize(rng.random())
        order = bang_per_buck_order(value_fn.as_array(), np.where(active, prices, 1.0),
                                    menu.quantiles)
    else:
        if sorted(order) != list(range(n)):
            raise ValueError("order must be a permutation of all agents")
        for i in order:
            if active[i]:
                prices[i] = menu.lotteries[i].realize(rng.random())

    accepts = np.zeros(n, dtype=bool)
    mask = active & ~np.isnan(prices)
    accepts[mask] = costs[mask] <= prices[mask]
    selected, offered, spent = select_within_budget(prices, accepts, order, budget)

    payments = np.where(selected, prices, 0.0)
    sel = tuple(int(i) for i in np.flatnonzero(selected))
    return RunOutcome(selected=sel,
                      offers_made=tuple(int(i) for i in np.flatnonzero(offered)),
                      payments=payments, realized_prices=prices,
                      total_spend=spent, value=value_fn.evaluate(sel))


# ---------------------------------------------------------------------------
# Order-oblivious menus via budget shrinking
# ---------------------------------------------------------------------------

def sequential_guarantee(k: float) -> float:
    """Approximation factor of bang-per-buck sequential pricing in a k-large market."""
    return (1.0 - 1.0 / math.sqrt(2.0 * math.pi * k)) * (1.0 - 1.0 / k)


def oblivious_guarantee(k: float, eps: float) -> float:
    """Approximation factor of the shrunken-budget menu under any order."""
    return (1.0 - eps) * (1.0 - math.exp(-eps * eps * (1.0 - eps) * k / 12.0))


def choose_epsilon(k: float, grid_points: int = 10_000) -> float:
    """Budget shrink maximizing the order-oblivious guarantee at market size k."""
    if k <= 4.0:
        raise ValueError("no valid shrink exists for markets of size at most 4")
    eps = np.linspace(2.0 / k, 0.5, grid_points + 2)[1:-1]
    vals = (1.0 - eps) * (1.0 - np.exp(-eps ** 2 * (1.0 - eps) * k / 12.0))
    return float(eps[int(np.argmax(vals))])


def build_oblivious(dists, vf: ValueFunction, budget: float, epsilon: float,
                    **solve_opts) -> PriceMenu:
    """Solve the ex ante problem at budget (1 - epsilon) B for any-order use.

    solve_opts (kind, grid_size, greedy options) go to solve_ex_ante.  The
    returned menu carries the shrink and a warning flag when the realized
    market size is too small for the guarantee to apply (the mechanism still
    runs).
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    sol = solve_ex_ante(dists, vf, (1.0 - epsilon) * budget, **solve_opts)
    menu = menu_from_solution(sol, ordering_policy="external", epsilon=epsilon)
    k = market_size(menu, budget).k
    if k <= 2.0 / epsilon:
        menu = replace(menu, market_warning=True)
    return menu


# ---------------------------------------------------------------------------
# Knapsack set functions
# ---------------------------------------------------------------------------

def _ratio_order(values, prices, subset):
    return sorted(subset, key=lambda i: (-values[i] / prices[i], i))


def fractional_knapsack_value(values, prices, budget: float, subset) -> float:
    """Greedy-by-ratio packing of the subset; the first non-fitting element
    contributes the fraction of its value that fills the remaining capacity."""
    values = np.asarray(values, dtype=float)
    prices = np.asarray(prices, dtype=float)
    total, remaining = 0.0, budget
    for i in _ratio_order(values, prices, set(subset)):
        if prices[i] <= remaining:
            total += values[i]
            remaining -= prices[i]
        else:
            total += values[i] * remaining / prices[i]
            break
    return float(total)


def integral_knapsack_value(values, prices, budget: float, subset) -> float:
    """As the fractional packing, but the first non-fitting element is dropped
    and the packing stops."""
    values = np.asarray(values, dtype=float)
    prices = np.asarray(prices, dtype=float)
    total, remaining = 0.0, budget
    for i in _ratio_order(values, prices, set(subset)):
        if prices[i] <= remaining:
            total += values[i]
            remaining -= prices[i]
        else:
            break
    return float(total)


# ---------------------------------------------------------------------------
# Derandomization for additive values
# ---------------------------------------------------------------------------

def reduce_lottery_pairs(menu: PriceMenu, dists, values,
                         grid_size: int = DEFAULT_GRID) -> PriceMenu:
    """Shift quantile mass between lottery pairs until at most one remains.

    While two randomized agents remain, quantile mass moves from the agent
    with the higher hull slope per unit value to the lower one at equal spend
    rates, which keeps the total expected spend fixed and pins at least one
    of them to an ironed-interval endpoint (where its lottery degenerates).
    The objective never decreases.
    """
    values = np.asarray(values, dtype=float)
    if len(values) != menu.n:
        raise ValueError("one value per agent required")
    hulls = [ironed_curve(d, grid_size) for d in dists]
    q = np.array(menu.quantiles, dtype=float)
    lots = list(menu.lotteries)

    def slope_at(i):
        h = hulls[i]
        seg = min(int(np.searchsorted(h.quantiles, q[i], side="right")) - 1,
                  len(h.slopes) - 1)
        return float(h.slopes[max(seg, 0)])

    randomized = list(menu.randomized_agents)
    while len(randomized) >= 2:
        rates = [(slope_at(i) / values[i] if values[i] > 0 else math.inf, i)
                 for i in randomized]
        rates.sort()
        lo_i = rates[0][1]
        hi_i = rates[-1][1]
        b_lo = lots[lo_i].q_hi
        a_hi = lots[hi_i].q_lo
        b_hi = lots[hi_i].q_hi
        s_lo, s_hi = slope_at(lo_i), slope_at(hi_i)
        if s_hi <= 0.0:
            # a free segment: fill it outright, no spend change
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
        randomized = [i for i in randomized
                      if q[i] > 0 and not lots[i].degenerate]

    return PriceMenu(lotteries=tuple(lots), quantiles=q,
                     ordering_policy=menu.ordering_policy, order=menu.order,
                     epsilon=menu.epsilon, market_warning=menu.market_warning)


def derandomize_additive(menu: PriceMenu, dists, values, budget: float,
                         samples: int = 10_000, seed=None,
                         grid_size: int = DEFAULT_GRID) -> PriceMenu:
    """Turn a lottery menu into a deterministic one without losing value.

    Runs the spend-preserving pairwise reduction, then the last randomized
    agent keeps whichever of its two prices wins a sampled
    fractional-knapsack comparison against the other agents' acceptance
    draws.
    """
    values = np.asarray(values, dtype=float)
    if len(values) != menu.n:
        raise ValueError("one value per agent required")
    reduced = reduce_lottery_pairs(menu, dists, values, grid_size=grid_size)
    randomized = list(reduced.randomized_agents)
    q = np.array(reduced.quantiles, dtype=float)
    lots = list(reduced.lotteries)

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
            draws = rng.random((samples, reduced.n)) < other_q
            total = 0.0
            for row in draws:
                total += fractional_knapsack_value(values, other_prices, budget,
                                                   np.flatnonzero(row))
            mean = total / samples
            if mean > best_val:
                best_price, best_val, best_q = price, mean, q_i
        q[i] = best_q
        lots[i] = PriceLottery(price_lo=best_price, price_hi=best_price,
                               prob_lo=1.0, q_lo=best_q, q_hi=best_q)

    return PriceMenu(lotteries=tuple(lots), quantiles=q,
                     ordering_policy=reduced.ordering_policy, order=reduced.order,
                     epsilon=reduced.epsilon, market_warning=reduced.market_warning)
