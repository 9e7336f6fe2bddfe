"""Monte Carlo evaluation harness, benchmark bounds, and validation experiments.

Trials are independent; cost draws, lottery realizations, and order sampling
use streams derived from one master seed, so results are reproducible and
trials could run concurrently.  Symmetric instances with one common
deterministic price use an exact vectorized kernel; everything else walks the
arrival order per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DEFAULT_GRID
from .exante import ExAnteSolution, solve_ex_ante, solver_kind
from .mechanism import (PriceMenu, bang_per_buck_order, build_oblivious,
                        choose_epsilon, market_size, menu_from_solution,
                        oblivious_guarantee, select_within_budget,
                        sequential_guarantee)
from .values import (AdditiveValue, SymmetricValue, ValueFunction,
                     concave_closure_symmetric)

DEFAULT_TRIALS = 100_000
ORDER_POLICY_NAMES = ("bang-per-buck", "fixed", "uniform-random", "worst-of-sampled")
# the order policy approximation_report runs each mechanism kind under
MECHANISM_ORDERS = {"sequential": "bang-per-buck", "oblivious": "worst-of-sampled"}


@dataclass(frozen=True, eq=False)
class Instance:
    """A procurement problem: one cost prior per agent, an objective, a budget."""

    dists: tuple
    value: ValueFunction
    budget: float
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "dists", tuple(self.dists))
        if len(self.dists) != self.value.n:
            raise ValueError("one distribution per agent required")
        if len(self.dists) < 1:
            raise ValueError("need at least one agent")

    @property
    def n(self) -> int:
        return len(self.dists)


@dataclass(frozen=True)
class MCResult:
    mean: float
    stderr: float
    trials: int


@dataclass(frozen=True)
class BoundInfo:
    value: float
    exact: bool


@dataclass(frozen=True)
class OverflowEstimate:
    p_hat: float
    stderr: float
    ceiling: float | None


@dataclass(frozen=True)
class GapResult:
    k: int
    n: int
    independent: float
    correlated: float
    ratio: float
    bound: float


@dataclass(frozen=True)
class BoundsRow:
    k: float
    sequential: float
    best_epsilon: float | None
    oblivious: float | None


@dataclass(frozen=True)
class ExperimentReport:
    """One mechanism evaluation against its ex ante benchmark."""

    label: str
    variant: str
    trials: int
    seed: int
    k: float
    epsilon: float | None
    ex_ante_upper_bound: float
    bound_exact: bool
    mechanism_mean: float
    mechanism_stderr: float
    ratio: float
    theoretical_bound: float


# ---------------------------------------------------------------------------
# Monte Carlo execution
# ---------------------------------------------------------------------------

def _draw_costs(dists, rng, trials):
    cols = [np.asarray(d.inverse_cdf(rng.random(trials))) for d in dists]
    return np.column_stack(cols)


def _realize_prices(menu, rng, trials):
    n = menu.n
    prices = np.full((trials, n), np.nan)
    for i, (lot, q) in enumerate(zip(menu.lotteries, menu.quantiles)):
        if q <= 0:
            continue
        if lot.degenerate:
            prices[:, i] = lot.price_lo
        else:
            u = rng.random(trials)
            prices[:, i] = np.where(u < lot.prob_lo, lot.price_lo, lot.price_hi)
    return prices


def _values_of_masks(vf, masks):
    if isinstance(vf, AdditiveValue):
        return masks @ vf.as_array()
    if isinstance(vf, SymmetricValue):
        return np.asarray(vf.g)[masks.sum(axis=1)]
    return np.array([vf.evaluate(np.flatnonzero(row)) for row in masks])


def _equal_price_kernel(price, accepts, order, budget, vf):
    """Exact selection when every offered price is the same number.

    With one common price, an agent blocked by the budget blocks all later
    accepters too, so the cumulative spend along the order decides selection.
    The cumulative sums reproduce the sequential walk's float arithmetic.
    """
    acc = accepts[:, order]
    spends = np.cumsum(np.where(acc, price, 0.0), axis=1)
    sel = acc & (spends <= budget)
    spend_tot = np.max(np.where(sel, spends, 0.0), axis=1)
    masks = np.zeros_like(accepts)
    masks[:, order] = sel
    return _values_of_masks(vf, masks), spend_tot


def _walk_trials(prices, accepts, orders, budget, vf):
    """Per-trial sequential walks; orders is one permutation or one per trial."""
    trials = len(prices)
    values = np.empty(trials)
    spends = np.empty(trials)
    static = isinstance(orders, tuple)
    for t in range(trials):
        order = orders if static else orders[t]
        sel, _, spent = select_within_budget(prices[t], accepts[t], order, budget)
        values[t] = vf.evaluate(np.flatnonzero(sel))
        spends[t] = spent
    return values, spends


def _candidate_orders(n, rng, n_orders):
    return [tuple(rng.permutation(n)) for _ in range(n_orders)]


def _heuristic_orders(prices_row, instance):
    n = instance.n
    filled = np.where(np.isnan(prices_row), 0.0, prices_row)
    desc_price = tuple(sorted(range(n), key=lambda i: (-filled[i], i)))
    if isinstance(instance.value, AdditiveValue):
        v = instance.value.as_array()
        asc_bpb = tuple(sorted(range(n), key=lambda i: (
            v[i] / filled[i] if filled[i] > 0 else math.inf, i)))
    else:
        asc_bpb = tuple(sorted(range(n), key=lambda i: (filled[i], i)))
    return [desc_price, asc_bpb]


def simulate_runs(menu: PriceMenu, instance: Instance, order_policy: str = "bang-per-buck",
                  trials: int = DEFAULT_TRIALS, seed=None, n_orders: int = 20,
                  chunk: int = 20_000):
    """Realized mechanism values and spends over independent cost draws.

    order_policy 'worst-of-sampled' evaluates n_orders sampled permutations
    plus descending-price and ascending bang-per-buck heuristics on each
    trial and keeps the minimum value, as an adversarial-order proxy.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if order_policy not in ORDER_POLICY_NAMES:
        raise ValueError(f"unknown order policy {order_policy!r}")
    ss = np.random.SeedSequence(seed)
    cost_rng, lot_rng, order_rng = (np.random.default_rng(c) for c in ss.spawn(3))
    vf = instance.value
    n = instance.n
    budget = instance.budget

    static_bpb_order = None
    if order_policy == "bang-per-buck":
        if not isinstance(vf, AdditiveValue):
            raise ValueError("bang-per-buck ordering requires additive values")
        if not menu.has_lotteries:
            det = np.array([lot.price_lo for lot in menu.lotteries])
            static_bpb_order = bang_per_buck_order(vf.as_array(), np.where(
                menu.quantiles > 0, det, 1.0), menu.quantiles)
    fixed_order = tuple(menu.order) if menu.order is not None else tuple(range(n))
    sampled_orders = _candidate_orders(n, order_rng, n_orders) \
        if order_policy == "worst-of-sampled" else None

    values_out = np.empty(trials)
    spends_out = np.empty(trials)
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        costs = _draw_costs(instance.dists, cost_rng, t)
        prices = _realize_prices(menu, lot_rng, t)
        accepts = np.zeros((t, n), dtype=bool)
        mask = ~np.isnan(prices)
        accepts[mask] = costs[mask] <= prices[mask]

        active = menu.quantiles > 0
        uniform_price = (not menu.has_lotteries and active.any()
                         and np.unique(prices[0][active]).size == 1)

        if order_policy == "bang-per-buck":
            if static_bpb_order is not None:
                if uniform_price:
                    v, s = _equal_price_kernel(float(prices[0][active][0]), accepts,
                                               static_bpb_order, budget, vf)
                else:
                    v, s = _walk_trials(prices, accepts, static_bpb_order, budget, vf)
            else:
                orders = [bang_per_buck_order(vf.as_array(),
                                              np.where(active, prices[r], 1.0),
                                              menu.quantiles) for r in range(t)]
                v, s = _walk_trials(prices, accepts, orders, budget, vf)
        elif order_policy == "fixed":
            if uniform_price:
                v, s = _equal_price_kernel(float(prices[0][active][0]), accepts,
                                           fixed_order, budget, vf)
            else:
                v, s = _walk_trials(prices, accepts, fixed_order, budget, vf)
        elif order_policy == "uniform-random":
            orders = [tuple(order_rng.permutation(n)) for _ in range(t)]
            v, s = _walk_trials(prices, accepts, orders, budget, vf)
        else:  # worst-of-sampled
            v = np.full(t, np.inf)
            s = np.zeros(t)
            static_heuristics = [] if menu.has_lotteries \
                else _heuristic_orders(prices[0], instance)
            for order in list(sampled_orders) + static_heuristics:
                if uniform_price:
                    cv, cs = _equal_price_kernel(float(prices[0][active][0]), accepts,
                                                 order, budget, vf)
                else:
                    cv, cs = _walk_trials(prices, accepts, order, budget, vf)
                better = cv < v
                v[better] = cv[better]
                s[better] = cs[better]
            if menu.has_lotteries:
                for r in range(t):
                    for order in _heuristic_orders(prices[r], instance):
                        sel, _, spent = select_within_budget(prices[r], accepts[r],
                                                             order, budget)
                        val = vf.evaluate(np.flatnonzero(sel))
                        if val < v[r]:
                            v[r], s[r] = val, spent
        values_out[done:done + t] = v
        spends_out[done:done + t] = s
        done += t
    return values_out, spends_out


def monte_carlo_value(menu: PriceMenu, instance: Instance,
                      order_policy: str = "bang-per-buck",
                      trials: int = DEFAULT_TRIALS, seed=None,
                      n_orders: int = 20) -> MCResult:
    """Mean realized mechanism value with its standard error."""
    values, _ = simulate_runs(menu, instance, order_policy, trials, seed, n_orders)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("nan")
    return MCResult(mean=mean, stderr=stderr, trials=trials)


# ---------------------------------------------------------------------------
# Benchmarks and bound tables
# ---------------------------------------------------------------------------

def ex_ante_bound(instance: Instance, solution: ExAnteSolution = None,
                  closed_form: float | None = None, kind: str = "auto",
                  grid_size: int = DEFAULT_GRID, **greedy_opts) -> BoundInfo:
    """Benchmark value no ex ante budget-feasible mechanism can beat.

    Exact when the additive or symmetric solver applies (see solver_kind);
    under greedy the solution is inflated by (1 - 1/e)^-2 and flagged as a
    bound of a bound, unless a closed form is supplied.  A given solution
    must come from the solve_ex_ante call with the same arguments.
    """
    if closed_form is not None:
        return BoundInfo(value=float(closed_form), exact=True)
    if instance.budget <= 0:
        return BoundInfo(value=0.0, exact=True)
    kind = solver_kind(instance.dists, instance.value, kind)
    if solution is None:
        solution = solve_ex_ante(instance.dists, instance.value, instance.budget,
                                 kind=kind, grid_size=grid_size, **greedy_opts)
    if kind != "greedy":
        return BoundInfo(value=solution.objective, exact=True)
    factor = (1.0 - 1.0 / math.e) ** 2
    return BoundInfo(value=solution.objective / factor, exact=False)


def overflow_probability(menu: PriceMenu, budget: float, k: float,
                         trials: int = DEFAULT_TRIALS, seed=None) -> OverflowEstimate:
    """Chance that the spend of all would-be accepters exceeds (1 - 1/k) B.

    Each agent enters the accepting set independently with her lottery's
    acceptance probability; the analytic ceiling uses the menu's recorded
    budget shrink when present.
    """
    rng = np.random.default_rng(seed)
    threshold = (1.0 - 1.0 / k) * budget
    n = menu.n
    total = np.zeros(trials)
    for i, (lot, q) in enumerate(zip(menu.lotteries, menu.quantiles)):
        if q <= 0:
            continue
        if lot.degenerate:
            total += lot.price_lo * (rng.random(trials) < q)
        else:
            pick_lo = rng.random(trials) < lot.prob_lo
            price = np.where(pick_lo, lot.price_lo, lot.price_hi)
            acc_q = np.where(pick_lo, lot.q_lo, lot.q_hi)
            total += price * (rng.random(trials) < acc_q)
    hits = total > threshold
    p_hat = float(hits.mean())
    stderr = float(math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials))
    ceiling = None
    if menu.epsilon is not None:
        eps = menu.epsilon
        ceiling = float(math.exp(-eps * eps * (1.0 - eps) * k / 12.0))
    return OverflowEstimate(p_hat=p_hat, stderr=stderr, ceiling=ceiling)


def correlation_gap_experiment(k: int, n: int, trials: int = 0, seed=None) -> GapResult:
    """Independent vs. correlated value of the capped cardinality objective.

    Unit values capped at k selections, common price B/k, common marginal
    k/n.  The independent side uses the exact size-distribution dynamic
    program; the correlated side is the size hull at the expected size,
    which equals k.
    """
    if n < k or k < 1:
        raise ValueError("need n >= k >= 1")
    g = tuple(float(min(s, k)) for s in range(n + 1))
    vf = SymmetricValue(g)
    q = k / n
    independent = vf.multilinear(np.full(n, q))[0]
    correlated = concave_closure_symmetric(vf, q)
    bound = 1.0 - 1.0 / math.sqrt(2.0 * math.pi * k)
    return GapResult(k=k, n=n, independent=independent, correlated=correlated,
                     ratio=independent / correlated, bound=bound)


def bounds_table(k_values) -> list:
    """Sequential vs. best-shrink oblivious guarantees per market size."""
    rows = []
    for k in k_values:
        k = float(k)
        seq = sequential_guarantee(k)
        if k > 4.0:
            eps = choose_epsilon(k)
            rows.append(BoundsRow(k=k, sequential=seq, best_epsilon=eps,
                                  oblivious=oblivious_guarantee(k, eps)))
        else:
            rows.append(BoundsRow(k=k, sequential=seq, best_epsilon=None,
                                  oblivious=None))
    return rows


# ---------------------------------------------------------------------------
# Full experiment reports
# ---------------------------------------------------------------------------

REPORT_VARIANTS = ("additive-sequential", "symmetric-oblivious", "submodular-oblivious")


def approximation_report(instance: Instance, variant: str,
                         trials: int = DEFAULT_TRIALS, seed: int = 0,
                         epsilon: float | None = None, n_orders: int = 20,
                         grid_size: int = DEFAULT_GRID,
                         closed_form_bound: float | None = None,
                         kind: str = "auto", **greedy_opts) -> ExperimentReport:
    """Run one mechanism variant and compare it to its ex ante benchmark.

    Every solve goes through solve_ex_ante with kind, grid_size, seed and
    greedy_opts.  symmetric-oblivious needs the symmetric solver.  With
    submodular-oblivious and no epsilon, the shrink is sized from the
    full-budget solve, which then also gives the benchmark.
    """
    if variant not in REPORT_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    vf = instance.value
    budget = instance.budget
    kind = solver_kind(instance.dists, vf, kind)
    if variant == "additive-sequential" and not isinstance(vf, AdditiveValue):
        raise ValueError("additive-sequential requires an additive objective")
    if variant == "symmetric-oblivious" and kind != "symmetric":
        raise ValueError("symmetric-oblivious requires a symmetric objective "
                         "and a common cost distribution")
    opts = dict(kind=kind, grid_size=grid_size, seed=seed, **greedy_opts)
    sequential = variant == "additive-sequential"
    policy = MECHANISM_ORDERS["sequential" if sequential else "oblivious"]
    eps_used = None

    if variant == "submodular-oblivious":
        sol = None
        if epsilon is None:
            sol = solve_ex_ante(instance.dists, vf, budget, **opts)
            epsilon = choose_epsilon(market_size(menu_from_solution(sol), budget).k)
        menu = build_oblivious(instance.dists, vf, budget, epsilon, **opts)
        eps_used = epsilon
    else:
        sol = solve_ex_ante(instance.dists, vf, budget, **opts)
        menu = menu_from_solution(
            sol, ordering_policy="bang-per-buck" if sequential else "external")

    bound_info = ex_ante_bound(instance, solution=sol, closed_form=closed_form_bound,
                               **opts)
    k = market_size(menu, budget).k
    if eps_used is None:
        theoretical = sequential_guarantee(k)
    else:
        theoretical = (1.0 - 1.0 / math.e) * oblivious_guarantee(k, epsilon)

    mc = monte_carlo_value(menu, instance, order_policy=policy, trials=trials,
                           seed=seed, n_orders=n_orders)
    denom = bound_info.value
    ratio = mc.mean / denom if denom > 0 else (1.0 if mc.mean == 0 else math.inf)
    return ExperimentReport(label=instance.label, variant=variant, trials=trials,
                            seed=seed, k=k, epsilon=eps_used,
                            ex_ante_upper_bound=denom, bound_exact=bound_info.exact,
                            mechanism_mean=mc.mean, mechanism_stderr=mc.stderr,
                            ratio=ratio, theoretical_bound=theoretical)


# ---------------------------------------------------------------------------
# CSV serialization (fixed column orders, 12 significant digits)
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "NA"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)

REPORT_COLUMNS = ("label", "variant", "trials", "seed", "k", "epsilon",
                  "ex_ante_upper_bound", "bound_exact", "mechanism_mean",
                  "mechanism_stderr", "ratio", "theoretical_bound")


def report_csv_lines(reports) -> list:
    lines = [",".join(REPORT_COLUMNS)]
    for r in reports:
        lines.append(",".join(_fmt(getattr(r, c)) for c in REPORT_COLUMNS))
    return lines


BOUNDS_COLUMNS = ("k", "sequential_bound", "best_epsilon", "oblivious_bound")


def bounds_csv_lines(rows) -> list:
    lines = [",".join(BOUNDS_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt(x) for x in (r.k, r.sequential,
                                                r.best_epsilon, r.oblivious)))
    return lines


GAP_COLUMNS = ("k", "n", "independent_value", "correlated_value", "ratio", "bound")


def gap_csv_lines(rows) -> list:
    lines = [",".join(GAP_COLUMNS)]
    for r in rows:
        lines.append(",".join(_fmt(x) for x in (r.k, r.n, r.independent,
                                                r.correlated, r.ratio, r.bound)))
    return lines
