"""Monte Carlo evaluation harness, benchmark bounds, and validation experiments.

Trials are independent; cost draws, lottery realizations, and order sampling
use streams derived from one master seed, so results are reproducible and
trials could run concurrently.  A menu runs in the order policy it is
labelled with unless the caller names another.  Each batch of trials gets
its prices from mechanism.realize_prices and its orders from
mechanism.policy_orders, and walks every order with the one budgeted walk,
mechanism.select_within_budget, which steps through the order positions
vectorised across the trials: a shared order reads each agent's rows in
place, per-trial orders are gathered once, and each trial's spend is kept
by one float update with no branch per trial.  Orders after the
first walk only the trials whose budget can bind: where the accepted prices
sum to at most (1 - SETTLED_SLACK) B, no order's running sum can pass B, so
every order hires every accepter and the first order's value and spend
stand, bit for bit.  Prices, accept masks, orders and hire masks are held
agent-major, (n, trials), from the price realization to the walk; value
functions read the hires as (trials, n) rows.  No cost matrix is kept: each
agent's prior draws its batch of costs with its own sample, called once per
batch in agent index order, and the draw is compared with the agent's price
row straight into its accept row.  mechanism.run is one trial of this path.
approximation_report runs a mechanism kind ('sequential' or 'oblivious') and
labels its row with mechanism.mechanism_variant.  csv_text is the one CSV
writer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .distributions import DEFAULT_GRID
from .exante import ExAnteSolution, solve_ex_ante, solver_kind
from .mechanism import (PriceMenu, SmallMarketError, choose_epsilon,
                        correlation_gap_bound, market_size, mechanism_menu,
                        mechanism_variant, oblivious_guarantee, overflow_ceiling,
                        policy_orders, realize_prices, select_within_budget,
                        sequential_guarantee)
from .values import SymmetricValue, ValueFunction, concave_closure_symmetric

DEFAULT_TRIALS = 100_000
# sampled permutations a worst-of-sampled run walks besides its two heuristics
DEFAULT_ORDERS = 20
# Trials per batch.  It fixes which random draws each trial gets, so it is
# part of the determinism promise, not a tuning knob.
TRIAL_CHUNK = 20_000


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

def _draw_accepts(dists, rng, prices):
    """The (n, trials) accept mask of a batch of realized prices: each
    agent's prior, in index order, draws its costs with its own sample, which
    are compared with its price row in place (False where it is NaN)."""
    accepts = np.empty(prices.shape, dtype=bool)
    for d, p, acc in zip(dists, prices, accepts):
        np.less_equal(d.sample(rng, prices.shape[1]), p, out=acc)
    return accepts


# A trial whose accepted prices sum to S <= (1 - SETTLED_SLACK) * B in floats
# is settled: every order hires all of its accepters.  Why: a walk adds an
# accepter's price p to the spend of its earlier hires and hires it when that
# sum is at most B (what it offers a non-accepter hires nobody).  So each sum
# a walk tests is a float sum, in some order, of a subset of the trial's k
# accepted prices, all positive.  With u = 2**-53, such a sum is at most
# (1 + u)**(k - 1) times the exact total T of the accepted prices, and the
# computed S is at least T / (1 + u)**(k - 1) in any summation order; the
# threshold's two roundings add (1 + u)**2.  Every tested sum is therefore
# at most (1 + u)**(2k) * (1 - SETTLED_SLACK) * B <= B whenever
# 2k * u <= SETTLED_SLACK, that is for k up to about 4.5e6 agents.  A larger
# slack only walks more trials; it never changes a bit.
SETTLED_SLACK = 1e-9


def _accepted_spend(prices, accepts):
    """Each trial's sum of accepted prices, added one agent row at a time.

    A row's accepted prices are its price bits times its accept mask, as
    int64: a price where the agent accepts, else the bits of +0.0, so a
    never-offered agent's NaN adds nothing.
    """
    total = np.zeros(prices.shape[1])
    bits = np.empty(prices.shape[1], dtype=np.int64)
    for p, acc in zip(prices.view(np.int64), accepts):
        np.multiply(p, acc, out=bits)
        total += bits.view(np.float64)
    return total


def _keep_lowest(orders, prices, accepts, budget, vf, v, s):
    """Walk each order over the (n, trials) batch; where a trial's value is
    below v, write it and its spend into v and s (the first order on ties)."""
    for order in orders:
        offered, spent = select_within_budget(prices, accepts, order, budget)
        cv = vf._evaluate_rows((offered & accepts).T)
        better = cv < v
        v[better] = cv[better]
        s[better] = spent[better]


def simulate_runs(menu: PriceMenu, instance: Instance, order_policy: str | None = None,
                  trials: int = DEFAULT_TRIALS, seed=None, n_orders: int = DEFAULT_ORDERS):
    """Realized mechanism values and spends over independent cost draws.

    order_policy None runs the menu's own.  Trials run in batches of
    TRIAL_CHUNK; each trial keeps its lowest value over the orders
    policy_orders gives (the first on ties).  So 'worst-of-sampled' keeps the
    worst of n_orders sampled permutations and the two per-trial heuristics,
    as an adversarial-order proxy.  The first order walks every trial of a
    batch.  The later ones walk only the trials that are not settled: where
    the accepted prices sum to at most (1 - SETTLED_SLACK) B, every order
    hires every accepter (see SETTLED_SLACK), so each gives the first order's
    set and value, and the first order's spend stands.  Value functions
    evaluate each row on its own, so the result is that of walking every
    order over every trial, bit for bit.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if n_orders < 0:
        raise ValueError("n_orders must be non-negative")
    order_policy = order_policy or menu.ordering_policy
    ss = np.random.SeedSequence(seed)
    cost_rng, lot_rng, order_rng = (np.random.default_rng(c) for c in ss.spawn(3))
    vf = instance.value
    sampled = [order_rng.permutation(instance.n) for _ in range(n_orders)] \
        if order_policy == "worst-of-sampled" else ()

    budget = instance.budget
    settled_at = (1.0 - SETTLED_SLACK) * budget
    values_out = np.empty(trials)
    spends_out = np.empty(trials)
    for done in range(0, trials, TRIAL_CHUNK):
        t = min(TRIAL_CHUNK, trials - done)
        prices = realize_prices(menu, lot_rng, t)
        accepts = _draw_accepts(instance.dists, cost_rng, prices)
        first, *later = policy_orders(order_policy, menu, vf, prices, order_rng, sampled)
        v = np.full(t, np.inf)
        s = np.zeros(t)
        _keep_lowest([first], prices, accepts, budget, vf, v, s)
        live = np.flatnonzero(~(_accepted_spend(prices, accepts) <= settled_at)) \
            if later else ()
        if len(live):
            if len(live) < t:  # gather the unsettled trials, unless that is all of them
                prices, accepts = prices[:, live], accepts[:, live]
                later = [o[:, live] if o.ndim == 2 else o for o in later]
            lv, ls = v[live], s[live]
            _keep_lowest(later, prices, accepts, budget, vf, lv, ls)
            v[live], s[live] = lv, ls
        values_out[done:done + t] = v
        spends_out[done:done + t] = s
        del prices, accepts, first, later  # free this batch before the next is built
    return values_out, spends_out


def monte_carlo_value(menu: PriceMenu, instance: Instance,
                      order_policy: str | None = None,
                      trials: int = DEFAULT_TRIALS, seed=None,
                      n_orders: int = DEFAULT_ORDERS) -> MCResult:
    """Mean realized mechanism value with its standard error (see simulate_runs)."""
    values, _ = simulate_runs(menu, instance, order_policy, trials, seed, n_orders)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("nan")
    return MCResult(mean=mean, stderr=stderr, trials=trials)


# ---------------------------------------------------------------------------
# Benchmarks and bound tables
# ---------------------------------------------------------------------------

def ex_ante_bound(instance: Instance, solution: ExAnteSolution = None,
                  kind: str = "auto", grid_size: int = DEFAULT_GRID,
                  **greedy_opts) -> BoundInfo:
    """Benchmark value no ex ante budget-feasible mechanism can beat.

    Solves the instance (with kind, grid_size and greedy_opts) unless given
    a full-budget solution.  Exact when the solution's solver_meta['solver']
    is additive or symmetric; a greedy solution is inflated by (1 - 1/e)^-2
    and flagged as a bound of a bound.
    """
    if instance.budget <= 0:
        return BoundInfo(value=0.0, exact=True)
    if solution is None:
        solution = solve_ex_ante(instance.dists, instance.value, instance.budget,
                                 kind=kind, grid_size=grid_size, **greedy_opts)
    if solution.solver_meta["solver"] != "greedy":
        return BoundInfo(value=solution.objective, exact=True)
    factor = (1.0 - 1.0 / math.e) ** 2
    return BoundInfo(value=solution.objective / factor, exact=False)


def overflow_probability(menu: PriceMenu, budget: float, k: float,
                         trials: int = DEFAULT_TRIALS, seed=None) -> OverflowEstimate:
    """Chance that the spend of all would-be accepters exceeds (1 - 1/k) B.

    The prices come from realize_prices.  Then each offered agent, in index
    order, takes one rng.random(trials) acceptance draw against the
    acceptance probability of her realized price (the menu quantile for a
    degenerate lottery).  The analytic ceiling uses the menu's recorded
    budget shrink when present.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = np.random.default_rng(seed)
    threshold = (1.0 - 1.0 / k) * budget
    prices = realize_prices(menu, rng, trials)
    lots, q = menu.lotteries, menu.quantiles
    degenerate = lots.degenerate
    total = np.zeros(trials)
    for i in np.flatnonzero(q > 0).tolist():
        acc_q = q[i] if degenerate[i] else np.where(prices[i] == lots.price_lo[i],
                                                    lots.q_lo[i], lots.q_hi[i])
        total += prices[i] * (rng.random(trials) < acc_q)
    hits = total > threshold
    p_hat = float(hits.mean())
    stderr = float(math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials))
    ceiling = None if menu.epsilon is None else float(overflow_ceiling(k, menu.epsilon))
    return OverflowEstimate(p_hat=p_hat, stderr=stderr, ceiling=ceiling)


def correlation_gap_experiment(k: int, n: int) -> GapResult:
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
    return GapResult(k=k, n=n, independent=independent, correlated=correlated,
                     ratio=independent / correlated, bound=correlation_gap_bound(k))


def bounds_table(k_values) -> list:
    """Sequential vs. best-shrink oblivious guarantees per market size; the
    oblivious columns are None where no shrink exists (see choose_epsilon)."""
    rows = []
    for k in map(float, k_values):
        try:
            eps = choose_epsilon(k)
            oblivious = oblivious_guarantee(k, eps)
        except SmallMarketError:
            eps = oblivious = None
        rows.append(BoundsRow(k=k, sequential=sequential_guarantee(k),
                              best_epsilon=eps, oblivious=oblivious))
    return rows


# ---------------------------------------------------------------------------
# Full experiment reports
# ---------------------------------------------------------------------------

def approximation_report(instance: Instance, mechanism: str,
                         trials: int = DEFAULT_TRIALS, seed: int = 0,
                         epsilon: float | None = None, n_orders: int = DEFAULT_ORDERS,
                         grid_size: int = DEFAULT_GRID,
                         kind: str = "auto", **greedy_opts) -> ExperimentReport:
    """Run a mechanism kind and compare it to its ex ante benchmark.

    mechanism is 'sequential' or 'oblivious'; kind is resolved once, and the
    report's variant is mechanism_variant's label under it.  The menu comes
    from mechanism_menu, with that kind, grid_size, seed and greedy_opts.
    With submodular-oblivious and no epsilon, the shrink is sized from the
    full-budget solve, which then also gives the benchmark.
    """
    vf = instance.value
    budget = instance.budget
    kind = solver_kind(instance.dists, vf, kind)
    variant = mechanism_variant(mechanism, kind, vf)
    opts = dict(kind=kind, grid_size=grid_size, seed=seed, **greedy_opts)
    menu, sol = mechanism_menu(instance.dists, vf, budget, mechanism, epsilon, **opts)

    bound_info = ex_ante_bound(instance, solution=sol, **opts)
    k = market_size(menu, budget).k
    if menu.epsilon is None:
        theoretical = sequential_guarantee(k)
    else:
        theoretical = (1.0 - 1.0 / math.e) * oblivious_guarantee(k, menu.epsilon)

    mc = monte_carlo_value(menu, instance, trials=trials, seed=seed,
                           n_orders=n_orders)
    denom = bound_info.value
    ratio = mc.mean / denom if denom > 0 else (1.0 if mc.mean == 0 else math.inf)
    return ExperimentReport(label=instance.label, variant=variant, trials=trials,
                            seed=seed, k=k, epsilon=menu.epsilon,
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


def csv_text(columns, rows) -> str:
    """A header line of columns, then one line per row: a tuple, or a result
    dataclass read in field order."""
    lines = [",".join(columns)]
    for r in rows:
        values = r if isinstance(r, tuple) else [getattr(r, f.name) for f in fields(r)]
        lines.append(",".join(_fmt(x) for x in values))
    return "\n".join(lines) + "\n"


# column names in the field order of ExperimentReport, BoundsRow and GapResult
REPORT_COLUMNS = ("label", "variant", "trials", "seed", "k", "epsilon",
                  "ex_ante_upper_bound", "bound_exact", "mechanism_mean",
                  "mechanism_stderr", "ratio", "theoretical_bound")
BOUNDS_COLUMNS = ("k", "sequential_bound", "best_epsilon", "oblivious_bound")
GAP_COLUMNS = ("k", "n", "independent_value", "correlated_value", "ratio", "bound")
