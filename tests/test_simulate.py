import math
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest

from postedpricing import (AdditiveValue, CostDistribution, CoverageValue, Instance,
                           OracleValue, PiecewiseLinearCDF, SymmetricValue, Uniform,
                           approximation_report, bang_per_buck_order, bounds_table,
                           build_oblivious, correlation_gap_experiment,
                           ex_ante_bound, ironed_curve,
                           market_size, menu_from_solution, monte_carlo_value,
                           overflow_probability, select_within_budget,
                           simulate_runs, solve_additive, solve_ex_ante,
                           solve_symmetric)
from postedpricing.mechanism import ORDER_POLICIES, policy_orders, realize_prices
from postedpricing.simulate import (BOUNDS_COLUMNS, GAP_COLUMNS, REPORT_COLUMNS,
                                    BoundInfo, csv_text)

from oracles import (PriceLottery, binom_tail_gt, coverage_rows_product, degenerate_lottery,
                     exact_worst_order_values, hull_at, irregular_priors, lottery_quantile,
                     mechanism_expectation, menu_of, overflow_probability_full_matrix,
                     policy_orders_trial_major, realize_prices_trial_major, reference_walk,
                     select_within_budget_masks, select_within_budget_where,
                     simulate_runs_all_orders, subset_first_worst_order_values,
                     two_price_lottery)

U01 = Uniform(0, 1)


def _uniform_instance(n, budget):
    return Instance(dists=(U01,) * n, value=AdditiveValue((1.0,) * n),
                    budget=float(budget), label=f"u{n}")


def test_monte_carlo_zero_quantiles():
    menu = menu_of((degenerate_lottery(U01, 0.0),) * 2, np.zeros(2), ordering_policy="fixed")
    inst = _uniform_instance(2, 1.0)
    mc = monte_carlo_value(menu, inst, order_policy="fixed", trials=500, seed=0)
    assert mc.mean == 0.0 and mc.stderr == 0.0


def test_monte_carlo_single_agent_bernoulli():
    menu = menu_of((degenerate_lottery(U01, 0.5),), np.array([0.5]), ordering_policy="fixed")
    inst = _uniform_instance(1, 1.0)
    mc = monte_carlo_value(menu, inst, order_policy="fixed", trials=40_000, seed=1)
    assert abs(mc.mean - 0.5) <= 3 * mc.stderr


def test_monte_carlo_matches_enumeration_small_instance():
    d = PiecewiseLinearCDF(((0.0, 0.0), (0.2, 0.5), (0.8, 0.6), (1.0, 1.0)))
    ic = ironed_curve(d)
    lot = two_price_lottery(ic, d, 0.5 * sum(ic.intervals[0]))
    lots = (degenerate_lottery(U01, 0.7), lot, degenerate_lottery(U01, 0.3))
    quant = np.array([0.7, lottery_quantile(lot), 0.3])
    menu = menu_of(lots, quant, ordering_policy="fixed")
    vf = AdditiveValue((1.0, 0.8, 1.2))
    inst = Instance(dists=(U01, d, U01), value=vf, budget=1.1)
    exact = mechanism_expectation(menu.lotteries, quant > 0, vf, (0, 1, 2), 1.1)
    mc = monte_carlo_value(menu, inst, order_policy="fixed", trials=60_000, seed=3)
    assert abs(mc.mean - exact) <= 4 * mc.stderr


def test_simulate_runs_trials_validated():
    menu = menu_of((degenerate_lottery(U01, 0.5),), np.array([0.5]), ordering_policy="fixed")
    with pytest.raises(ValueError):
        simulate_runs(menu, _uniform_instance(1, 1.0), "fixed", trials=0)
    with pytest.raises(ValueError):
        simulate_runs(menu, _uniform_instance(1, 1.0), "nope", trials=10)


def test_negative_n_orders_rejected():
    menu = menu_of((degenerate_lottery(U01, 0.5),), np.array([0.5]), ordering_policy="worst-of-sampled")
    inst = _uniform_instance(1, 1.0)
    with pytest.raises(ValueError, match="n_orders"):
        simulate_runs(menu, inst, trials=10, n_orders=-3)
    with pytest.raises(ValueError, match="n_orders"):
        monte_carlo_value(menu, inst, trials=10, n_orders=-3)


def test_simulate_runs_deterministic_given_seed():
    inst = _uniform_instance(4, 1.0)
    sol = solve_additive(inst.dists, [1.0] * 4, 1.0)
    menu = menu_from_solution(sol, "bang-per-buck")
    a1, s1 = simulate_runs(menu, inst, "bang-per-buck", trials=2000, seed=7)
    a2, s2 = simulate_runs(menu, inst, "bang-per-buck", trials=2000, seed=7)
    assert np.array_equal(a1, a2) and np.array_equal(s1, s2)


def test_monte_carlo_runs_the_menu_policy():
    # index order offers the three value-1 agents first; bang-per-buck order
    # offers the best value per price first
    inst = Instance(dists=(U01,) * 3 + (Uniform(0, 3),) * 3,
                    value=AdditiveValue((1.0,) * 3 + (3.0,) * 3), budget=2.0)
    sol = solve_additive(inst.dists, inst.value.as_array(), inst.budget)
    menu = menu_from_solution(sol, "fixed")

    def mean(policy):
        return monte_carlo_value(menu, inst, order_policy=policy, trials=20_000,
                                 seed=1).mean

    assert mean(None) == mean("fixed")
    assert mean(None) != mean("bang-per-buck")


def test_simulate_runs_external_menu_needs_a_policy():
    menu = menu_of((degenerate_lottery(U01, 0.5),), np.array([0.5]))
    with pytest.raises(ValueError, match="external"):
        simulate_runs(menu, _uniform_instance(1, 1.0), trials=10)


def test_vectorized_and_walk_paths_agree():
    # the batched walk against the independent reference walk, trial by trial
    rng = np.random.default_rng(21)
    trials, n, budget = 300, 7, 1.5
    # dyadic prices add exactly, so some trials land the spend on the budget
    prices = rng.choice([0.25, 0.5, 0.75], size=(n, trials))
    prices[rng.random((n, trials)) < 0.15] = np.nan  # never offered
    accepts = rng.random((n, trials)) < 0.6
    shared = tuple(int(i) for i in rng.permutation(n))
    per_trial = np.array([rng.permutation(n) for _ in range(trials)]).T
    for order in (shared, per_trial):
        offered, spent = select_within_budget(prices, accepts, order, budget)
        assert offered.shape == (n, trials)
        assert np.all(spent <= budget) and np.any(spent == budget)
        selected = offered & accepts
        for r in range(trials):
            trial_order = order if order is shared else order[:, r]
            ref_selected, ref_spent = reference_walk(prices[:, r], accepts[:, r],
                                                     trial_order, budget)
            assert np.flatnonzero(selected[:, r]).tolist() == sorted(ref_selected)
            assert spent[r] == ref_spent
            # a one-trial batch, as run() walks it
            off, one_spent = select_within_budget(prices[:, r:r + 1], accepts[:, r:r + 1],
                                                  trial_order, budget)
            assert np.array_equal(off[:, 0], offered[:, r]) and one_spent[0] == spent[r]


@pytest.mark.parametrize("seed", range(6))
def test_walk_matches_the_three_output_walk(seed):
    # 50 random batches per seed: the hires are offered & accepts, bit for
    # bit; the three-output walk is trial-major, so it reads the transposes
    rng = np.random.default_rng(300 + seed)
    for _ in range(50):
        trials, n = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        if rng.random() < 0.5:
            prices = rng.choice([0.25, 0.5, 0.75, 1.0], size=(n, trials))
        else:
            prices = rng.uniform(0.01, 1.0, (n, trials))
        prices[rng.random((n, trials)) < 0.2] = np.nan  # never offered
        accepts = rng.random((n, trials)) < rng.random()
        budget = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 0.6 * n))
        order = (tuple(int(i) for i in rng.permutation(n)) if rng.random() < 0.5
                 else np.argsort(rng.random((n, trials)), axis=0))
        offered, spent = select_within_budget(prices, accepts, order, budget)
        ref_selected, ref_offered, ref_spent = select_within_budget_masks(
            prices.T, accepts.T, np.transpose(order), budget)
        assert offered.dtype == bool and np.array_equal(offered, ref_offered.T)
        assert np.array_equal(offered & accepts, ref_selected.T)
        assert spent.tobytes() == ref_spent.tobytes()


def _walk_case(case, n, width, rng):
    """prices, accepts and budget of one walk case over an (n, width) batch."""
    if case == "sym":  # equal prices at acceptance 1/2
        return np.full((n, width), 0.3), rng.random((n, width)) < 0.5, 0.25 * n * 0.3
    # dyadic prices add exactly, so some trials land the spend on the budget
    prices = rng.choice([0.25, 0.5, 0.75], size=(n, width))
    accepts = rng.random((n, width)) < 0.6
    if case == "nan-rows":  # agents never offered in any trial
        prices[rng.random(n) < 0.3] = np.nan
    elif case == "nan-scattered":
        prices[rng.random((n, width)) < 0.2] = np.nan
    elif case == "signed-zeros":  # hires that leave the spend's bits as they are
        prices[rng.random((n, width)) < 0.4] = 0.0
        prices[rng.random((n, width)) < 0.4] = -0.0
    elif case == "below-half-ulp":  # 1e-17 < ulp(0.25) / 2: a hire adds nothing
        prices[rng.random((n, width)) < 0.5] = 1e-17
    elif case == "overflow":  # two of these sum to inf, which never fits
        prices = rng.choice([1e308, 1.5e308], size=(n, width))
        return prices, accepts, 1.7e308
    return prices, accepts, 0.0 if case == "budget-0" else 0.5 * max(1, n // 3)


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-trial"])
@pytest.mark.parametrize("n", [1, 10, 32, 64])
@pytest.mark.parametrize("width", [1, 7, 300, 4_999, 20_000])
# the overflow case's sums reach inf, and inf times a False hire is NaN
@pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning",
                            "ignore:invalid value encountered in multiply:RuntimeWarning")
def test_walk_matches_the_where_walk(width, n, shared):
    # the walk against the np.where walk it replaced, bit for bit; no input
    # is written
    rng = np.random.default_rng([width, n, int(shared)])
    for case in ("sym", "dyadic", "nan-rows", "nan-scattered", "budget-0",
                 "signed-zeros", "below-half-ulp", "overflow"):
        prices, accepts, budget = _walk_case(case, n, width, rng)
        order = rng.permutation(n) if shared else np.argsort(rng.random((n, width)), axis=0)
        inputs = [a.copy() for a in (prices, accepts, order)]
        offered, spent = select_within_budget(prices, accepts, order, budget)
        ref_offered, ref_spent = select_within_budget_where(prices, accepts, order, budget)
        assert offered.dtype == bool and np.array_equal(offered, ref_offered), case
        assert spent.tobytes() == ref_spent.tobytes(), case
        assert all(a.tobytes() == b.tobytes() for a, b in zip((prices, accepts, order), inputs))
        if case == "dyadic" and width >= 300:
            assert np.any(spent == budget)


def test_shared_order_walk_reads_the_batch_in_place():
    # gathering the batch in its order would allocate its whole size again
    rng = np.random.default_rng(31)
    prices = np.full((64, 20_000), 0.3)
    accepts = rng.random(prices.shape) < 0.5
    order = rng.permutation(64)
    tracemalloc.start()
    try:
        select_within_budget(prices, accepts, order, 0.25 * 64 * 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < prices.nbytes


def _reference_bang_per_buck(values, prices):
    active = [i for i in range(len(values)) if not np.isnan(prices[i])]
    inactive = [i for i in range(len(values)) if np.isnan(prices[i])]
    return tuple(sorted(active, key=lambda i: (-values[i] / prices[i], i)) + inactive)


def test_bang_per_buck_order_rows_match_single_rows():
    rng = np.random.default_rng(22)
    trials, n = 200, 8
    values = np.array([1.0, 2.0, 0.0, 1.0, 2.0, 0.0, 3.0, 1.5])
    prices = rng.choice([0.5, 1.0, 2.0], size=(n, trials))  # many ratio ties
    per_agent = np.array([0.5, 0.0, 0.5, 0.5, 0.0, 0.5, 0.5, 0.5])[:, None]
    per_trial = np.where(rng.random((n, trials)) < 0.2, 0.0, 0.5)
    for quantiles in (per_agent, per_trial):
        inactive_prices = np.where(np.broadcast_to(quantiles, prices.shape) > 0,
                                   prices, np.nan)  # never offered, never priced
        columns = bang_per_buck_order(values, inactive_prices)
        assert columns.shape == (n, trials)
        for r in range(trials):
            single = bang_per_buck_order(values, inactive_prices[:, r])
            assert np.array_equal(columns[:, r], single)
            assert tuple(single.tolist()) == _reference_bang_per_buck(values,
                                                                      inactive_prices[:, r])


def _layout_menu(n, lotteries, rng):
    """n agents on four kinked piecewise-linear priors: with lotteries, two of
    every three agents draw a two-price lottery inside an ironed interval;
    every fifth agent from agent 1 on is never offered."""
    priors = irregular_priors(5, 8)[1::2]
    lots = []
    for i in range(n):
        d = priors[i % 4]
        ic = ironed_curve(d)
        if i % 5 == 1:
            lots.append(degenerate_lottery(d, 0.0))
        elif lotteries and i % 3 != 2:
            a, b = ic.intervals[0]
            lots.append(two_price_lottery(ic, d, float(a + (b - a) * rng.uniform(0.2, 0.8))))
        else:
            lots.append(degenerate_lottery(d, float(rng.uniform(0.1, 0.9))))
    return menu_of(lots, np.array([lottery_quantile(l) for l in lots]))


@pytest.mark.parametrize("lotteries", [True, False], ids=["lottery", "lottery-free"])
@pytest.mark.parametrize("n", [1, 2, 16, 64])
def test_agent_major_path_matches_the_trial_major_oracle(n, lotteries):
    # prices, every policy's orders and every walk equal the trial-major
    # route's transposed, bit for bit: shared and per-trial orders, NaN prices
    rng = np.random.default_rng(400 + n)
    menu = _layout_menu(n, lotteries, rng)
    assert menu.has_lotteries == lotteries
    trials, budget = 500, 0.3 * n
    prices = realize_prices(menu, np.random.default_rng(1), trials)
    ref_prices = realize_prices_trial_major(menu, np.random.default_rng(1), trials)
    assert prices.shape == (n, trials)
    assert np.array_equal(prices, ref_prices.T, equal_nan=True)
    assert np.isnan(prices).any() == (n >= 2)
    accepts = rng.uniform(0.0, 1.5, (n, trials)) <= prices
    sampled = [rng.permutation(n) for _ in range(3)]
    additive = AdditiveValue(rng.choice([0.0, 0.5, 1.0, 2.0], n))  # ratio ties
    symmetric = SymmetricValue(tuple(float(s) ** 0.5 for s in range(n + 1)))
    shapes = set()
    for vf in (additive, symmetric):
        for policy in ORDER_POLICIES:
            if policy == "bang-per-buck" and vf is symmetric:
                continue
            orders = policy_orders(policy, menu, vf, prices, np.random.default_rng(2),
                                   sampled)
            ref_orders = policy_orders_trial_major(policy, menu, vf, ref_prices,
                                                   np.random.default_rng(2), sampled)
            assert len(orders) == len(ref_orders)
            for order, ref_order in zip(orders, ref_orders):
                assert np.array_equal(order, ref_order.T)
                shapes.add(order.shape)
                offered, spent = select_within_budget(prices, accepts, order, budget)
                _, ref_offered, ref_spent = select_within_budget_masks(
                    ref_prices, accepts.T, ref_order, budget)
                assert np.array_equal(offered, ref_offered.T)
                assert spent.tobytes() == ref_spent.tobytes()
    assert (n,) in shapes and (n, trials) in shapes


@pytest.mark.parametrize("lotteries", [True, False], ids=["lottery", "lottery-free"])
def test_overflow_probability_matches_the_full_matrix_route(lotteries):
    menu = _layout_menu(16, lotteries, np.random.default_rng(8))
    spends = (menu.lotteries.price_lo * menu.quantiles).tolist()
    budget = float(sum(spends) + menu.lotteries.max_price.max())
    k = market_size(menu, budget).k
    for seed in range(3):
        est = overflow_probability(menu, budget, k, trials=20_000, seed=seed)
        assert 0.05 < est.p_hat < 0.95
        assert est == overflow_probability_full_matrix(menu, budget, k, 20_000, seed)


def _random_coverage(rng, n, m):
    """n agents over a universe of m elements with uneven weights."""
    return CoverageValue(rng.lognormal(0.0, 2.0, m),
                         [tuple(np.flatnonzero(rng.random(m) < rng.uniform(0.02, 0.5)))
                          for _ in range(n)])


def _orders_market(kind, lotteries, budget):
    """_layout_menu's 16 agents on their priors, with one value class."""
    n = 16
    rng = np.random.default_rng(31)
    menu = _layout_menu(n, lotteries, rng)
    priors = irregular_priors(5, 8)[1::2]
    vf = {"additive": lambda: AdditiveValue(rng.choice([0.5, 1.0, 2.0], n)),
          "symmetric": lambda: SymmetricValue(tuple(float(s) ** 0.5 for s in range(n + 1))),
          "coverage": lambda: _random_coverage(rng, n, 40),
          "oracle": lambda: OracleValue(n, lambda s: math.sqrt(sum(i + 1 for i in s)))}[kind]()
    return menu, Instance(dists=tuple(priors[i % 4] for i in range(n)), value=vf,
                          budget=budget)


# the accepted prices of one trial sum to about 6 here: 0.8 leaves nearly
# every trial unsettled, 6.0 about half, and 16.0 none
ORDERS_BUDGETS = (0.8, 6.0, 16.0)


def _all_orders_cases(kind):
    """(budget, policy, trials, n_orders): every policy at the mixed budget,
    worst-of-sampled at all three, and for the vectorised value classes a
    run past one batch of 20,000 trials (a second, shorter batch follows).
    The black-box class evaluates one row at a time, so its batches are
    smaller."""
    sizes = (1, 3, 499) if kind == "oracle" else (1, 3, 4_999)
    for policy in ORDER_POLICIES:
        if policy == "bang-per-buck" and kind != "additive":
            continue
        for budget in ORDERS_BUDGETS if policy == "worst-of-sampled" else (6.0,):
            for trials in sizes:
                yield budget, policy, trials, 20
    if kind != "oracle":
        yield 6.0, "worst-of-sampled", 20_001, 3


@pytest.mark.parametrize("lotteries", [True, False], ids=["lottery", "lottery-free"])
@pytest.mark.parametrize("kind", ["additive", "symmetric", "coverage", "oracle"])
def test_simulate_runs_matches_the_all_orders_walk(kind, lotteries):
    # values and spends equal the route that walks every order over every
    # trial, bit for bit
    for budget, policy, trials, n_orders in _all_orders_cases(kind):
        menu, inst = _orders_market(kind, lotteries, budget)
        got = simulate_runs(menu, inst, policy, trials, 5, n_orders)
        want = simulate_runs_all_orders(menu, inst, policy, trials, 5, n_orders)
        assert got[0].tobytes() == want[0].tobytes(), (budget, policy, trials)
        assert got[1].tobytes() == want[1].tobytes(), (budget, policy, trials)


def test_later_orders_walk_only_the_unsettled_trials(monkeypatch):
    # the first order walks every trial; the later ones walk the unsettled
    # trials only, all of them without a gather, and none when every trial
    # is settled
    from postedpricing import simulate

    widths = []

    def walk(prices, accepts, order, budget):
        widths.append(prices.shape[1])
        return select_within_budget(prices, accepts, order, budget)

    monkeypatch.setattr(simulate, "select_within_budget", walk)
    seen = []
    for budget in ORDERS_BUDGETS:
        menu, inst = _orders_market("additive", True, budget)
        widths.clear()
        simulate_runs(menu, inst, "worst-of-sampled", 4_999, seed=0, n_orders=2)
        seen.append(list(widths))
    tight, mixed, loose = seen
    assert tight == [4_999] * 4
    assert mixed[0] == 4_999 and len(mixed) == 4 and len(set(mixed[1:])) == 1
    assert 1_000 < mixed[1] < 4_000
    assert loose == [4_999]


class _AntitheticDraws(CostDistribution):
    """A prior whose own sample pairs each uniform u with 1 - u, so it takes
    half as many draws from the stream as the inverse-transform default."""

    def __init__(self, base):
        self.base = base
        self.support_lo, self.support_hi = base.support_lo, base.support_hi

    def inverse_cdf(self, q):
        return self.base.inverse_cdf(q)

    def sample(self, rng, size=None):
        u = rng.random((size + 1) // 2)
        return self.base.inverse_cdf(np.concatenate((u, 1.0 - u))[:size])


@pytest.mark.parametrize("policy", ORDER_POLICIES)
def test_priors_that_override_sample_keep_their_own_draws(policy):
    # every third agent draws antithetic costs; over three batches each
    # prior's own sample is called once per batch, in agent order, as the
    # stacked-cost route calls it
    menu, inst = _orders_market("additive", True, 6.0)
    dists = tuple(_AntitheticDraws(d) if i % 3 == 0 else d for i, d in enumerate(inst.dists))
    inst = Instance(dists=dists, value=inst.value, budget=inst.budget)
    got = simulate_runs(menu, inst, policy, 45_000, 9, n_orders=3)
    want = simulate_runs_all_orders(menu, inst, policy, 45_000, 9, n_orders=3)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("policy", ["fixed", "worst-of-sampled"])
def test_a_batch_holds_no_cost_matrix(policy):
    # costs are compared row by row into the accept mask, so a lottery-free
    # batch at n = 64 peaks below two (n, trials) float64 arrays: the prices,
    # the accept, offer and hire masks and, where about half of the trials
    # are settled, the gathered prices of the rest
    n, trials = 64, 20_000
    menu = menu_of([degenerate_lottery(U01, 0.5)] * n, np.full(n, 0.5))
    inst = Instance(dists=(U01,) * n, value=SymmetricValue(tuple(s ** 0.8 for s in range(n + 1))),
                    budget=0.5 * n * 0.5)
    tracemalloc.start()
    try:
        simulate_runs(menu, inst, policy, trials, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n * trials * 8


def _boundary_market(value):
    """Prices 0.3, 0.2 and 0.1 against a budget of 0.6, so a trial where all
    three accept is the textbook rounding case: (0.3 + 0.2) + 0.1 is 0.6 in
    floats, but (0.1 + 0.2) + 0.3 exceeds it, and so do four of the six
    orders."""
    lots = [PriceLottery(p, p, 1.0, 1.0, 1.0) for p in (0.3, 0.2, 0.1)]
    menu = menu_of(lots, [1.0, 1.0, 1.0], ordering_policy="worst-of-sampled")
    return menu, Instance(dists=(Uniform(0.0, 0.3),) * 3, value=value, budget=0.6)


@pytest.mark.parametrize("vf", [AdditiveValue((1.0, 1.0, 1.0)),
                                CoverageValue((1.0, 0.5, 2.0), ((0,), (1, 2), (0, 2)))],
                         ids=["additive", "coverage"])
def test_orders_that_overflow_by_rounding_are_walked(vf):
    # the accepted prices sum to exactly the budget in agent order, so those
    # trials are not settled.  The first sampled order at this seed,
    # (1, 0, 2), hires all three, and later ones skip an agent.
    assert (0.3 + 0.2) + 0.1 == 0.6 < (0.1 + 0.2) + 0.3
    first = np.random.default_rng(np.random.SeedSequence(1).spawn(3)[2]).permutation(3)
    assert first.tolist() == [1, 0, 2]
    menu, inst = _boundary_market(vf)
    got_v, got_s = simulate_runs(menu, inst, trials=3_000, seed=1, n_orders=20)
    want_v, want_s = simulate_runs_all_orders(menu, inst, trials=3_000, seed=1, n_orders=20)
    assert got_v.tobytes() == want_v.tobytes() and got_s.tobytes() == want_s.tobytes()
    # index order hires all three exactly where it spends 0.6; the worst
    # order of each such trial hires fewer
    fixed_v, fixed_s = simulate_runs(menu, inst, "fixed", trials=3_000, seed=1)
    all_in = fixed_s == 0.6
    assert 0.15 < all_in.mean() < 0.3
    assert np.all(fixed_v[all_in] == vf.evaluate((0, 1, 2)))
    assert np.all(got_v[all_in] < fixed_v[all_in])


def test_trials_whose_first_order_skips_an_accepter_are_walked(monkeypatch):
    # prices 0.3 and 0.8 against a budget of 1: where both accept, the first
    # sampled order at this seed, (0, 1), hires the cheap one and skips the
    # dear one, spending far below the budget.  Those trials are not
    # settled: the later orders walk them, and the descending-price order
    # hires the dear agent alone, of lower value.
    from postedpricing import simulate

    first = np.random.default_rng(np.random.SeedSequence(1).spawn(3)[2]).permutation(2)
    assert first.tolist() == [0, 1]
    menu = menu_of([degenerate_lottery(U01, 0.3), degenerate_lottery(U01, 0.8)],
                   [0.3, 0.8], ordering_policy="worst-of-sampled")
    inst = Instance(dists=(U01, U01), value=AdditiveValue((1.0, 0.5)), budget=1.0)
    widths = []

    def walk(prices, accepts, order, budget):
        widths.append(prices.shape[1])
        return select_within_budget(prices, accepts, order, budget)

    monkeypatch.setattr(simulate, "select_within_budget", walk)
    got_v, got_s = simulate_runs(menu, inst, trials=2_000, seed=1, n_orders=3)
    want_v, want_s = simulate_runs_all_orders(menu, inst, trials=2_000, seed=1, n_orders=3)
    assert got_v.tobytes() == want_v.tobytes() and got_s.tobytes() == want_s.tobytes()
    # index order hires the cheap agent alone where both accept
    fixed_v, fixed_s = simulate_runs(menu, inst, "fixed", trials=2_000, seed=1)
    both = got_v < fixed_v
    assert 0.15 < both.mean() < 0.35
    assert np.all(fixed_s[both] == 0.3) and np.all(got_s[both] == 0.8)
    assert widths[:5] == [2_000] + [int(both.sum())] * 4


# worst-of-sampled's mean over the exact worst order's mean, less 1, at the
# default 20 orders: the largest gaps on 25 seeded markets per n = 4 ... 7
# were 0.18% (additive) and 12% (coverage), both at n = 7
WORST_ORDER_GAP = {"additive": 0.005, "coverage": 0.15}


def _worst_order_markets(n):
    """(kind, menu, instance) of an additive and a coverage market of n
    Uniform(0, h) agents at budget 0.3 n.  The additive menu is priced for
    its values at 0.7 of the budget, the coverage one for equal values at
    the whole budget."""
    rng = np.random.default_rng(700 + n)
    dists = tuple(Uniform(0.0, float(h)) for h in rng.uniform(0.6, 1.4, n))
    budget = 0.3 * n
    additive, coverage = AdditiveValue(rng.uniform(0.5, 2.0, n)), _random_coverage(rng, n, 12)
    for kind, vf, weights, share in (("additive", additive, additive.as_array(), 0.7),
                                     ("coverage", coverage, np.ones(n), 1.0)):
        menu = menu_from_solution(solve_additive(dists, weights, share * budget),
                                  "worst-of-sampled")
        yield kind, menu, Instance(dists=dists, value=vf, budget=budget)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_worst_of_sampled_is_never_below_the_exact_worst_order(n):
    # on the streams of simulate_runs, the lowest value over all n! orders
    # bounds worst-of-sampled from below, per trial, and its mean from 20
    # orders sits within WORST_ORDER_GAP of the exact one; the two
    # heuristics alone sit above it in some trials of some market.  The
    # 2**n subset-first orders give the same lowest values.
    above = []
    for kind, menu, inst in _worst_order_markets(n):
        exact = exact_worst_order_values(menu, inst, 300, seed=n)
        assert subset_first_worst_order_values(menu, inst, 300, seed=n).tobytes() \
            == exact.tobytes()
        heuristics, _ = simulate_runs(menu, inst, trials=300, seed=n, n_orders=0)
        sampled, _ = simulate_runs(menu, inst, trials=300, seed=n)
        assert np.all(sampled >= exact) and np.all(heuristics >= sampled)
        assert sampled.mean() <= (1.0 + WORST_ORDER_GAP[kind]) * exact.mean()
        above.append(np.any(heuristics > exact))
    assert any(above)


@pytest.mark.parametrize("n", [8, 9, 10])
def test_worst_of_sampled_is_never_below_the_subset_first_worst_order(n):
    # past n = 7, where n! orders take too long, the 2**n subset-first orders
    # give the exact worst order: it bounds worst-of-sampled from below, per
    # trial, and the heuristics alone sit above it in some trials
    above = []
    for _, menu, inst in _worst_order_markets(n):
        exact = subset_first_worst_order_values(menu, inst, 300, seed=n)
        heuristics, _ = simulate_runs(menu, inst, trials=300, seed=n, n_orders=0)
        sampled, _ = simulate_runs(menu, inst, trials=300, seed=n)
        assert np.all(sampled >= exact) and np.all(heuristics >= sampled)
        above.append(np.any(heuristics > exact))
    assert any(above)


EVALUATE_ROWS_VALUES = pytest.mark.parametrize("vf", [
    AdditiveValue((0.1, 0.7, 1.3, 0.2, 2.9, 0.3, 1e-3, 5.5)),
    SymmetricValue((0.0, 1.0, 1.7, 2.2, 2.5, 2.7, 2.8, 2.85, 2.9)),
    CoverageValue((0.3, 1.1, 0.7, 2.0, 0.1),
                  ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1,), (), (0, 2, 4))),
    _random_coverage(np.random.default_rng(22), 10, 200),
    OracleValue(8, lambda s: math.sqrt(sum(i + 1 for i in s)))],
    ids=["additive", "symmetric", "coverage", "coverage-200", "oracle"])


@EVALUATE_ROWS_VALUES
def test_evaluate_rows_matches_evaluate(vf):
    # a batch gives each trial evaluate's value bit for bit, so run() and
    # simulate_runs read the same value off the same hires
    hires = np.random.default_rng(23).random((vf.n, 300)) < 0.5
    got = vf._evaluate_hires(hires)
    want = np.array([vf.evaluate(np.flatnonzero(h)) for h in hires.T])
    assert got.tobytes() == want.tobytes()


@EVALUATE_ROWS_VALUES
def test_evaluate_rows_reads_transposed_masks_bit_for_bit(vf):
    # the sampled multilinear extension hands its (samples, n) draw over as
    # a transposed view; a contiguous copy must give the same bytes
    rng = np.random.default_rng(24)
    for _ in range(20):
        draw = rng.random((500, vf.n)) < rng.uniform(0.1, 0.9)
        got = vf._evaluate_hires(draw.T)
        assert got.tobytes() == vf._evaluate_hires(np.ascontiguousarray(draw.T)).tobytes()


@pytest.mark.parametrize("vf", [
    AdditiveValue(np.random.default_rng(26).lognormal(0.0, 2.0, 40)),
    SymmetricValue(tuple(float(s) ** 0.5 for s in range(41))),
    _random_coverage(np.random.default_rng(27), 12, 30),
    _random_coverage(np.random.default_rng(28), 40, 300),
    _random_coverage(np.random.default_rng(29), 20, 9_000),
    OracleValue(40, lambda s: math.sqrt(sum(i + 1 for i in s)))],
    ids=["additive", "symmetric", "coverage-30", "coverage-300", "coverage-9000", "oracle"])
def test_evaluate_rows_is_row_independent(vf):
    # simulate_runs evaluates later orders on the unsettled trials alone, so
    # a trial must get the same bytes in any batch: alone, in sub-batches of
    # 2, 3 or 7 trials, and in a permuted batch
    rng = np.random.default_rng(30)
    trials = 60 if len(getattr(vf, "weights", ())) > 1_000 else 400
    hires = rng.random((vf.n, trials)) < rng.uniform(0.1, 0.9, (1, trials))
    full = vf._evaluate_hires(hires)
    for size in (1, 2, 3, 7):
        parts = [vf._evaluate_hires(hires[:, at:at + size]) for at in range(0, trials, size)]
        assert np.concatenate(parts).tobytes() == full.tobytes(), size
    perm = rng.permutation(trials)
    assert vf._evaluate_hires(hires[:, perm]).tobytes() == full[perm].tobytes()


def test_coverage_evaluate_rows_reads_transposed_masks_bit_for_bit():
    # wide random universes with uneven weights, where the weighted sum of the
    # covered elements is long enough for a matrix product to block it
    rng = np.random.default_rng(25)
    for _ in range(200):
        n, m = int(rng.integers(2, 40)), int(rng.integers(1, 300))
        vf = CoverageValue(rng.lognormal(0.0, 2.0, m),
                           [tuple(np.flatnonzero(rng.random(m) < rng.uniform(0.02, 0.5)))
                            for _ in range(n)])
        draw = rng.random((int(rng.integers(1, 400)), n)) < rng.uniform(0.05, 0.95)
        got = vf._evaluate_hires(draw.T)
        assert got.tobytes() == vf._evaluate_hires(np.ascontiguousarray(draw.T)).tobytes()
        # the matrix product sums in another order: each route's m - 1
        # additions may each round by half an ulp of a sum of at most sum(w)
        tol = m * np.finfo(float).eps * sum(vf.weights)
        assert np.all(np.abs(got - coverage_rows_product(vf, draw)) <= tol)


def test_ex_ante_bound_examples():
    inst = _uniform_instance(16, 4.0)
    info = ex_ante_bound(inst)
    assert info.exact and info.value == pytest.approx(8.0, abs=1e-6)
    zero = ex_ante_bound(Instance(dists=(U01,), value=AdditiveValue((1.0,)),
                                  budget=0.0))
    assert zero.value == 0.0
    sym = Instance(dists=(U01,) * 2, value=SymmetricValue((0.0, 1.0, 1.0)),
                   budget=0.5)
    info = ex_ante_bound(sym)
    sol = solve_symmetric(U01, (0.0, 1.0, 1.0), 0.5)
    assert info.exact and info.value == pytest.approx(sol.objective)


def test_ex_ante_bound_reads_the_solver_off_the_solution():
    # a greedy solution of an additive market is a bound of a bound, whatever
    # kind the call names
    inst = Instance(dists=(U01,) * 4, value=AdditiveValue((1.0,) * 4), budget=1.0)
    g = solve_ex_ante(inst.dists, inst.value, inst.budget, kind="greedy", m=16)
    given = ex_ante_bound(inst, solution=g)
    assert not given.exact
    assert given.value == g.objective / (1.0 - 1.0 / math.e) ** 2
    assert given == ex_ante_bound(inst, kind="greedy", m=16)
    assert ex_ante_bound(inst) == BoundInfo(value=2.0, exact=True)


def test_ex_ante_bound_symmetric_matches_grid_search():
    from postedpricing import concave_closure_symmetric

    g = (0.0, 1.0, 1.0)
    inst = Instance(dists=(U01,) * 2, value=SymmetricValue(g), budget=0.5)
    info = ex_ante_bound(inst)
    ic = ironed_curve(U01)
    qs = np.linspace(0, 1, 4001)
    best = max(concave_closure_symmetric(SymmetricValue(g), float(q))
               for q in qs if 2 * hull_at(ic, q) <= 0.5)
    assert info.value >= best - 1e-3


def test_overflow_zero_quantiles():
    menu = menu_of((degenerate_lottery(U01, 0.0),) * 2, np.zeros(2))
    est = overflow_probability(menu, 1.0, 10.0, trials=2000, seed=0)
    assert est.p_hat == 0.0


def test_overflow_zero_when_everything_fits():
    menu = menu_of((degenerate_lottery(U01, 0.3),) * 2, np.full(2, 0.3))
    # two prices of 0.3 always fit under (1 - 1/k) * 1.0 = 0.9
    est = overflow_probability(menu, 1.0, 10.0, trials=2000, seed=0)
    assert est.p_hat == 0.0


@pytest.mark.parametrize("trials", [0, -5])
def test_overflow_trials_validated(trials):
    menu = menu_of((degenerate_lottery(U01, 0.3),) * 2, np.full(2, 0.3))
    with pytest.raises(ValueError, match="trials must be positive"):
        overflow_probability(menu, 1.0, 10.0, trials=trials, seed=0)


def test_overflow_matches_exact_binomial():
    n, budget, eps = 64, 4.0, 0.2
    menu = build_oblivious([U01] * n, AdditiveValue((1.0,) * n), budget, eps)
    k = market_size(menu, budget).k
    price = menu.lotteries.price_lo[0]
    q = menu.quantiles[0]
    est = overflow_probability(menu, budget, k, trials=50_000, seed=2)
    exact = binom_tail_gt(n, float(q), (1 - 1 / k) * budget / price)
    se = math.sqrt(max(exact * (1 - exact), 1e-12) / 50_000)
    assert abs(est.p_hat - exact) <= 4 * max(se, est.stderr)
    assert est.ceiling == pytest.approx(math.exp(-eps ** 2 * (1 - eps) * k / 12))


def test_overflow_with_lotteries_matches_enumeration():
    # each offered agent adds price_lo w.p. prob_lo * q_lo, price_hi w.p.
    # (1 - prob_lo) * q_hi (one price w.p. q when degenerate), independently
    d = PiecewiseLinearCDF(((0.0, 0.0), (0.2, 0.5), (0.8, 0.6), (1.0, 1.0)))
    ic = ironed_curve(d)
    a, b = ic.intervals[0]
    lots = (two_price_lottery(ic, d, 0.3 * a + 0.7 * b), degenerate_lottery(U01, 0.5),
            two_price_lottery(ic, d, 0.6 * a + 0.4 * b), degenerate_lottery(U01, 0.0))
    menu = menu_of(lots, np.array([lottery_quantile(l) for l in lots]))
    assert menu.has_lotteries
    budget, k, trials = 1.2, 4.0, 40_000
    outcomes = []
    for lot, q in zip(lots, menu.quantiles):
        if q <= 0:
            outcomes.append([(0.0, 1.0)])
        elif lot.degenerate:
            outcomes.append([(0.0, 1.0 - q), (lot.price_lo, q)])
        else:
            lo, hi = lot.prob_lo * lot.q_lo, (1.0 - lot.prob_lo) * lot.q_hi
            outcomes.append([(0.0, 1.0 - lo - hi), (lot.price_lo, lo), (lot.price_hi, hi)])
    exact = sum(math.prod(p for _, p in combo) for combo in product(*outcomes)
                if sum(c for c, _ in combo) > (1 - 1 / k) * budget)
    assert 0.05 < exact < 0.95
    est = overflow_probability(menu, budget, k, trials=trials, seed=3)
    se = math.sqrt(exact * (1 - exact) / trials)
    assert abs(est.p_hat - exact) <= 4 * se


def test_correlation_gap_full_set():
    g = correlation_gap_experiment(5, 5)
    assert g.ratio == pytest.approx(1.0)


def test_correlation_gap_known_limits():
    g1 = correlation_gap_experiment(1, 1000)
    assert g1.ratio >= 1 - 1 / math.sqrt(2 * math.pi)
    assert g1.ratio == pytest.approx(1 - (1 - 1e-3) ** 1000, abs=1e-9)
    g100 = correlation_gap_experiment(100, 1000)
    assert g100.ratio >= 1 - 1 / math.sqrt(200 * math.pi)
    assert g100.correlated == pytest.approx(100.0)


def test_bounds_table_values():
    rows = bounds_table([4, 100])
    assert rows[0].best_epsilon is None and rows[0].oblivious is None
    assert rows[1].sequential == pytest.approx(0.9505, abs=2e-4)
    assert 0 < rows[1].oblivious < rows[1].sequential


def test_report_deterministic_instance_ratio_one():
    # costs essentially point-massed far below the budget: everyone accepts
    d = Uniform(0.099999, 0.1)
    n = 3
    inst = Instance(dists=(d,) * n, value=AdditiveValue((1.0,) * n), budget=1.0)
    rep = approximation_report(inst, "sequential", trials=400, seed=0)
    assert rep.ratio == pytest.approx(1.0, abs=1e-9)
    assert rep.mechanism_stderr == 0.0


def test_report_sequential_beats_bound():
    inst = _uniform_instance(16, 4.0)
    rep = approximation_report(inst, "sequential", trials=30_000, seed=4)
    rel = rep.mechanism_stderr / rep.ex_ante_upper_bound
    assert rep.ratio >= rep.theoretical_bound - 3 * rel
    assert rep.k == pytest.approx(8.0, abs=1e-6)
    assert 0 <= rep.ratio <= 1 + 3 * rel


def test_report_symmetric_oblivious_beats_bound():
    g = tuple(float(min(s, 6)) for s in range(9))
    inst = Instance(dists=(U01,) * 8, value=SymmetricValue(g), budget=2.0,
                    label="sym8")
    rep = approximation_report(inst, "oblivious", trials=8000, seed=5, n_orders=20)
    assert rep.variant == "symmetric-oblivious"
    rel = rep.mechanism_stderr / rep.ex_ante_upper_bound
    assert rep.ratio >= rep.theoretical_bound - 3 * rel
    assert rep.bound_exact


def test_report_submodular_oblivious_runs():
    from postedpricing import CoverageValue

    vf = CoverageValue((1.0, 1.0, 1.0, 1.0),
                       ((0, 1), (1, 2), (2, 3), (0, 3)))
    inst = Instance(dists=(U01,) * 4, value=vf, budget=8.0, label="cov4")
    rep = approximation_report(inst, "oblivious", trials=2000, seed=6,
                               epsilon=0.25, samples=2000)
    assert rep.variant == "submodular-oblivious"
    assert not rep.bound_exact
    assert rep.epsilon == 0.25
    assert 0.0 <= rep.ratio <= 1.0


def test_report_variant_pairing_enforced():
    inst = Instance(dists=(U01,) * 2, value=SymmetricValue((0.0, 1.0, 1.0)),
                    budget=0.5)
    with pytest.raises(ValueError, match="additive"):
        approximation_report(inst, "sequential", trials=10, seed=0)
    with pytest.raises(ValueError, match="sequential or oblivious"):
        approximation_report(inst, "bogus", trials=10, seed=0)


def test_csv_lines_format():
    rows = bounds_table([4, 10])
    lines = csv_text(BOUNDS_COLUMNS, rows).splitlines()
    assert lines[0] == "k,sequential_bound,best_epsilon,oblivious_bound"
    assert lines[1].endswith("NA,NA")
    gaps = [correlation_gap_experiment(2, 8)]
    glines = csv_text(GAP_COLUMNS, gaps).splitlines()
    assert glines[0].startswith("k,n,")
    inst = _uniform_instance(2, 0.5)
    rep = approximation_report(inst, "sequential", trials=50, seed=1)
    rlines = csv_text(REPORT_COLUMNS, [rep]).splitlines()
    assert len(rlines) == 2 and rlines[1].count(",") == rlines[0].count(",")


def test_stderr_unavailable_for_single_trial():
    inst = _uniform_instance(2, 0.5)
    rep = approximation_report(inst, "sequential", trials=1, seed=1)
    assert math.isnan(rep.mechanism_stderr)
    line = csv_text(REPORT_COLUMNS, [rep]).splitlines()[1]
    assert ",NA," in line


def test_sequential_dominates_oblivious_across_market_sizes():
    ks = np.unique(np.geomspace(5, 10_000, 40).round(2))
    for row in bounds_table(ks):
        assert row.oblivious is not None
        assert row.sequential > row.oblivious


@pytest.mark.parametrize("call, message", [
    (lambda: Instance([Uniform(0, 1)], AdditiveValue((1.0, 1.0)), 1.0),
     "one distribution per agent required"),
    (lambda: Instance((), AdditiveValue(()), 1.0), "need at least one agent"),
    (lambda: correlation_gap_experiment(3, 2), "need n >= k >= 1"),
], ids=["instance-count", "instance-empty", "gap-sizes"])
def test_bad_input_raises_its_own_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
