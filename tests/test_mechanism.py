import math
import re

import numpy as np
import pytest

from postedpricing import (AdditiveValue, CoverageValue, Instance, PiecewiseLinearCDF,
                           PriceLotteries, PriceMenu, SymmetricValue, Uniform,
                           bang_per_buck_order, build_oblivious,
                           choose_epsilon, derandomize_additive,
                           ironed_curve, market_size,
                           mechanism_menu, mechanism_variant, menu_from_solution,
                           oblivious_guarantee,
                           reduce_lottery_pairs, run, select_within_budget,
                           sequential_guarantee, simulate_runs, solve_additive,
                           solver_kind)

from postedpricing import mechanism
from postedpricing.mechanism import (_mean_knapsack_value, correlation_gap_bound,
                                     overflow_ceiling, policy_orders)

from oracles import (PriceLottery, degenerate_lottery, derandomize_additive_per_agent,
                     fractional_knapsack_value, integral_knapsack_value,
                     irregular_priors, lottery_columns, lottery_objects, lottery_quantile,
                     lp_vertex_fractional, mean_knapsack_value_rows, mechanism_expectation,
                     menu_of, reduce_lottery_pairs_chord_per_agent,
                     reduce_lottery_pairs_per_agent, two_price_lottery)

U01 = Uniform(0, 1)


def _menu_from_prices(prices, quantiles=None, policy="fixed"):
    quantiles = [1.0] * len(prices) if quantiles is None else quantiles
    lots = tuple(PriceLottery(p, p, 1.0, q, q) for p, q in zip(prices, quantiles))
    return menu_of(lots, quantiles, ordering_policy=policy)


def test_run_basic_trace():
    menu = _menu_from_prices([0.5, 0.5])
    vf = AdditiveValue((1.0, 1.0))
    out = run(menu, vf, [0.3, 0.6], 0.5, rng=0)
    assert out.selected == (0,)
    assert out.total_spend == 0.5
    assert out.offers_made == (0,)  # agent 1's price exceeds the leftover 0
    assert out.value == 1.0
    assert out.payments[0] == 0.5 and out.payments[1] == 0.0


def test_run_second_agent_rejected_but_offered():
    menu = _menu_from_prices([0.5, 0.4])
    out = run(menu, AdditiveValue((1.0, 1.0)), [0.3, 0.9], 1.0, rng=0)
    assert out.offers_made == (0, 1)
    assert out.selected == (0,)


def test_run_zero_budget_offers_nobody():
    menu = _menu_from_prices([0.5, 0.5])
    out = run(menu, AdditiveValue((1.0, 1.0)), [0.1, 0.1], 0.0, rng=0)
    assert out.selected == ()
    assert out.offers_made == ()
    assert out.value == 0.0


def test_run_skips_zero_quantile_agents():
    menu = _menu_from_prices([0.5, 0.5], quantiles=[1.0, 0.0])
    out = run(menu, AdditiveValue((1.0, 1.0)), [0.1, 0.0], 1.0, rng=0)
    assert out.offers_made == (0,)
    assert math.isnan(out.realized_prices[1])


def test_run_lottery_distribution_matches_enumeration():
    d = PiecewiseLinearCDF(((0.0, 0.0), (0.2, 0.5), (0.8, 0.6), (1.0, 1.0)))
    ic = ironed_curve(d)
    a, b = ic.intervals[0]
    lottery = two_price_lottery(ic, d, 0.5 * (a + b))
    lots = (degenerate_lottery(U01, 0.6), lottery, degenerate_lottery(U01, 0.4))
    quant = np.array([0.6, lottery_quantile(lottery), 0.4])
    menu = menu_of(lots, quant, ordering_policy="fixed")
    vf = AdditiveValue((1.0, 2.0, 1.5))
    budget = 1.0
    order = (0, 1, 2)
    exact = mechanism_expectation(menu.lotteries, quant > 0, vf, order, budget)
    trials = 60_000
    rng = np.random.default_rng(11)
    # costs up front from a stream of their own, one array call per prior
    cost_rng = np.random.default_rng(12)
    costs = np.column_stack([di.inverse_cdf(cost_rng.random(trials)) for di in (U01, d, U01)])
    total = 0.0
    for row in costs:
        total += run(menu, vf, row, budget, order=order, rng=rng).value
    mean = total / trials
    assert abs(mean - exact) <= 4 * 2.0 / math.sqrt(trials)


def test_run_budget_never_exceeded_with_lotteries():
    d = PiecewiseLinearCDF(((0.0, 0.0), (0.2, 0.5), (0.8, 0.6), (1.0, 1.0)))
    ic = ironed_curve(d)
    a, b = ic.intervals[0]
    lot = two_price_lottery(ic, d, 0.5 * (a + b))
    menu = menu_of((lot,) * 3, np.full(3, lottery_quantile(lot)), ordering_policy="fixed")
    vf = AdditiveValue((1.0, 1.0, 1.0))
    rng = np.random.default_rng(0)
    for _ in range(500):
        costs = d.inverse_cdf(rng.random(3))
        out = run(menu, vf, costs, 1.3, rng=rng)
        assert out.total_spend <= 1.3


@pytest.mark.parametrize("policy", ["fixed", "bang-per-buck"])
def test_run_matches_simulate_runs_single_trial(policy):
    # run() is one trial of simulate_runs: rebuilt from the documented
    # streams (costs from child 0, lotteries from child 1), it gives the
    # same outcome; the degenerate agent comes first, so a lottery draw
    # spent on it would shift the lottery agent's price
    d = PiecewiseLinearCDF(((0.0, 0.0), (0.2, 0.5), (0.8, 0.6), (1.0, 1.0)))
    ic = ironed_curve(d)
    lottery = two_price_lottery(ic, d, 0.5 * sum(ic.intervals[0]))
    lots = (degenerate_lottery(U01, 0.6), lottery, degenerate_lottery(U01, 0.0))
    menu = menu_of(lots, np.array([0.6, lottery_quantile(lottery), 0.0]),
                   ordering_policy=policy)
    vfs = [AdditiveValue((1.0, 2.0, 1.5))]
    if policy == "fixed":
        # 20 of 200 unevenly weighted elements per agent: a covered set's
        # weights sum to other bits in set iteration order than in index order
        rng = np.random.default_rng(0)
        vfs.append(CoverageValue(rng.lognormal(0.0, 2.0, 200),
                                 [tuple(rng.choice(200, 20, replace=False).tolist())
                                  for _ in range(3)]))
    for vf in vfs:
        inst = Instance(dists=(U01, d, U01), value=vf, budget=1.0)
        for seed in range(20):
            cost_seq, lot_seq, _ = np.random.SeedSequence(seed).spawn(3)
            cost_rng = np.random.default_rng(cost_seq)
            costs = [float(di.sample(cost_rng, 1)[0]) for di in inst.dists]
            out = run(menu, inst.value, costs, inst.budget,
                      rng=np.random.default_rng(lot_seq))
            values, spends = simulate_runs(menu, inst, trials=1, seed=seed)
            assert out.value == values[0]
            assert out.total_spend == spends[0]


def test_bang_per_buck_order_examples():
    assert bang_per_buck_order([4.0, 3.0], [2.0, 3.0]).tolist() == [0, 1]
    assert bang_per_buck_order([1.0, 2.0], [1.0, 2.0]).tolist() == [0, 1]  # tie -> index
    rng = np.random.default_rng(3)
    v = rng.uniform(0.1, 2.0, 5)
    p = rng.uniform(0.1, 2.0, 5)
    order = bang_per_buck_order(v, p)
    expected = sorted(range(5), key=lambda i: (-v[i] / p[i], i))
    assert order.tolist() == expected


def test_bang_per_buck_rejects_zero_price():
    with pytest.raises(ValueError):
        bang_per_buck_order([1.0], [0.0])


def test_bang_per_buck_zero_quantile_goes_last():
    order = bang_per_buck_order([1.0, 9.0], [1.0, np.nan])
    assert order.tolist() == [0, 1]


def test_run_bang_per_buck_policy_orders_by_ratio():
    menu = _menu_from_prices([0.5, 0.25], policy="bang-per-buck")
    vf = AdditiveValue((1.0, 1.0))
    # agent 1 has ratio 4 > 2 and goes first; nothing is left for agent 0
    out = run(menu, vf, [0.0, 0.0], 0.25, rng=0)
    assert out.selected == (1,)


def test_choose_epsilon_matches_dense_recomputation():
    k = 100.0
    eps = choose_epsilon(k)
    grid = np.linspace(2.0 / k, 0.5, 300_001)[1:-1]
    vals = (1 - grid) * (1 - np.exp(-grid ** 2 * (1 - grid) * k / 12))
    best = float(vals.max())
    assert oblivious_guarantee(k, eps) >= best - 1e-6


@pytest.mark.parametrize("k", [4.5, 37.0, 100.0, 10_000.0])
def test_choose_epsilon_is_the_argmax_of_the_guarantee(k):
    from postedpricing.mechanism import _EPSILON_GRID_POINTS

    grid = np.linspace(2.0 / k, 0.5, _EPSILON_GRID_POINTS + 2)[1:-1]
    vals = [oblivious_guarantee(k, float(e)) for e in grid]  # scalar calls
    assert choose_epsilon(k) == grid[int(np.argmax(vals))]
    assert np.array_equal(vals, oblivious_guarantee(k, grid))


def test_choose_epsilon_monotone_value_in_k():
    b100 = oblivious_guarantee(100, choose_epsilon(100))
    b1000 = oblivious_guarantee(1000, choose_epsilon(1000))
    assert b1000 > b100


def test_choose_epsilon_narrow_interval():
    k = 4.0001
    eps = choose_epsilon(k)
    assert 2.0 / k < eps < 0.5


def test_choose_epsilon_rejects_small_markets():
    with pytest.raises(ValueError):
        choose_epsilon(4.0)


def test_build_oblivious_scaled_uniform_market():
    vf = AdditiveValue((1.0,) * 16)
    menu = build_oblivious([U01] * 16, vf, 4.0, 0.2)
    expect = math.sqrt(0.8 * 4.0 / 16)
    assert menu.lotteries.price_lo[0] == pytest.approx(expect, abs=1e-6)
    assert menu.epsilon == 0.2


def test_build_oblivious_tiny_epsilon_matches_full_budget():
    vf = AdditiveValue((1.0,) * 4)
    menu = build_oblivious([U01] * 4, vf, 1.0, 1e-9)
    sol = solve_additive([U01] * 4, [1.0] * 4, 1.0)
    assert menu.lotteries.price_lo[0] == pytest.approx(sol.lotteries.price_lo[0],
                                                       abs=1e-6)


def test_build_oblivious_rejects_bad_epsilon():
    vf = AdditiveValue((1.0,))
    for eps in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            build_oblivious([U01], vf, 1.0, eps)


def test_market_size_uses_max_lottery_price():
    d = PiecewiseLinearCDF(((0.0, 0.0), (0.2, 0.5), (0.8, 0.6), (1.0, 1.0)))
    ic = ironed_curve(d)
    a, b = ic.intervals[0]
    lot = two_price_lottery(ic, d, 0.5 * (a + b))
    menu = menu_of((lot,), np.array([lottery_quantile(lot)]))
    assert market_size(menu, 2.0).k == pytest.approx(2.0 / lot.price_hi)


def test_fractional_knapsack_examples():
    v, p = [3.0, 2.0, 1.0], [2.0, 2.0, 2.0]
    assert fractional_knapsack_value(v, p, 3.0, {0, 1, 2}) == pytest.approx(4.0)
    assert fractional_knapsack_value(v, p, 10.0, {0, 1, 2}) == pytest.approx(6.0)
    assert fractional_knapsack_value(v, p, 3.0, set()) == 0.0
    assert integral_knapsack_value(v, p, 3.0, {0, 1, 2}) == pytest.approx(3.0)
    assert integral_knapsack_value(v, p, 2.0, {1}) == pytest.approx(2.0)
    assert integral_knapsack_value(v, p, 0.0, {0, 1, 2}) == 0.0


@pytest.mark.parametrize("seed", range(8))
def test_knapsack_properties_and_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 3
    v = rng.uniform(0.1, 2.0, n)
    p = rng.uniform(0.1, 1.0, n)
    budget = float(rng.uniform(0.3, 2.5))
    subset = {i for i in range(n) if rng.random() < 0.8}
    frac = fractional_knapsack_value(v, p, budget, subset)
    integ = integral_knapsack_value(v, p, budget, subset)
    assert frac >= integ - 1e-12
    assert frac - integ <= v.max() + 1e-12
    assert frac == pytest.approx(lp_vertex_fractional(v, p, budget, subset), abs=1e-9)


def test_integral_close_to_fractional_in_large_markets():
    rng = np.random.default_rng(4)
    k = 10.0
    budget = 5.0
    for _ in range(20):
        n = 12
        v = rng.uniform(0.5, 1.5, n)
        p = rng.uniform(0.1, budget / k, n)
        subset = set(range(n))
        frac = fractional_knapsack_value(v, p, budget, subset)
        integ = integral_knapsack_value(v, p, budget, subset)
        assert integ >= (1 - 1 / k) * frac - 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_selection_monotone_in_accepting_set(seed):
    rng = np.random.default_rng(50 + seed)
    n = int(rng.integers(3, 12))
    prices = rng.uniform(0.1, 1.0, n)
    order = tuple(rng.permutation(n))
    budget = float(rng.uniform(0.5, 3.0))
    big = rng.random(n) < 0.7
    small = big & (rng.random(n) < 0.7)
    off_big, _ = select_within_budget(prices[:, None], big[:, None], order, budget)
    off_small, _ = select_within_budget(prices[:, None], small[:, None], order, budget)
    # an order of whole floats walks as its integers do
    off_float, _ = select_within_budget(prices[:, None], big[:, None],
                                        np.array(order, dtype=float), budget)
    assert np.array_equal(off_float, off_big)
    sel_big, sel_small = off_big[:, 0] & big, off_small[:, 0] & small
    for i in range(n):
        if sel_big[i] and small[i]:
            assert sel_small[i]


@pytest.mark.parametrize("seed", range(4))
def test_everyone_offered_when_total_fits(seed):
    rng = np.random.default_rng(90 + seed)
    n = 6
    k = 8.0
    budget = 2.0
    prices = rng.uniform(0.05, budget / k, n)
    accepts = rng.random(n) < 0.6
    if prices[accepts].sum() > (1 - 1 / k) * budget:
        accepts[:] = False
    offered, _ = select_within_budget(prices[:, None], accepts[:, None],
                                      tuple(rng.permutation(n)), budget)
    assert offered.all()


def _two_lottery_menu():
    pw1 = PiecewiseLinearCDF(((0.0, 0.0), (0.2, 0.5), (0.8, 0.6), (1.0, 1.0)))
    pw2 = PiecewiseLinearCDF(((0.0, 0.0), (0.1, 0.4), (0.9, 0.5), (1.2, 1.0)))
    ic1, ic2 = ironed_curve(pw1), ironed_curve(pw2)
    q1 = 0.5 * sum(ic1.intervals[0])
    q2 = 0.5 * sum(ic2.intervals[0])
    lots = (two_price_lottery(ic1, pw1, q1), two_price_lottery(ic2, pw2, q2))
    menu = menu_of(lots, np.array([q1, q2]))
    return menu, (pw1, pw2), (ic1, ic2)


@pytest.mark.parametrize("third", [False, True], ids=["two", "three"])
@pytest.mark.parametrize("values", [(1.0, 1.3, 0.9), (1.3, 1.0, 1.1), (1.0, 0.0, 2.0)])
def test_reduce_and_derandomize_match_the_per_agent_route_bitwise(values, third):
    # the rows the array route writes against one PriceLottery rebuilt per
    # moved agent; a third lottery agent makes the reduction take two rounds
    menu, dists, ics = _two_lottery_menu()
    lots = lottery_objects(menu.lotteries)
    if third:
        a, b = ics[0].intervals[0]
        lots.append(two_price_lottery(ics[0], dists[0], 0.3 * a + 0.7 * b))
        dists += dists[:1]
        menu = menu_of(lots, [lottery_quantile(lot) for lot in lots])
    values = values[:menu.n]
    out = reduce_lottery_pairs(menu, values)
    ref_lots, ref_q = reduce_lottery_pairs_chord_per_agent(lots, menu.quantiles, values)
    assert lottery_columns(out.lotteries) == lottery_columns(ref_lots)
    assert out.quantiles.tobytes() == ref_q.tobytes()
    for budget in (0.4, 1.2):
        out = derandomize_additive(menu, dists, values, budget, samples=2000, seed=9)
        ref_lots, ref_q = derandomize_additive_per_agent(lots, menu.quantiles, values,
                                                         budget, samples=2000, seed=9)
        assert lottery_columns(out.lotteries) == lottery_columns(ref_lots)
        assert out.quantiles.tobytes() == ref_q.tobytes()
        assert not out.has_lotteries


def test_derandomize_passthrough_without_lotteries():
    menu = _menu_from_prices([0.4, 0.6])
    out = derandomize_additive(menu, [U01, U01], [1.0, 1.0], 1.0, samples=100, seed=0)
    assert not out.has_lotteries
    assert out.lotteries.price_lo.tolist() == [0.4, 0.6]


def _menu_spend(menu):
    return float(sum(menu.lotteries.expected_spend.tolist()))


def test_reduce_lottery_pairs_preserves_spend():
    # what the menu's own lotteries pay, not what a re-ironed hull says
    menu, _, _ = _two_lottery_menu()
    out = reduce_lottery_pairs(menu, [1.0, 1.3])
    assert abs(_menu_spend(out) - _menu_spend(menu)) <= 1e-12 * _menu_spend(menu)
    assert len(out.randomized_agents) <= 1


def _tie_market_menus(grid, seeds=range(10), copies=2):
    """Menus with at least two lotteries that solve_additive gives at this
    grid: each of 6 irregular priors held by `copies` agents of equal value,
    so the pivotal split lands tied agents inside ironed intervals."""
    for seed in seeds:
        dists = irregular_priors(seed, 6) * copies
        values = np.tile(np.random.default_rng(seed).uniform(0.5, 2.0, 6).round(2), copies)
        full = sum(ironed_curve(d, grid).total_spend for d in dists)
        for frac in (0.2, 0.35, 0.5, 0.65, 0.8):
            budget = float(frac * full)
            menu = menu_from_solution(solve_additive(dists, values, budget, grid_size=grid))
            if len(menu.randomized_agents) >= 2:
                yield dists, values, budget, menu


@pytest.mark.parametrize("grid", [101, 1001])
def test_reduce_keeps_the_spend_of_menus_solved_off_the_default_grid(grid):
    # the reduction reads only the menu, so a menu solved at any grid keeps
    # what its lotteries pay; moving mass at the slopes of hulls re-ironed
    # at the default grid moved it by up to 2.8e-3 of itself
    menus = list(_tie_market_menus(grid))
    assert len(menus) >= 5
    for dists, values, budget, menu in menus:
        out = reduce_lottery_pairs(menu, values)
        assert abs(_menu_spend(out) - _menu_spend(menu)) <= 1e-12 * _menu_spend(menu)
        assert len(out.randomized_agents) <= 1
        assert np.dot(values, out.quantiles) >= np.dot(values, menu.quantiles) * (1 - 1e-12)
        derand = derandomize_additive(menu, dists, values, budget)
        assert not derand.has_lotteries
        # derandomization moves only the agent the reduction left randomized
        kept = np.ones(menu.n, dtype=bool)
        kept[list(out.randomized_agents)] = False
        assert derand.quantiles[kept].tobytes() == out.quantiles[kept].tobytes()
        assert derand.lotteries.expected_spend[kept].tobytes() == \
            out.lotteries.expected_spend[kept].tobytes()


@pytest.mark.parametrize("grid, copies, seeds", [(101, 2, range(10)), (1001, 2, range(10)),
                                                (10001, 2, range(3)), (1001, 3, range(6)),
                                                (1001, 4, range(6))])
def test_reduce_matches_the_hull_slope_route_at_the_solve_grid(grid, copies, seeds):
    # at the grid the menu was solved at, the reference's hull slopes are its
    # lotteries' chords up to rounding, so the objective and spend agree; with
    # two copies in lotteries the same agent stays randomized, while with
    # three or four exact copies which one stays rests on the reference's
    # rounding of equal slopes
    menus = list(_tie_market_menus(grid, seeds, copies))
    assert copies == 2 or any(len(menu.randomized_agents) > 2 for *_, menu in menus)
    for dists, values, _, menu in menus:
        out = reduce_lottery_pairs(menu, values)
        ref_lots, ref_q = reduce_lottery_pairs_per_agent(lottery_objects(menu.lotteries),
                                                         menu.quantiles, dists, values, grid)
        ref_rand = tuple(i for i, lot in enumerate(ref_lots)
                         if ref_q[i] > 0 and not lot.degenerate)
        assert len(out.randomized_agents) == len(ref_rand) <= 1
        assert copies > 2 or out.randomized_agents == ref_rand
        ref_obj = float(np.dot(values, ref_q))
        assert abs(float(np.dot(values, out.quantiles)) - ref_obj) <= 1e-12 * ref_obj
        ref_spend = float(sum(lot.expected_spend for lot in ref_lots))
        assert abs(_menu_spend(out) - ref_spend) <= 1e-12 * ref_spend


def test_reduce_rejects_a_lottery_without_a_chord():
    lots = [PriceLottery(0.2, 0.3, 0.5, 0.4, 0.6), PriceLottery(0.2, 0.3, 0.5, 0.5, 0.5)]
    with pytest.raises(ValueError, match="agent 1's lottery has no chord"):
        reduce_lottery_pairs(menu_of(lots, [0.5, 0.5]), [1.0, 1.0])


def test_derandomize_rejects_a_prior_count_that_is_not_the_agent_count():
    menu, dists, _ = _two_lottery_menu()
    with pytest.raises(ValueError, match="one distribution per agent"):
        derandomize_additive(menu, dists[:1], [1.0, 1.3], budget=1.2)


def test_derandomize_two_lottery_menu_is_deterministic():
    menu, dists, _ = _two_lottery_menu()
    out = derandomize_additive(menu, dists, [1.0, 1.3], budget=1.2,
                               samples=2000, seed=9)
    assert not out.has_lotteries


def test_derandomize_picks_dominant_price():
    # lone lottery agent; the high price doubles the acceptance odds while
    # others contribute nothing, so it wins every sampled comparison
    pw = PiecewiseLinearCDF(((0.0, 0.0), (0.2, 0.5), (0.8, 0.6), (1.0, 1.0)))
    ic = ironed_curve(pw)
    a, b = ic.intervals[0]
    lot = two_price_lottery(ic, pw, 0.5 * (a + b))
    menu = menu_of((lot,), np.array([lottery_quantile(lot)]))
    out = derandomize_additive(menu, [pw], [1.0], budget=5.0, samples=500, seed=1)
    assert not out.has_lotteries
    assert out.lotteries.price_lo[0] == pytest.approx(lot.price_hi)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")  # the free agent's ratio
def test_mean_knapsack_value_matches_per_row_loop(seed):
    rng = np.random.default_rng(70 + seed)
    n = int(rng.integers(1, 24))
    # small integer values and prices make equal ratios (index ties) common
    values = rng.integers(0, 4, n).astype(float) if seed % 2 else rng.uniform(0.0, 2.0, n)
    prices = rng.integers(1, 4, n).astype(float) if seed % 2 else rng.uniform(0.05, 1.0, n)
    q = rng.uniform(0.0, 1.0, n)
    # never-drawn agents at price 0, one of value 0 (a 0/0 ratio), and a drawn
    # free agent of positive value, which ranks first
    zero = rng.permutation(n)[:3]
    prices[zero] = 0.0
    q[zero[:2]] = 0.0
    values[zero[:1]] = 0.0
    values[zero[2:]] = 1.5
    draws = rng.random((500, n)) < q
    for budget in (0.0, 0.3, float(rng.uniform(0.5, 3.0)), 1e9):
        assert (_mean_knapsack_value(values, prices, budget, draws)
                == mean_knapsack_value_rows(values, prices, budget, draws))


@pytest.mark.parametrize("seed", range(4))
def test_derandomize_matches_per_row_packing(seed, monkeypatch):
    rng = np.random.default_rng(90 + seed)
    dists = irregular_priors(seed, 12) + [U01, U01]
    values = np.append(rng.uniform(0.5, 2.0, 12), [0.0, 1.0])
    full = sum(ironed_curve(d).total_spend for d in dists[:12])
    for frac in np.linspace(0.2, 0.6, 41):
        sol = solve_additive(dists[:12], values[:12], float(frac * full))
        if menu_from_solution(sol).has_lotteries:
            break
    else:
        raise AssertionError("no budget gives a lottery")
    budget = float(frac * full)
    # two agents that are never offered, at price 0: one of value 0, whose
    # value-per-price is 0/0, and one of value 1
    menu = menu_from_solution(sol)
    menu = menu_of(lottery_objects(menu.lotteries) + [degenerate_lottery(U01, 0.0)] * 2,
                   np.append(menu.quantiles, [0.0, 0.0]))
    out = derandomize_additive(menu, dists, values, budget, samples=3000, seed=seed)
    monkeypatch.setattr(mechanism, "_mean_knapsack_value", mean_knapsack_value_rows)
    ref = derandomize_additive(menu, dists, values, budget, samples=3000, seed=seed)
    assert lottery_columns(out.lotteries) == lottery_columns(ref.lotteries)
    assert out.quantiles.tobytes() == ref.quantiles.tobytes()
    assert not out.has_lotteries


def test_derandomize_rejects_mismatched_values():
    menu = _menu_from_prices([0.4])
    with pytest.raises(ValueError):
        derandomize_additive(menu, [U01], [1.0, 2.0], 1.0)


@pytest.mark.parametrize("samples", [0, -1])
def test_derandomize_rejects_nonpositive_samples(samples):
    menu, dists, _ = _two_lottery_menu()
    with pytest.raises(ValueError, match="samples"):
        derandomize_additive(menu, dists, [1.0, 1.3], budget=1.2, samples=samples)


def _lotteries(price_lo=(0.4, 0.5), price_hi=(0.6, 0.5), prob_lo=(0.5, 1.0),
               q_lo=(0.4, 0.5), q_hi=(0.6, 0.5)):
    return PriceLotteries(price_lo, price_hi, prob_lo, q_lo, q_hi)


def test_menu_validation():
    menu = PriceMenu(lotteries=_lotteries(), quantiles=np.array([0.5, 0.5]))
    assert menu.n == 2 and menu.randomized_agents == (0,)
    for col in ("price_lo", "prob_lo", "q_hi"):
        assert not getattr(menu.lotteries, col).flags.writeable
    # a price of 0 is fine where the quantile is 0, and so is a price_lo
    # above price_hi by at most 1e-12
    menu_of((degenerate_lottery(U01, 0.0),), [0.0])
    _lotteries(price_lo=(0.6 + 1e-12, 0.5))
    with pytest.raises(ValueError, match="positive"):
        menu_of((PriceLottery(0.0, 0.0, 1.0, 0.5, 0.5),), np.array([0.5]))
    for bad in ((0.0, 0.5), (-0.1, 0.5)):
        with pytest.raises(ValueError, match="positive"):
            PriceMenu(lotteries=_lotteries(price_lo=bad, price_hi=(0.6, 0.5)),
                      quantiles=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="positive"):
            PriceMenu(lotteries=_lotteries(price_lo=(0.4, -1.0), price_hi=(0.6, bad[0])),
                      quantiles=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        menu_of((degenerate_lottery(U01, 0.5),), np.array([0.5]), ordering_policy="nope")
    with pytest.raises(ValueError, match="one lottery per agent"):
        PriceMenu(lotteries=_lotteries(), quantiles=np.array([0.5, 0.5, 0.5]))
    for cols in (dict(price_lo=(0.4,)), dict(q_hi=(0.6, 0.5, 0.5)), dict(prob_lo=[(0.5, 1.0)])):
        with pytest.raises(ValueError, match="one entry per agent"):
            _lotteries(**cols)
    for bad in (-0.1, 1.0 + 1e-9, np.nan):
        with pytest.raises(ValueError, match="prob_lo"):
            _lotteries(prob_lo=(0.5, bad))
    with pytest.raises(ValueError, match="price_lo must not exceed"):
        _lotteries(price_lo=(0.6 + 1e-11, 0.5))


def test_menu_keeps_its_own_copy_of_the_quantiles():
    q = np.array([0.5, 0.5])
    menu = PriceMenu(lotteries=_lotteries(), quantiles=q)
    assert menu.quantiles is not q and not menu.quantiles.flags.writeable
    assert q.flags.writeable
    q[0] = 0.25
    assert menu.quantiles.tolist() == [0.5, 0.5]


def test_run_requires_order_for_external_menus():
    menu = _menu_from_prices([0.5], policy="external")
    with pytest.raises(ValueError):
        run(menu, AdditiveValue((1.0,)), [0.1], 1.0, rng=0)


def test_run_fixed_menu_walks_index_order():
    menu = _menu_from_prices([0.5, 0.25], policy="fixed")
    vf = AdditiveValue((1.0, 1.0))
    # agent 0 comes first and spends the budget; bang-per-buck would pick 1
    out = run(menu, vf, [0.0, 0.0], 0.5, rng=0)
    assert out.selected == (0,) and out.offers_made == (0,)


@pytest.mark.parametrize("policy", ["uniform-random", "worst-of-sampled"])
def test_run_needs_an_order_for_sampled_policies(policy):
    menu = _menu_from_prices([0.5], policy=policy)
    with pytest.raises(ValueError, match="simulate_runs"):
        run(menu, AdditiveValue((1.0,)), [0.1], 1.0, rng=0)
    assert run(menu, AdditiveValue((1.0,)), [0.1], 1.0, order=(0,), rng=0).selected == (0,)


def test_uniform_random_orders_are_uniform_permutations():
    n, trials = 6, 60_000
    menu = _menu_from_prices([0.5] * n, policy="uniform-random")
    vf = AdditiveValue((1.0,) * n)
    prices = np.full((n, trials), 0.5)
    (orders,) = policy_orders("uniform-random", menu, vf, prices, np.random.default_rng(3))
    assert orders.shape == (n, trials)
    assert np.array_equal(np.sort(orders, axis=0), np.tile(np.arange(n)[:, None], (1, trials)))
    (again,) = policy_orders("uniform-random", menu, vf, prices, np.random.default_rng(3))
    assert np.array_equal(orders, again)
    # each agent comes first with probability 1/n: within 5 binomial sds
    sd = math.sqrt(trials * (1 / n) * (1 - 1 / n))
    leads = np.bincount(orders[0], minlength=n)
    assert np.all(np.abs(leads - trials / n) <= 5 * sd)


def test_mechanism_menu_labels_the_mechanism_order():
    additive = AdditiveValue((1.0,) * 16)
    menu, sol = mechanism_menu([U01] * 16, additive, 4.0, "sequential")
    assert menu.ordering_policy == "bang-per-buck" and menu.epsilon is None
    assert sol.quantiles == pytest.approx(menu.quantiles)
    menu, sol = mechanism_menu([U01] * 16, additive, 4.0, "oblivious", epsilon=0.2)
    assert menu.ordering_policy == "worst-of-sampled"
    assert menu.epsilon == 0.2 and sol is None
    menu, sol = mechanism_menu([U01] * 16, additive, 4.0, "oblivious")
    assert menu.epsilon == choose_epsilon(market_size(menu_from_solution(sol), 4.0).k)
    symmetric = SymmetricValue(tuple(float(min(s, 6)) for s in range(9)))
    menu, sol = mechanism_menu([U01] * 8, symmetric, 2.0, "oblivious", epsilon=0.2)
    assert menu.ordering_policy == "worst-of-sampled"
    assert menu.epsilon is None and sol is not None
    with pytest.raises(ValueError):
        mechanism_menu([U01] * 16, additive, 4.0, "exante")


def test_mechanism_variant_names_what_each_kind_runs():
    additive = AdditiveValue((1.0,) * 8)
    symmetric = SymmetricValue(tuple(float(min(s, 6)) for s in range(9)))
    mixed = [U01] * 4 + [Uniform(0, 2)] * 4  # no shared prior: greedy
    assert mechanism_variant("sequential", "additive", additive) == "additive-sequential"
    assert mechanism_variant("oblivious", "symmetric", symmetric) == "symmetric-oblivious"
    assert mechanism_variant("oblivious", "additive", additive) == "submodular-oblivious"
    assert mechanism_variant("oblivious", solver_kind(mixed, symmetric),
                             symmetric) == "submodular-oblivious"
    assert mechanism_variant("oblivious", "greedy", symmetric) == "submodular-oblivious"
    with pytest.raises(ValueError, match="sequential or oblivious"):
        mechanism_variant("exante", "additive", additive)
    with pytest.raises(ValueError, match="additive value function"):
        mechanism_variant("sequential", "symmetric", symmetric)


def test_guarantee_formulas():
    assert sequential_guarantee(100) == pytest.approx(
        (1 - 1 / math.sqrt(200 * math.pi)) * 0.99)
    assert oblivious_guarantee(100, 0.2) == pytest.approx(
        0.8 * (1 - math.exp(-0.04 * 0.8 * 100 / 12)))
    assert correlation_gap_bound(100) == pytest.approx(1 - 1 / math.sqrt(200 * math.pi))
    assert overflow_ceiling(100, 0.2) == pytest.approx(math.exp(-0.04 * 0.8 * 100 / 12))


@pytest.mark.parametrize("seed", range(4))
def test_run_outcome_consistency(seed):
    rng = np.random.default_rng(400 + seed)
    n = int(rng.integers(2, 7))
    dists = [Uniform(0.0, float(rng.uniform(0.5, 1.5))) for _ in range(n)]
    values = tuple(float(v) for v in rng.uniform(0.2, 2.0, n))
    budget = float(rng.uniform(0.2, 0.8)
                   * sum(ironed_curve(d).total_spend for d in dists))
    sol = solve_additive(dists, values, budget)
    from postedpricing import menu_from_solution
    menu = menu_from_solution(sol, "bang-per-buck")
    vf = AdditiveValue(values)
    for _ in range(50):
        costs = [float(d.inverse_cdf(rng.random())) for d in dists]
        out = run(menu, vf, costs, budget, rng=rng)
        assert set(out.selected) <= set(out.offers_made)
        assert out.total_spend <= budget
        for i in range(n):
            if i in out.selected:
                assert out.payments[i] == out.realized_prices[i]
                assert costs[i] <= out.realized_prices[i]
            else:
                assert out.payments[i] == 0.0
            if i in out.offers_made and costs[i] <= out.realized_prices[i]:
                assert i in out.selected
        assert out.value == pytest.approx(vf.evaluate(out.selected))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_menu_rejects_a_non_finite_price_where_the_quantile_is_positive(bad):
    # a NaN price compares False with everything, so the agent would pass
    # the check and then never be offered
    for lots in (_lotteries(price_lo=(0.4, bad), price_hi=(0.6, bad)),
                 _lotteries(price_hi=(bad, 0.5))):
        with pytest.raises(ValueError, match="prices must be positive"):
            PriceMenu(lotteries=lots, quantiles=np.array([0.5, 0.5]))
    # an agent of quantile 0 is never offered, whatever its price
    PriceMenu(lotteries=_lotteries(price_lo=(0.4, bad), price_hi=(0.6, bad)),
              quantiles=np.array([0.5, 0.0]))


_FIXED_MENU = PriceMenu(lotteries=_lotteries(), quantiles=np.array([0.5, 0.5]),
                        ordering_policy="fixed")


@pytest.mark.parametrize("call, message", [
    (lambda: market_size(_FIXED_MENU, 0.0), "market size must be positive"),
    (lambda: policy_orders("bang-per-buck", _FIXED_MENU, SymmetricValue((0.0, 1.0, 2.0)),
                           np.full((2, 3), 0.5)),
     "bang-per-buck ordering requires additive values"),
    (lambda: run(_FIXED_MENU, AdditiveValue((1.0, 1.0)), [0.1], 1.0),
     "one cost per agent required"),
    (lambda: run(_FIXED_MENU, AdditiveValue((1.0, 1.0)), [0.1, 0.2], 1.0, order=[0, 0]),
     "order must be a permutation of all agents"),
    (lambda: run(_FIXED_MENU, AdditiveValue((1.0, 1.0)), [0.1, 0.2], 1.0, order=[0.5, 1.5]),
     "order must be a permutation of all agents"),
    (lambda: select_within_budget(np.full((3, 4), 0.4), np.ones((3, 1), bool), [0, 1, 2], 1.0),
     "accepts must have the shape of prices"),
    (lambda: select_within_budget(np.full((3, 4), 0.4), np.ones((3, 4), bool), [0, 1], 1.0),
     "order must be a permutation of all agents"),
    (lambda: select_within_budget(np.full((3, 4), 0.4), np.ones((3, 4), bool), [0, 0, 0], 1.0),
     "order must be a permutation of all agents"),
    (lambda: select_within_budget(np.full((3, 4), 0.4), np.ones((3, 4), bool),
                                  [0.5, 1.5, 2.7], 1.0),
     "order must be a permutation of all agents"),
    (lambda: select_within_budget(np.full((3, 4), 0.4), np.ones((3, 4), bool),
                                  np.zeros((3, 1), int), 1.0),
     "a per-trial order must have the shape of prices"),
    (lambda: select_within_budget(np.full((3, 4), 0.4), np.ones((3, 4), bool),
                                  np.zeros((3, 4)), 1.0),
     "a per-trial order must hold integer agent indices"),
], ids=["market-size", "bang-per-buck-values", "cost-count", "order-permutation",
        "order-float", "walk-accepts-shape", "walk-order-short", "walk-order-repeats",
        "walk-order-float", "walk-order-shape", "walk-order-per-trial-float"])
def test_bad_input_raises_its_own_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
