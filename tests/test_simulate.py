import math

import numpy as np
import pytest

from postedpricing import (AdditiveValue, CoverageValue, Instance, OracleValue,
                           PiecewiseLinearCDF, PriceMenu, SymmetricValue, Uniform,
                           approximation_report, bang_per_buck_order, bounds_table,
                           build_oblivious, correlation_gap_experiment,
                           degenerate_lottery, ex_ante_bound, ironed_curve,
                           market_size, menu_from_solution, monte_carlo_value,
                           overflow_probability, select_within_budget,
                           simulate_runs, solve_additive, solve_symmetric,
                           two_price_lottery)
from postedpricing.simulate import (bounds_csv_lines, gap_csv_lines,
                                    report_csv_lines)

from oracles import (binom_tail_gt, mechanism_expectation, reference_walk,
                     select_within_budget_masks)

U01 = Uniform(0, 1)


def _uniform_instance(n, budget):
    return Instance(dists=(U01,) * n, value=AdditiveValue((1.0,) * n),
                    budget=float(budget), label=f"u{n}")


def test_monte_carlo_zero_quantiles():
    menu = PriceMenu(lotteries=(degenerate_lottery(U01, 0.0),) * 2,
                     quantiles=np.zeros(2), ordering_policy="fixed")
    inst = _uniform_instance(2, 1.0)
    mc = monte_carlo_value(menu, inst, order_policy="fixed", trials=500, seed=0)
    assert mc.mean == 0.0 and mc.stderr == 0.0


def test_monte_carlo_single_agent_bernoulli():
    menu = PriceMenu(lotteries=(degenerate_lottery(U01, 0.5),),
                     quantiles=np.array([0.5]), ordering_policy="fixed")
    inst = _uniform_instance(1, 1.0)
    mc = monte_carlo_value(menu, inst, order_policy="fixed", trials=40_000, seed=1)
    assert abs(mc.mean - 0.5) <= 3 * mc.stderr


def test_monte_carlo_matches_enumeration_small_instance():
    d = PiecewiseLinearCDF(((0.0, 0.0), (0.2, 0.5), (0.8, 0.6), (1.0, 1.0)))
    ic = ironed_curve(d)
    lot = two_price_lottery(ic, d, 0.5 * sum(ic.intervals[0]))
    lots = (degenerate_lottery(U01, 0.7), lot, degenerate_lottery(U01, 0.3))
    quant = np.array([0.7, lot.quantile, 0.3])
    menu = PriceMenu(lotteries=lots, quantiles=quant,
                     ordering_policy="fixed")
    vf = AdditiveValue((1.0, 0.8, 1.2))
    inst = Instance(dists=(U01, d, U01), value=vf, budget=1.1)
    exact = mechanism_expectation(lots, quant > 0, vf, (0, 1, 2), 1.1)
    mc = monte_carlo_value(menu, inst, order_policy="fixed", trials=60_000, seed=3)
    assert abs(mc.mean - exact) <= 4 * mc.stderr


def test_simulate_runs_trials_validated():
    menu = PriceMenu(lotteries=(degenerate_lottery(U01, 0.5),),
                     quantiles=np.array([0.5]), ordering_policy="fixed")
    with pytest.raises(ValueError):
        simulate_runs(menu, _uniform_instance(1, 1.0), "fixed", trials=0)
    with pytest.raises(ValueError):
        simulate_runs(menu, _uniform_instance(1, 1.0), "nope", trials=10)


def test_negative_n_orders_rejected():
    menu = PriceMenu(lotteries=(degenerate_lottery(U01, 0.5),),
                     quantiles=np.array([0.5]), ordering_policy="worst-of-sampled")
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
    menu = PriceMenu(lotteries=(degenerate_lottery(U01, 0.5),),
                     quantiles=np.array([0.5]))
    with pytest.raises(ValueError, match="external"):
        simulate_runs(menu, _uniform_instance(1, 1.0), trials=10)


def test_vectorized_and_walk_paths_agree():
    # the batched walk against the independent reference walk, row by row
    rng = np.random.default_rng(21)
    trials, n, budget = 300, 7, 1.5
    # dyadic prices add exactly, so some rows land the spend on the budget
    prices = rng.choice([0.25, 0.5, 0.75], size=(trials, n))
    prices[rng.random((trials, n)) < 0.15] = np.nan  # never offered
    accepts = rng.random((trials, n)) < 0.6
    shared = tuple(int(i) for i in rng.permutation(n))
    per_trial = np.array([rng.permutation(n) for _ in range(trials)])
    for order in (shared, per_trial):
        offered, spent = select_within_budget(prices, accepts, order, budget)
        assert offered.shape == (trials, n)
        assert np.all(spent <= budget) and np.any(spent == budget)
        selected = offered & accepts
        for r in range(trials):
            row_order = order if order is shared else order[r]
            ref_selected, ref_spent = reference_walk(prices[r], accepts[r], row_order,
                                                     budget)
            assert np.flatnonzero(selected[r]).tolist() == sorted(ref_selected)
            assert spent[r] == ref_spent
            # a one-row batch, as run() walks it
            off, one_spent = select_within_budget(prices[r:r + 1], accepts[r:r + 1],
                                                  row_order, budget)
            assert np.array_equal(off[0], offered[r]) and one_spent[0] == spent[r]


@pytest.mark.parametrize("seed", range(6))
def test_walk_matches_the_three_output_walk(seed):
    # 50 random batches per seed: the hires are offered & accepts, bit for bit
    rng = np.random.default_rng(300 + seed)
    for _ in range(50):
        trials, n = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        if rng.random() < 0.5:
            prices = rng.choice([0.25, 0.5, 0.75, 1.0], size=(trials, n))
        else:
            prices = rng.uniform(0.01, 1.0, (trials, n))
        prices[rng.random((trials, n)) < 0.2] = np.nan  # never offered
        accepts = rng.random((trials, n)) < rng.random()
        budget = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 0.6 * n))
        order = (tuple(int(i) for i in rng.permutation(n)) if rng.random() < 0.5
                 else np.argsort(rng.random((trials, n)), axis=1))
        offered, spent = select_within_budget(prices, accepts, order, budget)
        ref_selected, ref_offered, ref_spent = select_within_budget_masks(
            prices, accepts, order, budget)
        assert offered.dtype == bool and np.array_equal(offered, ref_offered)
        assert np.array_equal(offered & accepts, ref_selected)
        assert spent.tobytes() == ref_spent.tobytes()


def _reference_bang_per_buck(values, prices, quantiles):
    active = [i for i in range(len(values)) if quantiles[i] > 0]
    inactive = [i for i in range(len(values)) if quantiles[i] <= 0]
    return tuple(sorted(active, key=lambda i: (-values[i] / prices[i], i)) + inactive)


def test_bang_per_buck_order_rows_match_single_rows():
    rng = np.random.default_rng(22)
    trials, n = 200, 8
    values = np.array([1.0, 2.0, 0.0, 1.0, 2.0, 0.0, 3.0, 1.5])
    prices = rng.choice([0.5, 1.0, 2.0], size=(trials, n))  # many ratio ties
    per_agent = np.array([0.5, 0.0, 0.5, 0.5, 0.0, 0.5, 0.5, 0.5])
    per_row = np.where(rng.random((trials, n)) < 0.2, 0.0, 0.5)
    for quantiles in (per_agent, per_row):
        inactive_prices = np.where(np.broadcast_to(quantiles, prices.shape) > 0,
                                   prices, np.nan)  # never offered, never priced
        rows = bang_per_buck_order(values, inactive_prices, quantiles)
        assert rows.shape == (trials, n)
        for r in range(trials):
            q = np.broadcast_to(quantiles, prices.shape)[r]
            single = bang_per_buck_order(values, inactive_prices[r], q)
            assert np.array_equal(rows[r], single)
            assert tuple(single.tolist()) == _reference_bang_per_buck(values, prices[r], q)


@pytest.mark.parametrize("vf", [
    AdditiveValue((0.1, 0.7, 1.3, 0.2, 2.9, 0.3, 1e-3, 5.5)),
    SymmetricValue((0.0, 1.0, 1.7, 2.2, 2.5, 2.7, 2.8, 2.85, 2.9)),
    CoverageValue((0.3, 1.1, 0.7, 2.0, 0.1),
                  ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1,), (), (0, 2, 4))),
    OracleValue(8, lambda s: math.sqrt(sum(i + 1 for i in s)))],
    ids=["additive", "symmetric", "coverage", "oracle"])
def test_evaluate_rows_matches_evaluate(vf):
    rows = np.random.default_rng(23).random((300, vf.n)) < 0.5
    got = vf._evaluate_rows(rows)
    want = np.array([vf.evaluate(np.flatnonzero(row)) for row in rows])
    if isinstance(vf, SymmetricValue):
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


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


def test_ex_ante_bound_symmetric_matches_grid_search():
    from postedpricing import concave_closure_symmetric

    g = (0.0, 1.0, 1.0)
    inst = Instance(dists=(U01,) * 2, value=SymmetricValue(g), budget=0.5)
    info = ex_ante_bound(inst)
    ic = ironed_curve(U01)
    qs = np.linspace(0, 1, 4001)
    best = max(concave_closure_symmetric(SymmetricValue(g), float(q))
               for q in qs if 2 * ic.hull_at(q) <= 0.5)
    assert info.value >= best - 1e-3


def test_overflow_zero_quantiles():
    menu = PriceMenu(lotteries=(degenerate_lottery(U01, 0.0),) * 2,
                     quantiles=np.zeros(2))
    est = overflow_probability(menu, 1.0, 10.0, trials=2000, seed=0)
    assert est.p_hat == 0.0


def test_overflow_zero_when_everything_fits():
    menu = PriceMenu(lotteries=(degenerate_lottery(U01, 0.3),) * 2,
                     quantiles=np.full(2, 0.3))
    # two prices of 0.3 always fit under (1 - 1/k) * 1.0 = 0.9
    est = overflow_probability(menu, 1.0, 10.0, trials=2000, seed=0)
    assert est.p_hat == 0.0


@pytest.mark.parametrize("trials", [0, -5])
def test_overflow_trials_validated(trials):
    menu = PriceMenu(lotteries=(degenerate_lottery(U01, 0.3),) * 2,
                     quantiles=np.full(2, 0.3))
    with pytest.raises(ValueError, match="trials must be positive"):
        overflow_probability(menu, 1.0, 10.0, trials=trials, seed=0)


def test_overflow_matches_exact_binomial():
    n, budget, eps = 64, 4.0, 0.2
    menu = build_oblivious([U01] * n, AdditiveValue((1.0,) * n), budget, eps)
    k = market_size(menu, budget).k
    price = menu.lotteries[0].price_lo
    q = menu.quantiles[0]
    est = overflow_probability(menu, budget, k, trials=50_000, seed=2)
    exact = binom_tail_gt(n, float(q), (1 - 1 / k) * budget / price)
    se = math.sqrt(max(exact * (1 - exact), 1e-12) / 50_000)
    assert abs(est.p_hat - exact) <= 4 * max(se, est.stderr)
    assert est.ceiling == pytest.approx(math.exp(-eps ** 2 * (1 - eps) * k / 12))


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
    lines = bounds_csv_lines(rows)
    assert lines[0] == "k,sequential_bound,best_epsilon,oblivious_bound"
    assert lines[1].endswith("NA,NA")
    gaps = [correlation_gap_experiment(2, 8)]
    glines = gap_csv_lines(gaps)
    assert glines[0].startswith("k,n,")
    inst = _uniform_instance(2, 0.5)
    rep = approximation_report(inst, "sequential", trials=50, seed=1)
    rlines = report_csv_lines([rep])
    assert len(rlines) == 2 and rlines[1].count(",") == rlines[0].count(",")


def test_stderr_unavailable_for_single_trial():
    inst = _uniform_instance(2, 0.5)
    rep = approximation_report(inst, "sequential", trials=1, seed=1)
    assert math.isnan(rep.mechanism_stderr)
    line = report_csv_lines([rep])[1]
    assert ",NA," in line


def test_sequential_dominates_oblivious_across_market_sizes():
    ks = np.unique(np.geomspace(5, 10_000, 40).round(2))
    for row in bounds_table(ks):
        assert row.oblivious is not None
        assert row.sequential > row.oblivious
