import hashlib
import re

import numpy as np
import pytest

from postedpricing import (AdditiveValue, CoverageValue, OracleValue,
                           PiecewiseLinearCDF, SymmetricValue,
                           TruncatedExponential, Uniform, ValueFunction,
                           discretize, greedy_submodular, ironed_curve,
                           mechanism_menu, solve_additive, solve_ex_ante,
                           solve_symmetric, solver_kind)
from postedpricing.exante import SOLVER_KINDS, _search_multiplier

from oracles import (bisect_multiplier, brute_multilinear, discretize_loop,
                     greedy_submodular_per_step, grid_oracle_additive, hull_at,
                     interp_spend_sum, irregular_priors, lottery_columns,
                     solve_additive_stepwise, two_price_lottery)

U01 = Uniform(0, 1)


def test_solve_additive_balanced_uniform_market():
    sol = solve_additive([U01] * 16, [1.0] * 16, 4.0)
    assert np.allclose(sol.quantiles, 0.5, atol=1e-9)
    assert sol.expected_spend == pytest.approx(4.0, abs=1e-6)
    assert np.allclose(sol.lotteries.price_lo, 0.5, atol=1e-9)
    assert sol.objective == pytest.approx(8.0, abs=1e-6)


def test_solve_additive_slack_budget_takes_everyone():
    dists = [U01, Uniform(0, 0.5)]
    sol = solve_additive(dists, [1.0, 1.0], 10.0)
    assert np.all(sol.quantiles == 1.0)
    assert sol.expected_spend == pytest.approx(1.5)
    assert sol.solver_meta["lambda"] == 0.0


def test_water_fill_stops_when_no_valued_agent_can_grow():
    # agent 0 takes its whole curve (spend 1) at the floor multiplier, and
    # agent 1's zero value holds the other 0.5 of the budget back
    sol = solve_additive([U01, Uniform(0, 2)], [1.0, 0.0], 1.5)
    assert sol.quantiles.tolist() == [1.0, 0.0]
    assert sol.solver_meta["lambda"] == 2.0 ** -200
    assert sol.solver_meta["pivotal_agents"] == 0
    assert sol.expected_spend == 1.0


def test_solve_additive_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        solve_additive([U01], [1.0], 0.0)
    with pytest.raises(ValueError):
        solve_additive([U01], [1.0], -1.0)


NAN = float("nan")


@pytest.mark.parametrize("solve, name", [
    (lambda: solve_additive([U01] * 2, [1.0, 1.0], NAN), "budget"),
    (lambda: solve_additive([U01] * 2, [1.0, NAN], 0.5), "values"),
    (lambda: solve_symmetric(U01, (0.0, 1.0, 2.0), NAN), "budget"),
    (lambda: discretize([U01] * 2, NAN, 4), "budget"),
    (lambda: greedy_submodular([U01] * 2, AdditiveValue((1.0, 1.0)), NAN), "budget"),
], ids=["additive-budget", "additive-value", "symmetric", "discretize", "greedy"])
def test_nan_input_is_rejected_by_name(solve, name):
    with pytest.raises(ValueError, match=name):
        solve()


# (budget share of full spend, sha256 of quantiles.tobytes(), expected_spend
# and solver_meta["lambda"] as float.hex(), lottery agents), recorded with the
# monotone chain over numpy scalars and run ends tabulated for every segment
PINNED_IRREGULAR_SOLVES = [
    (0.1, "5c78e0e96e71e507728b4e192347e19078ffe2fd023ed5735c510a3b0d4688d9",
     "0x1.fcde6f92cd887p+1", "0x1.0079367bcc179p+1", 0),
    (0.2, "72c8ba241f0c5f542ad911b08bd7781975a324c0c82e3fb89df7d33282ef9d2f",
     "0x1.fcde6f92d0040p+2", "0x1.7634cf7c725c9p+0", 2),
    (0.65, "870caf61a90786410b86e03a46559395043002bf4fbc767527de3b3296ff693d",
     "0x1.9d74baa746f92p+4", "0x1.0253ac713edf6p-1", 2),
]


@pytest.mark.parametrize("share, quantiles_sha256, spend_hex, lambda_hex, lotteries",
                         PINNED_IRREGULAR_SOLVES,
                         ids=[f"share{case[0]}" for case in PINNED_IRREGULAR_SOLVES])
def test_solve_additive_bits_pinned_on_irregular_market(share, quantiles_sha256,
                                                        spend_hex, lambda_hex, lotteries):
    # 16 irregular priors, each held by two agents of equal value, so the
    # pivotal split shares the budget among ties and can stop inside an
    # ironed interval
    dists = irregular_priors(2015, 16) * 2
    values = np.tile(np.random.default_rng(2015).uniform(0.5, 2.0, 16).round(2), 2)
    budget = share * sum(ironed_curve(d).total_spend for d in dists)
    sol = solve_additive(dists, values, budget)
    assert hashlib.sha256(sol.quantiles.tobytes()).hexdigest() == quantiles_sha256
    assert sol.expected_spend.hex() == spend_hex
    assert sol.solver_meta["lambda"].hex() == lambda_hex
    assert int((~sol.lotteries.degenerate).sum()) == lotteries


SEARCH_SHARES = (0.001, 0.01, 0.05, 0.2, 0.5, 0.8, 0.95, 0.99, 0.999)


def _search_markets(grid):
    """(label, dists, values, shares) markets for the multiplier search:
    replicated priors with equal values tie in their slope-to-value ratios,
    every other odd irregular prior has an exact plateau, zero-value agents
    hold spend back (at the top shares every multiplier fits), and copies of
    U(0, 1) tie everywhere.  At grid 10,001 a 32-agent market adds a share
    whose multiplier sits among thousands of near-tied slopes, where a
    ladder of brackets, narrowing rounds and a merge of flipping segments
    takes 11 spend rounds."""
    rng = np.random.default_rng(19)
    base = irregular_priors(2015, 6)
    vals = rng.uniform(0.5, 2.0, 6).round(2)
    zero = rng.uniform(0.5, 2.0, 9)
    zero[[1, 4, 7]] = 0.0
    markets = [("x1", base, vals, SEARCH_SHARES),
               ("x2", base * 2, np.tile(vals, 2), SEARCH_SHARES),
               ("x3", base * 3, np.tile(vals, 3), SEARCH_SHARES),
               ("zero-values", irregular_priors(7, 9), zero, SEARCH_SHARES),
               ("uniform-copies", [U01] * 5, np.ones(5), SEARCH_SHARES),
               ("uniform-mixed-values", [U01] * 4, np.array([1.0, 2.0, 1.0, 0.5]),
                SEARCH_SHARES)]
    if grid == 10001:
        markets.append(("near-tie", irregular_priors(0, 32),
                        np.random.default_rng(0).uniform(0.5, 2.0, 32).round(2), (0.2,)))
    return markets


@pytest.mark.parametrize("grid", [101, 1001, 10001])
def test_multiplier_search_matches_bisection(grid):
    # the bit-pattern search and the bisection it replaced end on the same
    # float multiplier with the same segment counts, at the every-lambda-fits
    # floor and where the bracket closes to adjacent floats, in at most 11
    # rounds of 63 evaluations however tied the slopes are; the spend row it
    # returns is each agent's hull value at its count, in an array of its own
    lams = set()
    for label, dists, values, shares in _search_markets(grid):
        hulls = [ironed_curve(d, grid) for d in dists]
        full = sum(h.total_spend for h in hulls)
        for share in shares:
            budget = share * full
            lam, counts, spend, evals = _search_multiplier(hulls, values, budget)
            ref_lam, ref_counts = bisect_multiplier(hulls, values, budget)
            assert lam.hex() == ref_lam.hex(), (label, share)
            assert counts.tolist() == ref_counts, (label, share)
            assert spend.tobytes() == np.array([h.hull[c] for h, c in
                                                zip(hulls, ref_counts)]).tobytes()
            assert spend.base is None, (label, share)
            assert evals <= 11 * 63, (label, share)
            lams.add(lam)
    assert 2.0 ** -200 in lams


def test_solve_additive_records_its_work_as_counts():
    dists = irregular_priors(2015, 8)
    values = np.random.default_rng(3).uniform(0.5, 2.0, 8)
    full = sum(ironed_curve(d).total_spend for d in dists)
    binding, slack = (solve_additive(dists, values, share * full).solver_meta
                      for share in (0.3, 2.0))
    for meta in (binding, slack):
        for key in ("spend_evals", "pivotal_agents"):
            assert type(meta[key]) is int and meta[key] >= 0
    assert binding["spend_evals"] > 0 and slack["spend_evals"] == 0


def _solution_bytes(sol):
    return sol.quantiles.tobytes(), lottery_columns(sol.lotteries), sol.expected_spend.hex()


def test_one_pass_split_matches_the_stepwise_water_fill_bitwise():
    # design-sweep-shaped markets (32 distinct irregular priors, 8 budgets
    # as shares of the summed support tops), the pinned 2-copy tie market
    # and a 3-copy one: the stepwise reference takes one step on each, and
    # the one-pass split lands on its bits
    markets = []
    for seed in (7, 11):
        rng = np.random.default_rng(seed)
        dists = irregular_priors(seed, 32)
        tops = sum(d.support_hi for d in dists)
        markets += [(dists, rng.uniform(0.5, 2.0, 32), frac * tops)
                    for frac in (0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9)]
    for copies, seed, n in ((2, 2015, 16), (3, 5, 6)):
        dists = irregular_priors(seed, n) * copies
        values = np.tile(np.random.default_rng(seed).uniform(0.5, 2.0, n).round(2), copies)
        full = sum(ironed_curve(d).total_spend for d in dists)
        markets += [(dists, values, share * full) for share in (0.1, 0.2, 0.65)]
    for dists, values, budget in markets:
        ref, steps = solve_additive_stepwise(dists, values, budget)
        sol = solve_additive(dists, values, budget)
        assert steps == 1
        assert sol.solver_meta["pivotal_agents"] >= 1
        assert _solution_bytes(sol) == _solution_bytes(ref)


def test_one_pass_split_matches_the_stepwise_water_fill_on_scaled_copies():
    # U(0, c) with value c ties every agent's ratio in real arithmetic, so
    # members reach the ends of their segments apart by rounding and the
    # reference takes more steps, re-summing the spend between them
    rng = np.random.default_rng(29)
    steps_seen = set()
    for _ in range(40):
        c = rng.choice([0.001, 0.5, 1.0, 2.0, 3.0, 7.0], int(rng.integers(2, 8)))
        dists = [Uniform(0.0, float(x)) for x in c]
        budget = float(rng.uniform(0.05, 0.95)) * sum(ironed_curve(d).total_spend
                                                      for d in dists)
        ref, steps = solve_additive_stepwise(dists, c, budget)
        sol = solve_additive(dists, c, budget)
        steps_seen.add(steps)
        assert sol.lotteries.degenerate.tolist() == ref.lotteries.degenerate.tolist()
        assert np.abs(sol.quantiles - ref.quantiles).max() <= 1e-12
        assert sol.expected_spend == pytest.approx(ref.expected_spend, rel=1e-15, abs=0)
        assert sol.objective == pytest.approx(ref.objective, rel=1e-15, abs=0)
    assert max(steps_seen) >= 2


@pytest.mark.parametrize("call, message", [
    (lambda: solve_additive([U01] * 2, [1.0], 1.0), "one value per distribution required"),
    (lambda: discretize([U01], 1.0, 0), "m must be at least 1"),
    (lambda: greedy_submodular([U01] * 2, AdditiveValue((1.0,)), 1.0),
     "value function and distribution count disagree"),
], ids=["additive-values", "discretize-m", "greedy-values"])
def test_bad_input_raises_its_own_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_solve_additive_checks_the_value_count_before_ironing(monkeypatch):
    from postedpricing import exante

    monkeypatch.setattr(exante, "ironed_curve", None)  # ironing would fail loudly
    with pytest.raises(ValueError, match="one value per distribution"):
        solve_additive([U01] * 3, [1.0, 1.0], 1.0)


@pytest.mark.parametrize("seed", range(6))
def test_solve_additive_beats_grid_oracle(seed):
    rng = np.random.default_rng(seed)
    dists = []
    for _ in range(3):
        if rng.random() < 0.5:
            lo = float(rng.uniform(0, 0.4))
            dists.append(Uniform(lo, lo + float(rng.uniform(0.3, 1.2))))
        else:
            cs = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, 2)), [1.0]])
            Fs = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, 2)), [1.0]])
            dists.append(PiecewiseLinearCDF(tuple(zip(map(float, cs), map(float, Fs)))))
    values = rng.uniform(0.2, 2.0, 3)
    full = sum(ironed_curve(d).total_spend for d in dists)
    budget = float(rng.uniform(0.2, 0.8) * full)
    sol = solve_additive(dists, values, budget)
    assert sol.objective >= grid_oracle_additive(dists, values, budget) - 1e-3
    assert sol.expected_spend <= budget + 1e-6


def test_solve_additive_budget_binds_on_regular_inputs():
    rng = np.random.default_rng(21)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        dists = [Uniform(0.0, float(rng.uniform(0.5, 2.0))) for _ in range(n)]
        values = rng.uniform(0.5, 2.0, n)
        budget = float(rng.uniform(0.2, 0.8)
                       * sum(ironed_curve(d).total_spend for d in dists))
        sol = solve_additive(dists, values, budget)
        assert sol.expected_spend == pytest.approx(budget, abs=1e-6)


def test_solve_symmetric_reduces_to_uniform_market():
    g = tuple(float(s) for s in range(17))
    sol = solve_symmetric(U01, g, 4.0)
    assert sol.quantiles[0] == pytest.approx(0.5, abs=1e-9)
    assert sol.objective == pytest.approx(8.0, abs=1e-6)


def test_solve_symmetric_zero_budget():
    sol = solve_symmetric(U01, (0.0, 1.0, 1.5), 0.0)
    assert sol.quantiles[0] == 0.0
    assert sol.objective == 0.0


def test_solve_symmetric_matches_scalar_grid_search():
    g = (0.0, 1.0, 1.0, 1.0, 1.0)
    vf = SymmetricValue(g)
    budget = 0.7
    sol = solve_symmetric(U01, g, budget)
    ic = ironed_curve(U01)
    qs = np.linspace(0, 1, 2001)
    feasible = qs[np.array([4 * hull_at(ic, q) for q in qs]) <= budget]
    from postedpricing import concave_closure_symmetric
    best = max(concave_closure_symmetric(vf, float(q)) for q in feasible)
    assert sol.objective >= best - 1e-3


@pytest.mark.parametrize("grid", [101, 1001, 10001])
@pytest.mark.parametrize("n,budget", [(4, 0.37), (7, 2.3), (10, 0.01), (3, 2.999)])
def test_grid_solution_underestimates_the_continuous_optimum_by_at_most_h2(grid, n, budget):
    # U(0, 1) with equal values: the curve is q^2 and the continuous optimum
    # q* = sqrt(B/n).  A chord between grid points overstates q^2 by at most
    # h^2/4, so the grid spend at q* is too high, q_G <= q*, and
    # q*^2 - q_G^2 <= h^2/4 gives q* - q_G <= h^2 / (4 q*).  The additive
    # solve then moves each agent off the grid to where the curve spends its
    # chord spend B/n, which is q* itself
    h = 1.0 / (grid - 1)
    q_star = (budget / n) ** 0.5
    additive = solve_additive([U01] * n, [1.0] * n, budget, grid_size=grid)
    for sol in (additive, solve_symmetric(U01, tuple(range(n + 1)), budget, grid_size=grid)):
        gap = q_star - sol.quantiles
        assert np.all(gap >= -1e-12)
        assert np.all(gap <= h * h / (4.0 * q_star))
    assert np.all(np.abs(q_star - additive.quantiles) <= 1e-12)


def test_discretize_uniform_closed_form():
    cumulative = np.cumsum(discretize([U01], 1.0, 4), axis=1)
    expected = [np.sqrt(j / 4) for j in range(1, 5)]
    assert np.allclose(cumulative[0], expected, atol=1e-5)
    spends = np.diff(np.concatenate([[0.0], cumulative[0] ** 2]))
    assert np.allclose(spends, 0.25, atol=1e-4)


def test_discretize_single_step():
    cumulative = np.cumsum(discretize([U01], 0.49, 1), axis=1)
    ic = ironed_curve(U01)
    assert hull_at(ic, cumulative[0, 0]) == pytest.approx(0.49, abs=1e-9)


def test_discretize_noisy_bracket():
    dists = [U01, Uniform(0, 2), TruncatedExponential(1.0, 0.0, 1.0)]
    deltas = discretize(dists, 1.0, 9, noisy=True, seed=3)
    exact = discretize(dists, 1.0, 9, noisy=False)
    n = len(dists)
    lo = (1 - 1 / n ** 3) * exact
    assert np.all(deltas <= exact + 1e-15)
    assert np.all(deltas >= lo - 1e-15)


def test_discretize_increments_shrink_for_regular():
    d = discretize([U01], 0.8, 6)[0]
    positive = d[d > 0]
    assert np.all(np.diff(positive) < 1e-12)


def test_discretize_saturation():
    # huge budget: the first increment hits quantile 1, the rest are zero
    deltas = discretize([U01], 50.0, 5)
    assert np.cumsum(deltas, axis=1)[0, 0] == pytest.approx(1.0)
    assert np.all(deltas[0, 1:] == 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_discretize_matches_scalar_loop(seed):
    # one vectorised inversion per agent gives the scalar loop's increments
    # bit for bit, at zero, partial and saturating budgets
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    dists = irregular_priors(100 + seed, n)
    full = sum(ironed_curve(d).total_spend for d in dists)
    for frac in (0.0, 0.1, 0.5, 0.9, 1.5):
        m = int(rng.integers(n, n * n + 1))
        budget = frac * full
        for noisy in (False, True):
            deltas = discretize(dists, budget, m, noisy=noisy, seed=seed)
            assert not deltas.flags.writeable
            assert np.array_equal(deltas, discretize_loop(dists, budget, m, noisy, seed))


def test_greedy_additive_close_to_lagrangian():
    rng = np.random.default_rng(17)
    for _ in range(4):
        n = int(rng.integers(2, 6))
        dists = [Uniform(0.0, float(rng.uniform(0.4, 1.5))) for _ in range(n)]
        values = tuple(float(v) for v in rng.uniform(0.5, 2.0, n))
        budget = float(rng.uniform(0.25, 0.7)
                       * sum(ironed_curve(d).total_spend for d in dists))
        greedy = greedy_submodular(dists, AdditiveValue(values), budget, m=n * n)
        exact = solve_additive(dists, values, budget)
        assert greedy.objective >= 0.95 * exact.objective
        assert greedy.expected_spend <= budget + 1e-6


def test_greedy_zero_budget_selects_nothing():
    sol = greedy_submodular([U01, U01], AdditiveValue((1.0, 1.0)), 0.0, m=4)
    assert np.all(sol.quantiles == 0.0)
    assert sol.objective == 0.0


def test_greedy_symmetric_saturates():
    sol = greedy_submodular([U01, U01], SymmetricValue((0.0, 1.0, 1.0)), 10.0, m=4)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    # one agent-equivalent of value suffices; extra increments add nothing
    assert sol.quantiles.max() == pytest.approx(1.0)


def test_greedy_selection_order_within_agent():
    sol = greedy_submodular([U01] * 2, AdditiveValue((1.0, 0.9)), 0.5, m=4)
    seen = {}
    for agent, j in sol.solver_meta["selection_order"]:
        assert j == seen.get(agent, 0)
        seen[agent] = j + 1


def test_greedy_exact_additive_pinned():
    sol = greedy_submodular([U01, Uniform(0, 1.4), Uniform(0.1, 0.9)],
                            AdditiveValue((1.0, 0.7, 1.2)), 0.8, m=9)
    assert sol.solver_meta["selection_order"] == (
        (2, 0), (0, 0), (1, 0), (2, 1), (2, 2), (0, 1), (2, 3), (0, 2), (2, 4))
    assert sol.objective == 1.5153473494371743


def test_greedy_exact_symmetric_over_distinct_priors_pinned():
    sol = greedy_submodular([U01, Uniform(0, 0.7), Uniform(0.1, 1.2)],
                            SymmetricValue((0.0, 1.0, 1.7, 2.0)), 1.0, m=9)
    assert sol.solver_meta["selection_order"] == (
        (1, 0), (0, 0), (2, 0), (1, 1), (1, 2), (0, 1), (1, 3), (2, 1), (1, 4))
    assert sol.objective == 1.4594789545008666


def test_greedy_sampled_coverage_positive():
    cover = CoverageValue((1.0, 1.0, 1.0), ((0,), (1,), (0, 2)))
    vf = OracleValue(3, cover.evaluate)  # a black-box oracle's gains are sampled
    sol = greedy_submodular([U01] * 3, vf, 0.75, m=9, samples=4000, seed=5)
    assert sol.expected_spend <= 0.75 + 1e-6
    exact = brute_multilinear(cover, sol.quantiles)
    assert exact > 0.5


@pytest.mark.parametrize("vf", [
    AdditiveValue((1.0, 0.5, 2.0)),
    SymmetricValue((0.0, 1.0, 1.7, 2.0)),
    CoverageValue((1.0, 1.0, 1.0), ((0,), (1,), (0, 2))),
], ids=["additive", "symmetric", "coverage"])
def test_greedy_records_no_sample_count_where_gains_are_exact(vf):
    sol = greedy_submodular([U01] * 3, vf, 0.75, m=9, samples=4000, seed=5)
    assert "samples" not in sol.solver_meta


def test_greedy_records_the_sample_count_of_sampled_gains():
    vf = OracleValue(3, CoverageValue((1.0, 1.0, 1.0), ((0,), (1,), (0, 2))).evaluate)
    sol = greedy_submodular([U01] * 3, vf, 0.75, m=9, samples=4000, seed=5)
    assert sol.solver_meta["samples"] == 4000


def test_greedy_coverage_gains_are_exact(monkeypatch):
    def sampled(*args, **kwargs):
        raise AssertionError("coverage greedy drew a sample")

    for name in ("multilinear", "marginal_estimate", "_row_marginals"):
        monkeypatch.setattr(ValueFunction, name, sampled)
    rng = np.random.default_rng(21)
    vf = CoverageValue(tuple(rng.uniform(0.5, 2.0, 8)),
                       tuple(tuple(rng.choice(8, 3, replace=False)) for _ in range(5)))
    dists = [Uniform(0, h) for h in rng.uniform(0.8, 1.2, 5)]
    sol = greedy_submodular(dists, vf, 1.5, m=25, seed=3)
    assert len(sol.solver_meta["selection_order"]) > 0
    assert sol.objective == pytest.approx(brute_multilinear(vf, sol.quantiles), abs=1e-12)
    # the seed only reaches the (here absent) noise, so it moves nothing
    again = greedy_submodular(dists, vf, 1.5, m=25, seed=4)
    assert again.quantiles.tolist() == sol.quantiles.tolist()


def _coverage_market(seed):
    """A weighted-coverage market shaped like perfbench's oblivious-cli op:
    10 agents over 30 elements, uniform(0, h) priors with h in [0.9, 1.1],
    every element owned by one agent and each agent covering 2-5 more."""
    rng = np.random.default_rng(seed)
    his = rng.uniform(0.9, 1.1, 10)
    weights = tuple(rng.uniform(0.5, 2.0, 30))
    covers = [set() for _ in range(10)]
    for e, owner in enumerate(rng.integers(10, size=30)):
        covers[owner].add(e)
    for cov in covers:
        cov.update(rng.choice(30, size=int(rng.integers(2, 6)), replace=False).tolist())
    return [Uniform(0, h) for h in his], CoverageValue(weights, tuple(map(tuple, covers))), his


def _greedy_markets():
    """(dists, value function, budget, greedy options) params for the greedy
    reference check."""
    out = []
    for seed in range(20):
        dists, vf, his = _coverage_market(seed)
        budget = 0.6 * float(his.sum())
        eps = mechanism_menu(dists, vf, budget, "oblivious", seed=seed)[0].epsilon
        out.append(pytest.param(dists, vf, budget, {"seed": seed}, id=f"coverage-{seed}-full"))
        out.append(pytest.param(dists, vf, (1.0 - eps) * budget, {"seed": seed},
                                id=f"coverage-{seed}-shrunk"))
    # duplicate covers over equal priors tie exactly; greedy takes the lowest index
    tied = CoverageValue((1.0, 2.0, 0.5, 1.5), ((0, 1), (0, 1), (2,), (2,), (1, 3), (1, 3)))
    out.append(pytest.param([U01] * 6, tied, 1.2, {"m": 24}, id="coverage-tied"))
    out.append(pytest.param([U01] * 4, CoverageValue((1.0, 1.0), ((0, 1),) * 4), 0.9, {},
                            id="coverage-tied-all"))
    rng = np.random.default_rng(31)
    dists = [Uniform(0.0, float(h)) for h in rng.uniform(0.4, 1.5, 6)]
    out.append(pytest.param(dists, AdditiveValue(tuple(rng.uniform(0.5, 2.0, 6))), 1.1, {},
                            id="additive"))
    out.append(pytest.param(dists, AdditiveValue(tuple(rng.uniform(0.5, 2.0, 6))), 1.4,
                            {"noisy": True, "seed": 3}, id="additive-noisy"))
    out.append(pytest.param([U01, Uniform(0, 0.7), Uniform(0.1, 1.2), Uniform(0, 1.3)],
                            SymmetricValue((0.0, 1.0, 1.7, 2.1, 2.2)), 1.0, {"m": 20},
                            id="symmetric"))
    cover = CoverageValue((1.0, 0.5, 2.0, 1.0), ((0,), (0, 1), (1, 2), (3,)))
    out.append(pytest.param([U01, Uniform(0, 0.8), Uniform(0.1, 1.1), U01],
                            OracleValue(4, cover.evaluate), 0.9,
                            {"m": 12, "samples": 300, "seed": 11}, id="oracle-sampled"))
    return out


@pytest.mark.parametrize("dists, vf, budget, opts", _greedy_markets())
def test_greedy_matches_its_per_step_reference_bitwise(dists, vf, budget, opts):
    sol = greedy_submodular(dists, vf, budget, **opts)
    ref = greedy_submodular_per_step(dists, vf, budget, **opts)
    assert sol.solver_meta == ref.solver_meta  # selection order, samples, ...
    assert sol.quantiles.tobytes() == ref.quantiles.tobytes()
    assert float(sol.objective).hex() == float(ref.objective).hex()
    assert float(sol.expected_spend).hex() == float(ref.expected_spend).hex()
    assert lottery_columns(sol.lotteries) == lottery_columns(ref.lotteries)
    assert len(sol.solver_meta["selection_order"]) > 1


def test_greedy_requires_enough_increments():
    with pytest.raises(ValueError):
        greedy_submodular([U01] * 3, AdditiveValue((1.0,) * 3), 1.0, m=2)


def test_objective_monotone_in_budget():
    dists = [U01, Uniform(0, 0.7), Uniform(0.1, 1.2)]
    values = (1.0, 0.8, 1.5)
    budgets = np.linspace(0.1, 2.0, 8)
    add = [solve_additive(dists, values, float(b)).objective for b in budgets]
    assert np.all(np.diff(add) >= -1e-9)
    sym = [solve_symmetric(U01, (0.0, 1.0, 1.7, 2.0), float(b)).objective
           for b in budgets]
    assert np.all(np.diff(sym) >= -1e-9)
    grd = [greedy_submodular(dists, AdditiveValue(values), float(b), m=9).objective
           for b in budgets]
    assert np.all(np.diff(grd) >= -1e-9)


def test_solve_ex_ante_dispatch():
    add = solve_ex_ante([U01] * 2, AdditiveValue((1.0, 1.0)), 0.5)
    assert add.solver_meta.get("lambda") is not None
    sym = solve_ex_ante([U01] * 2, SymmetricValue((0.0, 1.0, 1.5)), 0.5)
    assert "q" in sym.solver_meta
    cov = solve_ex_ante([U01] * 2, CoverageValue((1.0,), ((0,), (0,))), 0.5,
                        samples=500, seed=1)
    assert "m" in cov.solver_meta


def test_solver_kind_resolves_auto_and_checks_explicit_kinds():
    additive = AdditiveValue((1.0,) * 4)
    symmetric = SymmetricValue((0.0, 1.0, 1.5, 1.8, 2.0))
    coverage = CoverageValue((1.0, 1.0), ((0,), (1,), (0, 1), (1,)))
    mixed = [U01] * 2 + [Uniform(0, 2)] * 2  # no shared prior
    assert solver_kind([U01] * 4, additive) == "additive"
    assert solver_kind([U01] * 4, symmetric) == "symmetric"
    assert solver_kind(mixed, symmetric) == "greedy"
    assert solver_kind([U01] * 4, coverage) == "greedy"
    assert solver_kind([U01] * 4, symmetric, "greedy") == "greedy"
    with pytest.raises(ValueError, match="one common distribution"):
        solver_kind(mixed, symmetric, "symmetric")
    with pytest.raises(ValueError, match="additive value function"):
        solver_kind([U01] * 4, coverage, "additive")
    with pytest.raises(ValueError, match=re.escape(", ".join(SOLVER_KINDS))):
        solver_kind([U01] * 4, additive, "lagrangian")
    # solve_ex_ante keeps the check: symmetric would otherwise solve dists[0] alone
    with pytest.raises(ValueError, match="one common distribution"):
        solve_ex_ante(mixed, symmetric, 1.0, kind="symmetric")


def test_each_solver_names_itself():
    # both returns of solve_additive: a binding budget, and one above full spend
    for budget in (0.5, 5.0):
        sol = solve_additive([U01] * 2, [1.0, 1.0], budget)
        assert sol.solver_meta["solver"] == "additive"
    sym = solve_symmetric(U01, (0.0, 1.0, 1.5), 0.5)
    assert sym.solver_meta["solver"] == "symmetric"
    grd = greedy_submodular([U01] * 2, AdditiveValue((1.0, 1.0)), 0.5, m=4)
    assert grd.solver_meta["solver"] == "greedy"


def test_solution_spend_matches_lottery_accounting():
    d = PiecewiseLinearCDF(((0.0, 0.0), (0.2, 0.5), (0.8, 0.6), (1.0, 1.0)))
    sol = solve_additive([d, U01], [1.0, 1.0], 0.6)
    per_agent = sum(sol.lotteries.expected_spend.tolist())
    assert per_agent == pytest.approx(sol.expected_spend, abs=1e-6)


def test_off_grid_spend_gap_is_bounded_by_the_cells_kink():
    # the pivotal agent stops inside the grid cell that holds its prior's
    # breakpoint F_k, where q * F^-1(q) bends upward: the fill gives it the
    # cell's chord spend, and it moves along the cell to where its one-price
    # lottery pays that much on the curve, so the menu spends the budget and
    # the chord at the new quantile overstates it by at most the kink's bound
    (c0, f0), (ck, fk), (c2, f2) = (0.0, 0.0), (0.5, 0.4321234), (2.0, 1.0)
    d = PiecewiseLinearCDF(((c0, f0), (ck, fk), (c2, f2)))
    budget = 0.1 + fk * ck   # Uniform(0, 0.1) takes its whole curve, spend 0.1
    dists = [d, Uniform(0, 0.1)]
    sol = solve_additive(dists, [1.0, 10.0], budget)
    hulls = [ironed_curve(x) for x in dists]
    grid = hulls[0].quantiles
    q = float(sol.quantiles[0])
    j = int(grid.searchsorted(q)) - 1
    assert grid[j] < q < grid[j + 1] and grid[j] < fk < grid[j + 1]
    assert sol.quantiles[1] == 1.0 and sol.lotteries.degenerate.all()
    spend = sum(sol.lotteries.expected_spend.tolist())
    assert sol.expected_spend == spend and abs(spend - budget) <= 1e-12 * budget
    gap = interp_spend_sum(hulls, sol.quantiles) - budget
    h = grid[1] - grid[0]
    r1, r2 = (ck - c0) / (fk - f0), (c2 - ck) / (f2 - fk)
    assert 0.0 < gap <= h * fk * abs(r2 - r1) / 4 + h * h * max(r1, r2) / 4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solution_spend_matches_per_agent_interp_sum(seed):
    # a solution's spend is what its lotteries pay, summed in agent order;
    # solve_additive's quantiles sit on grid points, inside cells and at 1.
    # Greedy's quantiles stay where its increments put them, so its menu
    # pays at most the chords it budgeted
    dists = irregular_priors(seed, 32)
    values = np.random.default_rng(seed).uniform(0.5, 2.0, 32)
    hulls = [ironed_curve(d) for d in dists]
    full = sum(h.total_spend for h in hulls)
    for share in (0.05, 0.3, 0.75, 1.2):
        sol = solve_additive(dists, values, share * full)
        assert sol.expected_spend == sum(sol.lotteries.expected_spend.tolist())
    grd = greedy_submodular(dists[:6], AdditiveValue(values[:6]), 0.3 * full / 5, m=24)
    assert grd.expected_spend == sum(grd.lotteries.expected_spend.tolist())
    assert grd.expected_spend <= interp_spend_sum(hulls[:6], grd.quantiles)


def test_menu_spend_meets_the_budget_with_a_kink_in_the_pivotal_cell():
    # design-sweep-shaped markets of 32 irregular priors, in which every
    # agent but one pwcdf agent p is worth enough to take its whole curve,
    # and the budget leaves p the curve's spend at a quantile beside one of
    # its breakpoints F_k (from 1e-12 to 1e-5 away), so p stops in the grid
    # cell that holds the kink and its move must find the curve across it
    cases = 0
    for seed in range(3):
        dists = irregular_priors(seed, 32)
        hulls = [ironed_curve(d) for d in dists]
        grid = hulls[0].quantiles
        rng = np.random.default_rng(seed)
        for p in range(1, 32, 2):
            d, ic = dists[p], hulls[p]
            for fk in sorted({F for _, F in d.points[1:-1]}):
                j = int(grid.searchsorted(fk)) - 1
                lo, hi = grid[j], grid[j + 1]
                if fk == hi or ic.interval_containing(0.5 * (lo + hi)) is not None:
                    continue
                q = fk + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12, -5)
                q = min(max(q, lo + 1e-12), hi - 1e-12)
                values = np.full(32, 1e4)
                values[p] = 1.0
                budget = (sum(h.total_spend for i, h in enumerate(hulls) if i != p)
                          + q * d.inverse_cdf(q))
                sol = solve_additive(dists, values, budget)
                assert lo < sol.quantiles[p] < hi
                assert np.delete(sol.quantiles, p).tolist() == [1.0] * 31
                spend = sum(sol.lotteries.expected_spend.tolist())
                assert sol.expected_spend == spend
                assert abs(spend - budget) <= 1e-10 * budget
                cases += 1
    assert cases >= 20


@pytest.mark.parametrize("seed", [0, 1])
def test_solution_lotteries_match_the_per_agent_route_bitwise(seed):
    # the five columns and degenerate, expected_spend and max_price against
    # one PriceLottery per agent at the solution's quantiles; greedy leaves
    # more agents inside ironed intervals than the Lagrangian solver
    dists = irregular_priors(seed, 48)[1::2]  # 24 kinked pwcdf priors
    values = np.random.default_rng(seed).uniform(0.5, 2.0, 24)
    full = sum(ironed_curve(d).total_spend for d in dists)
    g = tuple(float(s) ** 0.5 for s in range(25))
    sols = [(solve_additive(dists, values, share * full), dists)
            for share in np.linspace(0.05, 0.75, 8)]
    for d in dists[:4]:
        # a shared quantile inside the ironed interval, and one on a grid point
        ic = ironed_curve(d)
        for q in (0.5 * sum(ic.intervals[0]), 0.25):
            sols.append((solve_symmetric(d, g, 24 * hull_at(ic, q)), [d] * 24))
    sols += [(greedy_submodular(dists[:8], AdditiveValue(values[:8]), share * full / 3, m=m),
              dists[:8]) for m in (36, 64) for share in (0.2, 0.4)]
    randomized = {}
    for sol, ds in sols:
        ref = [two_price_lottery(ironed_curve(d), d, q) for d, q in zip(ds, sol.quantiles.tolist())]
        assert lottery_columns(sol.lotteries) == lottery_columns(ref)
        solver = sol.solver_meta["solver"]
        randomized[solver] = randomized.get(solver, 0) + sum(not lot.degenerate for lot in ref)
    assert min(randomized.values()) >= 2 and len(randomized) == 3


def test_greedy_noisy_increments_still_feasible():
    dists = [U01, Uniform(0, 1.4), Uniform(0.1, 0.9)]
    sol = greedy_submodular(dists, AdditiveValue((1.0, 0.7, 1.2)), 0.8,
                            m=9, noisy=True, seed=4)
    assert sol.expected_spend <= 0.8 + 1e-6
    exact = solve_additive(dists, [1.0, 0.7, 1.2], 0.8)
    assert sol.objective >= 0.9 * exact.objective


def test_lottery_quantile_invariant():
    d = PiecewiseLinearCDF(((0.0, 0.0), (0.2, 0.5), (0.8, 0.6), (1.0, 1.0)))
    sol = solve_additive([d] * 2, [1.0, 1.0], 0.3)
    lots = sol.lotteries
    induced = lots.prob_lo * d.cdf(lots.price_lo) + (1 - lots.prob_lo) * d.cdf(lots.price_hi)
    assert np.all(np.abs(induced - sol.quantiles) < 1e-9)
