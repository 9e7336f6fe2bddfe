import hashlib
import re

import numpy as np
import pytest

from postedpricing import (AdditiveValue, CoverageValue, OracleValue,
                           PiecewiseLinearCDF, SymmetricValue,
                           TruncatedExponential, Uniform, ValueFunction,
                           discretize, greedy_submodular, ironed_curve,
                           solve_additive, solve_ex_ante, solve_symmetric,
                           solver_kind)
from postedpricing.exante import SOLVER_KINDS, _hull_values, _search_multiplier

from oracles import (bisect_multiplier, brute_multilinear, discretize_loop,
                     grid_oracle_additive, interp_spend_sum, irregular_priors,
                     lottery_columns, two_price_lottery)

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
    (0.1, "52e9708684896b7c550cd328c0be7a12390e2c651056b44142589adaae651cf5",
     "0x1.fcde6f92cd889p+1", "0x1.0079367bcc179p+1", 0),
    (0.2, "72c8ba241f0c5f542ad911b08bd7781975a324c0c82e3fb89df7d33282ef9d2f",
     "0x1.fcde6f92cd7e8p+2", "0x1.7634cf7c725c9p+0", 2),
    (0.65, "870caf61a90786410b86e03a46559395043002bf4fbc767527de3b3296ff693d",
     "0x1.9d74baa746f92p+4", "0x1.0253ac713edf6p-1", 2),
]


@pytest.mark.parametrize("share, quantiles_sha256, spend_hex, lambda_hex, lotteries",
                         PINNED_IRREGULAR_SOLVES,
                         ids=[f"share{case[0]}" for case in PINNED_IRREGULAR_SOLVES])
def test_solve_additive_bits_pinned_on_irregular_market(share, quantiles_sha256,
                                                        spend_hex, lambda_hex, lotteries):
    # 16 irregular priors, each held by two agents of equal value, so the
    # water-fill splits ties and can stop inside an ironed interval
    dists = irregular_priors(2015, 16) * 2
    values = np.tile(np.random.default_rng(2015).uniform(0.5, 2.0, 16).round(2), 2)
    budget = share * sum(ironed_curve(d).total_spend for d in dists)
    sol = solve_additive(dists, values, budget)
    assert hashlib.sha256(sol.quantiles.tobytes()).hexdigest() == quantiles_sha256
    assert sol.expected_spend.hex() == spend_hex
    assert sol.solver_meta["lambda"].hex() == lambda_hex
    assert int((~sol.lotteries.degenerate).sum()) == lotteries


SEARCH_SHARES = (0.001, 0.01, 0.05, 0.2, 0.5, 0.8, 0.95, 0.99, 0.999)


def _search_markets():
    """(label, dists, values) markets for the multiplier search: replicated
    priors with equal values tie in their slope-to-value ratios, every other
    odd irregular prior has an exact plateau, zero-value agents hold spend
    back (at the top shares every multiplier fits), and copies of U(0, 1)
    tie everywhere."""
    rng = np.random.default_rng(19)
    base = irregular_priors(2015, 6)
    vals = rng.uniform(0.5, 2.0, 6).round(2)
    zero = rng.uniform(0.5, 2.0, 9)
    zero[[1, 4, 7]] = 0.0
    return [("x1", base, vals),
            ("x2", base * 2, np.tile(vals, 2)),
            ("x3", base * 3, np.tile(vals, 3)),
            ("zero-values", irregular_priors(7, 9), zero),
            ("uniform-copies", [U01] * 5, np.ones(5)),
            ("uniform-mixed-values", [U01] * 4, np.array([1.0, 2.0, 1.0, 0.5]))]


@pytest.mark.parametrize("grid", [101, 1001, 10001])
def test_multiplier_search_matches_bisection(grid):
    # the vectorised search and the bisection it replaced end on the same
    # float multiplier with the same segment counts: after a merge of
    # inclusion bounds, at the every-lambda-fits floor, and (at the finer
    # grids) where the bracket closes to adjacent floats
    regimes = set()
    for label, dists, values in _search_markets():
        hulls = [ironed_curve(d, grid) for d in dists]
        full = sum(h.total_spend for h in hulls)
        for share in SEARCH_SHARES:
            budget = share * full
            lam, counts, evals, merged = _search_multiplier(hulls, values, budget)
            ref_lam, ref_counts = bisect_multiplier(hulls, values, budget)
            assert lam.hex() == ref_lam.hex(), (label, share)
            assert counts.tolist() == ref_counts, (label, share)
            regimes.add("floor" if lam == 2.0 ** -200 else "merge" if merged else "adjacent")
    assert {"floor", "merge"} <= regimes


def test_solve_additive_records_its_work_as_counts():
    dists = irregular_priors(2015, 8)
    values = np.random.default_rng(3).uniform(0.5, 2.0, 8)
    full = sum(ironed_curve(d).total_spend for d in dists)
    binding, slack = (solve_additive(dists, values, share * full).solver_meta
                      for share in (0.3, 2.0))
    for meta in (binding, slack):
        for key in ("spend_evals", "merged_segments", "waterfill_steps"):
            assert type(meta[key]) is int and meta[key] >= 0
    assert binding["spend_evals"] > 0 and slack["spend_evals"] == 0


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
    feasible = qs[np.array([4 * ic.hull_at(q) for q in qs]) <= budget]
    from postedpricing import concave_closure_symmetric
    best = max(concave_closure_symmetric(vf, float(q)) for q in feasible)
    assert sol.objective >= best - 1e-3


@pytest.mark.parametrize("grid", [101, 1001, 10001])
@pytest.mark.parametrize("n,budget", [(4, 0.37), (7, 2.3), (10, 0.01), (3, 2.999)])
def test_grid_solution_underestimates_the_continuous_optimum_by_at_most_h2(grid, n, budget):
    # U(0, 1) with equal values: the curve is q^2 and the continuous optimum
    # q* = sqrt(B/n).  A chord between grid points overstates q^2 by at most
    # h^2/4, so the grid spend at q* is too high, q_G <= q*, and
    # q*^2 - q_G^2 <= h^2/4 gives q* - q_G <= h^2 / (4 q*).
    h = 1.0 / (grid - 1)
    q_star = (budget / n) ** 0.5
    for sol in (solve_additive([U01] * n, [1.0] * n, budget, grid_size=grid),
                solve_symmetric(U01, tuple(range(n + 1)), budget, grid_size=grid)):
        gap = q_star - sol.quantiles
        assert np.all(gap >= -1e-12)
        assert np.all(gap <= h * h / (4.0 * q_star))


def test_discretize_uniform_closed_form():
    cumulative = np.cumsum(discretize([U01], 1.0, 4), axis=1)
    expected = [np.sqrt(j / 4) for j in range(1, 5)]
    assert np.allclose(cumulative[0], expected, atol=1e-5)
    spends = np.diff(np.concatenate([[0.0], cumulative[0] ** 2]))
    assert np.allclose(spends, 0.25, atol=1e-4)


def test_discretize_single_step():
    cumulative = np.cumsum(discretize([U01], 0.49, 1), axis=1)
    ic = ironed_curve(U01)
    assert ic.hull_at(cumulative[0, 0]) == pytest.approx(0.49, abs=1e-9)


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solution_spend_matches_per_agent_interp_sum(seed):
    # solve_additive's quantiles sit on grid points, inside cells and at 1
    dists = irregular_priors(seed, 32)
    values = np.random.default_rng(seed).uniform(0.5, 2.0, 32)
    hulls = [ironed_curve(d) for d in dists]
    full = sum(h.total_spend for h in hulls)
    for share in (0.05, 0.3, 0.75, 1.2):
        sol = solve_additive(dists, values, share * full)
        assert sol.expected_spend == interp_spend_sum(hulls, sol.quantiles)
    grd = greedy_submodular(dists[:6], AdditiveValue(values[:6]), 0.3 * full / 5, m=24)
    assert grd.expected_spend == interp_spend_sum(hulls[:6], grd.quantiles)


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
            sols.append((solve_symmetric(d, g, 24 * ic.hull_at(q)), [d] * 24))
    sols += [(greedy_submodular(dists[:8], AdditiveValue(values[:8]), share * full / 3, m=m),
              dists[:8]) for m in (36, 64) for share in (0.2, 0.4)]
    randomized = {}
    for sol, ds in sols:
        ref = [two_price_lottery(ironed_curve(d), d, q) for d, q in zip(ds, sol.quantiles.tolist())]
        assert lottery_columns(sol.lotteries) == lottery_columns(ref)
        solver = sol.solver_meta["solver"]
        randomized[solver] = randomized.get(solver, 0) + sum(not lot.degenerate for lot in ref)
    assert min(randomized.values()) >= 2 and len(randomized) == 3


@pytest.mark.parametrize("grid", [2, 3, 101])
def test_hull_values_are_np_interp_bitwise(grid):
    dists = irregular_priors(7, 32)
    hulls = [ironed_curve(d, grid) for d in dists]
    knots = hulls[0].quantiles
    rng = np.random.default_rng(grid)
    for q in (rng.random(32), knots[rng.integers(0, grid, 32)],
              rng.choice([0.0, -0.0, 1.0, -0.25, 1.5, np.nextafter(1.0, 0.0)], 32)):
        want = [float(np.interp(x, h.quantiles, h.hull)) for h, x in zip(hulls, q)]
        assert _hull_values(hulls, q).tobytes() == np.array(want).tobytes()


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
