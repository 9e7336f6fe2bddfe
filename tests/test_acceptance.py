"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time
from itertools import product

import numpy as np

import postedpricing as pp

from oracles import brute_multilinear, cost_curve, grid_oracle_additive, hull_at


def _report(num, name, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} ({elapsed:.2f}s / limit {limit:.0f}s) {detail}")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


U01 = pp.Uniform(0, 1)


def test_c01_uniform_market_reproduction():
    t0 = time.time()
    sol = pp.solve_additive([U01] * 16, [1.0] * 16, 4.0)
    ok = (np.all(np.abs(sol.quantiles - 0.5) <= 1e-6)
          and np.all(np.abs(sol.lotteries.price_lo - 0.5) <= 1e-6)
          and abs(sol.expected_spend - 4.0) <= 1e-6)
    _report(1, "16-agent uniform market: price 0.5, spend 4.0", ok,
            time.time() - t0, 1.0,
            f"q={sol.quantiles[0]:.9f} spend={sol.expected_spend:.9f}")


def test_c02_additive_solver_matches_grid_oracle():
    t0 = time.time()
    rng = np.random.default_rng(20240)
    worst = -math.inf
    for _ in range(50):
        dists = []
        for _ in range(3):
            if rng.random() < 0.5:
                lo = float(rng.uniform(0, 0.4))
                dists.append(pp.Uniform(lo, lo + float(rng.uniform(0.3, 1.2))))
            else:
                cs = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, 2)), [1.0]])
                Fs = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, 2)), [1.0]])
                dists.append(pp.PiecewiseLinearCDF(
                    tuple(zip(map(float, cs), map(float, Fs)))))
        values = rng.uniform(0.2, 2.0, 3)
        full = sum(pp.ironed_curve(d).total_spend for d in dists)
        budget = float(rng.uniform(0.15, 0.8) * full)
        sol = pp.solve_additive(dists, values, budget)
        gap = grid_oracle_additive(dists, values, budget) - sol.objective
        worst = max(worst, gap)
    _report(2, "50 random n=3 instances vs grid-search oracle", worst <= 1e-3,
            time.time() - t0, 60.0, f"worst oracle-advantage={worst:.2e}")


def _sequential_instances():
    def scaled(n, budget):
        return pp.Instance(dists=(U01,) * n,
                           value=pp.AdditiveValue((1.0,) * n),
                           budget=float(budget), label=f"u{n}")

    hetero = []
    for s, n, budget in ((101, 24, 1.0), (202, 30, 1.4)):
        r = np.random.default_rng(s)
        dists = tuple(pp.Uniform(0.0, float(r.uniform(0.05, 0.2 + n / 300)))
                      for _ in range(n))
        vals = tuple(float(v) for v in r.uniform(0.5, 2.0, n))
        hetero.append(pp.Instance(dists=dists, value=pp.AdditiveValue(vals),
                                  budget=budget, label=f"het{n}"))
    return [scaled(25, 1.0), scaled(16, 4.0), scaled(20, 5.0), scaled(45, 5.0),
            scaled(60, 15.0), scaled(100, 25.0), scaled(160, 40.0),
            scaled(400, 100.0)] + hetero


def test_c03_sequential_ratio_beats_bound():
    t0 = time.time()
    ok = True
    details = []
    ks = []
    for i, inst in enumerate(_sequential_instances()):
        rep = pp.approximation_report(inst, "sequential",
                                      trials=100_000, seed=900 + i)
        rel = rep.mechanism_stderr / rep.ex_ante_upper_bound
        good = rep.ratio >= rep.theoretical_bound - 3 * rel
        ok = ok and good and 5.0 <= rep.k <= 200.0
        ks.append(rep.k)
        details.append(f"{inst.label}:k={rep.k:.1f} r={rep.ratio:.4f}>={rep.theoretical_bound:.4f}")
    ok = ok and min(ks) <= 6 and max(ks) >= 150  # the family spans [5, 200]
    _report(3, "sequential ratio >= (1-1/sqrt(2pi k))(1-1/k) on 10 instances",
            ok, time.time() - t0, 300.0, "; ".join(details[:3]) + " ...")


def test_c04_overflow_probability_under_ceiling():
    t0 = time.time()
    cases = [(20, 0.3, 280, 1.0), (100, 0.2, 800, 10.0), (500, 0.1, 1500, 150.0)]
    ok = True
    details = []
    for k_target, eps, n, budget in cases:
        menu = pp.build_oblivious([U01] * n, pp.AdditiveValue((1.0,) * n),
                                  budget, eps)
        k = pp.market_size(menu, budget).k
        est = pp.overflow_probability(menu, budget, k, trials=100_000,
                                      seed=7000 + n)
        good = (abs(k - k_target) < 1e-6
                and est.p_hat <= est.ceiling + 3 * est.stderr)
        ok = ok and good
        details.append(f"k={k:.0f}: {est.p_hat:.4f}<={est.ceiling:.4f}")
    _report(4, "overflow probability within the analytic ceiling", ok,
            time.time() - t0, 120.0, "; ".join(details))


def test_c05_correlation_gap_exact():
    t0 = time.time()
    ok = True
    details = []
    for k in (1, 4, 16, 100):
        gap = pp.correlation_gap_experiment(k, 10 * k)
        good = gap.ratio >= gap.bound  # exact DP, exact inequality
        ok = ok and good
        details.append(f"k={k}: {gap.ratio:.4f}>={gap.bound:.4f}")
    _report(5, "capped-cardinality correlation gaps (exact DP)", ok,
            time.time() - t0, 30.0, "; ".join(details))


def test_c06_greedy_matches_lagrangian_on_additive():
    t0 = time.time()
    rng = np.random.default_rng(606)
    worst = math.inf
    for _ in range(20):
        n = int(rng.integers(2, 9))
        dists = []
        for _ in range(n):
            if rng.random() < 0.6:
                dists.append(pp.Uniform(0.0, float(rng.uniform(0.4, 2.0))))
            else:
                cs = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 1.0, 3)),
                                     [float(1.0 + rng.uniform(0, 1))]])
                Fs = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, 3)), [1.0]])
                dists.append(pp.PiecewiseLinearCDF(
                    tuple(zip(map(float, cs), map(float, Fs)))))
        values = tuple(float(v) for v in rng.uniform(0.5, 2.0, n))
        full = sum(pp.ironed_curve(d).total_spend for d in dists)
        budget = float(rng.uniform(0.2, 0.7) * full)
        greedy = pp.greedy_submodular(dists, pp.AdditiveValue(values), budget,
                                      m=n * n)
        exact = pp.solve_additive(dists, values, budget)
        worst = min(worst, greedy.objective / exact.objective)
    _report(6, "greedy within 5% of the Lagrangian additive optimum",
            worst >= 0.95, time.time() - t0, 120.0, f"worst ratio={worst:.4f}")


def test_c07_greedy_near_optimal_on_reduced_coverage():
    t0 = time.time()
    rng = np.random.default_rng(707)
    floor = 1 - 1 / math.e - 0.1
    worst = math.inf
    for trial in range(8):
        n = int(rng.integers(2, 4))
        m = n * n
        universe = int(rng.integers(3, 7))
        weights = tuple(float(w) for w in rng.uniform(0.5, 2.0, universe))
        covers = tuple(tuple(int(e) for e in
                             rng.choice(universe, size=rng.integers(1, universe + 1),
                                        replace=False))
                       for _ in range(n))
        vf = pp.CoverageValue(weights, covers)
        dists = [pp.Uniform(0.0, float(rng.uniform(0.5, 1.5))) for _ in range(n)]
        full = sum(pp.ironed_curve(d).total_spend for d in dists)
        budget = float(rng.uniform(0.3, 0.9) * full)
        sol = pp.greedy_submodular(dists, vf, budget, m=m, seed=trial)
        achieved = brute_multilinear(vf, sol.quantiles)
        cumulative = np.cumsum(pp.discretize(dists, budget, m), axis=1)
        best = 0.0
        for prof in product(range(m + 1), repeat=n):
            if sum(prof) > m:
                continue
            q = np.array([cumulative[i, prof[i] - 1] if prof[i] else 0.0
                          for i in range(n)])
            best = max(best, brute_multilinear(vf, q))
        worst = min(worst, achieved / best if best > 0 else 1.0)
    _report(7, "exact-gain greedy >= (1-1/e-0.1) x reduced-instance optimum",
            worst >= floor, time.time() - t0, 60.0,
            f"worst ratio={worst:.4f} floor={floor:.4f}")


def test_c08_ironing_property_suite():
    t0 = time.time()
    rng = np.random.default_rng(808)
    checked = 0
    ok = True
    detail = ""
    while checked < 20:
        m = int(rng.integers(3, 6))
        cs = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, m)), [1.0]])
        Fs = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, m)), [1.0]])
        try:
            d = pp.PiecewiseLinearCDF(tuple(zip(map(float, cs), map(float, Fs))))
        except ValueError:
            continue
        if not pp.ironed_curve(d).intervals:
            continue
        checked += 1
        ic = pp.ironed_curve(d)
        curve = cost_curve(d)
        scale = max(1.0, curve[-1])
        ok &= bool(np.all(np.diff(ic.slopes) >= -1e-12))
        ok &= bool(np.all(ic.hull <= curve + 1e-12 * scale))
        ok &= ic.hull[0] == 0.0 and abs(ic.hull[-1] - curve[-1]) <= 1e-9 * scale
        for a, b in ic.intervals:
            pa, pb = np.interp([a, b], ic.quantiles, curve)
            ok &= abs(hull_at(ic, a) - pa) <= 2e-9 * scale
            ok &= abs(hull_at(ic, b) - pb) <= 2e-9 * scale
        a, b = ic.intervals[0]
        q = 0.5 * (a + b)
        price_lo, price_hi, prob_lo, _, _ = pp.two_price_lottery(ic, d, q)
        trials = 100_000
        r2 = np.random.default_rng(9000 + checked)
        u = r2.random(trials)
        prices = np.where(u < prob_lo, price_lo, price_hi)
        costs = d.inverse_cdf(r2.random(trials))
        accepted = costs <= prices
        freq = accepted.mean()
        se_f = math.sqrt(freq * (1 - freq) / trials)
        payments = prices * accepted
        se_p = payments.std(ddof=1) / math.sqrt(trials)
        freq_ok = abs(freq - q) <= 3 * se_f
        pay_ok = abs(payments.mean() - hull_at(ic, q)) <= 3 * se_p
        if not (freq_ok and pay_ok):
            detail = f"dist {checked}: freq_ok={freq_ok} pay_ok={pay_ok}"
        ok &= freq_ok and pay_ok
    _report(8, "ironing suite on 20 irregular distributions", ok,
            time.time() - t0, 60.0, detail)


def test_c09_bound_table_reproduction():
    t0 = time.time()
    rows = pp.bounds_table([5, 10, 100, 1000, 10000])
    seq = [r.sequential for r in rows]
    obl = [r.oblivious for r in rows]
    ok = all(o is not None and s > o for s, o in zip(seq, obl))
    ok &= all(b > a for a, b in zip(seq, seq[1:]))
    ok &= all(b > a for a, b in zip(obl, obl[1:]))
    ok &= seq[-1] > 0.99 and obl[-1] > 0.9
    _report(9, "guarantee table: sequential dominates, both approach 1", ok,
            time.time() - t0, 10.0,
            " ".join(f"k={r.k:g}:{r.sequential:.3f}/{r.oblivious:.3f}" for r in rows))


def _fuzz_dist(r):
    u = r.random()
    if u < 0.4:
        lo = float(r.uniform(0, 0.3))
        return pp.Uniform(lo, lo + float(r.uniform(0.3, 1.2)))
    if u < 0.6:
        return pp.TruncatedExponential(float(r.uniform(0.5, 2.5)), 0.0,
                                       float(r.uniform(0.5, 2)))
    m = int(r.integers(2, 5))
    cs = np.concatenate([[0.0], np.sort(r.uniform(0.05, 0.95, m)), [1.0]])
    Fs = np.concatenate([[0.0], np.sort(r.uniform(0.05, 0.95, m)), [1.0]])
    try:
        return pp.PiecewiseLinearCDF(tuple(zip(map(float, cs), map(float, Fs))))
    except ValueError:
        return pp.Uniform(0.0, 1.0)


def test_c10_ex_post_feasibility_fuzz():
    t0 = time.time()
    rng = np.random.default_rng(1010)
    total_runs = 0
    config = 0
    ok = True
    while total_runs < 1_000_000:
        config += 1
        n = int(rng.integers(2, 7))
        dists = tuple(_fuzz_dist(rng) for _ in range(n))
        if rng.random() < 0.3:
            dists = (dists[0],) * n
            g = np.cumsum(np.sort(rng.uniform(0.1, 1.0, n))[::-1])
            vf = pp.SymmetricValue((0.0, *map(float, g)))
        else:
            vf = pp.AdditiveValue(tuple(float(v) for v in rng.uniform(0.2, 2.0, n)))
        full = sum(pp.ironed_curve(d).total_spend for d in dists)
        budget = float(rng.uniform(0.15, 0.9) * full)
        mode = int(rng.integers(4))
        if mode == 0 and isinstance(vf, pp.AdditiveValue):
            sol = pp.solve_additive(dists, vf.as_array(), budget)
            menu = pp.menu_from_solution(sol, "bang-per-buck")
            policy = "bang-per-buck"
        elif mode == 1:
            eps = float(rng.uniform(0.05, 0.45))
            menu = pp.build_oblivious(dists, vf, budget, eps)
            policy = "worst-of-sampled"
        elif mode == 2 and isinstance(vf, pp.AdditiveValue):
            sol = pp.solve_additive(dists, vf.as_array(), budget)
            menu = pp.derandomize_additive(
                pp.menu_from_solution(sol), dists, vf.as_array(), budget,
                samples=200, seed=config)
            policy = "uniform-random"
        else:
            sol = pp.solve_ex_ante(dists, vf, budget, seed=config, samples=500)
            menu = pp.menu_from_solution(sol, "fixed")
            policy = "uniform-random"
        inst = pp.Instance(dists=dists, value=vf, budget=budget)
        trials = 4000
        _, spends = pp.simulate_runs(menu, inst, policy, trials=trials,
                                     seed=2000 + config, n_orders=5)
        ok &= bool(np.all(spends <= budget))
        per_trial = 7 if policy == "worst-of-sampled" else 1
        total_runs += trials * per_trial
    _report(10, "ex post budget feasibility fuzz (>= 1e6 runs, exact)", ok,
            time.time() - t0, 120.0, f"runs={total_runs} configs={config}")
