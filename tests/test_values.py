import numpy as np
import pytest

from postedpricing import (AdditiveValue, CoverageValue, OracleValue,
                           SymmetricValue, check_submodular,
                           concave_closure_symmetric, concave_hull_sizes)

from oracles import brute_multilinear


def test_additive_evaluate():
    v = AdditiveValue((2.0, 4.0))
    assert v.evaluate({0, 1}) == 6.0
    assert v.evaluate(()) == 0.0


def test_symmetric_evaluate():
    v = SymmetricValue((0.0, 1.0, 1.0))
    assert v.evaluate({1}) == 1.0
    assert v.evaluate({0, 1}) == 1.0


def test_coverage_evaluate_union():
    v = CoverageValue(weights=(1.0, 1.0), covers=((0,), (0, 1)))
    assert v.evaluate({0, 1}) == 2.0
    assert v.evaluate({0}) == 1.0
    assert v.evaluate({1}) == 2.0


def test_marginals():
    add = AdditiveValue((2.0, 4.0))
    assert add.marginal({0}, 1) == 4.0
    sym = SymmetricValue((0.0, 1.0, 1.0))
    assert sym.marginal({0}, 1) == 0.0
    cov = CoverageValue(weights=(1.0, 1.0), covers=((0,), (0, 1)))
    assert cov.marginal({1}, 0) == 0.0
    with pytest.raises(ValueError):
        add.marginal({1}, 1)


def test_multilinear_additive_exact():
    v = AdditiveValue((2.0, 4.0))
    est, se = v.multilinear([0.5, 0.5])
    assert est == 3.0 and se == 0.0


def test_multilinear_symmetric_exact():
    v = SymmetricValue((0.0, 1.0, 1.0))
    est, se = v.multilinear([0.5, 0.5])
    assert est == pytest.approx(0.75)  # Pr[|S| >= 1] over four subsets
    assert se == 0.0


def test_multilinear_zero_marginals():
    for v in (AdditiveValue((1.0, 2.0)), SymmetricValue((0.0, 3.0, 4.0)),
              CoverageValue((1.0,), ((0,), (0,)))):
        est, _ = v.multilinear(np.zeros(2), samples=100, seed=0)
        assert est == 0.0


def test_marginal_gains_additive_is_values_times_raise():
    v = AdditiveValue((2.0, 0.3, 4.0))
    dq = np.array([0.25, 0.0, 0.1])
    assert np.array_equal(v.marginal_gains(np.array([0.5, 0.2, 0.0]), dq),
                          np.array([2.0 * 0.25, 0.0, 4.0 * 0.1]))


def test_marginal_gains_symmetric_is_the_exact_difference():
    v = SymmetricValue((0.0, 1.0, 1.7, 2.0))
    q = np.array([0.3, 0.9, 0.5])
    dq = np.array([0.2, 0.0, 0.6])
    base = v.multilinear(q)[0]
    expected = [v.multilinear([0.5, 0.9, 0.5])[0] - base, 0.0,
                v.multilinear([0.3, 0.9, 1.0])[0] - base]  # capped at 1
    assert v.marginal_gains(q, dq).tolist() == expected


def test_marginal_gains_sampled_draws_only_for_raised_agents():
    v = CoverageValue((1.0, 0.5, 2.0), ((0,), (0, 1), (1, 2)))
    q = np.array([0.2, 0.5, 0.1])
    dq = np.array([0.3, 0.0, 0.4])
    rng, twin = np.random.default_rng(8), np.random.default_rng(8)
    gains = v.marginal_gains(q, dq, samples=500, seed=rng)
    expected = [v.marginal_estimate(q, 0, 0.3, samples=500, seed=twin), 0.0,
                v.marginal_estimate(q, 2, 0.4, samples=500, seed=twin)]
    assert gains.tolist() == expected
    assert rng.bit_generator.state == twin.bit_generator.state


def test_multilinear_requires_samples_for_sampled_variants():
    v = CoverageValue((1.0,), ((0,), (0,)))
    with pytest.raises(ValueError):
        v.multilinear([0.5, 0.5], samples=0)


@pytest.mark.parametrize("seed", range(4))
def test_multilinear_sampling_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = 4
    weights = tuple(float(w) for w in rng.uniform(0.2, 2.0, 5))
    covers = tuple(tuple(int(e) for e in rng.choice(5, size=rng.integers(1, 5),
                                                    replace=False))
                   for _ in range(n))
    v = CoverageValue(weights, covers)
    q = rng.uniform(0, 1, n)
    exact = brute_multilinear(v, q)
    est, se = v.multilinear(q, samples=20_000, seed=seed)
    assert abs(est - exact) <= 4 * se


def test_multilinear_symmetric_two_paths_agree():
    # the sampling path (via a black-box wrapper) against the exact size DP
    g = (0.0, 1.0, 1.6, 1.9, 2.0)
    sym = SymmetricValue(g)
    black = OracleValue(4, lambda s: g[len(s)])
    q = np.array([0.3, 0.8, 0.5, 0.1])
    exact, _ = sym.multilinear(q)
    est, se = black.multilinear(q, samples=20_000, seed=7)
    assert abs(est - exact) <= 4 * se
    assert exact == pytest.approx(brute_multilinear(sym, q), abs=1e-12)


def test_multilinear_additive_equals_correlated_optimum():
    # with a linear value there is no gap between independent and correlated
    n = 3
    g = tuple(float(s) * 1.7 for s in range(n + 1))
    sym = SymmetricValue(g)
    add = AdditiveValue((1.7,) * n)
    for q in (0.0, 0.25, 0.5, 1.0):
        lhs = add.multilinear(np.full(n, q))[0]
        rhs = concave_closure_symmetric(sym, q)
        assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_multilinear_coordinatewise_monotone(seed):
    rng = np.random.default_rng(100 + seed)
    v = CoverageValue(tuple(float(w) for w in rng.uniform(0.5, 1.5, 4)),
                      tuple(tuple(int(e) for e in rng.choice(4, 2, replace=False))
                            for _ in range(3)))
    q = rng.uniform(0.1, 0.8, 3)
    base = brute_multilinear(v, q)
    for i in range(3):
        up = q.copy()
        up[i] = min(1.0, up[i] + 0.1)
        assert brute_multilinear(v, up) >= base - 1e-12


def test_concave_hull_interpolates_concave_table():
    g = (0.0, 2.0, 3.0, 3.5)
    hull = concave_hull_sizes(SymmetricValue(g))
    for s, val in enumerate(g):
        assert hull(s) == pytest.approx(val)
    assert hull(0) == 0.0


def test_concave_hull_bridges_non_concave_table():
    g = (0.0, 1.0, 1.0, 3.0)
    hull = concave_hull_sizes(SymmetricValue(g))
    assert hull(1) == pytest.approx(1.0)
    assert hull(2) == pytest.approx(2.0)  # chord from (1,1) to (3,3)
    assert hull(3) == pytest.approx(3.0)
    slopes = np.diff(hull.ys) / np.diff(hull.xs)
    assert np.all(np.diff(slopes) <= 1e-12)


def test_concave_closure_symmetric_examples():
    v = SymmetricValue((0.0, 1.0, 1.0))
    assert concave_closure_symmetric(v, 0.5) == pytest.approx(1.0)
    assert concave_closure_symmetric(v, 0.0) == 0.0
    assert concave_closure_symmetric(v, 1.0) == pytest.approx(1.0)


def test_check_submodular():
    assert check_submodular(AdditiveValue((1.0, 2.0, 0.3)))
    assert not check_submodular(SymmetricValue((0.0, 1.0, 1.0, 3.0)))
    cov = CoverageValue((1.0, 2.0, 0.5), ((0, 1), (1, 2), (0,)))
    assert check_submodular(cov)
    with pytest.raises(ValueError):
        check_submodular(AdditiveValue((1.0,) * 17))


def test_validation():
    with pytest.raises(ValueError):
        AdditiveValue((1.0, -0.5))
    with pytest.raises(ValueError):
        SymmetricValue((0.5, 1.0))
    with pytest.raises(ValueError):
        SymmetricValue((0.0, 1.0, 0.5))
    with pytest.raises(ValueError):
        CoverageValue((1.0,), ((0, 3),))
    with pytest.raises(ValueError):
        AdditiveValue((1.0, 1.0)).multilinear([0.5])
