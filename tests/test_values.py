import re

import numpy as np
import pytest

from postedpricing import (AdditiveValue, CoverageValue, OracleValue,
                           SymmetricValue, concave_closure_symmetric,
                           concave_hull_sizes)

from postedpricing.values import _check_quantiles

from oracles import (SampledCoverageValue, brute_multilinear, check_quantiles_clip,
                     check_submodular, marginal_estimate_per_candidate,
                     marginal_gains_per_candidate, sampled_gain_rows)


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


@pytest.mark.parametrize("q", [
    [0.2, 0.7], [-0.0, 1.0], [-1e-12, 1 + 1e-12], [-2e-12, 0.5], [0.5, 1 + 2e-12],
    [np.nan, 0.5], [np.nan, np.nan], [np.nan, -0.5], [1.5, np.nan],
    [np.inf, 0.0], [-np.inf, 0.0], [0.3], [[0.1, 0.2]],
])
def test_check_quantiles_matches_the_clip_route_bitwise(q):
    def run(check):
        try:
            return check(q, 2).tobytes()
        except ValueError as err:
            return str(err)
    assert run(_check_quantiles) == run(check_quantiles_clip)


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


def test_marginal_gains_sampled_share_one_draw_per_step():
    v = OracleValue(3, CoverageValue((1.0, 0.5, 2.0), ((0,), (0, 1), (1, 2))).evaluate)
    q = np.array([0.2, 0.5, 0.1])
    dq = np.array([0.3, 0.0, 0.4])
    rng = np.random.default_rng(8)
    gains = v.marginal_gains(q, dq, samples=500, seed=rng)
    # every raised entry is the per-candidate estimate on a generator in the
    # starting state, so all of them read the same draw
    expected = [marginal_estimate_per_candidate(v, q, 0, 0.3, 500, np.random.default_rng(8)),
                0.0,
                marginal_estimate_per_candidate(v, q, 2, 0.4, 500, np.random.default_rng(8))]
    assert gains.tolist() == expected
    twin = np.random.default_rng(8)
    twin.random((500, 3))
    assert rng.bit_generator.state == twin.bit_generator.state
    # with one raised agent, the shared draw is that agent's own
    one = np.array([0.0, 0.25, 0.0])
    assert (v.marginal_gains(q, one, samples=500, seed=np.random.default_rng(9)).tolist()
            == marginal_gains_per_candidate(v, q, one, 500, np.random.default_rng(9)).tolist())


@pytest.mark.parametrize("vf", [
    AdditiveValue((1.0, 2.0)),
    SymmetricValue((0.0, 1.0, 1.5)),
    CoverageValue((1.0, 0.5), ((0,), (0, 1))),
    OracleValue(2, CoverageValue((1.0, 0.5), ((0,), (0, 1))).evaluate),
], ids=["additive", "symmetric", "coverage", "oracle"])
@pytest.mark.parametrize("q, dq, message", [
    ([5.0, -3.0], [0.1, 0.1], "must lie in"),
    ([5.0, -3.0], [0.0, 0.0], "must lie in"),
    ([0.2, 0.3, 0.4], [0.1, 0.1], "expected 2 marginals"),
    ([0.2, 0.3, 0.4], [0.0, 0.0], "expected 2 marginals"),
], ids=["out-of-range", "out-of-range-unraised", "too-many", "too-many-unraised"])
def test_marginal_gains_checks_the_marginals_of_every_class(vf, q, dq, message):
    with pytest.raises(ValueError, match=message):
        vf.marginal_gains(q, dq, samples=100, seed=0)


def test_marginal_gains_draws_nothing_when_nothing_is_raised():
    v = OracleValue(2, CoverageValue((1.0, 0.5), ((0,), (0, 1))).evaluate)
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    assert v.marginal_gains(np.array([0.2, 0.5]), np.zeros(2), seed=rng).tolist() == [0.0, 0.0]
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("seed", range(20))
def test_coupled_marginal_estimate_matches_per_candidate_oracle(seed):
    rng = np.random.default_rng(seed)
    n, universe = int(rng.integers(1, 9)), int(rng.integers(1, 12))
    weights = tuple(float(w) for w in rng.uniform(0.0, 2.0, universe))
    covers = tuple(tuple(int(e) for e in rng.choice(universe, size=rng.integers(0, universe + 1),
                                                    replace=False))
                   for _ in range(n))
    vf = CoverageValue(weights, covers) if seed % 4 else \
        OracleValue(n, CoverageValue(weights, covers).evaluate)
    q = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.8)
    dq = rng.uniform(0.0, 0.5, n)
    agents = rng.permutation(n)[:int(rng.integers(1, n + 1))]
    samples = int(rng.integers(1, 300))
    got = vf.marginal_estimate(q, agents, dq[agents], samples=samples,
                               seed=np.random.default_rng(seed))
    expected = [marginal_estimate_per_candidate(vf, q, i, dq[i], samples,
                                                np.random.default_rng(seed))
                for i in agents]
    assert got.tolist() == expected


@pytest.mark.parametrize("seed", range(4))
def test_coupled_gains_are_unbiased(seed):
    rng = np.random.default_rng(100 + seed)
    n = 4
    weights = tuple(float(w) for w in rng.uniform(0.2, 2.0, 5))
    covers = tuple(tuple(int(e) for e in rng.choice(5, size=rng.integers(1, 5),
                                                    replace=False))
                   for _ in range(n))
    cov = CoverageValue(weights, covers)
    v = OracleValue(n, cov.evaluate)
    q = rng.uniform(0.0, 0.8, n)
    dq = rng.uniform(0.05, 0.2, n)
    samples = 20_000
    gains = v.marginal_gains(q, dq, samples=samples, seed=seed)
    # the gain is a mean over rows of (flip indicator) * (row marginal)
    rows = sampled_gain_rows(v, q, dq, samples, seed)
    for i in range(n):
        assert gains[i] == pytest.approx(rows[:, i].mean(), rel=1e-12, abs=1e-15)
        stderr = rows[:, i].std(ddof=1) / np.sqrt(samples)
        raised = q.copy()
        raised[i] += dq[i]
        exact = brute_multilinear(cov, raised) - brute_multilinear(cov, q)
        assert stderr > 0
        assert abs(gains[i] - exact) <= 4 * stderr


def _random_coverage(rng, n, universe):
    """Weights in [0, 2) and random covers, agent 0's empty."""
    weights = tuple(float(w) for w in rng.uniform(0.0, 2.0, universe))
    covers = [()] + [tuple(int(e) for e in rng.choice(universe, size=rng.integers(1, universe + 1),
                                                      replace=False))
                     for _ in range(n - 1)]
    return CoverageValue(weights, tuple(covers))


@pytest.mark.parametrize("seed", range(40))
def test_coverage_exact_route_matches_enumeration(seed):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(2, 8))
    v = _random_coverage(rng, n, int(rng.integers(1, 9)))
    q = rng.uniform(0.0, 1.0, n)
    q[rng.permutation(n)[:2]] = (0.0, 1.0)
    dq = rng.uniform(0.0, 1.2, n)  # some raises overshoot 1
    dq[rng.random(n) < 0.2] = 0.0
    est, se = v.multilinear(q)
    base = brute_multilinear(v, q)
    assert se == 0.0
    assert abs(est - base) <= 1e-12
    gains = v.marginal_gains(q, dq)
    for i in range(n):
        raised = q.copy()
        raised[i] = min(q[i] + dq[i], 1.0)
        assert abs(gains[i] - (brute_multilinear(v, raised) - base)) <= 1e-12
    assert gains[0] == 0.0  # agent 0 covers nothing
    assert np.all(gains[q == 1.0] == 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_coverage_exact_route_agrees_with_the_sampled_one(seed):
    rng = np.random.default_rng(400 + seed)
    n = 5
    v = _random_coverage(rng, n, 6)
    ref = SampledCoverageValue(v.weights, v.covers)
    q = rng.uniform(0.0, 0.9, n)
    dq = rng.uniform(0.05, 0.3, n)
    samples = 20_000
    est, se = ref.multilinear(q, samples=samples, seed=seed)
    assert se > 0
    assert abs(v.multilinear(q)[0] - est) <= 4 * se
    sampled = ref.marginal_gains(q, dq, samples=samples, seed=seed)
    rows = sampled_gain_rows(ref, q, dq, samples, seed)
    stderr = rows.std(axis=0, ddof=1) / np.sqrt(samples)
    assert sampled == pytest.approx(rows.mean(axis=0), rel=1e-12, abs=1e-15)
    assert sampled[0] == 0.0 and np.all(stderr[1:] > 0)
    assert np.all(np.abs(v.marginal_gains(q, dq) - sampled) <= 4 * stderr)


def test_coverage_matrix_is_built_once_and_read_only():
    a = CoverageValue((1.0, 0.5, 2.0), ((0,), (0, 1), (1, 2)))
    b = CoverageValue([1, 0.5, 2], [[0], [1, 0], [2, 1]])
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "CoverageValue(weights=(1.0, 0.5, 2.0), covers=((0,), (0, 1), (1, 2)))"
    A = a._incidence
    assert not A.flags.writeable
    assert A.tolist() == [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
    a.multilinear([0.5, 0.5, 0.5], samples=10, seed=0)
    assert a._incidence is A
    with pytest.raises(ValueError):
        A[0, 0] = 0.0


def test_multilinear_requires_samples_for_sampled_variants():
    v = OracleValue(2, CoverageValue((1.0,), ((0,), (0,))).evaluate)
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
    cov = CoverageValue(weights, covers)
    v = OracleValue(n, cov.evaluate)
    q = rng.uniform(0, 1, n)
    exact = brute_multilinear(cov, q)
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
    xs, ys = concave_hull_sizes(SymmetricValue(g))
    for s, val in enumerate(g):
        assert np.interp(s, xs, ys) == pytest.approx(val)
    assert np.interp(0, xs, ys) == 0.0


def test_concave_hull_bridges_non_concave_table():
    g = (0.0, 1.0, 1.0, 3.0)
    xs, ys = concave_hull_sizes(SymmetricValue(g))
    assert np.interp([1, 2, 3], xs, ys) == pytest.approx([1.0, 2.0, 3.0])  # chord (1,1)-(3,3)
    slopes = np.diff(ys) / np.diff(xs)
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


@pytest.mark.parametrize("call, error, message", [
    (lambda: AdditiveValue((1.0, 1.0)).marginal_estimate([0.5, 0.5], [0], [0.1], samples=0),
     ValueError, "samples must be positive"),
    (lambda: SymmetricValue((0.0,)), ValueError, "g must cover sizes 0..n with n >= 1"),
    (lambda: concave_hull_sizes(AdditiveValue((1.0,))),
     TypeError, "size hulls are defined for symmetric value functions"),
    (lambda: concave_closure_symmetric(AdditiveValue((1.0,)), 0.5),
     TypeError, "symmetric closure requires a symmetric value function"),
    (lambda: concave_closure_symmetric(SymmetricValue((0.0, 1.0)), 1.5),
     ValueError, "quantile must lie in [0, 1]"),
], ids=["samples", "g-too-short", "hull-not-symmetric", "closure-not-symmetric",
        "closure-quantile"])
def test_bad_input_raises_its_own_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
