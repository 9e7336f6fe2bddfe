"""The benchmark must find every package name it wraps or calls.

perfbench/tracing.py wraps solvers, kernels and CLI entry points by module
and name from outside the package; a rename in the package would make
`Tracer.install` fail, and a call that moves out of a wrapped name's reach
would leave its counters at 0.  These tests install and uninstall it on the
package.  perfbench/workloads.py builds its inputs through the package's
public names; a deletion would break the benchmark's set-up, so they are
read from its source and looked up here.
"""

import importlib.util
import re
from pathlib import Path

import numpy as np

import postedpricing.cli  # noqa: F401  (the tracer patches every loaded module)
from postedpricing import (AdditiveValue, CoverageValue, Instance, OracleValue,
                           PiecewiseLinearCDF, PriceMenu, SymmetricValue, Uniform,
                           distributions, exante, ironed_curve, simulate)

from oracles import (degenerate_lottery, irregular_priors, lottery_quantile, menu_of,
                     two_price_lottery)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_package():
    tracing = _load_tracing()
    original = exante.solve_additive
    tracer = tracing.Tracer()
    tracer.install()
    try:
        exante.solve_ex_ante([Uniform(0, 1)] * 2, AdditiveValue((1.0, 1.0)), 0.5)
    finally:
        tracer.uninstall()
    assert tracer.calls["exante.solve_additive"] == 1
    assert exante.solve_additive is original
    assert callable(distributions.ironed_curve.cache_info)
    assert callable(distributions.ironed_curve.cache_clear)


def test_tracer_counts_the_walks_of_simulate_runs():
    # perfbench's per-trial walk metrics read these counters
    d = PiecewiseLinearCDF(((0.0, 0.0), (0.2, 0.5), (0.8, 0.6), (1.0, 1.0)))
    lottery = two_price_lottery(ironed_curve(d), d, 0.55)
    lots = (degenerate_lottery(Uniform(0, 1), 0.6), lottery)
    inst = Instance(dists=(Uniform(0, 1), d), value=AdditiveValue((1.0, 2.0)),
                    budget=1.0)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for policy in ("bang-per-buck", "worst-of-sampled"):
            menu = menu_of(lots, np.array([0.6, lottery_quantile(lottery)]),
                           ordering_policy=policy)
            simulate.simulate_runs(menu, inst, trials=50, seed=0, n_orders=3)
    finally:
        tracer.uninstall()
    assert [s[0] for s in tracer.spans].count("simulate.simulate_runs") == 2
    assert tracer.calls["mechanism.select_within_budget"] > 0
    assert tracer.calls["mechanism.bang_per_buck_order"] > 0


def test_tracer_spans_the_lotteries_of_a_solve():
    # design-sweep lists distributions.two_price_lottery in its expected_spans;
    # a solve that stopped calling it would leave that span empty
    dists = irregular_priors(3, 8)
    full = sum(ironed_curve(d).total_spend for d in dists)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        exante.solve_additive(dists, np.ones(8), 0.4 * full)
    finally:
        tracer.uninstall()
    assert tracer.calls["distributions.two_price_lottery"] == 8
    assert exante.two_price_lottery is distributions.two_price_lottery


def test_tracer_spans_greedy_and_its_value_calls():
    # oblivious-cli lists these spans in its expected_spans; a black-box
    # oracle is the value class whose greedy gains are still sampled
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cover = CoverageValue((1.0, 0.5), ((0,), (0, 1), (1,)))
        exante.greedy_submodular([Uniform(0, 1)] * 3, OracleValue(3, cover.evaluate),
                                 0.6, m=9, samples=200, seed=1)
        exante.greedy_submodular([Uniform(0, 1), Uniform(0, 2)],
                                 SymmetricValue((0.0, 1.0, 1.5)), 0.5, m=4)
    finally:
        tracer.uninstall()
    for name in ("exante.greedy_submodular", "exante.discretize",
                 "values.marginal_estimate", "values.multilinear"):
        assert tracer.calls[name] > 0, name
    assert tracer.calls["exante.greedy_submodular"] == 2


def test_workloads_call_only_names_the_package_has():
    source = (PERFBENCH / "workloads.py").read_text()
    names = set(re.findall(r"\bpp\.([A-Za-z_]\w*)", source))
    assert "solve_additive" in names  # the pattern matches the module's alias
    missing = sorted(name for name in names if not hasattr(postedpricing, name))
    assert not missing, missing
    for name in re.findall(r"\bcli\.([A-Za-z_]\w*)", source):
        assert callable(getattr(postedpricing.cli, name)), name
    assert isinstance(PriceMenu.has_lotteries, property)
