"""The benchmark must find every package name it wraps or calls.

perfbench/tracing.py wraps solvers, kernels and CLI entry points by module
and name from outside the package; a rename in the package would make
`Tracer.install` fail, and a call that moves out of a wrapped name's reach
would leave its counters at 0.  These tests install and uninstall it on the
package.  perfbench/workloads.py builds its inputs through the package's
public names and reads attributes of their results; a deletion would break
the benchmark's set-up, so they are read from its source and looked up here.
"""

import hashlib
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

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


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed, op", [(19, 227), (25, 32)])
def test_design_sweep_check_passes(seed, op, tmp_path, monkeypatch):
    # the benchmark's own check on the two ops whose summed solution.csv
    # spend missed the budget by more than 1e-6 of it, while a solution
    # counted its cells' chords and its one-price lotteries paid the curve
    sweep = _load_workloads(monkeypatch).DesignSweep(seed, str(tmp_path))
    prepared = sweep.prepare(op)
    result = sweep.check(prepared, sweep.run(prepared))
    assert result.ok, result.why


def _digest(workload, ops):
    """perfbench/child.py's run digest: sha256 over the digest bytes of the
    first ops, each checked."""
    h = hashlib.sha256()
    for op in ops:
        prepared = workload.prepare(op)
        result = workload.check(prepared, workload.run(prepared))
        workload.cleanup(prepared)
        assert result.ok, (op, result.why)
        h.update(result.digest_bytes)
    return h.hexdigest()


@pytest.mark.parametrize("name, digest", [("design-sweep", "4786499ad9458c1d"),
                                          ("expost-mc", "fdc0b5a97e40cc83"),
                                          ("oblivious-cli", "d19f47c73132ff31")])
def test_workload_setup_and_digest_ops_pass(name, digest, tmp_path, monkeypatch):
    # set-up and ops call the package through its signatures (expost-mc's
    # set-up passes derandomize_additive its priors by position), so a
    # signature change fails here, not only under the benchmark; the digests
    # are seed 7's
    workload = _load_workloads(monkeypatch).WORKLOADS[name](7, str(tmp_path))
    workload.setup()
    assert _digest(workload, range(workload.digest_ops))[:16] == digest


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
    # the attributes it reads from results: a solve's objective and a
    # market's size k, then (perfbench/child.py) the hull cache's counters
    assert "sol.objective" in source and re.search(r"\bpp\.market_size\([^)]*\)\.k\b", source)
    sol = exante.solve_additive([Uniform(0, 1)] * 2, [1.0, 1.0], 0.5)
    assert isinstance(sol.objective, float)
    menu = postedpricing.menu_from_solution(sol, "bang-per-buck")
    assert isinstance(postedpricing.market_size(menu, 0.5).k, float)
    child = (PERFBENCH / "child.py").read_text()
    for name in ("cache_info", "cache_clear"):
        assert f'"{name}"' in child
        assert callable(getattr(distributions.ironed_curve, name)), name
