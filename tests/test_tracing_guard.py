"""The benchmark's tracer must find every package name it wraps.

perfbench/tracing.py wraps solvers, kernels and CLI entry points by module
and name from outside the package; a rename in the package would make
`Tracer.install` fail.  This test installs and uninstalls it on the package.
"""

import importlib.util
from pathlib import Path

import postedpricing.cli  # noqa: F401  (the tracer patches every loaded module)
from postedpricing import AdditiveValue, Uniform, distributions, exante

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
