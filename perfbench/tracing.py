"""Outside-in tracing of the postedpricing layers.

The tracer replaces public functions of the package with wrappers in every
`postedpricing.*` module namespace that binds them (so `exante.ironed_curve`
and `mechanism.solve_ex_ante`-style imports are caught as well as the
defining module), and wraps methods on the value-function classes.  Nothing
in the package changes; `uninstall` puts the originals back.

Spanned functions record (name, op id, start, end, parent span) and their
self time, which is the span's duration minus that of its child spans.
Functions that run once per Monte Carlo trial are only counted, since a span
per trial would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# metric prefix -> (module, public name)
SPANNED = {
    "distributions.ironed_curve": ("postedpricing.distributions", "ironed_curve"),
    "distributions.two_price_lottery": ("postedpricing.distributions", "two_price_lottery"),
    "exante.solve_additive": ("postedpricing.exante", "solve_additive"),
    "exante.solve_symmetric": ("postedpricing.exante", "solve_symmetric"),
    "exante.greedy_submodular": ("postedpricing.exante", "greedy_submodular"),
    "exante.discretize": ("postedpricing.exante", "discretize"),
    "mechanism.build_oblivious": ("postedpricing.mechanism", "build_oblivious"),
    "simulate.simulate_runs": ("postedpricing.simulate", "simulate_runs"),
    "simulate.approximation_report": ("postedpricing.simulate", "approximation_report"),
    "simulate.ex_ante_bound": ("postedpricing.simulate", "ex_ante_bound"),
    "config.parse_config": ("postedpricing.config", "parse_config"),
    "cli.main": ("postedpricing.cli", "main"),
}
COUNTED = {
    "mechanism.select_within_budget": ("postedpricing.mechanism", "select_within_budget"),
    "mechanism.bang_per_buck_order": ("postedpricing.mechanism", "bang_per_buck_order"),
    "mechanism.market_size": ("postedpricing.mechanism", "market_size"),
}
# metric prefix -> method name on every ValueFunction class that defines it
SPANNED_METHODS = {
    "values.marginal_estimate": "marginal_estimate",
    "values.multilinear": "multilinear",
}
COUNTED_METHODS = {"values.evaluate": "evaluate"}
SPAN_NAMES = (*SPANNED, *SPANNED_METHODS)
COUNT_NAMES = (*COUNTED, *COUNTED_METHODS)


class Tracer:
    def __init__(self):
        self.spans = []                  # (name, op, start, end, parent index)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.op = -1
        self._stack = []                 # [span index, seconds in child spans]
        self._patches = []               # (namespace, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, fn):
        clock = time.perf_counter
        spans, stack, calls, self_s = self.spans, self._stack, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            frame = [len(spans), 0.0]
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[frame[0]] = (name, self.op, start, end, parent)
                calls[name] += 1
                self_s[name] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start

        return functools.update_wrapper(wrapper, fn)

    def _counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    # -- installation ------------------------------------------------------

    def _patch(self, namespace, attr, wrapper):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def install(self):
        """Wrap every listed function wherever the package binds it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "postedpricing"
                                         or key.startswith("postedpricing."))]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, (module, attr) in table.items():
                original = getattr(importlib.import_module(module), attr)
                wrapper = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        values = importlib.import_module("postedpricing.values")
        classes = [c for c in vars(values).values()
                   if isinstance(c, type) and issubclass(c, values.ValueFunction)]
        for table, make in ((SPANNED_METHODS, self._spanned),
                            (COUNTED_METHODS, self._counted)):
            for name, method in table.items():
                for cls in classes:
                    if method in vars(cls):
                        self._patch(cls, method, make(name, vars(cls)[method]))

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()
