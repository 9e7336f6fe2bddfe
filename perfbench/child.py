"""One workload in a fresh interpreter: set up, signal, run ops, report.

run.py starts this file with the checkout's `src` directory on PYTHONPATH:

    python3 perfbench/child.py --workload NAME --seed N --seconds S \
        --mode {setup,measure,trace} --workdir DIR [--spans FILE]

It prints `READY` once set-up is done, then one JSON line with the raw
results, which run.py turns into metrics.  Every mode also times
`reference_work`, a fixed piece of CPU work that uses nothing of the package:
three times after set-up in setup mode, and once after every cycle of ops
otherwise.

measure  runs ops untraced for S seconds.
trace    runs ops untraced for S/2 seconds, then traced for S/2 seconds, and
         reports the per-layer metrics of the traced half plus the tracing
         overhead (untraced over traced ops per second).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import namedtuple

import numpy as np

import postedpricing
from postedpricing import distributions
from tracing import COUNT_NAMES, SPAN_NAMES, Tracer
from workloads import EXPOST_PAIRS, WORKLOADS, OpResult

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SETUP_REF_RUNS = 3
OpRecord = namedtuple("OpRecord", "op latency result misses entries counts")


def _environment():
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError, AttributeError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def reference_work():
    """Fixed CPU work that uses nothing of the package, in the mix the
    workloads run: a Python loop indexing a numpy array element by element
    (like the hull chain and the per-trial walks), a Python float loop, and
    small numpy calls.  Its time tracks how fast the machine runs right now;
    run.py scales times by it."""
    rng = np.random.default_rng(12345)
    x = rng.random(40_000)
    acc = 0.0
    for i in range(len(x)):
        acc += x[i] * (i & 7) - acc * 1e-3
    for i, v in enumerate(x.tolist()):
        acc += v * (i & 7) - acc * 1e-3
    a = rng.random((2000, 10))
    w = rng.random((10, 30))
    for _ in range(30):
        acc += float(((a < 0.5).astype(float) @ w).sum())
        acc += float(np.sort(a, axis=1)[:, 0].sum())
    return acc


def reference_ms():
    """Time of one reference_work call, with the collector off so that what
    the program keeps alive cannot change it."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return (time.perf_counter() - start) * 1e3
    finally:
        gc.enable()


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs ops of one workload and keeps what the metrics need."""

    def __init__(self, wl, hull_cache):
        self.wl = wl
        self.cache_info = getattr(hull_cache, "cache_info", None)
        self.cache_clear = getattr(hull_cache, "cache_clear", None)
        self.next_op = 0
        self.peak_rss_mb = None
        self.results = []          # OpResult of every op, in order
        self.fail_reasons = []
        self.ref_ms = []

    def phase(self, seconds, tracer=None):
        """Run whole cycles of ops until `seconds` have passed, timing the
        reference kernel after each cycle; its time is not in the wall."""
        wl = self.wl
        ops = []                   # OpRecord per op
        clock = time.perf_counter
        start = clock()
        ref_s = 0.0
        while True:
            for _ in range(wl.cycle):
                op = self.next_op
                prepared = wl.prepare(op)
                if tracer is not None:
                    tracer.op = op
                    before = dict(tracer.calls)
                misses0 = self.cache_info().misses if self.cache_info else 0
                t0 = clock()
                try:
                    output = wl.run(prepared)
                    error = None
                except Exception:  # a failed op is counted, and the run goes on
                    error = traceback.format_exc()
                latency = clock() - t0
                misses = self.cache_info().misses - misses0 if self.cache_info else 0
                entries = self.cache_info().currsize if self.cache_info else 0
                if error is None:
                    try:
                        result = wl.check(prepared, output)
                    except Exception:
                        result = _failed(traceback.format_exc())
                else:
                    result = _failed(error)
                wl.cleanup(prepared)
                if not result.ok and len(self.fail_reasons) < 5:
                    self.fail_reasons.append(f"op {op}: {result.why}")
                counts = {}
                if tracer is not None:
                    counts = {k: v - before.get(k, 0) for k, v in tracer.calls.items()
                              if v != before.get(k, 0)}
                ops.append(OpRecord(op, latency, result, misses, entries, counts))
                self.results.append(result)
                self.next_op += 1
                self._after_op()
            self.ref_ms.append(reference_ms())
            ref_s += self.ref_ms[-1] / 1e3
            if clock() - start >= seconds:
                return ops, clock() - start - ref_s

    def _after_op(self):
        done = self.next_op
        if done == self.wl.rss_ops:
            self.peak_rss_mb = _peak_rss_mb()
        # Every op of these workloads brings fresh priors, so no later op can
        # hit what the hull cache holds; emptying it every rss_ops ops keeps
        # memory bounded without changing any op's work.
        if (self.wl.priors_per_op and self.cache_clear is not None
                and done % self.wl.rss_ops == 0):
            self.cache_clear()

    def digest(self):
        h = hashlib.sha256()
        for result in self.results[:self.wl.digest_ops]:
            h.update(result.digest_bytes)
        return h.hexdigest()

    def approx_ratio(self):
        ratios = [r.ratio for r in self.results[:self.wl.digest_ops] if r.ratio is not None]
        return sum(ratios) / len(ratios) if ratios else None


def _failed(why):
    return OpResult(False, why=why.strip().splitlines()[-1])


def _summary(ops, wall):
    return {"ops": len(ops), "wall_s": wall,
            "failed": sum(not o.result.ok for o in ops),
            "latencies_ms": [o.latency * 1e3 for o in ops],
            "trials": sum(o.result.trials for o in ops)}


def per_layer(wl, ops, tracer, untraced_rate, traced_rate):
    """Per-layer metrics of a traced phase, normalised per op."""
    n = len(ops)
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = tracer.calls.get(name, 0) / n
        m[f"{name}.self_s"] = tracer.self_s.get(name, 0.0) / n
    for name in COUNT_NAMES:
        m[f"{name}.calls"] = tracer.calls.get(name, 0) / n
    if wl.priors_per_op and tracer.calls.get("distributions.ironed_curve") \
            and not any(o.entries for o in ops):
        print("perfbench: warning: the hull cache reports no entries; "
              "its miss metrics read 0", file=sys.stderr)
    misses = sum(o.misses for o in ops)
    m["distributions.ironed_curve.misses"] = misses / n
    m["distributions.cache_entries"] = max(o.entries for o in ops)
    m["distributions.misses_per_prior"] = (misses / (wl.priors_per_op * n)
                                           if wl.priors_per_op else 0.0)

    sim_s = {}
    for name, op, start, end, _ in tracer.spans:
        if name == "simulate.simulate_runs":
            sim_s[op] = sim_s.get(op, 0.0) + end - start
    walk = "mechanism.select_within_budget"

    def per_trial(selected):
        trials = sum(o.result.trials for o in selected)
        if not trials:
            return 0.0, 0.0
        us = sum(sim_s.get(o.op, 0.0) for o in selected) / trials * 1e6
        walks = sum(o.counts.get(walk, 0) for o in selected) / trials
        return us, walks

    m["simulate.us_per_trial"], m["simulate.walks_per_trial"] = per_trial(ops)
    for label, *_ in EXPOST_PAIRS:
        us, walks = per_trial([o for o in ops if wl.label(o.op) == label])
        m[f"simulate.us_per_trial.{label}"] = us
        m[f"simulate.walks_per_trial.{label}"] = walks

    empty = [s for s in wl.expected_spans if tracer.calls.get(s, 0) == 0]
    for s in empty:
        print(f"perfbench: warning: span {s} recorded no calls in {wl.name}; "
              "was it renamed or removed?", file=sys.stderr)
    m["trace.empty_spans"] = len(empty)
    m["trace.spans_per_op"] = len(tracer.spans) / n
    m["trace.overhead"] = untraced_rate / traced_rate
    return m


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="trace mode: file the spans are written to")
    args = parser.parse_args()

    where = os.path.realpath(postedpricing.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit(f"perfbench: imported postedpricing from {where}, not from {SRC}")

    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    wl.setup()
    print("READY", flush=True)
    if args.mode == "setup":
        print(json.dumps({"ref_ms": [reference_ms() for _ in range(SETUP_REF_RUNS)]}),
              flush=True)
        return

    runner = Runner(wl, distributions.ironed_curve)
    out = {"workload": wl.name, "seed": args.seed, "env": _environment()}
    if args.mode == "measure":
        ops, wall = runner.phase(args.seconds)
        out.update(_summary(ops, wall))
        out["peak_rss_mb"] = runner.peak_rss_mb or _peak_rss_mb()
    else:
        untraced, wall_u = runner.phase(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, wall_t = runner.phase(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        out.update(_summary(untraced + traced, wall_u + wall_t))
        out["per_layer"] = per_layer(wl, traced, tracer, len(untraced) / wall_u,
                                     len(traced) / wall_t)
        out["per_layer"]["simulate.approx_ratio"] = runner.approx_ratio() or 0.0
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["name", "op", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
    out["digest"] = runner.digest()
    out["approx_ratio"] = runner.approx_ratio()
    out["fail_reasons"] = runner.fail_reasons
    out["ref_ms"] = runner.ref_ms
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
