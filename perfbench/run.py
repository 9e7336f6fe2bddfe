"""Benchmark of the postedpricing pipeline: ironing and the ex ante solvers,
ex post Monte Carlo, and the CLI end to end.

Run from the root of a checkout that holds `src/postedpricing`:

    python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload prints a human-readable report on stderr and, as the last line
of stdout, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with `--trace 0`, its
per-layer metrics with `--trace 1`.  `--workload all` runs every workload
untraced and prints each metric by name with its unit.

Each measurement runs in a fresh interpreter (perfbench/child.py) that sees
only the package sources and the generated inputs.  With `--trace 0` the
interpreter is also started twice more for set-up alone, and `setup_s` is the
median of the three set-up times.  Run records and trace spans are written to
`.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("design-sweep", "expost-mc", "oblivious-cli")
SETUP_ONLY_STARTS = 2
RUN_DEADLINE_S = 170.0
# The shared machines this runs on change speed by up to 1.7x over minutes, so
# times are scaled to a fixed speed: each process times child.reference_work
# alongside its own work, and a time t is reported as t * REF_MS / (median
# reference time of that process).  REF_MS is what the kernel takes on a
# 2-core x86 VM (Python 3.11, numpy 2.4) when it runs at full speed.  The raw
# wall times stay in the report and the run record.
REF_MS = 30.0


class BenchError(RuntimeError):
    pass


def _load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _start_child(workload, seed, seconds, mode, workdir, deadline, spans=None):
    """Run child.py; return (seconds until it reported READY, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
           "--workdir", workdir]
    if spans:
        cmd += ["--spans", spans]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(),
                            cwd=ROOT, text=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"{workload} {mode} run failed (exit {code})")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def _scale(res):
    """Factor that takes this process's times to reference speed."""
    return REF_MS / statistics.median(res["ref_ms"])


def _tail(latencies):
    """Highest percentile with at least ten samples beyond it: (ms, pct), or
    None below eleven samples."""
    n = len(latencies)
    if n < 11:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; return (result line, report record)."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if not os.path.isfile(os.path.join(SRC, "postedpricing", "__init__.py")):
        raise BenchError(f"no package sources at {SRC}")
    end_to_end, per_layer = _load_contract()
    deadline = time.monotonic() + RUN_DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        if trace:
            spans = os.path.join(OUT, f"spans-{tag}.json")
            _, res = _start_child(workload, seed, seconds, "trace", workdir, deadline, spans)
            wanted, values = per_layer, res["per_layer"]
        else:
            starts = [_start_child(workload, seed, seconds, "setup", workdir, deadline)
                      for _ in range(SETUP_ONLY_STARTS)]
            starts.append(_start_child(workload, seed, seconds, "measure", workdir, deadline))
            res = starts[-1][1]
            scale = _scale(res)
            values = {"setup_s": statistics.median([t * _scale(r) for t, r in starts]),
                      "ops_per_s": res["ops"] / res["wall_s"] / scale,
                      "op_p50_ms": statistics.median(res["latencies_ms"]) * scale,
                      "peak_rss_mb": res["peak_rss_mb"]}
            wanted = end_to_end
            res["setup_samples_s"] = [t for t, _ in starts]
            res["scale"] = scale
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")

    scale = res.get("scale", 1.0)
    res["trials_per_s"] = res["trials"] / res["wall_s"] / scale
    res["fail_rate"] = res["failed"] / res["ops"]
    tail = _tail(res["latencies_ms"])
    res["op_tail_ms"], res["op_tail_pct"] = (tail[0] * scale, tail[1]) if tail else (None, None)
    line = {"correct": res["failed"] == 0, "attempted": res["ops"], "failed": res["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in wanted.items()}}
    res["result"] = line
    with open(os.path.join(OUT, f"run-{tag}.json"), "w") as fh:
        json.dump(res, fh, indent=1)
    return line, res


def _report_lines(workload, line, res):
    n = res["ops"]
    out = [f"{workload}: {n} ops, {res['failed']} failed (fail_rate {res['fail_rate']:.6g}), "
           f"digest {res['digest'][:16]}"]
    for name, m in line["metrics"].items():
        note = f" (median of {n} ops)" if name == "op_p50_ms" else ""
        out.append(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    if res["op_tail_ms"] is not None:
        out.append(f"  op_tail_ms = {res['op_tail_ms']:.6g} ms "
                   f"(p{res['op_tail_pct']:.1f} of {n} ops)")
    else:
        out.append(f"  op_tail_ms omitted: {n} ops < 11")
    if res["trials"]:
        out.append(f"  trials_per_s = {res['trials_per_s']:.6g} 1/s")
    if res["approx_ratio"] is not None:
        out.append(f"  approx_ratio = {res['approx_ratio']:.6g} ratio")
    if "scale" in res:
        setups = ", ".join(f"{t:.4g}" for t in res["setup_samples_s"])
        out.append(f"  times above are at reference speed: wall times x {res['scale']:.4g} "
                   f"(reference kernel median {REF_MS / res['scale']:.4g} ms, nominal {REF_MS:g} ms)")
        out.append(f"  raw wall: ops_per_s {res['ops'] / res['wall_s']:.6g}, op_p50_ms "
                   f"{statistics.median(res['latencies_ms']):.6g}, set-up starts {setups} s")
    env = res["env"]
    out.append(f"  python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
               f"blas {env['blas']} with {env['blas_threads']} thread(s)")
    out.extend(f"  failure: {why}" for why in res["fail_reasons"])
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=" | ".join(WORKLOADS + ("all",)))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so the child is killed and reaped on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("seed must be nonnegative and seconds positive")
    try:
        if args.workload == "all":
            for workload in WORKLOADS:
                line, res = run_workload(workload, args.seed, args.seconds, False)
                print("\n".join(_report_lines(workload, line, res)), flush=True)
            return 0
        line, res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(_report_lines(args.workload, line, res)), file=sys.stderr)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
