"""The benchmark's workloads: input generation, one op each, and output checks.

Every input is derived from the workload seed and the op index, so one seed
fixes the inputs of every op.  The program sees only the generated config
files and library objects, and it is called through its public entry points:
`postedpricing.cli.main` for the CLI workloads and `simulate_runs` for the
Monte Carlo one.  Why each workload exists, which layer it loads and which it
bypasses is written down in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

import postedpricing as pp
from postedpricing import cli


def _rng(seed, *path):
    return np.random.default_rng([seed, *path])


def _r(x) -> float:
    """Round to the 9 significant digits written into config text, so the
    library objects and the parsed configs describe the same priors."""
    return float(f"{float(x):.9g}")


@dataclass
class OpResult:
    """What one op produced: pass/fail, the bytes it is digested by, and the
    Monte Carlo trials and value ratio it measured (0 / None when it has none)."""

    ok: bool
    digest_bytes: bytes = b""
    trials: int = 0
    ratio: float | None = None
    why: str = ""


class Workload:
    name = ""
    cycle = 1            # ops that together make one balanced round
    digest_ops = 1       # the first ops whose outputs the digest covers
    rss_ops = 1          # peak RSS is read after this many ops
    priors_per_op = 0    # fresh cost priors each op brings to the hull cache
    expected_spans = ()  # traced layers this workload must reach

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        """Build whatever every op shares; counted in setup_s."""

    def prepare(self, op: int):
        """Generate the inputs of op `op`; not part of the op's latency."""
        raise NotImplementedError

    def run(self, prepared):
        """The timed op: calls into the program only."""
        raise NotImplementedError

    def check(self, prepared, output) -> OpResult:
        raise NotImplementedError

    def cleanup(self, prepared):
        """Drop what op `prepared` left on disk."""

    def label(self, op: int):
        """The kind of op `op` is, where a workload mixes several."""
        return None


# ---------------------------------------------------------------------------
# Input generators
# ---------------------------------------------------------------------------

def irregular_priors(rng, n):
    """n distinct priors: even agents truncated exponential, odd agents a
    3-kink piecewise-linear CDF whose flat middle piece makes the cost curve
    non-convex, so ironing and lotteries are needed.  Returns (text, object)
    pairs and each prior's support_hi."""
    out, his = [], []
    for i in range(n):
        lo = _r(rng.uniform(0.0, 0.2))
        hi = _r(lo + rng.uniform(0.8, 1.6))
        if i % 2 == 0:
            rate = _r(rng.uniform(0.5, 3.0))
            out.append((f"texp({rate!r}, {lo!r}, {hi!r})",
                        pp.TruncatedExponential(rate, lo, hi)))
        else:
            c1, c2, c3 = (_r(c) for c in lo + (hi - lo) * np.sort(rng.uniform(0.1, 0.9, 3)))
            f1 = _r(rng.uniform(0.35, 0.55))
            f2 = _r(f1 + rng.uniform(0.02, 0.08))
            f3 = _r(f2 + rng.uniform(0.15, 0.3))
            pts = ((lo, 0.0), (c1, f1), (c2, f2), (c3, f3), (hi, 1.0))
            text = "pwcdf([" + ", ".join(f"({c!r}, {f!r})" for c, f in pts) + "])"
            out.append((text, pp.PiecewiseLinearCDF(pts)))
        his.append(hi)
    return out, his


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _run_cli(argv):
    """cli.main in-process, its stdout kept off the benchmark's own stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# design-sweep: `postedpricing solve` over budgets of a fresh irregular market
# ---------------------------------------------------------------------------

BUDGET_FRACTIONS = (0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9)
SPEND_TOL = 1e-6


class DesignSweep(Workload):
    name = "design-sweep"
    rss_ops = 10
    priors_per_op = 32
    expected_spans = ("cli.main", "config.parse_config", "exante.solve_additive",
                      "distributions.ironed_curve", "distributions.two_price_lottery")

    def prepare(self, op):
        rng = _rng(self.seed, 1, op)
        priors, his = irregular_priors(rng, 32)
        values = ", ".join(repr(_r(v)) for v in rng.uniform(0.5, 2.0, 32))
        dist_text = "; ".join(text for text, _ in priors)
        opdir = os.path.join(self.workdir, f"sweep-{op}")
        os.makedirs(opdir)
        jobs = []
        for j, frac in enumerate(BUDGET_FRACTIONS):
            budget = _r(frac * sum(his))
            out = os.path.join(opdir, f"b{j}")
            path = os.path.join(opdir, f"b{j}.ini")
            _write(path, "[instance]\n"
                         f"distributions = {dist_text}\n"
                         f"value = additive([{values}])\n"
                         f"budget = {budget!r}\n\n"
                         "[harness]\n"
                         f"out = {out}\n")
            jobs.append((path, out, budget))
        return opdir, jobs

    def run(self, prepared):
        _, jobs = prepared
        return [_run_cli(["solve", "--config", path]) for path, _, _ in jobs]

    def check(self, prepared, output):
        _, jobs = prepared
        blob = b""
        for code, (_, out, budget) in zip(output, jobs):
            if code != 0:
                return OpResult(False, why=f"solve exited {code}")
            with open(os.path.join(out, "solution.csv"), "rb") as fh:
                raw = fh.read()
            blob += raw
            rows = list(csv.DictReader(io.StringIO(raw.decode())))
            if len(rows) != 32:
                return OpResult(False, why=f"{len(rows)} solution rows")
            qs = [float(r["quantile"]) for r in rows]
            if not all(0.0 <= q <= 1.0 for q in qs):
                return OpResult(False, why="quantile outside [0, 1]")
            spend = math.fsum(float(r["expected_spend"]) for r in rows)
            if not abs(spend - budget) <= SPEND_TOL * budget:
                return OpResult(False, why=f"spend {spend!r} misses budget {budget!r}")
        return OpResult(True, blob)

    def cleanup(self, prepared):
        shutil.rmtree(prepared[0], ignore_errors=True)


# ---------------------------------------------------------------------------
# expost-mc: simulate_runs on menus built in setup
# ---------------------------------------------------------------------------

# (label, menu, order policy, trials).  Trial counts make every op take about
# the same time at the parent commit, so the two symmetric (equal-price
# kernel) ops are about a third of the timed wall and the four walk ops the
# rest.
EXPOST_PAIRS = (
    ("lottery-bpb", "lottery", "bang-per-buck", 3_000),
    ("derand-bpb", "derand", "bang-per-buck", 7_000),
    ("derand-fixed", "derand", "fixed", 7_000),
    ("derand-uniform", "derand", "uniform-random", 5_000),
    ("sym-fixed", "sym", "fixed", 30_000),
    ("sym-worst", "sym", "worst-of-sampled", 4_000),
)
N_ORDERS = 20


class ExpostMC(Workload):
    name = "expost-mc"
    cycle = len(EXPOST_PAIRS)
    digest_ops = len(EXPOST_PAIRS)
    rss_ops = 2 * len(EXPOST_PAIRS)
    expected_spans = ("simulate.simulate_runs",)

    def setup(self):
        rng = _rng(self.seed, 2)
        priors, his = irregular_priors(rng, 32)
        dists = tuple(d for _, d in priors)
        values = tuple(_r(v) for v in rng.uniform(0.5, 2.0, 32))
        # Only the pivotal agent can get a lottery, and only when it stops
        # inside an ironed interval: take the first budget near 0.3 of the
        # total support that does that.
        for frac in np.linspace(0.3, 0.45, 16):
            budget = _r(frac * sum(his))
            sol = pp.solve_additive(dists, values, budget)
            lottery = pp.menu_from_solution(sol, ordering_policy="bang-per-buck")
            if lottery.has_lotteries:
                break
        else:
            raise RuntimeError("no budget gives the expost-mc market a lottery agent")
        derand = pp.derandomize_additive(lottery, dists, values, budget,
                                         samples=2_000, seed=[self.seed, 2, 0])
        additive = pp.Instance(dists=dists, value=pp.AdditiveValue(values),
                               budget=budget, label="expost-additive")

        h = _r(rng.uniform(0.5, 1.5))
        n = 64
        g = tuple(float(s) ** 0.8 for s in range(n + 1))
        sym_budget = _r(0.25 * n * h)
        sym_value = pp.SymmetricValue(g)
        sym_sol = pp.solve_symmetric(pp.Uniform(0.0, h), sym_value, sym_budget)
        sym = pp.menu_from_solution(sym_sol, ordering_policy="external")
        symmetric = pp.Instance(dists=(pp.Uniform(0.0, h),) * n, value=sym_value,
                                budget=sym_budget, label="expost-symmetric")

        self.menus = {"lottery": (lottery, additive, sol.objective),
                      "derand": (derand, additive, sol.objective),
                      "sym": (sym, symmetric, sym_sol.objective)}
        # guarantee floors are fixed here so that checks make no traced calls
        self.guarantee = {key: pp.sequential_guarantee(pp.market_size(menu, inst.budget).k)
                          for key, (menu, inst, _) in self.menus.items()}

    def label(self, op):
        return EXPOST_PAIRS[op % len(EXPOST_PAIRS)][0]

    def prepare(self, op):
        label, menu_key, policy, trials = EXPOST_PAIRS[op % len(EXPOST_PAIRS)]
        menu, instance, bound = self.menus[menu_key]
        mc_seed = int(_rng(self.seed, 2, 1, op).integers(2 ** 62))
        return label, menu_key, menu, instance, bound, policy, trials, mc_seed

    def run(self, prepared):
        _, _, menu, instance, _, policy, trials, mc_seed = prepared
        return pp.simulate_runs(menu, instance, policy, trials, mc_seed, N_ORDERS)

    def check(self, prepared, output):
        label, menu_key, _, instance, bound, policy, trials, _ = prepared
        values, spends = output
        if values.shape != (trials,) or spends.shape != (trials,):
            return OpResult(False, why=f"{label}: wrong output shape")
        if not np.all(spends <= instance.budget):
            return OpResult(False, why=f"{label}: a trial spent over budget")
        if not np.all(np.isfinite(values)):
            return OpResult(False, why=f"{label}: non-finite value")
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / math.sqrt(trials))
        ratio = mean / bound
        if policy == "bang-per-buck":
            floor = self.guarantee[menu_key] - 3.0 * stderr / bound
            if ratio < floor:
                return OpResult(False, why=f"{label}: ratio {ratio:.4f} < {floor:.4f}")
        blob = label.encode() + values.tobytes() + spends.tobytes()
        return OpResult(True, blob, trials=trials, ratio=ratio)


# ---------------------------------------------------------------------------
# oblivious-cli: `postedpricing simulate` on a fresh weighted-coverage market
# ---------------------------------------------------------------------------

OBLIVIOUS_AGENTS = 10
OBLIVIOUS_UNIVERSE = 30
OBLIVIOUS_TRIALS = 5_000
REPORT_TEXT_COLUMNS = ("label", "variant", "bound_exact")


class ObliviousCLI(Workload):
    name = "oblivious-cli"
    rss_ops = 2
    priors_per_op = OBLIVIOUS_AGENTS
    expected_spans = ("cli.main", "config.parse_config", "simulate.approximation_report",
                      "exante.greedy_submodular", "exante.discretize",
                      "values.marginal_estimate", "values.multilinear",
                      "mechanism.build_oblivious", "simulate.ex_ante_bound",
                      "simulate.simulate_runs")

    def prepare(self, op):
        rng = _rng(self.seed, 3, op)
        n, m = OBLIVIOUS_AGENTS, OBLIVIOUS_UNIVERSE
        # h in [0.9, 1.1] keeps the market size above 4 for any selection,
        # which the automatic budget shrink needs.
        his = [_r(h) for h in rng.uniform(0.9, 1.1, n)]
        weights = [_r(w) for w in rng.uniform(0.5, 2.0, m)]
        covers = [set() for _ in range(n)]
        for e, owner in enumerate(rng.integers(n, size=m)):
            covers[owner].add(e)
        for cov in covers:
            cov.update(rng.choice(m, size=int(rng.integers(2, 6)), replace=False).tolist())
        opdir = os.path.join(self.workdir, f"oblivious-{op}")
        os.makedirs(opdir)
        cov_path = os.path.join(opdir, "coverage.txt")
        _write(cov_path, "".join(" ".join(f"e{e}:{weights[e]!r}" for e in sorted(cov)) + "\n"
                                 for cov in covers))
        out = os.path.join(opdir, "out")
        path = os.path.join(opdir, "exp.ini")
        _write(path, "[instance]\n"
                     "distributions = " + "; ".join(f"uniform(0, {h!r})" for h in his) + "\n"
                     f"value = coverage({cov_path})\n"
                     f"budget = {_r(0.6 * sum(his))!r}\n\n"
                     "[mechanism]\n"
                     "kind = oblivious\n"
                     "order = worst-of-sampled\n"
                     "epsilon = auto\n\n"
                     "[harness]\n"
                     f"trials = {OBLIVIOUS_TRIALS}\n"
                     f"seed = {int(rng.integers(2 ** 31))}\n"
                     f"out = {out}\n")
        return opdir, path, out

    def run(self, prepared):
        return _run_cli(["simulate", "--config", prepared[1]])

    def check(self, prepared, output):
        if output != 0:
            return OpResult(False, why=f"simulate exited {output}")
        with open(os.path.join(prepared[2], "report.csv"), "rb") as fh:
            raw = fh.read()
        rows = list(csv.reader(io.StringIO(raw.decode())))
        if len(rows) != 2 or len(rows[0]) != 12 or len(rows[1]) != 12:
            return OpResult(False, why="report.csv is not one 12-column row")
        row = dict(zip(rows[0], rows[1]))
        for col, text in row.items():
            if col in REPORT_TEXT_COLUMNS:
                if not text:
                    return OpResult(False, why=f"empty {col}")
            elif not math.isfinite(float(text)):
                return OpResult(False, why=f"non-finite {col}")
        return OpResult(True, raw, trials=OBLIVIOUS_TRIALS, ratio=float(row["ratio"]))

    def cleanup(self, prepared):
        shutil.rmtree(prepared[0], ignore_errors=True)


WORKLOADS = {w.name: w for w in (DesignSweep, ExpostMC, ObliviousCLI)}
