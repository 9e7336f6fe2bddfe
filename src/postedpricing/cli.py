"""Config-driven experiment runner.

Subcommands: solve, simulate, report, bounds, gap.  Exit codes: 0 success,
2 configuration error, 3 numeric failure.  Given the same config and seed,
every subcommand produces byte-identical output files.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .config import ConfigError, ExperimentConfig, parse_config
from .mechanism import SmallMarketError, market_size, mechanism_menu
from .simulate import (BOUNDS_COLUMNS, GAP_COLUMNS, REPORT_COLUMNS, Instance,
                       approximation_report, bounds_table,
                       correlation_gap_experiment, csv_text)

SOLUTION_COLUMNS = ("agent", "quantile", "price_lo", "price_hi", "prob_lo",
                    "expected_spend")


def _solver_opts(cfg: ExperimentConfig) -> dict:
    """The [solver] section as solve_ex_ante keywords."""
    return dict(kind=cfg.solver_kind, grid_size=cfg.grid, m=cfg.m, noisy=cfg.noisy)


def solution_record(menu) -> str:
    """One CSV row per agent of a solution or menu (quantiles and lotteries)."""
    lots = menu.lotteries
    return csv_text(SOLUTION_COLUMNS,
                    zip(range(len(lots)), menu.quantiles.tolist(), lots.price_lo.tolist(),
                        lots.price_hi.tolist(), lots.prob_lo.tolist(),
                        lots.expected_spend.tolist()))


def _write(out_dir: str, name: str, text: str) -> str:
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


def _check_out(out_dir: str) -> None:
    """Reject an output path whose nearest existing ancestor (itself, if it
    exists) is not a directory, before any work; creates nothing."""
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"cannot write to {out_dir}: {path} is not a directory")


def cmd_solve(cfg: ExperimentConfig) -> int:
    """Write the menu that simulate runs (see mechanism_menu)."""
    menu, sol = mechanism_menu(cfg.dists, cfg.value, cfg.budget, cfg.mechanism_kind,
                               cfg.epsilon, seed=cfg.seed, **_solver_opts(cfg))
    summary = (f"epsilon={menu.epsilon:.12g}" if menu.epsilon is not None else
               f"objective={sol.objective:.12g} spend={sol.expected_spend:.12g}")
    k = market_size(menu, cfg.budget).k
    path = _write(cfg.out, "solution.csv", solution_record(menu))
    print(f"solver={cfg.solver_kind} n={cfg.n} {summary} k={k:.12g}")
    print(f"wrote {path}")
    return 0


def cmd_simulate(cfg: ExperimentConfig, echo: bool = False) -> int:
    instance = Instance(dists=cfg.dists, value=cfg.value, budget=cfg.budget,
                        label=f"config-n{cfg.n}")
    report = approximation_report(instance, cfg.mechanism_kind, trials=cfg.trials,
                                  seed=cfg.seed, epsilon=cfg.epsilon,
                                  n_orders=cfg.n_orders, **_solver_opts(cfg))
    text = csv_text(REPORT_COLUMNS, [report])
    path = _write(cfg.out, "report.csv", text)
    print(f"variant={report.variant} ratio={report.ratio:.6g} "
          f"bound={report.theoretical_bound:.6g} k={report.k:.6g}")
    if echo:
        print(text, end="")
    print(f"wrote {path}")
    return 0


def _parse_k_list(text: str):
    try:
        ks = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"bad k list: {exc}") from None
    if not ks:
        raise ConfigError("empty k list")
    for k in ks:
        if not 0.0 < k < math.inf:
            raise ConfigError(f"--k takes positive finite sizes, got {k:g}")
    return ks


def cmd_bounds(k_text: str, out_dir: str) -> int:
    text = csv_text(BOUNDS_COLUMNS, bounds_table(_parse_k_list(k_text)))
    path = _write(out_dir, "bounds.csv", text)
    print(text, end="")
    print(f"wrote {path}")
    return 0


def cmd_gap(k_text: str, n_factor: int, out_dir: str) -> int:
    ks = _parse_k_list(k_text)
    for k in ks:
        if k != int(k):
            raise ConfigError(f"--k takes whole cap sizes for gap, got {k:g}")
    if n_factor < 1:
        raise ConfigError(f"--n-factor must be at least 1, got {n_factor}")
    rows = [correlation_gap_experiment(int(k), max(int(k) * n_factor, int(k) + 1))
            for k in ks]
    text = csv_text(GAP_COLUMNS, rows)
    path = _write(out_dir, "gap.csv", text)
    print(text, end="")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postedpricing",
        description="Posted-price mechanisms for budget-feasible procurement")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override harness seed")
        p.add_argument("--out", default=None, help="override output directory")
        return p

    add_common(sub.add_parser("solve", help="compute the ex ante price menu"))
    for name, text in (("simulate", "run the mechanism and write report.csv"),
                       ("report", "simulate and echo the report row")):
        add_common(sub.add_parser(name, help=text)).add_argument(
            "--trials", type=int, default=None, help="override trial count")

    b = sub.add_parser("bounds", help="tabulate guarantee formulas over market sizes")
    b.add_argument("--k", required=True, help="comma-separated market sizes")
    b.add_argument("--out", default="out")

    g = sub.add_parser("gap", help="capped-cardinality correlation gap experiments")
    g.add_argument("--k", required=True, help="comma-separated cap sizes")
    g.add_argument("--n-factor", type=int, default=10,
                   help="agents per unit of cap size (default 10)")
    g.add_argument("--out", default="out")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on first use and kept for the process:
    parsing reads it and never changes it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.out == "":
            raise ConfigError("--out must name a directory")
        if args.command in ("bounds", "gap"):
            _check_out(args.out)
        if args.command == "bounds":
            return cmd_bounds(args.k, args.out)
        if args.command == "gap":
            return cmd_gap(args.k, args.n_factor, args.out)
        cfg = parse_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be non-negative")
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out = args.out
        if getattr(args, "trials", None) is not None:  # simulate and report only
            if args.trials < 1:
                raise ConfigError("--trials must be positive")
            cfg.trials = args.trials
        _check_out(cfg.out)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        return cmd_simulate(cfg, echo=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SmallMarketError as exc:
        # only an automatic shrink gets here: bounds skips markets this small
        print(f"config error: [mechanism] epsilon = auto needs a market size above 4, "
              f"but the full-budget solve gives k = {exc.k:.6g}; set epsilon to a "
              f"number in (0, 1/2)", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
