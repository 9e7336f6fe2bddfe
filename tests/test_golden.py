"""Byte-for-byte regression of CLI outputs against committed golden files.

Each case directory under tests/golden/ holds the expected output file of
one subcommand and, for config-driven subcommands, the config it runs.  The
CLI runs from the case directory, so relative input paths in a config (such
as a coverage table) resolve there.  A change that must alter an output
regenerates it with `python tests/test_golden.py` and says why.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

# (case directory, CLI arguments without --out, output file)
CASES = (
    ("additive-regular", ("solve", "--config", "config.ini"), "solution.csv"),
    ("additive-regular", ("simulate", "--config", "config.ini"), "report.csv"),
    ("additive-lottery", ("solve", "--config", "config.ini"), "solution.csv"),
    ("additive-lottery", ("simulate", "--config", "config.ini"), "report.csv"),
    ("symmetric-oblivious", ("simulate", "--config", "config.ini"), "report.csv"),
    ("coverage-greedy", ("solve", "--config", "config.ini"), "solution.csv"),
    ("coverage-greedy", ("simulate", "--config", "config.ini"), "report.csv"),
    ("additive-oblivious-auto", ("simulate", "--config", "config.ini"), "report.csv"),
    ("bounds", ("bounds", "--k", "3,4,5,10,100,1000,10000"), "bounds.csv"),
    ("gap", ("gap", "--k", "1,2,4,16", "--n-factor", "5"), "gap.csv"),
)


def _run_case(case, argv, out_dir) -> int:
    from postedpricing.cli import main

    cwd = os.getcwd()
    os.chdir(GOLDEN / case)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main([*argv, "--out", str(out_dir)])
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("case,argv,name", CASES,
                         ids=[f"{c}-{a[0]}" for c, a, _ in CASES])
def test_cli_output_matches_golden(case, argv, name, tmp_path):
    assert _run_case(case, argv, tmp_path) == 0
    expected = (GOLDEN / case / name).read_bytes()
    assert (tmp_path / name).read_bytes() == expected


@pytest.mark.parametrize("command", ["solve", "simulate"])
@pytest.mark.parametrize("case", sorted({c for c, argv, _ in CASES if "--config" in argv}))
def test_cli_run_resolves_auto_solver_once(case, command, tmp_path, monkeypatch):
    # every golden config leaves [solver] kind at auto
    import postedpricing.cli  # noqa: F401  (binds every module below)
    from postedpricing.exante import solver_kind

    kinds = []

    def spy(dists, vf, kind="auto"):
        kinds.append(kind)
        return solver_kind(dists, vf, kind)

    for name, module in list(sys.modules.items()):
        if (name.startswith("postedpricing")
                and getattr(module, "solver_kind", None) is solver_kind):
            monkeypatch.setattr(module, "solver_kind", spy)
    assert _run_case(case, (command, "--config", "config.ini"), tmp_path) == 0
    # parse_config resolves auto first; every later call checks a concrete kind
    assert kinds[0] == "auto" and len(kinds) > 1 and "auto" not in kinds[1:]


@pytest.mark.parametrize("case,solver", [
    ("coverage-greedy", "marginal_samples = 500"),
    ("additive-regular", "kind = greedy\nm = 20")])
def test_simulate_honours_solver_section(case, solver, tmp_path):
    config = tmp_path / "config.ini"
    config.write_text((GOLDEN / case / "config.ini").read_text()
                      + f"\n[solver]\n{solver}\n")
    assert _run_case(case, ("simulate", "--config", str(config)), tmp_path) == 0
    expected = (GOLDEN / case / "report.csv").read_bytes()
    assert (tmp_path / "report.csv").read_bytes() != expected


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    for case, argv, name in CASES:
        if _run_case(case, argv, GOLDEN / case) != 0:
            sys.exit(f"{case}: {argv[0]} failed")
        print(f"wrote {GOLDEN / case / name}")
