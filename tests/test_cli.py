import ast
import builtins
import configparser
import csv
import io
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from postedpricing import (AdditiveValue, PiecewiseLinearCDF, SymmetricValue,
                           Uniform, ironed_curve)
from postedpricing import cli
from postedpricing.cli import main, solution_record
from postedpricing import config
from postedpricing.config import (ConfigError, _number_list, parse_config,
                                  parse_distribution, parse_distributions, parse_value)

from oracles import irregular_priors, literal_eval_numbers, serialize_config

EXAMPLE1 = """
[instance]
distributions = 16 * uniform(0, 1)
value = additive(constant=1)
budget = 4

[solver]
kind = additive

[mechanism]
kind = sequential
order = bang-per-buck

[harness]
trials = 400
seed = 7
out = {out}
"""


def _write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_distribution_grammar():
    d = parse_distribution("uniform(0, 1)")
    assert isinstance(d, Uniform)
    t = parse_distribution("texp(1.5, 0, 2)")
    assert t.rate == 1.5
    p = parse_distribution("pwcdf([(0, 0), (0.5, 0.8), (1, 1)])")
    assert p.cdf(0.25) == pytest.approx(0.4)
    with pytest.raises(ConfigError):
        parse_distribution("weibull(1, 2)")
    with pytest.raises(ConfigError):
        parse_distribution("uniform(1)")


def test_parse_distributions_replication():
    ds = parse_distributions("3 * uniform(0, 1); texp(1, 0, 2)")
    assert len(ds) == 4
    assert ds[0] == ds[1] == ds[2]


def test_parse_value_grammar():
    v = parse_value("additive([1, 2, 3])", 3)
    assert isinstance(v, AdditiveValue) and v.values == (1.0, 2.0, 3.0)
    c = parse_value("additive(constant=2)", 4)
    assert c.values == (2.0,) * 4
    s = parse_value("symmetric([0, 1, 1])", 2)
    assert isinstance(s, SymmetricValue)
    with pytest.raises(ConfigError):
        parse_value("additive([1, 2])", 3)
    with pytest.raises(ConfigError):
        parse_value("symmetric([0, 1])", 2)


def test_parse_value_coverage_file(tmp_path):
    f = tmp_path / "cov.txt"
    f.write_text("a:1 b:2\nb:2 c:0.5\n")
    v = parse_value(f"coverage({f})", 2)
    assert v.n == 2
    assert v.evaluate({0, 1}) == pytest.approx(3.5)
    with pytest.raises(ConfigError):
        parse_value("coverage(/nonexistent/file.txt)", 2)


def test_parse_config_round_trip(tmp_path):
    path = _write_config(tmp_path, EXAMPLE1.format(out=tmp_path / "out"))
    cfg = parse_config(path)
    assert cfg.n == 16 and cfg.budget == 4.0
    text = serialize_config(cfg)
    path2 = _write_config(tmp_path, text, "roundtrip.ini")
    cfg2 = parse_config(path2)
    assert cfg2.dists == cfg.dists
    assert cfg2.value.values == cfg.value.values
    assert (cfg2.budget, cfg2.trials, cfg2.seed) == (cfg.budget, cfg.trials, cfg.seed)
    assert serialize_config(cfg2) == text
    # no [solver] section: the resolved kind is written, and reads back
    text = EXAMPLE1.format(out=tmp_path / "out").replace("[solver]\nkind = additive\n", "")
    assert "[solver]" not in text
    cfg = parse_config(_write_config(tmp_path, text, "nosolver.ini"))
    text = serialize_config(cfg)
    assert cfg.solver_kind == "additive" and "[solver]\nkind = additive\n" in text
    assert parse_config(_write_config(tmp_path, text, "roundtrip2.ini")) == cfg


def test_parse_config_rejects_unknown_key(tmp_path):
    bad = EXAMPLE1.format(out=tmp_path) + "\n[solver]\nwhatever = 3\n"
    # configparser merges duplicate sections; write the key directly instead
    bad = EXAMPLE1.format(out=tmp_path).replace("kind = additive",
                                                "kind = additive\ntypo_key = 1")
    path = _write_config(tmp_path, bad)
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_config_rejects_unknown_section(tmp_path):
    path = _write_config(tmp_path, EXAMPLE1.format(out=tmp_path)
                         + "\n[plotting]\nstyle = fancy\n")
    with pytest.raises(ConfigError):
        parse_config(path)


@pytest.mark.parametrize("budget", ["0", "nan", "inf"])
def test_parse_config_rejects_zero_budget(tmp_path, budget):
    path = _write_config(tmp_path, EXAMPLE1.format(out=tmp_path)
                         .replace("budget = 4", f"budget = {budget}"))
    with pytest.raises(ConfigError):
        parse_config(path)


def test_cmd_solve_example_instance(tmp_path, capsys):
    out = tmp_path / "out"
    path = _write_config(tmp_path, EXAMPLE1.format(out=out))
    assert main(["solve", "--config", path]) == 0
    printed = capsys.readouterr().out
    assert "objective=8" in printed
    sol_file = out / "solution.csv"
    lines = sol_file.read_text().strip().splitlines()
    assert lines[0] == "agent,quantile,price_lo,price_hi,prob_lo,expected_spend"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(0.5, abs=1e-9)
    assert float(first[2]) == pytest.approx(0.5, abs=1e-9)


def test_cmd_solve_bad_config_exits_2(tmp_path):
    path = _write_config(tmp_path, EXAMPLE1.format(out=tmp_path)
                         .replace("budget = 4", "budget = -1"))
    assert main(["solve", "--config", path]) == 2
    assert main(["solve", "--config", str(tmp_path / "missing.ini")]) == 2


def test_percent_in_a_value_is_read_literally(tmp_path, capsys):
    # values have no interpolation: `%` is an ordinary character and `%%`
    # is two of them
    path = _write_config(tmp_path, EXAMPLE1.format(out=tmp_path / "o%x"))
    assert main(["solve", "--config", path]) == 0
    assert (tmp_path / "o%x" / "solution.csv").is_file()
    path = _write_config(tmp_path, EXAMPLE1.format(out="a%%b%(c)s"), "twice.ini")
    assert parse_config(path).out == "a%%b%(c)s"


def test_cmd_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    path = _write_config(tmp_path, EXAMPLE1.format(out=out1))
    assert main(["simulate", "--config", path]) == 0
    assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
    r1 = (out1 / "report.csv").read_bytes()
    r2 = (out2 / "report.csv").read_bytes()
    assert r1 == r2


def test_cmd_simulate_trials_override_and_na_marker(tmp_path):
    out = tmp_path / "o"
    path = _write_config(tmp_path, EXAMPLE1.format(out=out))
    assert main(["simulate", "--config", path, "--trials", "1"]) == 0
    body = (out / "report.csv").read_text()
    assert ",NA," in body.splitlines()[1]


def test_solve_rejects_trials(tmp_path, capsys):
    # solve runs no trials, so argparse has no --trials for it
    path = _write_config(tmp_path, EXAMPLE1.format(out=tmp_path / "o"))
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", path, "--trials", "5"])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cmd_report_echoes_rows(tmp_path, capsys):
    out = tmp_path / "o"
    path = _write_config(tmp_path, EXAMPLE1.format(out=out))
    assert main(["report", "--config", path]) == 0
    printed = capsys.readouterr().out
    assert "ratio=" in printed
    assert "label,variant" in printed


def test_cmd_bounds(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["bounds", "--k", "10,100,1000", "--out", str(out)]) == 0
    lines = (out / "bounds.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    k100 = lines[2].split(",")
    assert float(k100[1]) == pytest.approx(0.9505, abs=2e-4)
    assert 0 < float(k100[3]) < 1


def test_cmd_bounds_small_k_row_not_fatal(tmp_path):
    out = tmp_path / "o"
    assert main(["bounds", "--k", "4,10", "--out", str(out)]) == 0
    lines = (out / "bounds.csv").read_text().strip().splitlines()
    assert lines[1].endswith("NA,NA")


def test_cmd_gap(tmp_path):
    out = tmp_path / "o"
    assert main(["gap", "--k", "1,4", "--out", str(out)]) == 0
    lines = (out / "gap.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[4]) >= float(parts[5])  # ratio above its bound


@pytest.mark.parametrize("args,flag", [
    (["bounds", "--k", "0"], "--k"),
    (["bounds", "--k", "-5"], "--k"),
    (["bounds", "--k", "nan"], "--k"),
    (["gap", "--k", "0"], "--k"),
    (["gap", "--k", "-3"], "--k"),
    (["gap", "--k", "1.5"], "--k"),
    (["gap", "--k", "inf"], "--k"),
    (["gap", "--k", "2", "--n-factor", "0"], "--n-factor"),
    (["gap", "--k", "2", "--n-factor", "-1"], "--n-factor")])
def test_bounds_and_gap_reject_bad_sizes(tmp_path, capsys, args, flag):
    assert main([*args, "--out", str(tmp_path / "o")]) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_empty_out_exits_2_before_solving(tmp_path, capsys, monkeypatch):
    import postedpricing.cli as cli

    monkeypatch.setattr(cli, "mechanism_menu", None)  # a solve would fail loudly
    path = _write_config(tmp_path, EXAMPLE1.format(out=""))
    assert main(["solve", "--config", path]) == 2
    assert "[harness] out" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "simulate", "bounds", "gap"])
def test_empty_out_flag_exits_2(tmp_path, capsys, command):
    args = ["--config", _write_config(tmp_path, EXAMPLE1.format(out=tmp_path))] \
        if command in ("solve", "simulate") else ["--k", "5"]
    assert main([command, *args, "--out", ""]) == 2
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "simulate", "bounds"])
def test_out_that_is_a_file_exits_2(tmp_path, capsys, monkeypatch, command):
    import postedpricing.cli as cli

    # each subcommand's work would fail loudly: the check comes before it
    for name in ("mechanism_menu", "approximation_report", "bounds_table"):
        monkeypatch.setattr(cli, name, None)
    afile = tmp_path / "afile"
    afile.write_text("keep")
    args = ["--config", _write_config(tmp_path, EXAMPLE1.format(out=tmp_path))] \
        if command in ("solve", "simulate") else ["--k", "5"]
    assert main([command, *args, "--out", str(afile)]) == 2
    assert str(afile) in capsys.readouterr().err
    assert afile.read_text() == "keep"


def test_unwritable_output_file_exits_2(tmp_path, capsys):
    # the out directory exists, but its solution.csv is a directory
    target = tmp_path / "o" / "solution.csv"
    target.mkdir(parents=True)
    path = _write_config(tmp_path, EXAMPLE1.format(out=tmp_path / "o"))
    assert main(["solve", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {target}: ")
    assert target.is_dir() and not any(target.iterdir())


NON_FINITE = """
[instance]
distributions = {dists}
value = {value}
budget = 1

[mechanism]
kind = {kind}

[harness]
out = {out}
"""


@pytest.mark.parametrize("dists, value, kind, sample", [
    ("4 * texp(nan, 0, 1)", "additive(constant=1)", "sequential", None),
    ("4 * texp(inf, 0, 1)", "additive(constant=1)", "sequential", None),
    ("4 * texp(1, nan, 1)", "additive(constant=1)", "sequential", None),
    ("4 * empirical({sample})", "additive(constant=1)", "sequential", "0.1\nnan\n0.5\n"),
    ("4 * empirical({sample})", "additive(constant=1)", "sequential", "0.1\ninf\n0.5\n"),
    ("4 * pwcdf([(0, 0), (0.5, 0.5), (1e999, 1)])", "additive(constant=1)",
     "sequential", None),
    ("4 * uniform(0, 1)", "symmetric([0, 1, 1.5, 2, 1e999])", "oblivious", None),
], ids=["texp-nan-rate", "texp-inf-rate", "texp-nan-lo", "empirical-nan",
        "empirical-inf", "pwcdf-inf", "symmetric-inf"])
def test_non_finite_numbers_exit_2(tmp_path, capsys, dists, value, kind, sample):
    if sample is not None:
        (tmp_path / "sample.txt").write_text(sample)
        dists = dists.format(sample=tmp_path / "sample.txt")
    path = _write_config(tmp_path, NON_FINITE.format(
        dists=dists, value=value, kind=kind, out=tmp_path / "o"))
    assert main(["simulate", "--config", path]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_out_below_a_file_exits_2(tmp_path, capsys, monkeypatch):
    import postedpricing.cli as cli

    monkeypatch.setattr(cli, "approximation_report", None)
    afile = tmp_path / "afile"
    afile.write_text("keep")
    path = _write_config(tmp_path, EXAMPLE1.format(out=afile / "sub"))
    assert main(["simulate", "--config", path]) == 2
    assert str(afile) in capsys.readouterr().err
    assert afile.read_text() == "keep"


def test_solution_record_shape():
    from postedpricing import solve_additive

    sol = solve_additive([Uniform(0, 1)] * 2, [1.0, 1.0], 0.4)
    text = solution_record(sol)
    lines = text.strip().splitlines()
    assert len(lines) == 3
    assert lines[0] == "agent,quantile,price_lo,price_hi,prob_lo,expected_spend"
    assert all(len(l.split(",")) == 6 for l in lines)


def test_mismatched_sequential_value_is_config_error(tmp_path):
    text = EXAMPLE1.format(out=tmp_path).replace(
        "value = additive(constant=1)",
        "value = symmetric([0," + ",".join(["1"] * 16) + "])")
    path = _write_config(tmp_path, text)
    assert main(["simulate", "--config", path]) == 2


def test_sequential_on_symmetric_values_rejected_by_solve_and_simulate(tmp_path, capsys):
    path = _write_config(tmp_path, "[instance]\n"
                         "distributions = 8 * uniform(0, 1)\n"
                         "value = symmetric([0, 1, 2, 3, 4, 4, 4, 4, 4])\n"
                         "budget = 2\n\n"
                         "[mechanism]\n"
                         "kind = sequential\n\n"
                         f"[harness]\nout = {tmp_path / 'out'}\n")
    errors = []
    for command in ("solve", "simulate"):
        assert main([command, "--config", path]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "sequential mechanism requires an additive value function" in errors[0]


def test_cmd_solve_three_agent_matches_oracle(tmp_path, capsys):
    from oracles import grid_oracle_additive
    from postedpricing import PiecewiseLinearCDF

    text = """
[instance]
distributions = uniform(0, 1); uniform(0.1, 0.9); pwcdf([(0,0),(0.4,0.7),(1,1)])
value = additive([1.0, 0.6, 1.4])
budget = 0.5

[harness]
out = {out}
"""
    out = tmp_path / "o"
    path = _write_config(tmp_path, text.format(out=out))
    assert main(["solve", "--config", path]) == 0
    capsys.readouterr()
    dists = [Uniform(0, 1), Uniform(0.1, 0.9),
             PiecewiseLinearCDF(((0.0, 0.0), (0.4, 0.7), (1.0, 1.0)))]
    oracle = grid_oracle_additive(dists, [1.0, 0.6, 1.4], 0.5)
    rows = (out / "solution.csv").read_text().strip().splitlines()[1:]
    objective = sum(float(r.split(",")[1]) * v
                    for r, v in zip(rows, [1.0, 0.6, 1.4]))
    assert objective >= oracle - 1e-3


def test_cmd_simulate_ratio_beats_bound(tmp_path):
    out = tmp_path / "o"
    path = _write_config(
        tmp_path, EXAMPLE1.format(out=out).replace("trials = 400",
                                                   "trials = 20000"))
    assert main(["simulate", "--config", path]) == 0
    header, row = (out / "report.csv").read_text().strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    rel = float(cols["mechanism_stderr"]) / float(cols["ex_ante_upper_bound"])
    assert float(cols["ratio"]) >= float(cols["theoretical_bound"]) - 3 * rel


def test_mechanism_kind_exante_rejected(tmp_path):
    path = _write_config(tmp_path, EXAMPLE1.format(out=tmp_path).replace(
        "kind = sequential", "kind = exante"))
    assert main(["simulate", "--config", path]) == 2


@pytest.mark.parametrize("kind,order", [
    ("sequential", "fixed"), ("sequential", "worst-of-sampled"),
    ("oblivious", "bang-per-buck"), ("oblivious", "uniform-random")])
def test_order_must_be_the_mechanism_policy(tmp_path, kind, order):
    path = _write_config(tmp_path, EXAMPLE1.format(out=tmp_path)
                         .replace("kind = sequential", f"kind = {kind}")
                         .replace("order = bang-per-buck", f"order = {order}"))
    assert main(["simulate", "--config", path]) == 2


def test_absent_order_defaults_to_mechanism_policy(tmp_path):
    path = _write_config(tmp_path, EXAMPLE1.format(out=tmp_path)
                         .replace("kind = sequential", "kind = oblivious")
                         .replace("order = bang-per-buck\n", ""))
    text = serialize_config(parse_config(path))
    assert "order = worst-of-sampled\n" in text
    assert serialize_config(parse_config(_write_config(tmp_path, text, "rt.ini"))) == text


@pytest.mark.parametrize("command", ["solve", "simulate", "report"])
def test_solver_kind_mismatch_exits_2(tmp_path, command):
    path = _write_config(tmp_path, EXAMPLE1.format(out=tmp_path).replace(
        "kind = additive", "kind = symmetric"))
    assert main([command, "--config", path]) == 2


LONG_INT = "1" + "0" * 400  # 401 digits: float() reads it as inf, float(int) overflows


@pytest.mark.parametrize("distributions,value", [
    ("2 * uniform(0, 1)", "additive(5)"),
    ("2 * uniform(0, 1)", "symmetric(3)"),
    ("pwcdf(5)", "additive(constant=1)"),
    ("2 * uniform(0, 1)", 'additive([1, "a"])'),
    ("2 * uniform(0, 1)", "additive(constant=-1)"),
    ("4 * uniform(0, 1)", "additive([1, -1, 1, 1])"),
    ("2 * uniform(0, 1)", "additive(constant=nan)"),
    ("2 * uniform(0, 1)", "additive(constant=inf)"),
    ("2 * uniform(0, 1)", f"additive([1, {LONG_INT}])"),
    (f"pwcdf([(0, 0), ({LONG_INT}, 1)])", "additive(constant=1)")])
def test_malformed_literal_exits_2(tmp_path, distributions, value):
    path = _write_config(tmp_path, "[instance]\n"
                         f"distributions = {distributions}\n"
                         f"value = {value}\n"
                         "budget = 1\n")
    assert main(["solve", "--config", path]) == 2


@pytest.mark.parametrize("args,pairs", [
    ("[1, 2,]", False), ("[True, 1]", False), ("[0x10, 1]", False), ('["1", 2]', False),
    ("(1, 2)", False), ("1, 2", False), ("[- 1, 2]", False), ("[1 2]", False),
    ("[(0, 0), (1, 1),]", True), ("[[0, 0], [1, 1]]", True), ("[(0, 0, 0), (1, 1)]", True),
    ("((0, 0), (1, 1))", True), ("[(0, 0), (1, 1)", True), ("[(0, 0) (1, 1)]", True)])
def test_number_list_takes_only_the_documented_shape(args, pairs):
    with pytest.raises(ConfigError, match="pwcdf breakpoint list" if pairs else "value list"):
        if pairs:
            parse_distribution(f"pwcdf({args})")
        else:
            parse_value(f"additive({args})", 2)


def _number_token(rng):
    """A number as a config may write it: repr floats, integers, exponents,
    signs, underscores and zeros of either sign."""
    kind = rng.integers(6)
    sign = str(rng.choice(["", "+", "-"]))
    if kind == 0:
        return repr(float(rng.normal()) * 10.0 ** int(rng.integers(-40, 40)))
    if kind == 1:
        return sign + str(int(rng.integers(0, 10 ** 6)) * 10 ** int(rng.integers(0, 30)))
    if kind == 2:
        whole, part = rng.integers(100), rng.integers(10 ** 4)
        mantissa = str(rng.choice([f"{part}", f"{whole}.{part}", f".{whole}", f"{whole}."]))
        return (sign + mantissa + str(rng.choice(["e", "E"])) + str(rng.choice(["", "+", "-"]))
                + str(rng.integers(0, 330)))
    if kind == 3:
        return sign + str(rng.choice(["0", "00", "0.0", "0e0", "0.", ".0", "0_0"]))
    if kind == 4:
        return sign + str(rng.choice(["1_000", "2_500.25", "1_0e1_0"]))
    return sign + repr(abs(float(rng.uniform(0.0, 2.0))))


def _spaces(rng):
    return str(rng.choice(["", "", " ", "  ", "\n", "\n    ", "\t", " \n  "]))


def _number_list_text(rng, pairs):
    def item():
        if not pairs:
            return _spaces(rng) + _number_token(rng) + _spaces(rng)
        c, F = _number_token(rng), _number_token(rng)
        return (_spaces(rng) + "(" + _spaces(rng) + c + _spaces(rng) + "," + _spaces(rng) + F
                + _spaces(rng) + ")" + _spaces(rng))
    return "[" + ",".join(item() for _ in range(int(rng.integers(1, 9)))) + "]"


def _bits(numbers):
    flat = [x for item in numbers for x in (item if isinstance(item, tuple) else (item,))]
    return [struct.pack("<d", x) for x in flat], [type(item) for item in numbers]


@pytest.mark.parametrize("pairs", [False, True])
def test_number_list_matches_literal_eval_bitwise(pairs):
    rng = np.random.default_rng(2100 + pairs)
    for _ in range(400):
        text = _number_list_text(rng, pairs)
        tokenized = _number_list(text, "list", pairs)
        assert _bits(tokenized) == _bits(literal_eval_numbers(text, pairs)), text


def _literal_eval_route(text, what, pairs=False):
    return literal_eval_numbers(text, pairs)


def _parsed_numbers(path):
    cfg = parse_config(path)
    value = getattr(cfg.value, "values", None) or getattr(cfg.value, "g", None)
    return repr(cfg.dists), repr(value), repr(cfg.budget)


def test_golden_and_readme_configs_parse_as_literal_eval_did(tmp_path, monkeypatch):
    # (config, the directory its relative paths start from); README's
    # coverage(coverage.txt) is the golden coverage table
    configs = [(p, p.parent) for p in sorted(GOLDEN_COVERAGE.parent.glob("*/config.ini"))]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for i, block in enumerate(re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)):
        configs.append((_write_config(tmp_path, block, f"readme{i}.ini"), GOLDEN_COVERAGE))
    lists = 0
    for path, cwd in configs:
        monkeypatch.chdir(cwd)
        tokenized = _parsed_numbers(path)
        with monkeypatch.context() as patched:
            patched.setattr(config, "_number_list", _literal_eval_route)
            assert _parsed_numbers(path) == tokenized, path
        lists += tokenized[0].count("PiecewiseLinearCDF") + (tokenized[1] != "None")
    assert lists >= 8


def test_parse_config_compiles_no_python(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Python source compiled while reading a config")

    path = _write_config(tmp_path, "[instance]\n"
                         "distributions = 2 * pwcdf([(0, 0), (0.5, 0.2), (0.6, 0.8), (1, 1)]);"
                         " pwcdf([(0.1, 0), (0.4, 0.3),\n  (1.2, 1)])\n"
                         "value = additive([1, 1.3, 0.8])\nbudget = 1\n")
    monkeypatch.setattr(ast, "parse", refuse)
    monkeypatch.setattr(builtins, "compile", refuse)
    with pytest.raises(AssertionError, match="compiled"):
        literal_eval_numbers("[1]")  # the guard catches the old route
    cfg = parse_config(path)
    assert cfg.n == 3 and cfg.value.values == (1.0, 1.3, 0.8)


def test_spaced_semicolon_on_the_distributions_line_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, "[instance]\n"
                         "distributions = 2 * uniform(0, 1) ; texp(1, 0, 2)\n"
                         "value = additive(constant=1)\nbudget = 1\n")
    assert main(["solve", "--config", path]) == 2
    assert "[instance] distributions" in capsys.readouterr().err


SEMICOLON_COMMENTS = """[instance]
distributions = 2 * uniform(0, 1); texp(1, 0, 2)   # three agents; one texp
value = additive([1,
    2 ;the second
    ; a comment line
    , 3])   ; three values
budget = 1 ;one
[harness]
out = o\t; a tab; then more
seed = ;empty
"""


def test_semicolon_comments_cut_as_configparser_cuts_them(tmp_path):
    cfg = parse_config(_write_config(tmp_path, SEMICOLON_COMMENTS.replace("seed = ;empty\n", "")))
    assert cfg.n == 3 and cfg.value.values == (1.0, 2.0, 3.0) and cfg.budget == 1.0
    assert cfg.out == "o"
    native = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    native.read_string(SEMICOLON_COMMENTS.replace("; texp", ";texp"))
    ours = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                     interpolation=config._Comments())
    ours.read_string(SEMICOLON_COMMENTS.replace("; texp", ";texp"))
    for section in ("instance", "harness"):
        assert dict(ours[section]) == dict(native[section])


@pytest.mark.parametrize("edits,args,key", [
    ({"kind = additive": "kind = additive\nm = 2"}, (), "[solver] m"),
    ({"trials = 400": "trials = ten"}, (), "[harness] trials"),
    ({"seed = 7": "seed = -1"}, (), "[harness] seed"),
    ({"order = bang-per-buck": "order = bang-per-buck\nn_orders = -3"}, (),
     "[mechanism] n_orders"),
    ({}, ("--seed", "-1"), "--seed"),
    ({"kind = additive": "kind = additive\ngrid = 1e4"}, (), "[solver] grid"),
    ({"trials = 400": "trials = 0"}, (), "[harness] trials"),
    ({}, ("--trials", "0"), "--trials"),
    ({"kind = additive": "kind = additive\ngrid = 1"}, (), "[solver] grid"),
    ({"kind = sequential": "kind = oblivious",
      "order = bang-per-buck": "order = worst-of-sampled\nepsilon = 0.7"}, (),
     "[mechanism] epsilon"),
    ({"budget = 4": "budget = four"}, (), "[instance] budget"),
    ({"budget = 4": "budget = inf"}, (), "[instance] budget"),
    ({"kind = sequential": "kind = oblivious",
      "order = bang-per-buck": "order = worst-of-sampled\nepsilon = abc"}, (),
     "[mechanism] epsilon"),
    ({"kind = additive": "kind = additive\nnoisy = maybe"}, (), "[solver] noisy")])
def test_out_of_range_option_exits_2(tmp_path, capsys, edits, args, key):
    text = EXAMPLE1.format(out=tmp_path)
    for old, new in edits.items():
        text = text.replace(old, new)
    assert main(["simulate", "--config", _write_config(tmp_path, text), *args]) == 2
    assert key in capsys.readouterr().err


SYMMETRIC_OBLIVIOUS_EDITS = {
    "kind = additive": "kind = symmetric",
    "value = additive(constant=1)": "value = symmetric([0, 1, 2, 3, 4, 5" + ", 6" * 11 + "])",
    "kind = sequential": "kind = oblivious",
    "order = bang-per-buck": "order = worst-of-sampled\nepsilon = 0.1"}


# EXAMPLE1 as the golden coverage instance under submodular-oblivious pricing
GOLDEN_COVERAGE = Path(__file__).resolve().parent / "golden" / "coverage-greedy"
COVERAGE_EDITS = {
    "16 * uniform(0, 1)": "4 * uniform(0, 1); 4 * uniform(0.05, 1)",
    "value = additive(constant=1)": f"value = coverage({GOLDEN_COVERAGE / 'coverage.txt'})",
    "kind = sequential": "kind = oblivious",
    "order = bang-per-buck": "order = worst-of-sampled\nepsilon = 0.2"}


@pytest.mark.parametrize("edits,message", [
    ({"order = bang-per-buck": "order = bang-per-buck\nepsilon = 0.3"},
     "[mechanism] epsilon has no effect"),
    (SYMMETRIC_OBLIVIOUS_EDITS, "[mechanism] epsilon has no effect"),
    ({"order = bang-per-buck": "order = bang-per-buck\nn_orders = 5"},
     "[mechanism] n_orders has no effect"),
    ({"kind = additive": "kind = additive\nm = 50"}, "[solver] m has no effect"),
    # the sample keys are gone from the grammar, even where greedy once read them
    (COVERAGE_EDITS | {"kind = additive": "kind = greedy\nmarginal_samples = 7"},
     "unknown key 'marginal_samples' in section [solver]"),
    ({"kind = additive": "kind = additive\nnoisy = true"}, "[solver] noisy has no effect"),
    (COVERAGE_EDITS | {"kind = additive": "kind = greedy\nappendix_schedule = true"},
     "unknown key 'appendix_schedule' in section [solver]")],
    ids=["epsilon-sequential", "epsilon-symmetric-oblivious", "n_orders", "m",
         "marginal_samples", "noisy", "appendix_schedule"])
def test_key_the_run_never_reads_exits_2(tmp_path, capsys, edits, message):
    text = EXAMPLE1.format(out=tmp_path)
    for old, new in edits.items():
        text = text.replace(old, new)
    assert main(["simulate", "--config", _write_config(tmp_path, text)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("bad_file", ["config", "coverage"])
def test_file_that_is_not_utf8_exits_2(tmp_path, capsys, bad_file):
    latin1 = "# café\n".encode("latin-1")  # é as the lone byte 0xe9: not UTF-8
    coverage = tmp_path / "coverage.txt"
    coverage.write_bytes((GOLDEN_COVERAGE / "coverage.txt").read_bytes()
                         + (latin1 if bad_file == "coverage" else b""))
    text = EXAMPLE1.format(out=tmp_path / "out")
    for old, new in (COVERAGE_EDITS | {"kind = additive": "kind = greedy",
                                       str(GOLDEN_COVERAGE / "coverage.txt"): str(coverage)}
                     ).items():
        text = text.replace(old, new)
    config = tmp_path / "exp.ini"
    config.write_bytes(text.encode() + (latin1 if bad_file == "config" else b""))
    assert main(["solve", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert str(config if bad_file == "config" else coverage) in err


def test_readme_configs_parse(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    monkeypatch.chdir(GOLDEN_COVERAGE)  # README's coverage(coverage.txt) is this table
    for i, block in enumerate(blocks):
        text = re.sub(r"^out = .*$", f"out = {tmp_path / 'out'}", block, flags=re.M)
        cfg = parse_config(_write_config(tmp_path, text, f"readme{i}.ini"))
        assert cfg.out == str(tmp_path / "out")


def test_solve_writes_the_oblivious_menu(tmp_path):
    from postedpricing import build_oblivious

    texts = set()
    for eps in (0.1, 0.3):
        out = tmp_path / f"eps{eps}"
        path = _write_config(tmp_path, EXAMPLE1.format(out=out)
                             .replace("kind = sequential", "kind = oblivious")
                             .replace("order = bang-per-buck",
                                      f"order = worst-of-sampled\nepsilon = {eps}"))
        assert main(["solve", "--config", path]) == 0
        text = (out / "solution.csv").read_text()
        cfg = parse_config(path)
        menu = build_oblivious(cfg.dists, cfg.value, cfg.budget, eps, kind="additive")
        assert text == solution_record(menu)
        texts.add(text)
    assert len(texts) == 2


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_auto_epsilon_on_small_market_is_config_error(tmp_path, capsys, command):
    golden = Path(__file__).resolve().parent / "golden" / "coverage-greedy"
    text = (golden / "config.ini").read_text()
    assert "budget = 5" in text and "coverage(coverage.txt)" in text
    path = _write_config(tmp_path, text.replace("budget = 5", "budget = 4").replace(
        "coverage(coverage.txt)", f"coverage({golden / 'coverage.txt'})"))
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "[mechanism] epsilon" in err and "k = " in err


def test_negative_coverage_weight_exits_2(tmp_path, capsys):
    golden = Path(__file__).resolve().parent / "golden" / "coverage-greedy"
    cov = tmp_path / "coverage.txt"
    cov.write_text((golden / "coverage.txt").read_text().replace("a:1", "a:-1"))
    text = (golden / "config.ini").read_text()
    path = _write_config(tmp_path, text.replace("coverage(coverage.txt)", f"coverage({cov})"))
    assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "element weights" in capsys.readouterr().err


def test_main_keeps_one_parser_and_answers_as_a_fresh_one(tmp_path, capsys):
    # solve, bounds, a bad flag, solve again: the kept parser gives each call
    # the exit code, output and files a freshly built parser gives it
    out = tmp_path / "o"
    path = _write_config(tmp_path, EXAMPLE1.format(out=out))
    calls = (["solve", "--config", path],
             ["bounds", "--k", "8,16", "--out", str(tmp_path / "b")],
             ["solve", "--config", path, "--bogus"],
             ["solve", "--config", path])

    def run(argv):
        (out / "solution.csv").unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a bad flag this way
            code = exc.code
        printed = capsys.readouterr()
        written = (out / "solution.csv").read_bytes() if code == 0 and argv[0] == "solve" else None
        return code, printed.out, printed.err, written

    cli._parser.cache_clear()
    kept = [run(argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert kept == fresh
    assert [code for code, *_ in kept] == [0, 0, 2, 0]
    assert "--bogus" in kept[2][2]


def _prior_text(d):
    if isinstance(d, PiecewiseLinearCDF):
        return "pwcdf([" + ", ".join(f"({c!r}, {F!r})" for c, F in d.points) + "])"
    return f"texp({d.rate!r}, {d.lo!r}, {d.hi!r})"


SWEEP_SHARES = (0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9)


def test_spend_binding_sweep_of_fresh_markets_in_one_process(tmp_path, capsys):
    # the design sweep's output check, through main in one process over 24
    # fresh 32-agent irregular markets at 8 budgets: every solve exits 0 and
    # writes 32 rows with quantiles in [0, 1] whose expected spend sums to the
    # budget.  What the process keeps between solves (the parser, the hull
    # cache) is emptied halfway, so both states are covered.
    for market in range(24):
        if market == 12:
            ironed_curve.cache_clear()
            cli._parser.cache_clear()
        dists = irregular_priors(1900 + market, 32)
        values = np.random.default_rng(market).uniform(0.5, 2.0, 32)
        head = ("[instance]\n"
                f"distributions = {'; '.join(map(_prior_text, dists))}\n"
                f"value = additive([{', '.join(map(repr, values.tolist()))}])\n")
        for share in SWEEP_SHARES:
            budget = share * sum(d.support_hi for d in dists)
            out = tmp_path / f"m{market}-{share}"
            path = _write_config(tmp_path, head + f"budget = {budget!r}\n\n"
                                 f"[harness]\nout = {out}\n")
            assert main(["solve", "--config", path]) == 0, (market, share)
            rows = list(csv.DictReader(io.StringIO((out / "solution.csv").read_text())))
            assert len(rows) == 32
            assert all(0.0 <= float(r["quantile"]) <= 1.0 for r in rows)
            spend = math.fsum(float(r["expected_spend"]) for r in rows)
            assert abs(spend - budget) <= 1e-6 * budget, (market, share)
    capsys.readouterr()


ERROR_CONFIG = """
[instance]
distributions = {dists}
value = {value}
budget = 1

[harness]
out = {out}
"""


@pytest.mark.parametrize("dists, value, message", [
    ("uniform", "additive(constant=1)", "cannot parse 'uniform': expected name(args)"),
    ("2 * uniform(a, 1)", "additive(constant=1)", "bad numeric argument in uniform"),
    ("0 * uniform(0, 1)", "additive(constant=1)", "replication count must be at least 1"),
    ("", "additive(constant=1)", "no distributions given"),
    ("2 * uniform(0, 1)", "additive(constant=abc)", "bad constant value"),
    ("2 * uniform(0, 1)", "linear([1, 2])", "unknown value-function kind 'linear'"),
    # the text of a coverage file, for two agents
    ("2 * uniform(0, 1)", "e1 e2:1\ne2:1\n", "1: expected element:weight, got 'e1'"),
    ("2 * uniform(0, 1)", "e1:x\ne2:1\n", "1: bad weight in 'e1:x'"),
    ("2 * uniform(0, 1)", "e1:1\ne1:2\n", "2: conflicting weight for 'e1'"),
    ("2 * uniform(0, 1)", "e1:1\n", "coverage file defines 1 agents, instance has 2"),
], ids=["call", "numeric-argument", "replication", "no-distributions", "constant",
        "value-kind", "coverage-no-colon", "coverage-bad-weight",
        "coverage-conflicting-weight", "coverage-agent-count"])
def test_config_error_paths_exit_2(tmp_path, capsys, dists, value, message):
    if ":" in value:
        (tmp_path / "cover.txt").write_text(value)
        value = f"coverage({tmp_path / 'cover.txt'})"
    path = _write_config(tmp_path, ERROR_CONFIG.format(dists=dists, value=value,
                                                       out=tmp_path / "o"))
    assert main(["solve", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, message", [
    (EXAMPLE1.replace("budget = 4\n", ""), "[instance] is missing 'budget'"),
    ("budget = 4\n" + EXAMPLE1, "cannot parse "),
], ids=["missing-budget", "no-section-header"])
def test_config_file_error_paths_exit_2(tmp_path, capsys, text, message):
    path = _write_config(tmp_path, text.format(out=tmp_path / "o"))
    assert main(["solve", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("k, message", [("1, x", "bad k list: "), (" , ", "empty k list")])
def test_bounds_k_list_errors_exit_2(tmp_path, capsys, k, message):
    assert main(["bounds", "--k", k, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not (tmp_path / "o").exists()


def test_seed_flag_writes_what_the_config_seed_writes(tmp_path):
    seven = _write_config(tmp_path, EXAMPLE1.format(out=tmp_path / "seven"), "seven.ini")
    five = _write_config(tmp_path, EXAMPLE1.replace("seed = 7", "seed = 5")
                         .format(out=tmp_path / "five"), "five.ini")
    assert main(["simulate", "--config", five]) == 0
    assert main(["simulate", "--config", seven]) == 0
    assert main(["simulate", "--config", seven, "--seed", "5",
                 "--out", str(tmp_path / "flag")]) == 0
    report = "report.csv"
    assert ((tmp_path / "flag" / report).read_bytes()
            == (tmp_path / "five" / report).read_bytes()
            != (tmp_path / "seven" / report).read_bytes())


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_numeric_failure_exits_3(tmp_path, capsys, monkeypatch, command):
    from postedpricing import exante

    def fail(*args, **kwargs):
        raise RuntimeError("could not bracket the budget multiplier")

    monkeypatch.setattr(exante, "solve_additive", fail)
    path = _write_config(tmp_path, EXAMPLE1.format(out=tmp_path / "o"))
    assert main([command, "--config", path]) == 3
    assert capsys.readouterr().err == ("numeric failure: could not bracket the budget "
                                       "multiplier\n")
