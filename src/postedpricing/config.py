"""Experiment configuration: a strict INI-style file with four sections.

Grammar (see README for the full reference):

    [instance]
    distributions = 16 * uniform(0, 1); texp(1, 0, 2)   # `;` separates terms
    value = additive(constant=1)
    budget = 4.0

    [solver]      kind, grid, m, noisy
    [mechanism]   kind, order, epsilon, n_orders
    [harness]     trials, seed, out

Numbers: a number is one token that float() reads (`1`, `-2.5`, `1e-3`,
`1_000`, `inf`); a pair is `(c, F)`; a list is `[x, ...]` or `[(c, F), ...]`.
Whitespace, newlines included (an INI value continues on indented lines), may
stand around any item, comma or bracket, and nothing else may: no trailing
comma, no quotes, no `True`, no `0x10`, no `[c, F]` in place of a pair.

Comments: a `#` or `;` after whitespace starts a comment, as does a line that
starts with one.  On the distributions line, where `;` separates terms, a
`;` after whitespace is an error instead, since the comment would drop the
terms after it; comment that line with `#`.  Values have no interpolation:
a `%` is an ordinary character.

Unknown sections or keys are rejected so typos cannot silently change an
experiment, and so is a key the configured run never reads (a greedy-only
solver key under another solver, epsilon outside submodular-oblivious
pricing, n_orders for the sequential mechanism).  Every value a config can
name has exact greedy gains, so no key sets a sample count.
Referenced files (empirical samples, coverage tables) must exist at load time.
"""

from __future__ import annotations

import configparser
import math
import os
import re
from dataclasses import dataclass

from .distributions import (DEFAULT_GRID, PiecewiseLinearCDF,
                            TruncatedExponential, Uniform,
                            empirical_from_sample)
from .exante import solver_kind
from .mechanism import MECHANISM_ORDERS, mechanism_variant
from .simulate import DEFAULT_TRIALS
from .values import AdditiveValue, CoverageValue, SymmetricValue


class ConfigError(ValueError):
    """Invalid experiment configuration."""


_ALLOWED_KEYS = {
    "instance": {"distributions", "value", "budget"},
    "solver": {"kind", "grid", "m", "noisy"},
    "mechanism": {"kind", "order", "epsilon", "n_orders"},
    "harness": {"trials", "seed", "out"},
}

_GREEDY_KEYS = ("m", "noisy")

_CALL_RE = re.compile(r"^\s*([a-zA-Z_][a-zA-Z0-9_-]*)\s*\((.*)\)\s*$", re.S)
_REPEAT_RE = re.compile(r"^(\d+)\s*\*\s*(.+)$", re.S)
_CONSTANT_RE = re.compile(r"^constant\s*=\s*(.+)$")

# The number lists of the grammar: a number token is anything but whitespace,
# commas, parentheses and brackets, and float() decides whether it is a number.
_NUMBER = r"[^\s,()\[\]]+"
_PAIR = rf"\(\s*{_NUMBER}\s*,\s*{_NUMBER}\s*\)"
_NUMBER_LIST_RE = re.compile(rf"\[\s*(?:{_NUMBER}(?:\s*,\s*{_NUMBER})*\s*)?\]")
_PAIR_LIST_RE = re.compile(rf"\[\s*(?:{_PAIR}(?:\s*,\s*{_PAIR})*\s*)?\]")

# A `;` comment, the inline comment configparser would cut: from a `;` with
# no non-space character before it to the line's end.  The pattern starts with
# the `;` itself (the lookbehind follows it), so re scans for the literal.
_SEMICOLON_COMMENT_RE = re.compile(r";(?<=(?<!\S);).*")


class _Comments(configparser.Interpolation):
    """No interpolation (a `%` is read as itself), on values whose `;`
    comments are cut.

    configparser cuts `#` comments itself.  On the distributions line a `;`
    comment is a ConfigError instead, since `;` also separates terms there."""

    def before_read(self, parser, section, option, value):
        text = _SEMICOLON_COMMENT_RE.sub("", value)
        if text != value:
            if (section, option) == ("instance", "distributions"):
                raise ConfigError("[instance] distributions: a ';' after whitespace "
                                  "starts a comment, which would drop the terms after "
                                  "it; write 'term; term', and comment with '#'")
            value = "\n".join(line.rstrip() for line in text.split("\n"))
        return super().before_read(parser, section, option, value)


def _read_text(path: str, what: str) -> str:
    """The text of a file, decoded as open() does; a missing or unreadable
    file is a ConfigError naming it."""
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def _split_call(text: str):
    m = _CALL_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse {text!r}: expected name(args)")
    return m.group(1).lower(), m.group(2).strip()


def _number_list(text: str, what: str, pairs: bool = False) -> tuple:
    """The floats of a `[x, ...]` list, or the (c, F) tuples of a
    `[(c, F), ...]` list when pairs is set; anything else is a ConfigError."""
    if not (_PAIR_LIST_RE if pairs else _NUMBER_LIST_RE).fullmatch(text):
        shape = "[(c, F), ...]" if pairs else "[x, ...]"
        raise ConfigError(f"bad {what}: expected {shape} of numbers, got {text!r}")
    # the shape holds, so the numbers are what lies between commas once the
    # brackets are gone (float() ignores the whitespace around each)
    body = text[1:-1].replace("(", "").replace(")", "") if pairs else text[1:-1]
    tokens = body.split(",") if body.strip() else []
    try:
        xs = [float(token) for token in tokens]
    except ValueError as exc:
        raise ConfigError(f"bad {what}: {exc}") from None
    if "-" in text:  # an integer zero is +0.0 whatever its sign, as Python's int 0
        xs = [0.0 if x == 0.0 and t.strip().lstrip("+-").replace("_", "").isdigit() else x
              for x, t in zip(xs, tokens)]
    return tuple(zip(xs[::2], xs[1::2])) if pairs else tuple(xs)


def _floats(args: str, expect: int, what: str):
    parts = [p.strip() for p in args.split(",")] if args else []
    if len(parts) != expect:
        raise ConfigError(f"{what} takes {expect} arguments, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad numeric argument in {what}: {exc}") from None


def parse_distribution(text: str):
    """One distribution term: uniform(lo,hi) | texp(rate,lo,hi) |
    pwcdf([(c,F),...]) | empirical(path)."""
    name, args = _split_call(text)
    try:
        if name == "uniform":
            lo, hi = _floats(args, 2, "uniform")
            return Uniform(lo, hi)
        if name == "texp":
            rate, lo, hi = _floats(args, 3, "texp")
            return TruncatedExponential(rate, lo, hi)
        if name == "pwcdf":
            return PiecewiseLinearCDF(_number_list(args, "pwcdf breakpoint list",
                                                   pairs=True))
        if name == "empirical":
            sample = _read_text(args.strip().strip("'\""), "empirical sample file")
            return empirical_from_sample([float(tok) for tok in sample.split()])
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid distribution {text!r}: {exc}") from None
    raise ConfigError(f"unknown distribution kind {name!r}")


def parse_distributions(text: str):
    """Semicolon-separated terms, each optionally replicated as `N * term`."""
    dists = []
    for term in text.split(";"):
        term = term.strip()
        if not term:
            continue
        count = 1
        m = _REPEAT_RE.match(term)
        if m:
            count = int(m.group(1))
            term = m.group(2)
        if count < 1:
            raise ConfigError("replication count must be at least 1")
        dists.extend([parse_distribution(term)] * count)
    if not dists:
        raise ConfigError("no distributions given")
    return tuple(dists)


def _construct(cls, *args):
    """cls(*args), with the class's own validation error as a ConfigError."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_coverage_file(path: str) -> CoverageValue:
    """One line per agent listing covered element:weight pairs."""
    weights: dict = {}
    covers = []
    for lineno, line in enumerate(_read_text(path, "coverage file").split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cov = []
        for tok in line.split():
            if ":" not in tok:
                raise ConfigError(f"{path}:{lineno}: expected element:weight, got {tok!r}")
            name, w = tok.rsplit(":", 1)
            try:
                w = float(w)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad weight in {tok!r}") from None
            if name in weights and abs(weights[name] - w) > 1e-12:
                raise ConfigError(f"{path}:{lineno}: conflicting weight for {name!r}")
            weights.setdefault(name, w)
            cov.append(name)
        covers.append(cov)
    names = sorted(weights)
    index = {nm: i for i, nm in enumerate(names)}
    return _construct(CoverageValue, tuple(weights[nm] for nm in names),
                      tuple(tuple(index[nm] for nm in cov) for cov in covers))


def parse_value(text: str, n: int):
    """additive([...]) | additive(constant=x) | symmetric([...]) | coverage(path)."""
    name, args = _split_call(text)
    if name == "additive":
        m = _CONSTANT_RE.match(args)
        if m:
            try:
                v = float(m.group(1))
            except ValueError as exc:
                raise ConfigError(f"bad constant value: {exc}") from None
            return _construct(AdditiveValue, tuple([v] * n))
        vals = _number_list(args, "additive value list")
        if len(vals) != n:
            raise ConfigError(f"value list has {len(vals)} entries for {n} agents")
        return _construct(AdditiveValue, vals)
    if name == "symmetric":
        g = _number_list(args, "symmetric value table")
        if len(g) != n + 1:
            raise ConfigError(f"symmetric table needs n+1 = {n + 1} entries, got {len(g)}")
        return _construct(SymmetricValue, g)
    if name == "coverage":
        vf = parse_coverage_file(args.strip().strip("'\""))
        if vf.n != n:
            raise ConfigError(f"coverage file defines {vf.n} agents, instance has {n}")
        return vf
    raise ConfigError(f"unknown value-function kind {name!r}")


@dataclass
class ExperimentConfig:
    """A parsed config.  solver_kind is resolved (never 'auto'), epsilon is
    None for an automatic shrink, and a run walks MECHANISM_ORDERS[mechanism_kind]."""
    dists: tuple
    value: object
    budget: float
    solver_kind: str
    grid: int = DEFAULT_GRID
    m: int | None = None
    noisy: bool = False
    mechanism_kind: str = "sequential"
    epsilon: float | None = None
    n_orders: int = 20
    trials: int = DEFAULT_TRIALS
    seed: int = 0
    out: str = "out"

    @property
    def n(self) -> int:
        return len(self.dists)


def _unread_keys(cfg: ExperimentConfig) -> dict:
    """The optional (section, key) pairs the configured run never reads, with why."""
    variant = mechanism_variant(cfg.mechanism_kind, cfg.solver_kind, cfg.value)
    unread = {}
    if cfg.solver_kind != "greedy":
        for key in _GREEDY_KEYS:
            unread["solver", key] = ("only the greedy solver reads it; this run uses "
                                     + cfg.solver_kind)
    if variant != "submodular-oblivious":
        unread["mechanism", "epsilon"] = ("only submodular-oblivious pricing shrinks the "
                                          f"budget; this run is {variant}")
    if cfg.mechanism_kind == "sequential":
        unread["mechanism", "n_orders"] = ("only worst-of-sampled order reads it; the "
                                           "sequential mechanism runs in bang-per-buck order")
    return unread


def _int(cp, section, key, default):
    """An integer option, or default when it is absent."""
    text = cp.get(section, key, fallback=None)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be an integer, got {text!r}") from None


def _bool(text: str, what: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{what} must be a boolean, got {text!r}")


def parse_config(path: str) -> ExperimentConfig:
    text = _read_text(path, "config file")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=_Comments())
    try:
        cp.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None

    for section in cp.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _ALLOWED_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    for required in ("distributions", "value", "budget"):
        if not cp.has_option("instance", required):
            raise ConfigError(f"[instance] is missing {required!r}")

    dists = parse_distributions(cp.get("instance", "distributions"))
    try:
        budget = float(cp.get("instance", "budget"))
    except ValueError as exc:
        raise ConfigError(f"[instance] budget: {exc}") from None
    if not 0.0 < budget < math.inf:
        raise ConfigError(f"[instance] budget must be a positive finite number, "
                          f"got {budget:g}")
    value = parse_value(cp.get("instance", "value"), len(dists))

    try:
        cfg = ExperimentConfig(dists, value, budget, solver_kind(
            dists, value, cp.get("solver", "kind", fallback="auto").strip().lower()))
        cfg.mechanism_kind = cp.get("mechanism", "kind",
                                    fallback=cfg.mechanism_kind).strip().lower()
        mechanism_variant(cfg.mechanism_kind, cfg.solver_kind, value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cfg.grid = _int(cp, "solver", "grid", cfg.grid)
    cfg.m = _int(cp, "solver", "m", cfg.m)
    cfg.n_orders = _int(cp, "mechanism", "n_orders", cfg.n_orders)
    cfg.trials = _int(cp, "harness", "trials", cfg.trials)
    cfg.seed = _int(cp, "harness", "seed", cfg.seed)
    cfg.noisy = _bool(cp.get("solver", "noisy", fallback="false"), "[solver] noisy")
    policy = MECHANISM_ORDERS[cfg.mechanism_kind]
    order = cp.get("mechanism", "order", fallback=policy).strip().lower()
    if order != policy:
        raise ConfigError(f"the {cfg.mechanism_kind} mechanism runs in {policy} order, "
                          f"not {order!r}")
    eps_text = cp.get("mechanism", "epsilon", fallback="auto").strip().lower()
    if eps_text != "auto":
        try:
            cfg.epsilon = float(eps_text)
        except ValueError as exc:
            raise ConfigError(f"[mechanism] epsilon: {exc}") from None
        if not 0.0 < cfg.epsilon < 0.5:
            raise ConfigError("[mechanism] epsilon must lie in (0, 1/2)")
    cfg.out = cp.get("harness", "out", fallback=cfg.out)
    if not cfg.out:
        raise ConfigError("[harness] out must name a directory")
    if cfg.trials < 1:
        raise ConfigError("[harness] trials must be positive")
    if cfg.grid < 2:
        raise ConfigError("[solver] grid must be at least 2")
    if cfg.m is not None and cfg.m < cfg.n:
        raise ConfigError(f"[solver] m = {cfg.m} is below the agent count n = {cfg.n}")
    if cfg.n_orders < 0:
        raise ConfigError("[mechanism] n_orders must be non-negative")
    if cfg.seed < 0:
        raise ConfigError("[harness] seed must be non-negative")
    for (section, key), why in _unread_keys(cfg).items():
        if cp.has_option(section, key):
            raise ConfigError(f"[{section}] {key} has no effect here: {why}")
    return cfg
