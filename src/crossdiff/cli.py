"""Experiment runner: error tables, rate studies, cardinality checks,
surface data emission.

Every command writes into one directory per run id under a results root
(--out flag, config [output] dir, the CROSSDIFF_RESULTS environment
variable, or ./results, in that order of precedence). A table or rate
study's directory holds the effective config (config.ini) and table.csv,
with each row's derivative grid (row_<i>/deriv.csv), or rate.csv; a
cross-card run's holds card.csv and verdicts.txt only. Output is
deterministic for a fixed config and seed except for wall_time, at a
fixed BLAS thread count (OpenBLAS sums in an order that depends on it,
which can move the last digits); numbers have 17 significant digits.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace

import numpy as np

from .analysis import (  # noqa: F401  (l2_error, c_error stay importable from cli)
    ErrorEvaluator, RateStudyResult, _Level, _forked_map, _median, _noise, _plan, c_error,
    example1_F, example2_F, l2_error, make_class_function, rate_study,
)
from .coeffs import CoeffGrid, exact_coeffs, save_grid, load_grid, trapezoid_coeffs
from .coeffs import FLOAT, INT, STR, _MODES, _cells, _fmt_float, _trapezoid_steps, _write_csv
from .legendre import synthesize
from .truncation import SmoothnessParams, cardinality_growth

__all__ = [
    "FIELDS",
    "PRESETS",
    "ExperimentConfig",
    "ResultRow",
    "ResultsTable",
    "cmd_table",
    "cmd_rate_study",
    "cmd_cross_card",
    "cmd_emit_surface",
    "main",
]

_ENV_ROOT = "CROSSDIFF_RESULTS"
MAX_GRID_DEGREE = 1024  # the high-degree regime; gauss_rule's cost grows as m^2
# Noise realizations per row or noise level, and noisy trials per run (noise
# levels x seeds). A run keeps each trial's (error_l2, error_c) in one float64
# array, 16 bytes a trial, shared by the caller and its forked worker: a
# class rate study of 1 000 000 trials peaked 16-17 bytes a trial above one of
# 250 trials in the caller, which reads every row, and 7-8 in the worker,
# which writes its own half (2 CPUs). So the trial limit bounds time, ~25 min
# on 2 CPUs, more than memory, and a noisy table row at MAX_SEEDS takes ~3 min
# at grid degree 64.
MAX_SEEDS = 10 ** 6
MAX_TRIALS = 5 * MAX_SEEDS
MAX_GRID_POINTS = 1025  # emit-surface writes points^2 rows, ~100 MB at the limit
TABLES = ("example1", "example2")
_RUNS = TABLES + ("rate-study", "cross-card")  # the commands that write a run directory


def _fmt_list(xs, fmt=_fmt_float) -> str:
    return ",".join(fmt(x) for x in xs)


def _list(parse):
    """The parse of a list of comma- or space-separated values, each by parse."""
    return lambda text: tuple(parse(x) for x in text.replace(",", " ").split())


def _within(x, interval: str) -> bool:
    """Whether x lies in an interval written like "[1, inf)"; NaN never does."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return ((lo < x) if interval[0] == "(" else (lo <= x)) and (
        (x < hi) if interval[-1] == ")" else (x <= hi))


# list kinds beside coeffs' STR, INT and FLOAT
FLOATS = (_list(float), _fmt_list, "a list of floats")
INTS = (_list(int), lambda ns: _fmt_list(ns, str), "a list of integers")
INTS_OR_AUTO = (lambda text: () if text.strip() == "auto" else _list(int)(text),
                lambda ns: _fmt_list(ns, str) or "auto", "a list of integers or auto")


def _key(default, section, kind, flag=None, *, key=None, on=TABLES, within=None,
         choices=None, **arg):
    """A config attribute: its default and how it appears outside the
    program. That is its INI section and key (default: the attribute name),
    the parse/format/name triple ``kind`` between value and text, and the flag that
    sets it on the commands in ``on``, with extra argparse options ``arg``;
    validate() holds its numbers to the interval ``within``, its text to ``choices``."""
    return field(default=default, metadata=dict(
        section=section, key=key, kind=kind, flag=flag, on=on, arg=arg, within=within,
        choices=choices))


# the test function of each [experiment] function id
_FUNCTIONS = {
    "example1": lambda cfg: example1_F(),
    "example2": lambda cfg: example2_F(),
    "class": lambda cfg: make_class_function(s=cfg.s, mu1=cfg.mu1, mu2=cfg.mu2),
}


@dataclass
class ExperimentConfig:
    """Everything one table run or rate study depends on. Each attribute
    also declares its INI key and flag; FIELDS lists them in this order,
    which is the order config files are read and written in.

    Exactly one of delta_list (with a random noise_mode) and h_list (with
    noise_mode "trapezoid") must be set; _with says how a layer that gives
    one replaces the other. Empty n_list means choose_n with constant c;
    delta entries of 0 request the noise-free path. None leaves
    a rate study's gamma to the metric and its grid_degree to the function,
    and is its noise_p, which it does not use; only rate studies read
    metric.
    """

    function: str = _key("example1", "experiment", STR, choices=tuple(_FUNCTIONS))
    r: int = _key(2, "experiment", INT, within="[1, inf)")
    axis: str = _key("t", "experiment", STR, choices=("t", "tau"))
    s: float = _key(2.0, "experiment", FLOAT, within="[1, inf)")
    mu1: float = _key(5.6, "experiment", FLOAT, within="(0, inf)")
    mu2: float = _key(5.6, "experiment", FLOAT, within="(0, inf)")
    p: float = _key(2.0, "experiment", FLOAT, within="[1, inf]")
    noise_mode: str = _key("rescaled", "noise", STR, key="mode", choices=(*_MODES, "trapezoid"))
    noise_p: float = _key(math.inf, "noise", FLOAT, "--noise-p", key="p", within="[1, inf]",
                          help="norm index for noise rescaling (default inf)")
    delta_list: tuple = _key(
        (), "noise", FLOATS, "--delta", key="deltas", within="[0, 1)",
        help="comma-separated noise levels (0 = noise-free)")
    h_list: tuple = _key((), "noise", FLOATS, "--h", key="hs",
                         help="comma-separated trapezoid steps")
    seeds: int = _key(5, "noise", INT, "--seeds", within=f"[1, {MAX_SEEDS}]",
                      help="noise realizations per row")
    base_seed: int = _key(2025, "noise", INT, "--base-seed", within="[0, inf)")
    n_list: tuple = _key((), "method", INTS_OR_AUTO, "--n", key="n",
                         within=f"[1, {MAX_GRID_DEGREE}]",
                         help="comma-separated truncation levels, or auto for choose_n")
    c: float = _key(0.9, "method", FLOAT, "--c", within="(0, inf)",
                    help="choose_n calibration constant")
    gamma: float | None = _key(1.0, "method", FLOAT, "--gamma", within="[1, inf)",
                               help="cross shape parameter")
    grid_degree: int | None = _key(64, "method", INT, "--grid-degree",
                                   within=f"[1, {MAX_GRID_DEGREE}]")
    out_dir: str | None = _key(None, "output", STR, "--out", key="dir",
                               on=_RUNS + ("emit-surface",), help="results root directory")
    run_id: str | None = _key(None, "output", STR, "--run-id", on=_RUNS,
                              help="run directory name")
    metric: str | None = _key(None, "experiment", STR, "--metric", on=("rate-study",),
                              choices=("L2", "C"))

    def validate(self) -> None:
        for h in self.h_list:
            _trapezoid_steps(h)
        for f in FIELDS:
            values = getattr(self, f.attr)
            for x in values if isinstance(values, tuple) else (values,):
                if f.within and x is not None and not _within(x, f.within):
                    raise ValueError(f"[{f.section}] {f.key}={x} must lie in {f.within}")
                if f.choices and x not in (None, *f.choices):
                    raise ValueError(f"[{f.section}] {f.key}={x} must be one of "
                                     + ", ".join(f.choices))
        trials = len(self.delta_list) * self.seeds
        if trials > MAX_TRIALS:
            raise ValueError(f"[noise] {len(self.delta_list)} deltas x {self.seeds} seeds = "
                             f"{trials} trials, over the limit of {MAX_TRIALS}")
        has_h = len(self.h_list) > 0
        if has_h == (len(self.delta_list) > 0):
            raise ValueError("[noise] give exactly one of deltas and hs")
        if has_h != (self.noise_mode == "trapezoid"):
            raise ValueError(f"[noise] mode={self.noise_mode} does not go with "
                             f"{'hs' if has_h else 'deltas'}: trapezoid goes with hs alone")
        if self.n_list and len(self.n_list) != len(self.delta_list or self.h_list):
            raise ValueError("n list length must match the delta/h list")
        if not self.n_list and (has_h or 0.0 in self.delta_list):  # choose_n reads a delta
            raise ValueError("[method] n=auto needs [noise] deltas, each > 0")
        _check_run_id(self.run_id)

    def to_ini(self, path) -> None:
        """Write every attribute that is set; None attributes are left out."""
        sections = {}
        for f in FIELDS:
            value = getattr(self, f.attr)
            text = "" if value is None else f.kind[1](value)
            if text:
                sections.setdefault(f.section, {})[f.key] = text
        cp = configparser.ConfigParser()
        cp.read_dict(sections)
        with open(str(path), "w") as fh:
            cp.write(fh)

    def apply_ini(self, path) -> "ExperimentConfig":
        cp = configparser.ConfigParser()
        try:
            if not cp.read(str(path)):
                raise ValueError(f"config file {path} not found or unreadable")
            texts = [(f, cp.get(f.section, f.key))
                     for f in FIELDS if cp.has_option(f.section, f.key)]
        except configparser.Error as exc:  # a file it refuses; its messages span lines
            raise ValueError(f"{path}: " + " ".join(str(exc).split())) from None
        declared = {(f.section, f.key) for f in FIELDS}
        for section in (cp.default_section, *cp.sections()):
            for key in cp[section]:  # each section's keys include [DEFAULT]'s, refused first
                if (section, key) not in declared:
                    raise ValueError(f"{path}: [{section}] {key} is not a config key")
            if section not in {s for s, _ in declared} | {cp.default_section}:
                raise ValueError(f"{path}: [{section}] is not a config section")
        settings = []
        for f, text in texts:
            parse, _, name = f.kind
            try:
                settings.append((f, parse(text)))
            except ValueError:  # a value continued over lines is shown on one
                text = " ".join(text.split())
                raise ValueError(f"{path}: [{f.section}] {f.key}={text} is not {name}") from None
        return self._with(settings)

    def _with(self, settings) -> "ExperimentConfig":
        """This config under one layer: the (field, value) settings of an INI file
        or of one command line. Its deltas or hs first replace the noise below, with
        mode trapezoid for hs and rescaled for a trapezoid mode under deltas. Then
        each value is set as given, so validate() refuses a layer that contradicts itself."""
        given = {f.attr: value for f, value in settings}
        if "delta_list" in given or "h_list" in given:
            mode = "trapezoid" if "h_list" in given else (
                "rescaled" if self.noise_mode == "trapezoid" else self.noise_mode)
            given = {"delta_list": (), "h_list": (), "noise_mode": mode, **given}
        return replace(self, **given)


FIELDS = tuple(SimpleNamespace(**{**f.metadata, "attr": f.name,
                                  "key": f.metadata["key"] or f.name})
               for f in fields(ExperimentConfig))

# Each command's defaults; --config overrides them and flags override both.
# rate-study leaves gamma to the metric, grid_degree to the function and
# run_id to "rate-<metric>", and has no noise_p: its noise is drawn in the
# class norm index p.
PRESETS = {
    "example1-random": dict(
        function="example1", delta_list=(1e-7, 1e-8, 1e-9), n_list=(16, 25, 28),
        run_id="example1-random"),
    "example1-trapezoid": dict(
        function="example1", noise_mode="trapezoid", h_list=(1e-4, 8e-5, 4e-5),
        n_list=(16, 22, 28), run_id="example1-trapezoid"),
    "example2": dict(
        function="example2", mu1=5.4, mu2=5.4, noise_mode="trapezoid",
        h_list=(8e-5, 2e-5, 8e-6), n_list=(19, 31, 43), run_id="example2"),
    "rate-study": dict(
        function="class", metric="L2", delta_list=(1e-5, 1e-6, 1e-7, 1e-8, 1e-9),
        base_seed=1000, noise_p=None, gamma=None, grid_degree=None),
}


@dataclass(frozen=True)
class ResultRow:
    kind: str  # "delta" or "h"
    value: float
    n: int
    gamma: float
    card: int
    error_l2: float
    error_c: float
    coeff_linf: float | None
    wall_time: float


@dataclass(frozen=True)
class ResultsTable:
    """Rows of one experiment table; CSV round-trips exactly."""

    rows: tuple

    _HEADER = "kind,value,n,gamma,card,error_l2,error_c,coeff_linf,wall_time"

    def save(self, path) -> None:
        _write_csv(path, self._HEADER, ("sfsfsffsf", [
            (r.kind, r.value, r.n, r.gamma, r.card, r.error_l2, r.error_c,
             "" if r.coeff_linf is None else _fmt_float(r.coeff_linf), r.wall_time)
            for r in self.rows]))

    @staticmethod
    def load(path) -> "ResultsTable":
        rows = []
        with open(str(path)) as fh:
            header = fh.readline().strip()
            if header != ResultsTable._HEADER:
                raise ValueError(f"unexpected table header in {path}")
            for line in fh:
                kind, value, n, gamma, card, el2, ec, gap, wt = line.rstrip("\n").split(",")
                rows.append(ResultRow(kind, float(value), int(n), float(gamma), int(card),
                                      float(el2), float(ec), float(gap) if gap else None,
                                      float(wt)))
        return ResultsTable(rows=tuple(rows))


def _resolve_root(explicit: str | None) -> str:
    return explicit or os.environ.get(_ENV_ROOT) or "results"


def _check_run_id(run_id: str | None) -> None:
    """Refuse a run id that does not name one directory under the results
    root: an empty one, ".", "..", or one holding a path separator."""
    if run_id == "":
        raise ValueError("[output] run_id must not be empty")
    if run_id is not None and (run_id in (".", "..") or os.sep in run_id
                               or (os.altsep and os.altsep in run_id)):
        raise ValueError(f"[output] run_id={run_id} must name one directory, "
                         f"not '.', '..' or a path")


def cmd_table(cfg: ExperimentConfig) -> ResultsTable:
    """Run one error table (PRESETS holds the paper's three) and write its
    run directory. A row without noise (an h row, or delta 0) has the
    errors of its noise-free truncation B and saves B; a noisy row has the medians
    over its seeds, scored as rate-study trials are, and saves seed 0's."""
    cfg.validate()
    fn = _FUNCTIONS[cfg.function](cfg)
    deg, values = cfg.grid_degree, cfg.delta_list or cfg.h_list
    crosses = _plan(SmoothnessParams(cfg.s, cfg.mu1, cfg.mu2, cfg.p), values, cfg.n_list,
                    cfg.r, cfg.c, cfg.gamma, cfg.metric, cfg.axis, deg)
    exact_grid = exact_coeffs(fn, deg, deg)
    scorer = ErrorEvaluator(fn.exact_deriv(cfg.r, cfg.axis), deg, deg)

    kind = "delta" if cfg.delta_list else "h"
    rows, derivs = [], []
    for i, (val, cross) in enumerate(zip(values, crosses)):
        start = time.perf_counter()
        grid, gap, noise = exact_grid, None, None
        if kind == "h":
            grid = trapezoid_coeffs(fn, deg, deg, val)
            gap = float(np.abs(grid.data - exact_grid.data).max())
        elif val != 0.0:
            noise = _noise(val, cfg.noise_p, cfg.noise_mode, cfg.base_seed, i)
        # an overflow in scoring reads as a non-finite error, refused here;
        # the forked workers inherit this state
        with np.errstate(over="ignore"):
            level = _Level(scorer, _Level.finite(grid.data, fn.id), cross, noise)
            errors = level.errors if noise is None else _forked_map([level.trials], cfg.seeds)[0]
        errors = _Level.finite(errors, fn.id, "error table")
        if noise is None:
            error_l2, error_c = errors
        else:
            error_l2, error_c = _median(errors[:, 0]), _median(errors[:, 1])
        derivs.append(level.approx() if noise is None else level.approx([0])[0])
        rows.append(ResultRow(kind=kind, value=float(val), n=cross.n, gamma=cross.gamma,
                              card=cross.cardinality, error_l2=error_l2, error_c=error_c,
                              coeff_linf=gap, wall_time=time.perf_counter() - start))
    table = ResultsTable(rows=tuple(rows))
    run_dir = _open_run(cfg)
    table.save(os.path.join(run_dir, "table.csv"))
    for i, deriv in enumerate(derivs):
        row_dir = os.path.join(run_dir, f"row_{i}")
        os.makedirs(row_dir, exist_ok=True)
        data = np.pad(deriv, [(0, deg + 1 - deriv.shape[0]), (0, deg + 1 - deriv.shape[1])])
        save_grid(CoeffGrid(data, provenance="derivative"), os.path.join(row_dir, "deriv.csv"))
    for r in table.rows:
        gap = "" if r.coeff_linf is None else f" coeff_linf={_fmt_float(r.coeff_linf)}"
        print(
            f"{r.kind}={_fmt_float(r.value)} n={r.n} gamma={_fmt_float(r.gamma)} card={r.card} "
            f"error_l2={_fmt_float(r.error_l2)} error_c={_fmt_float(r.error_c)}{gap}"
        )
    print(f"run written to {run_dir}")
    return table


def _open_run(cfg: ExperimentConfig) -> str:
    """Create the run directory and write the resolved config into it."""
    run_dir = os.path.join(_resolve_root(cfg.out_dir), cfg.run_id)
    os.makedirs(run_dir, exist_ok=True)
    cfg.to_ini(os.path.join(run_dir, "config.ini"))
    return run_dir


def _resolve_config(preset: str, args) -> ExperimentConfig:
    """PRESETS[preset], overridden by args.config, overridden by the flags."""
    cfg = ExperimentConfig(**PRESETS[preset])
    if args.config:
        cfg = cfg.apply_ini(args.config)
    return cfg._with((f, getattr(args, f.attr)) for f in FIELDS
                     if getattr(args, f.attr, None) is not None)


def cmd_rate_study(cfg: ExperimentConfig) -> RateStudyResult:
    """Run a noise-convergence study: n from choose_n for each delta (a
    given [method] n is refused), the cross shape from the metric unless
    gamma is set, and the function's own grid degree unless grid_degree
    is set. A given [noise] p is ignored and not written back, since the
    noise is drawn in the class norm index [experiment] p."""
    if cfg.h_list:  # before validate(), which asks a trapezoid run for an n list
        raise ValueError("rate-study needs [noise] deltas, not hs")
    if cfg.n_list:
        raise ValueError("rate-study takes n from choose_n, not [method] n")
    cfg = replace(cfg, noise_p=None,
                  run_id=f"rate-{cfg.metric}" if cfg.run_id is None else cfg.run_id)
    cfg.validate()
    result = rate_study(
        _FUNCTIONS[cfg.function](cfg), SmoothnessParams(cfg.s, cfg.mu1, cfg.mu2, cfg.p), cfg.r,
        cfg.metric, cfg.delta_list, cfg.seeds,
        c=cfg.c, gamma=cfg.gamma, axis=cfg.axis, noise_mode=cfg.noise_mode,
        base_seed=cfg.base_seed, grid_degree=cfg.grid_degree,
    )
    run_dir = _open_run(cfg)
    result.save(os.path.join(run_dir, "rate.csv"))
    for delta, err in zip(result.delta_list, result.errors):
        print(f"delta={_fmt_float(delta)} median_{cfg.metric}={_fmt_float(err)}")
    print(f"fitted_slope={_fmt_float(result.fitted_slope)} "
          f"theoretical_slope={_fmt_float(result.theoretical_slope)}")
    print(f"run written to {run_dir}")
    return result


def cmd_cross_card(gammas, r: int, ns, out: str | None = None,
                   run_id: str | None = None) -> list:
    """Cardinality growth tables with band-check verdicts."""
    # before any cross (~n ln n indices) is enumerated; the verdicts divide
    # by n ln n, 0 at n = 1, and by the cardinality, 0 when r exceeds a level
    _check_run_id(run_id)
    if not gammas or not ns:
        raise ValueError(f"--{'n' if gammas else 'gamma'} needs at least one value")
    for n in ns:
        if not 2 <= n <= MAX_GRID_DEGREE:
            raise ValueError(f"--n level {n} must lie in [2, {MAX_GRID_DEGREE}]")
    if not 1 <= r <= min(ns):
        raise ValueError(f"--r={r} must lie in [1, {min(ns)}], the smallest --n level")
    verdicts = []
    growths = [(g, cardinality_growth(g, r, ns)) for g in gammas]  # refuses before any write
    run_dir = os.path.join(_resolve_root(out), run_id or "cross-card")
    os.makedirs(run_dir, exist_ok=True)
    _write_csv(os.path.join(run_dir, "card.csv"), "gamma,n,card",
               ("fss", [(g, n, card) for g, growth in growths for n, card in growth]))
    for g, growth in growths:
        if len(growth) < 2:
            verdicts.append(f"gamma={g:g}: insufficient data")
            continue
        if g == 1.0:
            ratios = [card / (n * math.log(n)) for n, card in growth]
            label = "card ~ n ln n"
        else:
            ratios = [card / n for n, card in growth]
            label = "card ~ n"
        ok = max(ratios) / min(ratios) < 2.0
        verdicts.append(f"gamma={g:g}: {label}: {'PASS' if ok else 'FAIL'}")
    with open(os.path.join(run_dir, "verdicts.txt"), "w") as fh:
        fh.writelines(v + "\n" for v in verdicts)
    for v in verdicts:
        print(v)
    print(f"run written to {run_dir}")
    return verdicts


def cmd_emit_surface(run: str, function: str | None = None, grid_points: int = 101,
                     row: int = 0, out: str | None = None) -> str:
    """Emit t,tau,exact,approx samples for one row of a previous run."""
    if not 2 <= grid_points <= MAX_GRID_POINTS:
        raise ValueError(f"grid_points={grid_points} must lie in [2, {MAX_GRID_POINTS}]")
    run_dir = run if os.path.isdir(run) else os.path.join(_resolve_root(out), run)
    cfg_path = os.path.join(run_dir, "config.ini")
    if not os.path.isfile(cfg_path):
        raise ValueError(f"run {run!r} has no config.ini (looked in {run_dir})")
    cfg = ExperimentConfig().apply_ini(cfg_path)
    cfg.validate()
    if function is not None and function != cfg.function:
        raise ValueError(f"run {run!r} was produced with function {cfg.function!r}, "
                         f"not {function!r}")
    grid_path = os.path.join(run_dir, f"row_{row}", "deriv.csv")
    if not os.path.isfile(grid_path):
        raise ValueError(f"run {run!r} has no saved row {row}")
    grid = load_grid(grid_path)
    fn = _FUNCTIONS[cfg.function](cfg)
    exact_d = fn.exact_deriv(cfg.r, cfg.axis)
    t = np.linspace(-1.0, 1.0, grid_points)
    approx = synthesize(grid, t, t)
    exact = np.asarray(exact_d(t[:, None], t[None, :]), dtype=float)
    out_path = os.path.join(run_dir, "surface.csv")
    ts = t.tolist()
    _write_csv(out_path, "t,tau,exact,approx", ("ffff", _cells(ts, ts, exact, approx)))
    print(f"surface written to {out_path}")
    return out_path


class _Parser(argparse.ArgumentParser):
    """Flags match whole names only (argparse would read --r as --run-id),
    and a usage error is one line on stderr, exit 2."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _flag_type(kind):
    """kind's parse as an argparse type: a value it refuses is named with
    what it must be, as in an INI file."""
    parse, _, name = kind

    def convert(text):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text} is not {name}") from None
    return convert


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crossdiff",
        description="Stable recovery of partial derivatives from noisy "
        "Fourier-Legendre coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)  # subparsers are _Parser too
    cmds = {name: sub.add_parser(name, help=text) for name, text in (
        ("example1", "first corpus function's error table"),
        ("example2", "second corpus function's error table"),
        ("rate-study", "fit error decay versus noise level"),
        ("cross-card", "hyperbolic cross cardinality growth"),
        ("emit-surface", "sample exact vs approx surfaces"))}
    for name in TABLES + ("rate-study",):
        cmds[name].add_argument("--config", required=name == "rate-study",
                                help="INI file overriding the defaults")
    for f in FIELDS:
        for name in f.on if f.flag else ():
            cmds[name].add_argument(f.flag, dest=f.attr, type=_flag_type(f.kind),
                                    choices=f.choices, **f.arg)
    cmds["example1"].add_argument("--noise", choices=("random", "trapezoid"), default="random")

    cmds["cross-card"].add_argument("--gamma", required=True, help="comma-separated shapes",
                                    type=_flag_type(FLOATS))
    cmds["cross-card"].add_argument("--n", required=True, help="comma-separated levels",
                                    type=_flag_type(INTS))
    integer = _flag_type(INT)
    cmds["cross-card"].add_argument("--r", type=integer, default=1)

    ps = cmds["emit-surface"]
    ps.add_argument("--run", required=True, help="run id or run directory")
    ps.add_argument("--function", help="check the run used this function id")
    ps.add_argument("--grid-points", dest="grid_points", type=integer, default=101)
    ps.add_argument("--row", type=integer, default=0)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "rate-study":
            cmd_rate_study(_resolve_config("rate-study", args))
        elif args.command in TABLES:
            preset = "example1-" + args.noise if args.command == "example1" else "example2"
            cmd_table(_resolve_config(preset, args))
        elif args.command == "cross-card":
            cmd_cross_card(args.gamma, args.r, args.n, args.out_dir, args.run_id)
        elif args.command == "emit-surface":
            cmd_emit_surface(args.run, args.function, args.grid_points,
                             args.row, args.out_dir)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
