"""Experiment runner: error tables, rate studies, cardinality checks,
surface data emission.

Every command writes into one directory per run id under a results root
(--out flag, config [output] dir, the CROSSDIFF_RESULTS environment
variable, or ./results, in that order of precedence). A run directory
holds the effective config (config.ini), the results table (table.csv),
and the reconstructed derivative grid of each table row (row_<i>/deriv.csv
with sidecar). Output is deterministic for a fixed config and seed except
for the wall_time column. All numbers are written with 17 significant
digits.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (  # noqa: F401  (l2_error, c_error stay importable from cli)
    ErrorEvaluator,
    RateStudyResult,
    c_error,
    example1_F,
    example2_F,
    l2_error,
    make_class_function,
    rate_study,
)
from .coeffs import NoiseSpec, add_noise, exact_coeffs, save_grid, load_grid, trapezoid_coeffs
from .legendre import iterate_derivative, mueller_first_derivative, synthesize
from .truncation import (
    MethodParams,
    SmoothnessParams,
    build_cross,
    cardinality_growth,
    choose_n,
    truncate,
)

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "ResultsTable",
    "cmd_example1",
    "cmd_example2",
    "cmd_rate_study",
    "cmd_cross_card",
    "cmd_emit_surface",
    "main",
]

_ENV_ROOT = "CROSSDIFF_RESULTS"


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _fmt_list(xs) -> str:
    return ",".join(_fmt(x) for x in xs)


def _parse_floats(text: str) -> tuple:
    return tuple(float(x) for x in text.replace(",", " ").split())


def _parse_ints(text: str) -> tuple:
    return tuple(int(x) for x in text.replace(",", " ").split())


@dataclass
class ExperimentConfig:
    """Everything one table run depends on.

    Exactly one of delta_list (with a random noise_mode) and h_list (with
    noise_mode "trapezoid") must be set. Empty n_list means choose_n with
    constant c; delta entries of 0 request the noise-free path.
    """

    function: str = "example1"
    r: int = 2
    axis: str = "t"
    s: float = 2.0
    mu1: float = 5.6
    mu2: float = 5.6
    p: float = 2.0
    noise_mode: str = "rescaled"
    noise_p: float = math.inf
    delta_list: tuple = ()
    h_list: tuple = ()
    seeds: int = 5
    base_seed: int = 2025
    n_list: tuple = ()
    c: float = 0.9
    gamma: float = 1.0
    grid_degree: int = 64
    out_dir: str | None = None
    run_id: str | None = None

    def validate(self) -> None:
        has_delta = len(self.delta_list) > 0
        has_h = len(self.h_list) > 0
        if has_delta == has_h:
            raise ValueError("exactly one of delta list / h list must be set")
        if has_h and self.noise_mode != "trapezoid":
            raise ValueError("h list requires noise_mode = trapezoid")
        if has_delta and self.noise_mode not in ("rescaled", "raw_gaussian"):
            raise ValueError(f"unknown noise mode {self.noise_mode!r}")
        values = self.delta_list or self.h_list
        if self.n_list and len(self.n_list) != len(values):
            raise ValueError("n list length must match the delta/h list")
        if not self.n_list and has_h:
            raise ValueError("trapezoid runs need an explicit n list")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if not (self.noise_p >= 1.0 or math.isinf(self.noise_p)):
            raise ValueError(f"noise norm index p={self.noise_p} must lie in [1, inf]")
        if self.gamma < 1.0:
            raise ValueError(f"cross shape gamma={self.gamma} must be >= 1")
        # reuse the class validation for s, mu, p
        SmoothnessParams(self.s, self.mu1, self.mu2, self.p, 0.5)
        _get_function(self)

    def to_ini(self, path) -> None:
        cp = configparser.ConfigParser()
        cp["experiment"] = {
            "function": self.function,
            "r": str(self.r),
            "axis": self.axis,
            "s": _fmt(self.s),
            "mu1": _fmt(self.mu1),
            "mu2": _fmt(self.mu2),
            "p": _fmt(self.p),
        }
        noise = {"mode": self.noise_mode}
        if self.delta_list:
            noise["deltas"] = _fmt_list(self.delta_list)
            noise["p"] = _fmt(self.noise_p)
            noise["seeds"] = str(self.seeds)
            noise["base_seed"] = str(self.base_seed)
        else:
            noise["hs"] = _fmt_list(self.h_list)
        cp["noise"] = noise
        cp["method"] = {
            "n": ",".join(str(n) for n in self.n_list) if self.n_list else "auto",
            "c": _fmt(self.c),
            "gamma": _fmt(self.gamma),
            "grid_degree": str(self.grid_degree),
        }
        out = {}
        if self.out_dir is not None:
            out["dir"] = self.out_dir
        if self.run_id is not None:
            out["run_id"] = self.run_id
        cp["output"] = out
        with open(str(path), "w") as fh:
            cp.write(fh)

    def apply_ini(self, path) -> "ExperimentConfig":
        cp = configparser.ConfigParser()
        if not cp.read(str(path)):
            raise ValueError(f"config file {path} not found or unreadable")
        cfg = self
        exp = cp["experiment"] if cp.has_section("experiment") else {}
        for key in ("function", "axis"):
            if key in exp:
                cfg = replace(cfg, **{key: exp[key]})
        if "r" in exp:
            cfg = replace(cfg, r=int(exp["r"]))
        for key in ("s", "mu1", "mu2", "p"):
            if key in exp:
                cfg = replace(cfg, **{key: float(exp[key])})
        noi = cp["noise"] if cp.has_section("noise") else {}
        if "mode" in noi:
            cfg = replace(cfg, noise_mode=noi["mode"])
        if "deltas" in noi:
            cfg = replace(cfg, delta_list=_parse_floats(noi["deltas"]), h_list=())
        if "hs" in noi:
            cfg = replace(cfg, h_list=_parse_floats(noi["hs"]), delta_list=())
        if "p" in noi:
            cfg = replace(cfg, noise_p=float(noi["p"]))
        if "seeds" in noi:
            cfg = replace(cfg, seeds=int(noi["seeds"]))
        if "base_seed" in noi:
            cfg = replace(cfg, base_seed=int(noi["base_seed"]))
        met = cp["method"] if cp.has_section("method") else {}
        if "n" in met:
            val = met["n"].strip()
            cfg = replace(cfg, n_list=() if val == "auto" else _parse_ints(val))
        if "c" in met:
            cfg = replace(cfg, c=float(met["c"]))
        if "gamma" in met:
            cfg = replace(cfg, gamma=float(met["gamma"]))
        if "grid_degree" in met:
            cfg = replace(cfg, grid_degree=int(met["grid_degree"]))
        outp = cp["output"] if cp.has_section("output") else {}
        if "dir" in outp:
            cfg = replace(cfg, out_dir=outp["dir"])
        if "run_id" in outp:
            cfg = replace(cfg, run_id=outp["run_id"])
        return cfg


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
        with open(str(path), "w") as fh:
            fh.write(self._HEADER + "\n")
            for r in self.rows:
                gap = "" if r.coeff_linf is None else _fmt(r.coeff_linf)
                fh.write(
                    f"{r.kind},{_fmt(r.value)},{r.n},{_fmt(r.gamma)},{r.card},"
                    f"{_fmt(r.error_l2)},{_fmt(r.error_c)},{gap},{_fmt(r.wall_time)}\n"
                )

    @staticmethod
    def load(path) -> "ResultsTable":
        rows = []
        with open(str(path)) as fh:
            header = fh.readline().strip()
            if header != ResultsTable._HEADER:
                raise ValueError(f"unexpected table header in {path}")
            for line in fh:
                kind, value, n, gamma, card, el2, ec, gap, wt = line.rstrip("\n").split(",")
                rows.append(
                    ResultRow(
                        kind=kind,
                        value=float(value),
                        n=int(n),
                        gamma=float(gamma),
                        card=int(card),
                        error_l2=float(el2),
                        error_c=float(ec),
                        coeff_linf=float(gap) if gap else None,
                        wall_time=float(wt),
                    )
                )
        return ResultsTable(rows=tuple(rows))


def _get_function(cfg: ExperimentConfig):
    if cfg.function == "example1":
        return example1_F()
    if cfg.function == "example2":
        return example2_F()
    if cfg.function == "class":
        return make_class_function(s=cfg.s, mu1=cfg.mu1, mu2=cfg.mu2)
    raise ValueError(
        f"unknown function id {cfg.function!r} (known: example1, example2, class)"
    )


def _resolve_root(explicit: str | None) -> str:
    return explicit or os.environ.get(_ENV_ROOT) or "results"


def _run_table(cfg: ExperimentConfig):
    """Shared table runner; returns (ResultsTable, [derivative grids])."""
    cfg.validate()
    fn = _get_function(cfg)
    deg = cfg.grid_degree
    exact_grid = exact_coeffs(fn, deg, deg, deg + 64)
    op = iterate_derivative(mueller_first_derivative(deg), cfg.r)
    scorer = ErrorEvaluator(fn.exact_deriv(cfg.r, cfg.axis), deg, deg, deg + 40,
                            fn.breakpoints_t, fn.breakpoints_tau)

    kind = "delta" if cfg.delta_list else "h"
    values = cfg.delta_list or cfg.h_list
    rows, grids = [], []
    for i, val in enumerate(values):
        start = time.perf_counter()
        if cfg.n_list:
            n = cfg.n_list[i]
        else:
            sp = SmoothnessParams(cfg.s, cfg.mu1, cfg.mu2, cfg.p, val)
            n = choose_n(sp, cfg.r, cfg.c)
        params = MethodParams(n=n, gamma=cfg.gamma, r=cfg.r, axis=cfg.axis)
        card = build_cross(n, cfg.gamma, cfg.r, cfg.axis).cardinality
        gap = None
        if kind == "h":
            trap = trapezoid_coeffs(fn, deg, deg, val)
            gap = float(np.abs(trap.data - exact_grid.data).max())
            approx = truncate(trap, params, op)
            el2, ec = scorer.l2(approx), scorer.c(approx)
        elif val == 0.0:
            approx = truncate(exact_grid, params, op)
            el2, ec = scorer.l2(approx), scorer.c(approx)
        else:
            l2s, cs = [], []
            approx = None
            for sd in range(cfg.seeds):
                spec = NoiseSpec(val, cfg.noise_p, cfg.noise_mode,
                                 cfg.base_seed + 997 * i + sd)
                trial = truncate(add_noise(exact_grid, spec), params, op)
                if approx is None:
                    approx = trial
                l2s.append(scorer.l2(trial))
                cs.append(scorer.c(trial))
            el2 = float(np.median(l2s))
            ec = float(np.median(cs))
        rows.append(
            ResultRow(
                kind=kind,
                value=float(val),
                n=n,
                gamma=cfg.gamma,
                card=card,
                error_l2=el2,
                error_c=ec,
                coeff_linf=gap,
                wall_time=time.perf_counter() - start,
            )
        )
        grids.append(approx)
    return ResultsTable(rows=tuple(rows)), grids


def _write_run(cfg: ExperimentConfig, table: ResultsTable, grids) -> str:
    root = _resolve_root(cfg.out_dir)
    run_dir = os.path.join(root, cfg.run_id)
    os.makedirs(run_dir, exist_ok=True)
    cfg.to_ini(os.path.join(run_dir, "config.ini"))
    table.save(os.path.join(run_dir, "table.csv"))
    for i, grid in enumerate(grids):
        row_dir = os.path.join(run_dir, f"row_{i}")
        os.makedirs(row_dir, exist_ok=True)
        save_grid(grid, os.path.join(row_dir, "deriv.csv"))
    return run_dir


def _print_table(table: ResultsTable) -> None:
    for r in table.rows:
        gap = "" if r.coeff_linf is None else f" coeff_linf={_fmt(r.coeff_linf)}"
        print(
            f"{r.kind}={_fmt(r.value)} n={r.n} gamma={_fmt(r.gamma)} card={r.card} "
            f"error_l2={_fmt(r.error_l2)} error_c={_fmt(r.error_c)}{gap}"
        )


def _example_config(which: str, noise: str) -> ExperimentConfig:
    if which == "example1" and noise == "random":
        return ExperimentConfig(
            function="example1",
            delta_list=(1e-7, 1e-8, 1e-9),
            n_list=(16, 25, 28),
            run_id="example1-random",
        )
    if which == "example1":
        return ExperimentConfig(
            function="example1",
            noise_mode="trapezoid",
            h_list=(1e-4, 8e-5, 4e-5),
            n_list=(16, 22, 28),
            run_id="example1-trapezoid",
        )
    return ExperimentConfig(
        function="example2",
        mu1=5.4,
        mu2=5.4,
        noise_mode="trapezoid",
        h_list=(8e-5, 2e-5, 8e-6),
        n_list=(19, 31, 43),
        run_id="example2",
    )


def _apply_flag_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = cfg.apply_ini(args.config)
    if getattr(args, "delta", None):
        cfg = replace(cfg, delta_list=_parse_floats(args.delta), h_list=(),
                      noise_mode=cfg.noise_mode if cfg.noise_mode != "trapezoid" else "rescaled")
    if getattr(args, "h", None):
        cfg = replace(cfg, h_list=_parse_floats(args.h), delta_list=(), noise_mode="trapezoid")
    if getattr(args, "n", None):
        cfg = replace(cfg, n_list=_parse_ints(args.n))
    if getattr(args, "choose_n", False):
        cfg = replace(cfg, n_list=())
    if getattr(args, "noise_p", None) is not None:
        cfg = replace(cfg, noise_p=args.noise_p)
    if getattr(args, "gamma", None) is not None:
        cfg = replace(cfg, gamma=args.gamma)
    if getattr(args, "c", None) is not None:
        cfg = replace(cfg, c=args.c)
    if getattr(args, "seeds", None) is not None:
        cfg = replace(cfg, seeds=args.seeds)
    if getattr(args, "base_seed", None) is not None:
        cfg = replace(cfg, base_seed=args.base_seed)
    if getattr(args, "grid_degree", None) is not None:
        cfg = replace(cfg, grid_degree=args.grid_degree)
    if getattr(args, "out", None):
        cfg = replace(cfg, out_dir=args.out)
    if getattr(args, "run_id", None):
        cfg = replace(cfg, run_id=args.run_id)
    return cfg


def cmd_example1(noise: str = "random", overrides=None) -> ResultsTable:
    """Run the first corpus function's table; overrides is an argparse
    namespace or None."""
    cfg = _example_config("example1", noise)
    if overrides is not None:
        cfg = _apply_flag_overrides(cfg, overrides)
    table, grids = _run_table(cfg)
    run_dir = _write_run(cfg, table, grids)
    _print_table(table)
    print(f"run written to {run_dir}")
    return table


def cmd_example2(overrides=None) -> ResultsTable:
    cfg = _example_config("example2", "trapezoid")
    if overrides is not None:
        cfg = _apply_flag_overrides(cfg, overrides)
    table, grids = _run_table(cfg)
    run_dir = _write_run(cfg, table, grids)
    _print_table(table)
    print(f"run written to {run_dir}")
    return table


def cmd_rate_study(config_path: str, metric: str | None = None,
                   out: str | None = None, run_id: str | None = None) -> RateStudyResult:
    """Run a noise-convergence study from an INI config."""
    cp = configparser.ConfigParser()
    if not cp.read(str(config_path)):
        raise ValueError(f"config file {config_path} not found or unreadable")
    exp = cp["experiment"] if cp.has_section("experiment") else {}
    function = exp.get("function", "class")
    met = metric or exp.get("metric", "L2")
    r = int(exp.get("r", "2"))
    axis = exp.get("axis", "t")
    s = float(exp.get("s", "2"))
    mu1 = float(exp.get("mu1", "5.6"))
    mu2 = float(exp.get("mu2", "5.6"))
    p = float(exp.get("p", "2"))
    noi = cp["noise"] if cp.has_section("noise") else {}
    deltas = _parse_floats(noi.get("deltas", "1e-5,1e-6,1e-7,1e-8,1e-9"))
    mode = noi.get("mode", "rescaled")
    seeds = int(noi.get("seeds", "5"))
    base_seed = int(noi.get("base_seed", "1000"))
    meth = cp["method"] if cp.has_section("method") else {}
    c = float(meth.get("c", "0.9"))
    gamma = float(meth["gamma"]) if "gamma" in meth else None
    grid_degree = int(meth["grid_degree"]) if "grid_degree" in meth else None
    outp = cp["output"] if cp.has_section("output") else {}
    out = out or outp.get("dir")
    run_id = run_id or outp.get("run_id") or f"rate-{met}"

    sp = SmoothnessParams(s=s, mu1=mu1, mu2=mu2, p=p, delta=min(deltas))
    cfg_fn = ExperimentConfig(function=function, s=s, mu1=mu1, mu2=mu2, p=p)
    fn = _get_function(cfg_fn)
    result = rate_study(
        fn, sp, r, met, deltas, seeds,
        c=c, gamma=gamma, axis=axis, noise_mode=mode,
        base_seed=base_seed, grid_degree=grid_degree,
    )
    run_dir = os.path.join(_resolve_root(out), run_id)
    os.makedirs(run_dir, exist_ok=True)
    result.save(os.path.join(run_dir, "rate.csv"))
    with open(os.path.join(run_dir, "config.ini"), "w") as fh:
        cp.write(fh)
    for delta, err in zip(result.delta_list, result.errors):
        print(f"delta={_fmt(delta)} median_{met}={_fmt(err)}")
    print(
        f"fitted_slope={_fmt(result.fitted_slope)} "
        f"theoretical_slope={_fmt(result.theoretical_slope)}"
    )
    print(f"run written to {run_dir}")
    return result


def cmd_cross_card(gammas, r: int, ns, out: str | None = None,
                   run_id: str | None = None) -> list:
    """Cardinality growth tables with band-check verdicts."""
    verdicts = []
    run_dir = os.path.join(_resolve_root(out), run_id or "cross-card")
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "card.csv"), "w") as fh:
        fh.write("gamma,n,card\n")
        for g in gammas:
            growth = cardinality_growth(g, r, ns)
            for n, card in growth:
                fh.write(f"{_fmt(g)},{n},{card}\n")
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
        for v in verdicts:
            fh.write(v + "\n")
    for v in verdicts:
        print(v)
    print(f"run written to {run_dir}")
    return verdicts


def cmd_emit_surface(run: str, function: str | None = None, grid_points: int = 101,
                     row: int = 0, out: str | None = None) -> str:
    """Emit t,tau,exact,approx samples for one row of a previous run."""
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    run_dir = run if os.path.isdir(run) else os.path.join(_resolve_root(out), run)
    cfg_path = os.path.join(run_dir, "config.ini")
    if not os.path.isfile(cfg_path):
        raise ValueError(f"run {run!r} not found (no config.ini in {run_dir})")
    cfg = ExperimentConfig().apply_ini(cfg_path)
    if function is not None and function != cfg.function:
        raise ValueError(
            f"run {run!r} was produced with function {cfg.function!r}, not {function!r}"
        )
    grid_path = os.path.join(run_dir, f"row_{row}", "deriv.csv")
    if not os.path.isfile(grid_path):
        raise ValueError(f"run {run!r} has no saved row {row}")
    grid = load_grid(grid_path)
    fn = _get_function(cfg)
    exact_d = fn.exact_deriv(cfg.r, cfg.axis)
    t = np.linspace(-1.0, 1.0, grid_points)
    approx = synthesize(grid, t, t)
    exact = np.asarray(exact_d(t[:, None], t[None, :]), dtype=float)
    out_path = os.path.join(run_dir, "surface.csv")
    with open(out_path, "w") as fh:
        fh.write("t,tau,exact,approx\n")
        for i in range(grid_points):
            for j in range(grid_points):
                fh.write(
                    f"{_fmt(t[i])},{_fmt(t[j])},"
                    f"{_fmt(exact[i, j])},{_fmt(approx[i, j])}\n"
                )
    print(f"surface written to {out_path}")
    return out_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossdiff",
        description="Stable recovery of partial derivatives from noisy "
        "Fourier-Legendre coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_table_flags(sp):
        sp.add_argument("--config", help="INI file overriding the defaults")
        sp.add_argument("--n", help="comma-separated truncation levels")
        sp.add_argument("--gamma", type=float, help="cross shape parameter")
        sp.add_argument("--h", help="comma-separated trapezoid steps")
        sp.add_argument("--seeds", type=int, help="noise realizations per row")
        sp.add_argument("--base-seed", dest="base_seed", type=int)
        sp.add_argument("--grid-degree", dest="grid_degree", type=int)
        sp.add_argument("--choose-n", dest="choose_n", action="store_true",
                        help="pick n from the noise level instead of the defaults")
        sp.add_argument("--c", type=float, help="choose_n calibration constant")
        sp.add_argument("--out", help="results root directory")
        sp.add_argument("--run-id", dest="run_id", help="run directory name")

    p1 = sub.add_parser("example1", help="first corpus function's error table")
    p1.add_argument("--noise", choices=("random", "trapezoid"), default="random")
    p1.add_argument("--delta", help="comma-separated noise levels (0 = noise-free)")
    p1.add_argument("--noise-p", dest="noise_p", type=float,
                    help="norm index for noise rescaling (default inf)")
    add_table_flags(p1)

    p2 = sub.add_parser("example2", help="second corpus function's error table")
    add_table_flags(p2)

    pr = sub.add_parser("rate-study", help="fit error decay versus noise level")
    pr.add_argument("--config", required=True)
    pr.add_argument("--metric", choices=("L2", "C"))
    pr.add_argument("--out")
    pr.add_argument("--run-id", dest="run_id")

    pc = sub.add_parser("cross-card", help="hyperbolic cross cardinality growth")
    pc.add_argument("--gamma", required=True, help="comma-separated shapes")
    pc.add_argument("--n", required=True, help="comma-separated levels")
    pc.add_argument("--r", type=int, default=1)
    pc.add_argument("--out")
    pc.add_argument("--run-id", dest="run_id")

    ps = sub.add_parser("emit-surface", help="sample exact vs approx surfaces")
    ps.add_argument("--run", required=True, help="run id or run directory")
    ps.add_argument("--function", help="check the run used this function id")
    ps.add_argument("--grid-points", dest="grid_points", type=int, default=101)
    ps.add_argument("--row", type=int, default=0)
    ps.add_argument("--out", help="results root the run id is resolved against")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "example1":
            cmd_example1(args.noise, args)
        elif args.command == "example2":
            cmd_example2(args)
        elif args.command == "rate-study":
            cmd_rate_study(args.config, args.metric, args.out, args.run_id)
        elif args.command == "cross-card":
            cmd_cross_card(_parse_floats(args.gamma), args.r, _parse_ints(args.n),
                           args.out, args.run_id)
        elif args.command == "emit-surface":
            cmd_emit_surface(args.run, args.function, args.grid_points,
                             args.row, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
