"""Golden digests: the example1 presets, example2, class-function (random
and trapezoid), forked and choose_n tables, rate studies of the class
function (two of them forked) and of example1, cross-card and emit-surface give the outputs recorded in
tests/golden/digests-<threads>.json at 1 and at 2 OpenBLAS threads (see
tests/record_golden.py, which records them and which no test runs). Every
number a table or rate study writes is rebuilt from the public functions."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from crossdiff import (
    NoiseSpec, SmoothnessParams, add_noise, build_cross, choose_gamma, choose_n, example1_F,
    example2_F, exact_coeffs, load_grid, make_class_function, theoretical_slope,
    trapezoid_coeffs, truncate,
)
from crossdiff.analysis import ErrorEvaluator
from crossdiff.cli import PRESETS, ExperimentConfig
from record_golden import RUNS, THREADS, _deviations, golden, run_all, summarize


# the flag form of table-auto's [method] n = auto
AUTO_FLAG = ["example1", "--n", "auto", "--seeds", "3"]


def _outputs(tmp_path_factory, runs, threads):
    root = tmp_path_factory.mktemp(f"golden-{threads}")
    stdout = run_all(root, runs, threads)
    return {name: {**summarize(root / name, stdout[name]), "dir": root / name}
            for name in runs}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _outputs(tmp_path_factory, {**RUNS, "table-auto-flag": AUTO_FLAG}, 2)


@pytest.fixture(scope="module")
def outputs_one_thread(tmp_path_factory):
    return _outputs(tmp_path_factory, RUNS, 1)


def assert_matches_the_record(got: dict, name: str, threads: int):
    record = json.loads(golden(threads).read_text())
    assert record["blas_threads"] == threads
    want = record["runs"][name]
    assert want["argv"] == RUNS[name]
    deviations = _deviations(got["columns"], want["columns"])
    assert got["sha256"] == want["sha256"], f"largest relative deviations: {deviations}"


@pytest.mark.parametrize("name", list(RUNS))
def test_outputs_match_the_golden_digests(outputs, name):
    assert_matches_the_record(outputs[name], name, 2)


@pytest.mark.parametrize("name", list(RUNS))
def test_one_thread_outputs_match_their_golden_digests(outputs_one_thread, name):
    assert_matches_the_record(outputs_one_thread[name], name, 1)


def test_n_auto_flag_writes_what_the_ini_key_writes(outputs):
    # every run file; stdout and config.ini name the run, which differs
    want = json.loads(golden(2).read_text())["runs"]["table-auto"]["sha256"]
    got = outputs["table-auto-flag"]["sha256"]
    assert got.keys() == want.keys()
    named = ("stdout", "config.ini")
    assert {k: v for k, v in got.items() if k not in named} == {
        k: v for k, v in want.items() if k not in named}


# the runs of a table or rate study, whose numbers are rebuilt below
REBUILT = [name for name, argv in RUNS.items() if argv[0] != "cross-card"]
FUNCTIONS = {"example1": lambda cfg: example1_F(), "example2": lambda cfg: example2_F(),
             "class": lambda cfg: make_class_function(cfg.s, cfg.mu1, cfg.mu2)}
# the OpenBLAS threads of this process, whose sums the rebuilt numbers take:
# OPENBLAS_NUM_THREADS, or else one per usable CPU
BLAS_THREADS = int(os.environ.get("OPENBLAS_NUM_THREADS") or (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()))


def public_rows(run_dir):
    """The levels of a run, from its config.ini and public functions alone:
    (value, cross, coeff_linf, the truncated grid of each seed, or the
    noise-free one, and their (L2, C) errors), the run's config and its
    smoothness class."""
    rate = (run_dir / "rate.csv").exists()
    # a rate study leaves gamma and the grid degree out of its config.ini
    cfg = ExperimentConfig(**PRESETS["rate-study"] if rate else {}).apply_ini(
        run_dir / "config.ini")
    fn = FUNCTIONS[cfg.function](cfg)
    sp = SmoothnessParams(cfg.s, cfg.mu1, cfg.mu2, cfg.p)
    along = sp if cfg.axis == "t" else replace(sp, mu1=sp.mu2, mu2=sp.mu1)
    values = cfg.delta_list or cfg.h_list
    ns = cfg.n_list or [choose_n(along, value, cfg.r, cfg.c) for value in values]
    gamma = choose_gamma(along, cfg.r, cfg.metric) if cfg.gamma is None else cfg.gamma
    # without one, a rate study takes the class function's own degree 128
    deg = cfg.grid_degree or (128 if cfg.function == "class" else 64)
    exact = exact_coeffs(fn, deg, deg)
    scorer = ErrorEvaluator(fn.exact_deriv(cfg.r, cfg.axis), deg, deg)
    p = sp.p if cfg.noise_p is None else cfg.noise_p  # a rate study draws in the class's p
    levels = []
    for i, (value, n) in enumerate(zip(values, ns)):
        cross = build_cross(n, gamma, cfg.r, cfg.axis)
        grid = trapezoid_coeffs(fn, deg, deg, value) if cfg.h_list else exact
        gap = float(np.abs(grid.data - exact.data).max()) if cfg.h_list else None
        grids = [grid] if cfg.h_list or value == 0 else [
            add_noise(grid, NoiseSpec(value, p, cfg.noise_mode, cfg.base_seed + 997 * i + sd))
            for sd in range(cfg.seeds)]
        approxes = [truncate(g, cross) for g in grids]
        levels.append((value, cross, gap, approxes,
                       [(scorer.l2(a), scorer.c(a)) for a in approxes]))
    return levels, cfg, sp


def public_rate_csv(levels, cfg, sp) -> dict:
    """rate.csv's columns: one row per trial, then the slope row."""
    rows = [(value, cross.n, cross.gamma, l2, c, cfg.base_seed + 997 * i + sd)
            for i, (value, cross, _, _, errors) in enumerate(levels)
            for sd, (l2, c) in enumerate(errors)]
    medians = [np.median([e[int(cfg.metric == "C")] for e in errors])
               for *_, errors in levels]
    fitted = float(np.polyfit(np.log(cfg.delta_list), np.log(medians), 1)[0])
    rows.append(("slope", None, None, fitted,
                 theoretical_slope(sp, cfg.r, cfg.metric, cfg.axis), None))
    return dict(zip(("delta", "n", "gamma", "error_l2", "error_c", "seed"), map(list, zip(*rows))))


def public_table_csv(levels, cfg) -> dict:
    """table.csv's columns less wall_time: a noisy row's medians over its seeds."""
    rows = [("h" if cfg.h_list else "delta", value, cross.n, cross.gamma, cross.cardinality,
             *(float(np.median(column)) for column in zip(*errors)), gap)
            for value, cross, gap, _, errors in levels]
    return dict(zip(("kind", "value", "n", "gamma", "card", "error_l2", "error_c",
                     "coeff_linf"), map(list, zip(*rows))))


@pytest.mark.parametrize("name", REBUILT)
def test_public_functions_rebuild_every_number_of_a_run(request, name):
    # a run's config.ini and the public path alone (exact_coeffs or
    # trapezoid_coeffs, add_noise at seed base + 997 i + sd, choose_n,
    # choose_gamma, build_cross, truncate, and one ErrorEvaluator's l2 and
    # c) give its rate.csv or table.csv (less wall_time) and every row's
    # deriv.csv, bit for bit, at this process's BLAS thread count
    records = [json.loads(golden(t).read_text())["runs"][name]["sha256"] for t in THREADS]
    if BLAS_THREADS not in THREADS and records[0] != records[1]:
        pytest.skip(f"{name} sums in an order of the BLAS thread count, recorded at "
                    f"{THREADS} only, not at {BLAS_THREADS}")
    got = request.getfixturevalue("outputs_one_thread" if BLAS_THREADS == 1 else "outputs")
    run_dir, columns = got[name]["dir"], got[name]["columns"]
    levels, cfg, sp = public_rows(run_dir)
    path, want = (("rate.csv", public_rate_csv(levels, cfg, sp)) if "rate.csv" in columns
                  else ("table.csv", public_table_csv(levels, cfg)))
    assert columns[path] == want, {column: deviation for column, deviation in _deviations(
        {path: want}, {path: columns[path]}).items() if deviation != 0.0}
    for i, (*_, approxes, _) in enumerate(levels if path == "table.csv" else ()):
        saved = load_grid(run_dir / f"row_{i}" / "deriv.csv")
        assert saved.data.tobytes() == approxes[0].data.tobytes(), i
