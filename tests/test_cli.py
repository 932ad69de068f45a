"""Command-line interface: table runs, configs, run directories, surfaces."""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import crossdiff
from crossdiff import analysis, cli, coeffs, truncation
from crossdiff.analysis import example1_F
from crossdiff.cli import FIELDS, PRESETS, ExperimentConfig, ResultRow, ResultsTable, main
from crossdiff.coeffs import exact_coeffs, load_grid
from crossdiff.legendre import synthesize
from crossdiff.truncation import build_cross


def run_cli(*args):
    return main([str(a) for a in args])


def read_table(root, run_id):
    return ResultsTable.load(os.path.join(str(root), run_id, "table.csv"))


def test_example1_random_small(tmp_path, capsys):
    rc = run_cli("example1", "--grid-degree", 32, "--seeds", 2,
                 "--out", tmp_path, "--run-id", "e1")
    assert rc == 0
    table = read_table(tmp_path, "e1")
    assert len(table.rows) == 3
    assert [r.n for r in table.rows] == [16, 25, 28]
    for r in table.rows:
        assert r.kind == "delta"
        assert r.card == build_cross(r.n, r.gamma, 2).cardinality
        assert r.error_l2 > 0 and r.error_c > 0
        assert r.coeff_linf is None
    out = capsys.readouterr().out
    assert " n=16 " in out and " n=28 " in out
    assert "run written to" in out


def test_example1_is_deterministic(tmp_path):
    args = ("example1", "--grid-degree", 32, "--seeds", 2, "--out", tmp_path)
    assert run_cli(*args, "--run-id", "a") == 0
    assert run_cli(*args, "--run-id", "b") == 0
    ta = read_table(tmp_path, "a")
    tb = read_table(tmp_path, "b")
    for ra, rb in zip(ta.rows, tb.rows):
        assert (ra.value, ra.n, ra.gamma, ra.card) == (rb.value, rb.n, rb.gamma, rb.card)
        assert ra.error_l2 == rb.error_l2
        assert ra.error_c == rb.error_c
    ga = (tmp_path / "a" / "row_0" / "deriv.csv").read_bytes()
    gb = (tmp_path / "b" / "row_0" / "deriv.csv").read_bytes()
    assert ga == gb


def test_example1_noise_free_beats_noisy(tmp_path):
    rc = run_cli("example1", "--delta", "0,1e-9", "--n", "28,28",
                 "--grid-degree", 32, "--seeds", 2,
                 "--out", tmp_path, "--run-id", "nf")
    assert rc == 0
    rows = read_table(tmp_path, "nf").rows
    assert rows[0].value == 0.0
    assert rows[0].error_l2 < rows[1].error_l2


def test_example1_trapezoid_coarse(tmp_path):
    rc = run_cli("example1", "--noise", "trapezoid", "--h", "0.004,0.002",
                 "--n", "8,10", "--grid-degree", 16,
                 "--out", tmp_path, "--run-id", "trap")
    assert rc == 0
    rows = read_table(tmp_path, "trap").rows
    assert [r.kind for r in rows] == ["h", "h"]
    for r in rows:
        assert r.coeff_linf is not None and r.coeff_linf > 0


def test_invalid_trapezoid_step_is_reported(tmp_path, capsys):
    rc = run_cli("example1", "--noise", "trapezoid", "--h", "0.0003",
                 "--n", "8", "--grid-degree", 8,
                 "--out", tmp_path, "--run-id", "bad")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_non_finite_trapezoid_step_is_reported(tmp_path, capsys):
    for h in ("nan", "inf"):
        rc = run_cli("example1", "--noise", "trapezoid", "--h", h,
                     "--n", "28", "--out", tmp_path, "--run-id", "bad-" + h)
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: trapezoid step h={h} must lie in (0, 1]\n"


def test_oversized_trapezoid_step_is_reported(tmp_path, capsys, monkeypatch):
    tabulate = coeffs._phi_table

    def small_tables_only(max_degree, size, nodes):
        assert size < 10 ** 6, "the refused table was tabulated"
        return tabulate(max_degree, size, nodes)

    monkeypatch.setattr(coeffs, "_phi_table", small_tables_only)
    rc = run_cli("example1", "--noise", "trapezoid", "--h", "1e-7",
                 "--n", "28", "--out", tmp_path, "--run-id", "huge")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: trapezoid basis table for degree 64 at h=1e-07 needs")
    assert err.count("\n") == 1


def test_rate_study_rejects_bad_class(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[experiment]\nfunction = class\ns = 0.5\n")
    rc = run_cli("rate-study", "--config", cfg, "--out", tmp_path)
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_rate_study_honours_grid_degree_of_a_series_function(tmp_path, capsys):
    # the class function's degree-128 series is cut to grid_degree, as in an
    # error table; choose_n's levels lie within it
    cfg = tmp_path / "deg.ini"
    cfg.write_text("[experiment]\nfunction = class\n\n[method]\ngrid_degree = 64\n\n"
                   "[noise]\ndeltas = 1e-5,1e-7,1e-9\nseeds = 2\n")
    assert run_cli("rate-study", "--config", cfg, "--out", tmp_path, "--run-id", "deg") == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "deg" / "rate.csv").read_text().splitlines()[1:-1]
    assert [int(line.split(",")[1]) for line in lines] == [7, 7, 16, 16, 36, 36]
    assert all(math.isfinite(float(x)) for line in lines for x in line.split(",")[3:5])
    assert "grid_degree = 64" in (tmp_path / "deg" / "config.ini").read_text()


def test_rate_study_ignores_and_omits_noise_p(tmp_path):
    # the noise is drawn in [experiment] p, so [noise] p has no effect; a
    # config written with it (as every rate config.ini once was) still runs
    rates = {}
    for name, extra in (("none", ""), ("two", "p = 2\n"), ("inf", "p = inf\n")):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text("[experiment]\nfunction = class\n\n"
                       f"[noise]\n{extra}deltas = 1e-5,1e-7,1e-9\nseeds = 2\n")
        assert run_cli("rate-study", "--config", cfg, "--out", tmp_path, "--run-id", name) == 0
        rates[name] = (tmp_path / name / "rate.csv").read_bytes()
        written = (tmp_path / name / "config.ini").read_text()
        assert "[noise]\nmode = rescaled\ndeltas = " in written
        assert "\np = " not in written.split("[noise]")[1]
    assert rates["none"] == rates["two"] == rates["inf"]
    assert ExperimentConfig(**PRESETS["rate-study"]).noise_p is None


def test_rate_study_refuses_a_given_n(tmp_path, capsys):
    # n comes from choose_n; a given n would run unused yet land in config.ini
    cfg = tmp_path / "n.ini"
    cfg.write_text("[experiment]\nfunction = class\n\n[method]\nn = 3,3,3,3,3\n")
    assert run_cli("rate-study", "--config", cfg, "--out", tmp_path) == 2
    assert capsys.readouterr().err == (
        "error: rate-study takes n from choose_n, not [method] n\n")
    assert os.listdir(tmp_path) == ["n.ini"]


@pytest.mark.parametrize("method", ["", "\n[method]\nn = 8\n"], ids=["hs", "hs-and-n"])
def test_rate_study_refuses_trapezoid_steps(tmp_path, capsys, method):
    # the steps are named first, whatever else the file asks
    cfg = tmp_path / "hs.ini"
    cfg.write_text("[experiment]\nfunction = class\n\n[noise]\nhs = 0.01\n" + method)
    assert run_cli("rate-study", "--config", cfg, "--out", tmp_path) == 2
    assert capsys.readouterr().err == "error: rate-study needs [noise] deltas, not hs\n"
    assert os.listdir(tmp_path) == ["hs.ini"]


def test_rate_study_class_function_with_large_weights_is_finite(tmp_path):
    # s * (mu1 + mu2) = 400 used to overflow the class norm into NaN errors
    cfg = tmp_path / "heavy.ini"
    cfg.write_text("[experiment]\nfunction = class\ns = 10\nmu1 = 20\nmu2 = 20\n\n"
                   "[noise]\nseeds = 1\n")
    assert run_cli("rate-study", "--config", cfg, "--out", tmp_path, "--run-id", "heavy") == 0
    lines = (tmp_path / "heavy" / "rate.csv").read_text().strip().splitlines()
    values = [float(x) for line in lines[1:] for x in line.split(",")[3:5]]
    assert all(math.isfinite(v) for v in values)


def test_a_class_too_rough_along_tau_is_refused_by_its_tau_weight(tmp_path, capsys):
    # mu2 = 3 weighs tau, the axis differentiated, and is too small for r = 2
    cfg = tmp_path / "rough.ini"
    cfg.write_text("[experiment]\nfunction = class\nmu1 = 8\nmu2 = 3\naxis = tau\n")
    assert run_cli("rate-study", "--config", cfg, "--out", tmp_path) == 2
    assert capsys.readouterr().err == (
        "error: smoothness 3 of the differentiated axis (mu1 along t, mu2 along tau) "
        "too small for order r=2: need more than 4\n")
    assert os.listdir(tmp_path) == ["rough.ini"]


@pytest.mark.parametrize("command, ini, flags, message", [
    ("example1", None, [], "config file missing.ini not found or unreadable"),
    ("example1", "[noise]\nmode = foo\n", [], "unknown noise mode 'foo'"),
    ("rate-study", "[experiment]\nmetric = X\n", [], "metric must be 'L2' or 'C', got 'X'"),
    ("rate-study", "[experiment]\nfunction = class\nmu1 = 4.5\nmu2 = 4.5\n", ["--metric", "C"],
     "smoothness 4.5 of the differentiated axis (mu1 along t, mu2 along tau) too small for "
     "order r=2 in C: need more than 5")],
    ids=["missing-config", "noise-mode", "metric", "class-too-rough-for-c"])
def test_a_refused_config_is_one_error_line_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                               command, ini, flags, message):
    monkeypatch.chdir(tmp_path)
    name = "missing.ini" if ini is None else "run.ini"
    if ini is not None:
        (tmp_path / name).write_text(ini)
    assert run_cli(command, "--config", name, *flags, "--out", "res") == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert os.listdir(tmp_path) == ([] if ini is None else [name])


def test_non_finite_class_coefficients_are_reported(tmp_path, capsys, monkeypatch):
    make = cli.make_class_function

    def nan_class(**kw):
        fn = make(**kw)
        fn.t_factor.coeffs[0] = np.nan
        return fn

    monkeypatch.setattr(cli, "make_class_function", nan_class)
    cfg = tmp_path / "rate.ini"
    cfg.write_text("[experiment]\nfunction = class\n")
    for argv in (["rate-study"], ["example1", "--seeds", 1]):  # a study and a table
        assert run_cli(*argv, "--config", cfg, "--out", tmp_path) == 2
        assert capsys.readouterr() == (
            "", "error: coefficients of class-s2-mu5.6x5.6 are not finite\n")
        assert os.listdir(tmp_path) == ["rate.ini"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_table_errors_are_reported(tmp_path, capsys):
    # finite coefficients whose order-45 derivative's squares overflow: one
    # error line, and no numpy overflow warning before it
    cfg = tmp_path / "r.ini"
    cfg.write_text("[experiment]\nr = 45\n[method]\ngrid_degree = 512\nn = 512,512,512\n")
    assert run_cli("example1", "--config", cfg, "--seeds", 1, "--out", tmp_path) == 2
    assert capsys.readouterr() == (
        "", "error: error table of example1 produced non-finite errors\n")
    assert os.listdir(tmp_path) == ["r.ini"]


def test_one_non_finite_trial_of_a_table_row_is_reported(tmp_path, capsys, monkeypatch):
    # the median of five seeds would hide one infinite trial
    trials = analysis._Level.trials

    def one_inf(level, sds, out=None):
        out = trials(level, sds, out)
        out[[sd == 3 for sd in sds], 0] = math.inf
        return out

    monkeypatch.setattr(analysis._Level, "trials", one_inf)
    assert run_cli("example1", "--grid-degree", 32, "--seeds", 5, "--out", tmp_path) == 2
    assert capsys.readouterr() == (
        "", "error: error table of example1 produced non-finite errors\n")
    assert os.listdir(tmp_path) == []


def test_a_noisy_row_of_an_empty_cross_errs_as_its_noise_free_row(tmp_path, capsys):
    # n = 1 < r = 2 leaves the cross empty: every trial of the noisy row
    # truncates to nothing, so its medians are the noise-free row's errors
    assert run_cli("example1", "--delta", "1e-7,0", "--n", "1,1", "--seeds", 3,
                   "--grid-degree", 24, "--out", tmp_path, "--run-id", "empty") == 0
    noisy, clean = read_table(tmp_path, "empty").rows
    assert noisy.card == clean.card == 0
    assert (noisy.error_l2, noisy.error_c) == (clean.error_l2, clean.error_c)


def test_class_of_huge_smoothness_runs_finitely(tmp_path, capsys):
    # every weight past the float range meets a zero coefficient
    cfg = tmp_path / "mu.ini"
    cfg.write_text("[experiment]\nfunction = class\nmu1 = 1.7e308\nmu2 = 1.7e308\n")
    assert run_cli("example1", "--config", cfg, "--seeds", 1, "--out", tmp_path,
                   "--run-id", "mu") == 0
    assert capsys.readouterr().err == ""
    rows = read_table(tmp_path, "mu").rows
    assert all(math.isfinite(r.error_l2) and math.isfinite(r.error_c) for r in rows)


def test_rate_study_small_run(tmp_path, capsys):
    cfg = tmp_path / "rate.ini"
    cfg.write_text(
        "[experiment]\nfunction = class\n\n"
        "[noise]\ndeltas = 1e-5,1e-7,1e-9\nseeds = 2\n"
    )
    rc = run_cli("rate-study", "--config", cfg, "--metric", "L2",
                 "--out", tmp_path, "--run-id", "rl2")
    assert rc == 0
    out = capsys.readouterr().out
    assert "fitted_slope=" in out and "theoretical_slope=" in out
    lines = (tmp_path / "rl2" / "rate.csv").read_text().strip().splitlines()
    assert lines[0] == "delta,n,gamma,error_l2,error_c,seed"
    assert len(lines) == 1 + 3 * 2 + 1
    assert lines[-1].startswith("slope,")
    assert (tmp_path / "rl2" / "config.ini").is_file()


def _die(seed):
    os._exit(3)


def _refuse(seed):
    raise ValueError(f"bad draw {seed}")


def _fail_draw_1001(monkeypatch, worker_fail, caller_fail):
    # seed 1001 is trial 1 of 6, draw 1 of level 0: the forked worker's run
    # of each level is draw 1 of two; caller_fail runs where the caller
    # draws it, worker_fail where a worker does
    monkeypatch.setattr(analysis, "_worker_count", lambda items: 2)
    caller, draw = os.getpid(), analysis._noisy_blocks

    def noisy_blocks(data, spec, shape, sds):
        if 1001 - spec.seed in sds:
            (caller_fail if os.getpid() == caller else worker_fail)(1001)
        return draw(data, spec, shape, sds)

    monkeypatch.setattr(analysis, "_noisy_blocks", noisy_blocks)


def _rate_ini(tmp_path, function):
    cfg = tmp_path / "rate.ini"
    cfg.write_text(f"[experiment]\nfunction = {function}\n\n"
                   "[noise]\ndeltas = 1e-5,1e-7,1e-9\nseeds = 2\n")
    return cfg


@pytest.mark.parametrize("fail,function", [
    (_refuse, "class"), (_die, "class"), (_refuse, "example1"), (_die, "example1")],
    ids=["raise", "die", "raise-example1", "die-example1"])
def test_rate_study_worker_failure_is_one_error_line(tmp_path, capsys, monkeypatch,
                                                     fail, function):
    # the draw fails in every process: the worker raises or dies, and the
    # caller, scoring the worker's run again, raises
    _fail_draw_1001(monkeypatch, fail, _refuse)
    rc = run_cli("rate-study", "--config", _rate_ini(tmp_path, function), "--metric", "L2",
                 "--out", tmp_path, "--run-id", "failed")
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: bad draw 1001\n", err
    assert not (tmp_path / "failed").exists()


@pytest.mark.parametrize("function", ["class", "example1"])
def test_rate_study_worker_that_dies_leaves_the_serial_rate_csv(tmp_path, capsys, monkeypatch,
                                                                function):
    # only the forked worker dies; the caller scores its run again
    cfg = _rate_ini(tmp_path, function)
    monkeypatch.setattr(analysis, "_worker_count", lambda items: 1)
    assert run_cli("rate-study", "--config", cfg, "--out", tmp_path, "--run-id", "serial") == 0
    _fail_draw_1001(monkeypatch, _die, lambda seed: None)
    assert run_cli("rate-study", "--config", cfg, "--out", tmp_path, "--run-id", "died") == 0
    assert capsys.readouterr().err == ""
    serial, died = ((tmp_path / run / "rate.csv").read_bytes() for run in ("serial", "died"))
    assert died == serial


@pytest.mark.parametrize("bare", [False, True], ids=["numpy", "bare"])
def test_a_refused_allocation_is_one_error_line(tmp_path, capsys, monkeypatch, bare):
    # a 3.87 GiB trapezoid basis table (h=2.5e-7 at degree 64), under the
    # 4 GiB limit, on a host that refuses it; nothing that size is allocated.
    # A MemoryError without a message is named by its type.
    try:
        from numpy._core._exceptions import _ArrayMemoryError
    except ImportError:  # numpy < 2
        from numpy.core._exceptions import _ArrayMemoryError

    def refuse(fn, K, J, h):
        if bare:
            raise MemoryError
        raise _ArrayMemoryError((K + 1, round(2 / h) + 1), np.dtype(np.float64))

    monkeypatch.setattr(cli, "trapezoid_coeffs", refuse)
    rc = run_cli("example1", "--noise", "trapezoid", "--h", "2.5e-7", "--n", 16,
                 "--out", tmp_path, "--run-id", "refused")
    assert rc == 2
    out, err = capsys.readouterr()
    message = "MemoryError" if bare else ("Unable to allocate 3.87 GiB for an array with "
                                          "shape (65, 8000001) and data type float64")
    assert out == "" and err == f"error: {message}\n", err
    assert not (tmp_path / "refused").exists()


@pytest.mark.parametrize("preset,argv", [
    ("example1-random", ["example1", "--seeds", 1, "--grid-degree", 32]),
    ("example1-trapezoid", ["example1", "--noise", "trapezoid", "--h", "0.01,0.01,0.01"]),
    ("example2", ["example2", "--h", "0.01,0.01,0.01"])])
def test_table_card_counts_each_cross_once(tmp_path, monkeypatch, preset, argv):
    # card is read off the cross the plan built, so each row's cross is
    # enumerated once, and the count is the cross's cardinality
    calls, enumerate_cross = [], truncation.build_cross

    def counted(*args):
        calls.append(args)
        return enumerate_cross(*args)

    monkeypatch.setattr(analysis, "build_cross", counted)  # where _plan builds them
    monkeypatch.setattr(truncation, "build_cross", counted)
    monkeypatch.setattr(cli, "build_cross", counted, raising=False)  # any direct use
    assert run_cli(*argv, "--out", tmp_path, "--run-id", "t") == 0
    rows = read_table(tmp_path, "t").rows
    assert [r.n for r in rows] == list(PRESETS[preset]["n_list"])
    assert [r.card for r in rows] == [enumerate_cross(r.n, r.gamma, 2).cardinality
                                      for r in rows]
    assert sorted(calls) == sorted({(r.n, r.gamma, 2, "t") for r in rows})


def test_class_trapezoid_table_runs(tmp_path, capsys):
    # the class function's two series factors take the factored trapezoid sum
    cfg = tmp_path / "class.ini"
    cfg.write_text("[experiment]\nfunction = class\n")
    assert run_cli("example1", "--config", cfg, "--noise", "trapezoid", "--h", "1e-4",
                   "--n", 12, "--out", tmp_path, "--run-id", "ct") == 0
    (row,) = read_table(tmp_path, "ct").rows
    assert (row.kind, row.value, row.n) == ("h", 1e-4, 12)
    assert all(math.isfinite(x) for x in (row.coeff_linf, row.error_l2, row.error_c))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("deltas", ["1e-7,1e-8,1e-9", "0,1e-8,1e-9"])
def test_class_table_error_l2_is_parseval_on_the_saved_grids(tmp_path, deltas):
    # a product of two Legendre series is scored against its derivative's
    # exact coefficients: with one seed, each row's L2 error is the
    # coefficient distance of the grid the row saved
    cfg = tmp_path / "class.ini"
    cfg.write_text("[experiment]\nfunction = class\n")
    assert run_cli("example1", "--config", cfg, "--delta", deltas, "--seeds", 1,
                   "--out", tmp_path, "--run-id", "c") == 0
    exact = exact_coeffs(analysis.make_class_function().exact_deriv(2, "t"), 128, 128).data
    for i, row in enumerate(read_table(tmp_path, "c").rows):
        diff = exact.copy()
        saved = load_grid(tmp_path / "c" / f"row_{i}" / "deriv.csv").data
        diff[: saved.shape[0], : saved.shape[1]] -= saved
        assert row.error_l2 == pytest.approx(math.sqrt(np.sum(np.square(diff))), rel=1e-14)


def test_forked_table_seeds_match_a_serial_run_and_the_whole_grid_oracle(tmp_path,
                                                                          monkeypatch):
    # 70 seeds a row, dealt to two forked workers, write the table and the
    # grids of a serial run; the errors are the medians of whole-grid trials
    argv = ("example1", "--grid-degree", 16, "--n", "8,12,16", "--seeds", 70, "--out", tmp_path)
    for workers in (2, 1):
        monkeypatch.setattr(analysis, "_worker_count", lambda items: workers)
        assert run_cli(*argv, "--run-id", f"w{workers}") == 0
    for name in ["table.csv"] + [f"row_{i}/deriv.csv{ext}" for i in range(3)
                                 for ext in ("", ".meta")]:
        forked, serial = ((tmp_path / f"w{w}" / name).read_text() for w in (2, 1))
        if name == "table.csv":  # wall_time, the last column, aside
            forked, serial = ([line.rsplit(",", 1)[0] for line in text.splitlines()]
                              for text in (forked, serial))
        assert forked == serial, name
    fn = example1_F()
    exact = coeffs.exact_coeffs(fn, 16, 16)
    scorer = analysis.ErrorEvaluator(fn.exact_deriv(2, "t"), 16, 16)
    for i, (row, delta) in enumerate(zip(read_table(tmp_path, "w2").rows, (1e-7, 1e-8, 1e-9))):
        params = truncation.build_cross(n=row.n, gamma=1.0, r=2, axis="t")
        trials = [truncation.truncate(coeffs.add_noise(exact, coeffs.NoiseSpec(
            delta, math.inf, "rescaled", 2025 + 997 * i + sd)), params) for sd in range(70)]
        assert row.error_c == np.median([scorer.c(a) for a in trials])
        assert row.error_l2 == np.median([scorer.l2(a) for a in trials])


def test_cross_card_verdicts(tmp_path, capsys):
    rc = run_cli("cross-card", "--gamma", "1,2", "--n", "64,128,256,512",
                 "--r", 2, "--out", tmp_path, "--run-id", "cc")
    assert rc == 0
    out = capsys.readouterr().out
    assert "gamma=1: card ~ n ln n: PASS" in out
    assert "gamma=2: card ~ n: PASS" in out
    lines = (tmp_path / "cc" / "card.csv").read_text().strip().splitlines()
    assert lines[0] == "gamma,n,card"
    assert len(lines) == 1 + 8
    verdicts = (tmp_path / "cc" / "verdicts.txt").read_text()
    assert "PASS" in verdicts and "FAIL" not in verdicts


def test_cross_card_single_level(tmp_path, capsys):
    rc = run_cli("cross-card", "--gamma", "2", "--n", "64",
                 "--out", tmp_path, "--run-id", "cc1")
    assert rc == 0
    assert "gamma=2: insufficient data" in capsys.readouterr().out


def test_emit_surface_round_trip(tmp_path, capsys):
    assert run_cli("example1", "--grid-degree", 32, "--seeds", 2,
                   "--out", tmp_path, "--run-id", "e1") == 0
    rc = run_cli("emit-surface", "--run", "e1", "--out", tmp_path,
                 "--grid-points", 3)
    assert rc == 0
    assert "surface written to" in capsys.readouterr().out
    lines = (tmp_path / "e1" / "surface.csv").read_text().strip().splitlines()
    assert lines[0] == "t,tau,exact,approx"
    assert len(lines) == 1 + 9
    # exact column reproduces the analytic derivative at the corners
    exact_d = example1_F().exact_deriv(2, "t")
    first = lines[1].split(",")
    assert (float(first[0]), float(first[1])) == (-1.0, -1.0)
    want = float(exact_d(np.array([[-1.0]]), np.array([[-1.0]]))[0, 0])
    assert float(first[2]) == want
    # approx column is exactly the synthesized saved grid
    grid = load_grid(tmp_path / "e1" / "row_0" / "deriv.csv")
    t = np.linspace(-1.0, 1.0, 3)
    vals = synthesize(grid, t, t)
    got = np.array([float(line.split(",")[3]) for line in lines[1:]]).reshape(3, 3)
    assert np.array_equal(got, vals)


def test_emit_surface_missing_run(tmp_path, capsys):
    rc = run_cli("emit-surface", "--run", "nope", "--out", tmp_path)
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_emit_surface_refuses_a_row_the_run_does_not_have(tmp_path, capsys):
    assert run_cli("example1", "--grid-degree", 4, "--n", "2,3,4", "--seeds", 1,
                   "--out", tmp_path, "--run-id", "e1") == 0
    capsys.readouterr()
    written = sorted(os.listdir(tmp_path / "e1"))
    assert run_cli("emit-surface", "--run", "e1", "--row", 5, "--out", tmp_path) == 2
    assert capsys.readouterr() == ("", "error: run 'e1' has no saved row 5\n")
    assert sorted(os.listdir(tmp_path / "e1")) == written


def test_emit_surface_function_mismatch(tmp_path, capsys):
    assert run_cli("example1", "--grid-degree", 32, "--seeds", 2,
                   "--out", tmp_path, "--run-id", "e1") == 0
    rc = run_cli("emit-surface", "--run", "e1", "--out", tmp_path,
                 "--function", "example2")
    assert rc == 2
    assert "example2" in capsys.readouterr().err


@pytest.mark.parametrize("edit, reason", [
    ("5,1,0", "index (5,1) outside grid of degrees (4,4)"),
    ("1,5,0", "index (1,5) outside grid of degrees (4,4)"),
    ("-1,1,0", "index (-1,1) outside grid of degrees (4,4)"),
    ("1,1", "the dtype passed requires 3 columns but 2 were found at row 7"),
    ("0,0,0", "cell (0,0) given 2 times"),
])
def test_emit_surface_reports_a_bad_grid_row(tmp_path, capsys, edit, reason):
    # an index outside the grid, negative included, a short row or a cell
    # given twice is one error: line, not a traceback or a value written to
    # the wrong cell
    assert run_cli("example1", "--grid-degree", 4, "--n", "2,3,4", "--seeds", 1,
                   "--out", tmp_path, "--run-id", "e1") == 0
    capsys.readouterr()
    path = os.path.join(str(tmp_path), "e1", "row_0", "deriv.csv")
    with open(path) as fh:
        lines = fh.readlines()
    assert lines[7].startswith("1,1,")
    lines[7] = edit + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
    assert run_cli("emit-surface", "--run", "e1", "--out", tmp_path) == 2
    assert capsys.readouterr().err == f"error: {path}: {reason}\n"
    assert not (tmp_path / "e1" / "surface.csv").exists()


@pytest.mark.parametrize("sidecar, reason", [
    ("K=4\nJ=4\n", ".meta: no provenance= line"),
    ("provenance=derivative\nJ=4\n", ".meta: no K= line"),
    ("provenance=derivative\nK=4\n", ".meta: no J= line"),
    ("provenance=derivative\nK=four\nJ=4\n", ".meta: K=four is not an integer >= 0"),
    ("provenance=derivative\nK=4\nJ=4.0\n", ".meta: J=4.0 is not an integer >= 0"),
    ("provenance=derivative\nK=-1\nJ=4\n", ".meta: K=-1 is not an integer >= 0"),
    # counted, not allocated: 10**9 x 5 cells would need 40 GB
    ("provenance=derivative\nK=1000000000\nJ=4\n",
     ": 25 rows, not the 5000000005 of a grid of degrees (1000000000,4)"),
])
def test_emit_surface_reports_a_bad_sidecar(tmp_path, capsys, sidecar, reason):
    # a missing or malformed key of the .meta sidecar is one error: line
    assert run_cli("example1", "--grid-degree", 4, "--n", "2,3,4", "--seeds", 1,
                   "--out", tmp_path, "--run-id", "e1") == 0
    capsys.readouterr()
    path = os.path.join(str(tmp_path), "e1", "row_0", "deriv.csv")
    with open(path + ".meta", "w") as fh:
        fh.write(sidecar)
    assert run_cli("emit-surface", "--run", "e1", "--out", tmp_path) == 2
    assert capsys.readouterr().err == f"error: {path}{reason}\n"
    assert not (tmp_path / "e1" / "surface.csv").exists()


def test_env_var_results_root(tmp_path, monkeypatch):
    root = tmp_path / "envroot"
    monkeypatch.setenv("CROSSDIFF_RESULTS", str(root))
    rc = run_cli("example1", "--grid-degree", 32, "--seeds", 2,
                 "--run-id", "e1env")
    assert rc == 0
    assert (root / "e1env" / "table.csv").is_file()


def test_results_table_round_trip(tmp_path):
    # one noise row without a coefficient gap, one trapezoid row with it
    rows = (
        ResultRow("delta", 1e-7, 16, 1.0, 81, 3.14159e-5, 2.718e-4, None, 0.25),
        ResultRow("h", 1e-4, 28, 2.25, 143, 1.0 / 3.0, math.pi * 1e-6, 6.37e-11, 1.5),
    )
    table = ResultsTable(rows=rows)
    path = tmp_path / "table.csv"
    table.save(path)
    assert ResultsTable.load(path) == table


def test_results_table_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(ValueError):
        ResultsTable.load(path)


def _reachable_configs():
    """Configs a command can resolve to: a preset with any subset of its
    values replaced by valid ones. Fields a preset leaves None stay None."""
    floats = st.floats(allow_nan=False, allow_infinity=False)
    names = st.text("abcxyz0189-_./", min_size=1, max_size=12)
    # a run id names one directory under the root
    run_ids = st.text("abcxyz0189-_.", min_size=1, max_size=12).filter(
        lambda name: name not in (".", ".."))
    random_noise = st.fixed_dictionaries({
        "delta_list": st.lists(floats.filter(lambda d: 0 <= d < 1), min_size=1,
                               max_size=4).map(tuple),
        "h_list": st.just(()),
        "noise_mode": st.sampled_from(("rescaled", "raw_gaussian"))})
    trapezoid = st.fixed_dictionaries({
        "delta_list": st.just(()),
        "h_list": st.lists(st.sampled_from((1.0, 0.5, 4e-3, 1e-4, 8e-6)), min_size=1,
                           max_size=4).map(tuple),
        "noise_mode": st.just("trapezoid")})
    options = {
        "function": st.sampled_from(("example1", "example2", "class")),
        "r": st.integers(1, 4),
        "axis": st.sampled_from(("t", "tau")),
        # bounded so the class function's norm, which raises the degree to
        # s * (mu1 + mu2), stays finite
        "s": st.floats(1, 5),
        "mu1": st.floats(1e-3, 10),
        "mu2": st.floats(1e-3, 10),
        "p": st.one_of(floats.filter(lambda x: x >= 1), st.just(math.inf)),
        "noise_p": st.one_of(floats.filter(lambda x: x >= 1), st.just(math.inf)),
        "seeds": st.integers(1, 10 ** 6),
        "base_seed": st.integers(0, 2 ** 63),
        "c": floats.filter(lambda x: x > 0),
        "gamma": floats.filter(lambda x: x >= 1),
        "grid_degree": st.integers(1, cli.MAX_GRID_DEGREE),
        "out_dir": names,
        "run_id": run_ids,
        "metric": st.sampled_from(("L2", "C")),
    }

    @st.composite
    def build(draw):
        preset = draw(st.sampled_from(sorted(PRESETS)))
        cfg = ExperimentConfig(**PRESETS[preset])
        if draw(st.booleans()):
            cfg = replace(cfg, **draw(st.one_of(random_noise, trapezoid)))
        for attr in draw(st.sets(st.sampled_from(sorted(options)))):
            if getattr(cfg, attr) is not None or attr in ("out_dir", "run_id", "metric"):
                cfg = replace(cfg, **{attr: draw(options[attr])})
        rows = len(cfg.delta_list or cfg.h_list)
        if cfg.h_list or (cfg.n_list and len(cfg.n_list) != rows) or draw(st.booleans()):
            ns = st.lists(st.integers(1, cli.MAX_GRID_DEGREE), min_size=rows, max_size=rows)
            cfg = replace(cfg, n_list=tuple(draw(ns)))
        elif draw(st.booleans()):
            cfg = replace(cfg, n_list=())
        return preset, cfg

    return build()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=_reachable_configs(), onto=st.sampled_from(sorted(PRESETS)))
def test_experiment_config_ini_round_trip(tmp_path, drawn, onto):
    # what to_ini writes, apply_ini reads back exactly, onto any preset;
    # only the fields left out of the file (the None ones) keep the values
    # of the config they are applied to
    preset, cfg = drawn
    cfg.validate()
    path = tmp_path / "config.ini"
    cfg.to_ini(path)
    assert ExperimentConfig(**PRESETS[preset]).apply_ini(path) == cfg
    base = ExperimentConfig(**PRESETS[onto])
    unset = {k: getattr(base, k) for k, v in vars(cfg).items() if v is None}
    assert base.apply_ini(path) == replace(cfg, **unset)


def test_experiment_config_ini_round_trip_by_hand(tmp_path):
    cfg = ExperimentConfig(
        function="example1",
        delta_list=(1e-7, 1e-9),
        n_list=(16, 28),
        seeds=3,
        base_seed=77,
        gamma=1.5,
        grid_degree=48,
        out_dir=str(tmp_path),
        run_id="round",
    )
    path = tmp_path / "config.ini"
    cfg.to_ini(path)
    back = ExperimentConfig().apply_ini(path)
    assert back == cfg


@pytest.mark.parametrize("section, key, value, kind", [
    ("noise", "base_seed", "1e30", "an integer"),
    ("experiment", "s", "abc", "a float"),
    ("method", "n", "4,x,6", "a list of integers or auto"),
    ("noise", "deltas", "1e-7,,oops", "a list of floats"),
    ("experiment", "r", "2.5", "an integer")])
def test_ini_value_of_the_wrong_kind_names_file_and_key(tmp_path, capsys, section, key,
                                                        value, kind):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    assert run_cli("example1", "--config", cfg, "--out", tmp_path) == 2
    assert capsys.readouterr().err == f"error: {cfg}: [{section}] {key}={value} is not {kind}\n"
    assert os.listdir(tmp_path) == ["bad.ini"]


@pytest.mark.parametrize("text, message", [
    ("r = 2\n", "File contains no section headers."),
    ("[noise]\nseeds = 1\nseeds = 2\n", "option 'seeds' in section 'noise' already exists"),
    ("[experiment]\nfunction = 50%\n", "'%' must be followed by"),
    ("[noise]\nseeds = 1\n  x\n", "[noise] seeds=1 x is not an integer")])
def test_ini_file_errors_are_one_line_naming_the_file(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert run_cli("example1", "--config", cfg, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ") and message in err and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["bad.ini"]


def test_experiment_config_validate():
    with pytest.raises(ValueError):
        ExperimentConfig().validate()  # neither deltas nor hs
    with pytest.raises(ValueError):
        ExperimentConfig(delta_list=(1e-7,), h_list=(1e-4,)).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(h_list=(1e-4,), noise_mode="trapezoid").validate()  # no n
    with pytest.raises(ValueError):
        ExperimentConfig(delta_list=(1e-7,), n_list=(16, 28)).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(delta_list=(1e-7,), noise_p=0.5).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(delta_list=(1e-7,), function="mystery").validate()
    ExperimentConfig(delta_list=(1e-7,)).validate()


# one valid value per flag, lists as long as the presets' (three rows); a
# flag added to the schema needs one here
FLAG_VALUES = {"--noise-p": "2", "--delta": "1e-7,0,1e-9", "--h": "4e-3,2e-3,1e-3",
               "--seeds": "3", "--base-seed": "7", "--n": "8,9,10", "--c": "1.5",
               "--gamma": "1.25", "--grid-degree": "32", "--out": "elsewhere",
               "--run-id": "rid"}


@pytest.mark.parametrize("command", ["example1", "example2"])
@pytest.mark.parametrize("f", [f for f in FIELDS if f.flag and f.attr != "metric"],
                         ids=lambda f: f.flag)
def test_every_schema_flag_is_accepted_by_every_table_command(command, f, monkeypatch):
    # metric is read by rate studies only and is a rate-study flag only
    resolved = []
    monkeypatch.setattr(cli, "cmd_table", resolved.append)
    assert run_cli(command, f.flag, FLAG_VALUES[f.flag]) == 0
    (cfg,) = resolved
    parse, _, _ = f.kind
    assert getattr(cfg, f.attr) == parse(FLAG_VALUES[f.flag])
    cfg.validate()  # --delta and --h also switch the noise mode


def test_metric_is_a_rate_study_flag_only():
    (metric,) = [f for f in FIELDS if f.attr == "metric"]
    assert metric.flag == "--metric" and metric.on == ("rate-study",)
    with pytest.raises(SystemExit):
        run_cli("example1", "--metric", "C")


@pytest.mark.parametrize("flag", ["--r", "--run"])
def test_flag_prefixes_are_refused(tmp_path, capsys, monkeypatch, flag):
    # both are prefixes of --run-id; the table commands have no --r flag
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli("example1", flag, 3, "--grid-degree", 32, "--seeds", 1, "--out", tmp_path)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert os.listdir(tmp_path) == []


def test_usage_errors_are_one_line(capsys):
    for argv in ((), ("example1", "--grid-degree", "x"), ("rate-study",)):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, message", [
    (["example1", "--n", "x"], "--n: x is not a list of integers or auto"),
    (["example1", "--delta", "x"], "--delta: x is not a list of floats"),
    (["example1", "--seeds", "1.5"], "--seeds: 1.5 is not an integer"),
    (["example1", "--gamma", "x"], "--gamma: x is not a float"),
    (["cross-card", "--gamma", "x", "--n", "4,8"], "--gamma: x is not a list of floats"),
    (["cross-card", "--gamma", "1", "--n", "4,x"], "--n: 4,x is not a list of integers"),
    (["cross-card", "--gamma", "1", "--n", "4", "--r", "x"], "--r: x is not an integer"),
    (["emit-surface", "--run", "r", "--grid-points", "x"], "--grid-points: x is not an integer"),
    (["emit-surface", "--run", "r", "--row", "x"], "--row: x is not an integer")],
    ids=["n", "delta", "seeds", "gamma", "cross-card-gamma", "cross-card-n", "cross-card-r",
         "emit-surface-grid-points", "emit-surface-row"])
def test_a_flag_value_that_does_not_parse_says_what_it_must_be(tmp_path, capsys,
                                                               monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", tmp_path)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: argument {message}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("f", [f for f in FIELDS if f.kind in (cli.FLOAT, cli.FLOATS)],
                         ids=lambda f: f.attr)
def test_validate_rejects_non_finite_numbers(f, bad):
    # inf is a valid norm index (p, noise_p); NaN is valid nowhere
    base = ExperimentConfig(**PRESETS["example1-trapezoid" if f.attr == "h_list"
                                      else "example1-random"])
    value = getattr(base, f.attr)
    cfg = replace(base, **{f.attr: value[:-1] + (bad,) if isinstance(value, tuple) else bad})
    if f.attr in ("p", "noise_p") and bad == math.inf:
        cfg.validate()
        return
    with pytest.raises(ValueError) as exc:
        cfg.validate()
    name = "trapezoid step h" if f.attr == "h_list" else f"[{f.section}] {f.key}"
    assert str(exc.value).startswith(f"{name}={bad} must lie in ")


@pytest.mark.parametrize("c", ["nan", "inf"])
def test_non_finite_calibration_constant_is_reported(tmp_path, capsys, c):
    rc = run_cli("example1", "--n", "auto", "--c", c, "--seeds", 1,
                 "--out", tmp_path, "--run-id", "bad")
    assert rc == 2
    assert capsys.readouterr().err == f"error: [method] c={c} must lie in (0, inf)\n"
    cfg = tmp_path / "rate.ini"
    cfg.write_text(f"[experiment]\nfunction = class\n\n[method]\nc = {c}\n")
    assert run_cli("rate-study", "--config", cfg, "--out", tmp_path) == 2
    assert capsys.readouterr().err == f"error: [method] c={c} must lie in (0, inf)\n"
    assert os.listdir(tmp_path) == ["rate.ini"]


def test_a_chosen_level_that_is_not_finite_is_reported(tmp_path, capsys):
    # c * delta**(-1/5.6) overflows to inf for c = 1e308
    rc = run_cli("example1", "--n", "auto", "--c", "1e308", "--seeds", 1, "--out", tmp_path)
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: truncation level for delta=1e-07 and c=1e+308 is not finite\n")
    cfg = tmp_path / "rate.ini"
    cfg.write_text("[experiment]\nfunction = class\n\n[method]\nc = 1e308\n")
    assert run_cli("rate-study", "--config", cfg, "--out", tmp_path) == 2
    assert capsys.readouterr().err == (
        "error: truncation level for delta=1e-05 and c=1e+308 is not finite\n")
    assert os.listdir(tmp_path) == ["rate.ini"]


def test_n_auto_with_trapezoid_steps_is_refused(tmp_path, capsys):
    # choose_n reads a noise level, and a trapezoid step is none
    assert run_cli("example1", "--h", "1e-4", "--n", "auto", "--out", tmp_path) == 2
    assert capsys.readouterr().err == "error: trapezoid runs need an explicit n list\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("gamma", ["1024", "1e308"])
def test_a_shape_whose_powers_overflow_runs(tmp_path, capsys, gamma):
    # k * (j+1)**gamma overflows a float; it counts as beyond every n, so the
    # cross keeps j <= 1: 2 * 15 cells at n = 16, r = 2
    assert run_cli("example1", "--gamma", gamma, "--seeds", 1, "--out", tmp_path,
                   "--run-id", "e1") == 0
    assert [r.card for r in read_table(tmp_path, "e1").rows] == [30, 2 * 24, 2 * 27]
    assert run_cli("cross-card", "--gamma", gamma, "--n", "4,8", "--out", tmp_path,
                   "--run-id", "cc") == 0
    assert (tmp_path / "cc" / "card.csv").read_text().splitlines()[1:] == [
        f"{float(gamma):.17g},4,8", f"{float(gamma):.17g},8,16"]


@pytest.mark.parametrize("argv,degree", [
    (["example1", "--n", "16,25,65", "--seeds", 1], 64),
    (["example1", "--n", "auto", "--c", "1e300", "--seeds", 1], 64),
    (["rate-study"], 16),
    (["example1", "--noise", "trapezoid", "--h", "1e-3,1e-3", "--n", "16,65"], 64),
    (["example1", "--delta", "1e-7,1e-8", "--n", "16,65", "--seeds", 1], 64)],
    ids=["given", "chosen", "rate-study", "trapezoid-later-row", "random-later-row"])
def test_truncation_level_beyond_grid_degree_is_reported(tmp_path, capsys, monkeypatch,
                                                          argv, degree):
    # one refusal, before any grid, cross or trial of any level is built,
    # the earlier levels' included; the rate study's fourth level, n=24, is
    # the first beyond grid degree 16
    def refuse(*args):
        raise AssertionError("work started before the refusal")

    for module, name in ((truncation, "build_cross"), (analysis, "build_cross"),
                         (cli, "exact_coeffs"), (cli, "trapezoid_coeffs"),
                         (analysis, "exact_coeffs"), (analysis._Level, "trials")):
        monkeypatch.setattr(module, name, refuse)
    cfg = tmp_path / "e1.ini"
    cfg.write_text(f"[experiment]\nfunction = example1\n\n[method]\ngrid_degree = {degree}\n")
    rc = run_cli(*argv, "--config", cfg, "--out", tmp_path)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: truncation level n=") and err.count("\n") == 1
    assert err.endswith(f" exceeds grid degree {degree}\n")


_NOT_ONE_DIR = "must name one directory, not '.', '..' or a path"


@pytest.mark.parametrize("argv, ini, refusal", [
    (["example1", "--seeds", 1, "--run-id", ""], None, " must not be empty"),
    (["example2"], "[output]\nrun_id =\n", " must not be empty"),
    (["rate-study", "--run-id", ""], "[experiment]\nfunction = class\n", " must not be empty"),
    (["cross-card", "--gamma", "1", "--n", "4,8", "--run-id", ""], None, " must not be empty"),
    (["example1", "--seeds", 1, "--run-id", "."], None, "=. " + _NOT_ONE_DIR),
    (["example2"], "[output]\nrun_id = ..\n", "=.. " + _NOT_ONE_DIR),
    (["rate-study", "--run-id", "a/b"], "[experiment]\nfunction = class\n",
     "=a/b " + _NOT_ONE_DIR),
    (["cross-card", "--gamma", "1", "--n", "4,8", "--run-id", ".."], None,
     "=.. " + _NOT_ONE_DIR),
    (["cross-card", "--gamma", "1", "--n", "4,8", "--run-id", "../up"], None,
     "=../up " + _NOT_ONE_DIR)],
    ids=["example1", "example2", "rate-study", "cross-card", "example1-dot",
         "example2-dotdot", "rate-study-slash", "cross-card-dotdot", "cross-card-parent"])
def test_an_empty_run_id_is_refused(tmp_path, capsys, monkeypatch, argv, ini, refusal):
    # an empty id would name the results root itself, and ".", ".." or a
    # path the root, its parent or another directory: one refusal, before
    # any grid, study or cross is built, and nothing written
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    for module, name in ((cli, "exact_coeffs"), (cli, "trapezoid_coeffs"),
                         (cli, "rate_study"), (truncation, "_limit")):
        monkeypatch.setattr(module, name, refuse)
    if ini is not None:
        cfg = tmp_path / "run.ini"
        cfg.write_text(ini)
        argv = argv + ["--config", cfg]
    assert run_cli(*argv, "--out", tmp_path / "res" / "root") == 2
    assert capsys.readouterr().err == f"error: [output] run_id{refusal}\n"
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("command", ["example1", "rate-study"])
def test_an_unknown_axis_is_refused_before_any_grid(tmp_path, capsys, monkeypatch, command):
    def refuse(*args):
        raise AssertionError("a grid was computed")

    for module, name in ((cli, "exact_coeffs"), (cli, "trapezoid_coeffs"),
                         (analysis, "exact_coeffs")):
        monkeypatch.setattr(module, name, refuse)
    cfg = tmp_path / "axis.ini"
    cfg.write_text("[experiment]\nfunction = example1\naxis = x\n")
    assert run_cli(command, "--config", cfg, "--out", tmp_path) == 2
    assert capsys.readouterr().err == "error: [experiment] axis must be 't' or 'tau', got 'x'\n"
    assert os.listdir(tmp_path) == ["axis.ini"]


@pytest.mark.parametrize("degree", [0, cli.MAX_GRID_DEGREE + 1, 100000])
def test_grid_degree_limits_are_reported(tmp_path, capsys, monkeypatch, degree):
    def refuse(*args):
        raise AssertionError("a grid was computed")

    monkeypatch.setattr(cli, "exact_coeffs", refuse)
    rc = run_cli("example1", "--grid-degree", degree, "--out", tmp_path)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: [method] grid_degree={degree} must lie in [1, 1024]\n")
    # the upper limit itself is valid
    ExperimentConfig(delta_list=(1e-7,), grid_degree=cli.MAX_GRID_DEGREE).validate()


def test_derivative_order_limits_are_reported(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a grid was computed")

    monkeypatch.setattr(cli, "exact_coeffs", refuse)
    cfg = tmp_path / "r.ini"
    cfg.write_text("[experiment]\nr = 0\n")
    assert run_cli("example1", "--config", cfg, "--out", tmp_path) == 2
    assert capsys.readouterr().err == "error: [experiment] r=0 must lie in [1, inf)\n"
    assert os.listdir(tmp_path) == ["r.ini"]


def test_negative_base_seed_is_reported(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a grid was computed")

    monkeypatch.setattr(cli, "exact_coeffs", refuse)
    message = "error: [noise] base_seed=-1 must lie in [0, inf)\n"
    assert run_cli("example1", "--base-seed", -1, "--seeds", 1, "--out", tmp_path) == 2
    assert capsys.readouterr().err == message
    cfg = tmp_path / "rate.ini"
    cfg.write_text("[experiment]\nfunction = class\n\n[noise]\nbase_seed = -1\n")
    assert run_cli("rate-study", "--config", cfg, "--out", tmp_path) == 2
    assert capsys.readouterr().err == message
    assert os.listdir(tmp_path) == ["rate.ini"]


@pytest.mark.parametrize("seeds", [0, cli.MAX_SEEDS + 1, 20000000])
def test_seed_count_limits_are_reported(tmp_path, capsys, monkeypatch, seeds):
    def refuse(*args, **kwargs):
        raise AssertionError("a study was started")

    monkeypatch.setattr(cli, "exact_coeffs", refuse)
    monkeypatch.setattr(cli, "rate_study", refuse)
    message = f"error: [noise] seeds={seeds} must lie in [1, 1000000]\n"
    assert run_cli("example1", "--seeds", seeds, "--out", tmp_path) == 2
    assert capsys.readouterr().err == message
    cfg = tmp_path / "rate.ini"
    cfg.write_text(f"[experiment]\nfunction = class\n\n[noise]\nseeds = {seeds}\n")
    assert run_cli("rate-study", "--config", cfg, "--out", tmp_path) == 2
    assert capsys.readouterr().err == message
    assert os.listdir(tmp_path) == ["rate.ini"]
    # the upper limit itself is valid
    ExperimentConfig(delta_list=(1e-7,), seeds=cli.MAX_SEEDS).validate()


def test_trial_count_limit_is_reported(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a study was started")

    monkeypatch.setattr(cli, "exact_coeffs", refuse)
    monkeypatch.setattr(cli, "rate_study", refuse)
    deltas = ",".join(["1e-5", "1e-6", "1e-7", "1e-8", "1e-9", "1e-10"])
    message = ("error: [noise] 6 deltas x 1000000 seeds = 6000000 trials, "
               "over the limit of 5000000\n")
    assert run_cli("example1", "--delta", deltas, "--n", "8,8,8,8,8,8",
                   "--seeds", cli.MAX_SEEDS, "--out", tmp_path) == 2
    assert capsys.readouterr().err == message
    cfg = tmp_path / "rate.ini"
    cfg.write_text(f"[experiment]\nfunction = class\n\n"
                   f"[noise]\ndeltas = {deltas}\nseeds = {cli.MAX_SEEDS}\n")
    assert run_cli("rate-study", "--config", cfg, "--out", tmp_path) == 2
    assert capsys.readouterr().err == message
    assert os.listdir(tmp_path) == ["rate.ini"]
    # the limit itself is valid
    ExperimentConfig(delta_list=(1e-7,) * 5, seeds=cli.MAX_SEEDS).validate()


def test_overflowing_derivative_operator_is_reported(tmp_path, capsys):
    # the order-200 operator of the cross's 301-row block overflows
    cfg = tmp_path / "r.ini"
    cfg.write_text("[experiment]\nr = 200\n[method]\nn = 300,300,300\ngrid_degree = 300\n")
    assert run_cli("example1", "--config", cfg, "--out", tmp_path) == 2
    assert capsys.readouterr().err == (
        "error: operator entries overflow for order 200 at degree 300\n")
    assert os.listdir(tmp_path) == ["r.ini"]


@pytest.mark.parametrize("argv, message", [
    (["--n", "0,5"], "--n level 0 must lie in [2, 1024]"),
    (["--n", "1,5"], "--n level 1 must lie in [2, 1024]"),
    (["--n", "10,1000000"], "--n level 1000000 must lie in [2, 1024]"),
    (["--n", "5,8", "--r", "0"], "--r=0 must lie in [1, 5], the smallest --n level"),
    (["--n", "2,5", "--r", "3"], "--r=3 must lie in [1, 2], the smallest --n level"),
    (["--n", "4,4"], "n_list must be strictly increasing"),
    (["--n", "8,4"], "n_list must be strictly increasing"),
    (["--n", "4,8", "--gamma", "0.5"], "cross shape gamma=0.5 must be >= 1"),
    (["--n", "4,8", "--gamma", "nan"], "cross shape gamma=nan must be >= 1"),
    (["--n", ""], "--n needs at least one value"),
    (["--n", "4,8", "--gamma", ""], "--gamma needs at least one value"),
])
def test_cross_card_limits_are_reported(tmp_path, capsys, monkeypatch, argv, message):
    def refuse(*args):
        raise AssertionError("a cross was enumerated")

    monkeypatch.setattr(truncation, "_limit", refuse)
    rc = run_cli("cross-card", "--gamma", "1", *argv, "--out", tmp_path)
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("points", [1, cli.MAX_GRID_POINTS + 1])
def test_surface_grid_points_limits_are_reported(tmp_path, capsys, points):
    assert run_cli("example1", "--grid-degree", 16, "--n", "8,9,10", "--seeds", 1,
                   "--out", tmp_path, "--run-id", "e1") == 0
    capsys.readouterr()
    rc = run_cli("emit-surface", "--run", "e1", "--out", tmp_path,
                 "--grid-points", points)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: grid_points={points} must lie in [2, 1025]\n")
    assert not (tmp_path / "e1" / "surface.csv").exists()


def _run_outputs(run_dir):
    """Every output file of a run except config.ini; table.csv without wall_time."""
    files = {}
    for base, _, names in os.walk(run_dir):
        for name in names:
            if name == "config.ini":
                continue
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "table.csv":
                data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.splitlines())
            files[os.path.relpath(path, run_dir)] = data
    return files


@pytest.mark.parametrize("argv", [
    ["example1", "--grid-degree", 16, "--n", "8,10,12", "--seeds", 2],
    ["example1", "--noise", "trapezoid", "--h", "0.004,0.002", "--n", "8,10",
     "--grid-degree", 16],
    ["example2", "--h", "0.004,0.002", "--n", "8,10", "--grid-degree", 16],
    ["rate-study", "--metric", "C"],
], ids=["example1-random", "example1-trapezoid", "example2", "rate-study-C"])
def test_rerun_from_config_ini_reproduces_the_run(tmp_path, argv):
    command = argv[0]
    if command == "rate-study":
        ini = tmp_path / "rate.ini"
        ini.write_text("[experiment]\nfunction = class\n\n[noise]\nseeds = 2\n")
        argv = argv + ["--config", ini]
    assert run_cli(*argv, "--out", tmp_path / "res", "--run-id", "first") == 0
    first = tmp_path / "res" / "first"
    # only the command and the resolved config.ini: no preset flag, no overrides
    assert run_cli(command, "--config", first / "config.ini", "--run-id", "again") == 0
    again = tmp_path / "res" / "again"
    outputs = _run_outputs(first)
    assert {"table.csv", "rate.csv"} & outputs.keys()
    assert _run_outputs(again) == outputs
    assert (again / "config.ini").read_text() == (
        (first / "config.ini").read_text().replace("run_id = first", "run_id = again"))


def test_importing_the_package_leaves_the_cli_unloaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(crossdiff.__file__)))
    code = "import sys, crossdiff; print('crossdiff.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"
    # so running the module finds nothing preloaded and runpy stays quiet
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "crossdiff.cli",
                          "cross-card", "--gamma", "2", "--n", "64", "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0 and run.stderr == ""


def test_importing_the_cli_leaves_numpy_polynomial_unloaded():
    # PiecewisePoly.deriv differentiates its pieces without numpy.polynomial
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(crossdiff.__file__)))
    code = "import sys, crossdiff.cli; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


@pytest.mark.parametrize("argv, run_id", [
    (["rate-study", "--config", "class.ini"], "rate-L2"),
    (["example1", "--seeds", "3", "--grid-degree", "32"], "example1-random")],
    ids=["rate-study", "example1-noisy"])
def test_a_median_leaves_numpy_ma_unloaded(tmp_path, argv, run_id):
    # np.median imports numpy.ma on its first call; the medians of a rate
    # study and of a noisy table row need no such import
    (tmp_path / "class.ini").write_text("[experiment]\nfunction = class\n[noise]\nseeds = 3\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(crossdiff.__file__)))
    code = ("import sys; from crossdiff.cli import main; "
            "code = main(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, *argv, "--out", "res"], cwd=tmp_path,
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out.endswith(f"run written to {os.path.join('res', run_id)}\n0 False\n")
