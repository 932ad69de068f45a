"""Command-line interface: table runs, configs, run directories, surfaces."""

import math
import os

import numpy as np
import pytest

from crossdiff import coeffs
from crossdiff.analysis import example1_F
from crossdiff.cli import ExperimentConfig, ResultRow, ResultsTable, main
from crossdiff.coeffs import load_grid
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
    tabulate = coeffs.phi_matrix

    def small_tables_only(max_degree, t):
        assert np.size(t) < 10 ** 6, "the refused table was tabulated"
        return tabulate(max_degree, t)

    monkeypatch.setattr(coeffs, "phi_matrix", small_tables_only)
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


def test_rate_study_rejects_grid_degree_of_coefficient_function(tmp_path, capsys):
    # the class function is defined by its degree-128 coefficients, so a
    # different grid_degree cannot be honoured and must not be ignored
    cfg = tmp_path / "deg.ini"
    cfg.write_text("[experiment]\nfunction = class\n\n[method]\ngrid_degree = 64\n")
    rc = run_cli("rate-study", "--config", cfg, "--out", tmp_path, "--run-id", "deg")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "grid_degree=64" in err and "128" in err
    assert not (tmp_path / "deg").exists()


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


def test_emit_surface_function_mismatch(tmp_path, capsys):
    assert run_cli("example1", "--grid-degree", 32, "--seeds", 2,
                   "--out", tmp_path, "--run-id", "e1") == 0
    rc = run_cli("emit-surface", "--run", "e1", "--out", tmp_path,
                 "--function", "example2")
    assert rc == 2
    assert "example2" in capsys.readouterr().err


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


def test_experiment_config_ini_round_trip(tmp_path):
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
