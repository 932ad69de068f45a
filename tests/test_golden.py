"""Golden digests: the example1 presets, example2, class-function, forked and
choose_n tables, rate studies of the class function (one of them forked)
and of example1, cross-card and emit-surface give the outputs recorded in
tests/golden/digests-<threads>.json at 1 and at 2 OpenBLAS threads (see
tests/record_golden.py, which records them and which no test runs)."""

import json
import math

import pytest

from record_golden import RUNS, golden, run_all, summarize


# the flag form of table-auto's [method] n = auto
AUTO_FLAG = ["example1", "--n", "auto", "--seeds", "3"]


def _outputs(tmp_path_factory, runs, threads):
    root = tmp_path_factory.mktemp(f"golden-{threads}")
    stdout = run_all(root, runs, threads)
    return {name: summarize(root / name, stdout[name]) for name in runs}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _outputs(tmp_path_factory, {**RUNS, "table-auto-flag": AUTO_FLAG}, 2)


@pytest.fixture(scope="module")
def outputs_one_thread(tmp_path_factory):
    return _outputs(tmp_path_factory, RUNS, 1)


def _deviations(got: dict, want: dict) -> dict:
    """The largest relative deviation of each numeric column of each file."""
    out = {}
    for path, columns in want.items():
        for name, values in columns.items():
            new = got.get(path, {}).get(name, [])
            pairs = [(a, b) for a, b in zip(new, values)
                     if isinstance(a, float) and isinstance(b, float)]
            if len(new) != len(values):
                out[f"{path}:{name}"] = "missing or of another length"
            elif pairs:
                out[f"{path}:{name}"] = max(
                    (0.0 if a == b else abs(a - b) / max(abs(b), math.ulp(0.0)))
                    for a, b in pairs)
    return out


def assert_matches_the_record(got: dict, name: str, threads: int):
    record = json.loads(golden(threads).read_text())
    assert record["blas_threads"] == threads
    want = record["runs"][name]
    assert want["argv"] == RUNS[name]
    deviations = _deviations(got["columns"], want["columns"])
    assert got["sha256"] == want["sha256"], f"largest relative deviations: {deviations}"
    if "table.csv" in want["columns"]:
        l2_got = got["columns"]["table.csv"]["error_l2"]
        l2_want = want["columns"]["table.csv"]["error_l2"]
        assert l2_got == pytest.approx(l2_want, rel=1e-13, abs=0), (
            f"largest relative deviations: {deviations}")


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
