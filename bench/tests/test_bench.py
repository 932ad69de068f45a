"""Self-tests of the benchmark: tiny smoke runs, the metric contract, the
output gate and the tracer.

Run from the checkout root with ``python3 -m pytest bench/tests -q``.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
from gate import compare  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args):
    """Run bench/run.py; returns (exit code, parsed last stdout line or None)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *map(str, args)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def tiny(workload, trace=0, *extra):
    return bench("--workload", workload, "--seed", 0, "--seconds", 1,
                 "--trace", trace, "--size", "tiny", *extra)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    code, result = tiny(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_benchmark_json_names_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _float_leaves(node, path=()):
    """Paths to non-zero floats; digest samples far below the column's
    largest magnitude sit under the gate's floor and are skipped."""
    if isinstance(node, dict) and "sample" in node:
        floor = 1e-4 * max(abs(node["min"]), abs(node["max"]))
        for k in ("sum_abs", "sum_sq", "moment", "min", "max"):
            yield from _float_leaves(node[k], path + (k,))
        for i, v in enumerate(node["sample"]):
            if abs(v) >= floor:
                yield path + ("sample", i)
    elif isinstance(node, dict):
        for k, v in node.items():
            yield from _float_leaves(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _float_leaves(v, path + (i,))
    elif isinstance(node, float) and node != 0.0:
        yield path


def _perturb_digit(x: float) -> float:
    """Change the 8th significant digit of x."""
    if x < 0:
        return -_perturb_digit(-x)
    digits = list(f"{x:.16e}")
    pos = 8  # "d.ddddddd" -> index 8 is the 8th significant digit
    digits[pos] = "1" if digits[pos] != "1" else "2"
    return float("".join(digits))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_gate_flags_a_single_perturbed_reference_digit(workload):
    with open(os.path.join(BENCH, "refs", f"{workload}-full.json")) as fh:
        refs = json.load(fh)
    ref = next(iter(refs.values()))
    assert compare(ref, ref, workload) == []
    leaves = list(_float_leaves(ref))
    for path in leaves[:: max(1, len(leaves) // 25)]:
        bad = copy.deepcopy(ref)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = _perturb_digit(node[path[-1]])
        assert compare(ref, bad, workload), path


def test_perturbed_reference_fails_every_operation(tmp_path):
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "record_refs.py"), "--workload",
         "rate-seeds", "--seeds", "0", "--size", "tiny", "--refs", str(tmp_path)],
        cwd=ROOT, check=True, capture_output=True, timeout=120,
    )
    code, result = tiny("rate-seeds", 0, "--refs", tmp_path)
    assert code == 0 and result["correct"] and result["failed"] == 0

    path = tmp_path / "rate-seeds-tiny.json"
    refs = json.loads(path.read_text())
    refs["0"]["medians"][2] = _perturb_digit(refs["0"]["medians"][2])
    path.write_text(json.dumps(refs))
    code, result = tiny("rate-seeds", 0, "--refs", tmp_path)
    assert code == 0 and not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_ops_ratio"]["value"] == 0.0


def _outputs(wl) -> dict:
    """Every output file's bytes, minus table.csv's wall_time column and the
    config.ini that records the (differing) output directory."""
    files = {}
    for base, _, names in os.walk(wl.out):
        for name in names:
            if name == "config.ini":
                continue
            path = os.path.join(base, name)
            with open(path) as fh:
                text = fh.read()
            if name == "table.csv":
                text = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
            files[os.path.relpath(path, wl.out)] = text
    return files


def _bindings():
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "crossdiff" or name.startswith("crossdiff.")
            for attr, value in vars(mod).items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_changes_no_output_and_restores_bindings(workload, tmp_path, capsys):
    from crossdiff import cli

    plain = WORKLOADS[workload](tmp_path / "plain", 7, "tiny")
    traced = WORKLOADS[workload](tmp_path / "traced", 7, "tiny")
    for wl in (plain, traced):
        wl.prepare()
    before = _bindings()
    assert not any(plain.run(cli))

    tracer = Tracer()
    assert tracer.install() > 0
    try:
        assert cli.l2_error is not before["crossdiff.cli", "l2_error"]
        tracer.op = 0
        assert not any(traced.run(cli))
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert _outputs(plain) == _outputs(traced) != {}
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "analysis.l2_error", "legendre.synthesize"} <= names
