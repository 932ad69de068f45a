"""Record the golden digests that tests/test_golden.py compares against.

Runs each command of RUNS in a fresh interpreter, with crossdiff imported
from ./src and OpenBLAS on a given number of threads, then each command of
READERS on the run it reads, and writes tests/golden/digests-<threads>.json,
one record per thread count of THREADS: for each run the
SHA-256 of its stdout (with the results root written as <root>), of every
row_<i>/deriv.csv, of rate.csv, card.csv, verdicts.txt and surface.csv,
of config.ini less its [output] dir line, and of table.csv less its
wall_time column, plus the columns of the CSV files as numbers. For each
run it prints what moved against the record it overwrites (_moves): the
digests, and the largest relative deviation of each column.
The columns are kept to show which column moved when a digest does not
match. OpenBLAS sums in an order that depends on its thread count, so
each record holds at its own thread count only. From the repository
root, for every thread count or for those named:

    PYTHONPATH=src python tests/record_golden.py [THREADS ...]

Record again only with a change that is meant to move these outputs, and
say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# the OpenBLAS thread counts recorded, each in a file of its own
THREADS = (1, 2)
# the config file of each run that reads one, by file name; each rate study
# but the two forked ones has 5 deltas x 5 seeds: 25 trials, no fork
CONFIGS = {
    "rate.ini": "[experiment]\nfunction = class\n\n[noise]\nseeds = 5\n",
    "rate-c-tau.ini": "[experiment]\nfunction = class\naxis = tau\nmetric = C\n\n"
                      "[noise]\nseeds = 5\n",
    "rate-example1.ini": "[experiment]\nfunction = example1\n\n[noise]\nseeds = 5\n",
    "rate-tau.ini": "[experiment]\nfunction = class\naxis = tau\n\n[noise]\nseeds = 5\n",
    # 5 deltas x 13 seeds = 65 trials, which fork
    "rate-c-forked.ini": "[experiment]\nfunction = class\nmetric = C\n\n[noise]\nseeds = 13\n",
    "rate-c-tau-forked.ini": "[experiment]\nfunction = class\naxis = tau\nmetric = C\n\n"
                             "[noise]\nseeds = 13\n",
    "class.ini": "[experiment]\nfunction = class\n",
    "auto.ini": "[method]\nn = auto\n",
}
RUNS = {
    "example1-trapezoid": ["example1", "--noise", "trapezoid"],
    "example2": ["example2"],
    "rate-class": ["rate-study", "--config", "rate.ini"],
    # C errors against a series reference, differentiated along tau
    "rate-class-c-tau": ["rate-study", "--config", "rate-c-tau.ini"],
    # L2 errors against a callable reference, projected by quadrature
    "rate-example1": ["rate-study", "--config", "rate-example1.ini"],
    # L2 errors of the class function differentiated along tau
    "rate-class-tau": ["rate-study", "--config", "rate-tau.ini"],
    # C errors of 65 trials, split across forked workers
    "rate-class-c-forked": ["rate-study", "--config", "rate-c-forked.ini"],
    # the same along tau, where the C bounds of a trial span the most columns
    "rate-class-tau-forked": ["rate-study", "--config", "rate-c-tau-forked.ini"],
    # a series reference of degree 128 above the grid's degree 64
    "table-class": ["example1", "--config", "class.ini", "--delta", "1e-6,0",
                    "--n", "12,20", "--seeds", "3"],
    # the class function's two series factors, summed by the trapezoid rule
    "table-class-trapezoid": ["example1", "--config", "class.ini", "--noise", "trapezoid",
                              "--h", "1e-3,1e-4", "--n", "12,20"],
    # 100 001 nodes: a series factor evaluated over more than one node block,
    # and a basis table filled on two threads
    "table-class-trapezoid-blocks": ["example1", "--config", "class.ini", "--noise",
                                     "trapezoid", "--h", "2e-5", "--n", "12"],
    "example1-random": ["example1"],
    # a noisy row of 64 seeds or more forks its trials
    "table-forked": ["example1", "--seeds", "70", "--delta", "1e-7", "--n", "16"],
    # each level's n from choose_n of its delta
    "table-auto": ["example1", "--config", "auto.ini", "--seeds", "3"],
    "cross-card": ["cross-card", "--gamma", "1,2", "--n", "4,8,16", "--r", "2"],
    # the table that emit-surface of READERS samples
    "surface": ["example1", "--delta", "1e-7,1e-8", "--n", "8,12", "--seeds", "2",
                "--grid-degree", "32"],
}
# commands that read a run of RUNS, by its name, and write into its directory;
# they start once every run of RUNS has ended
READERS = {
    "surface": ["emit-surface", "--run", "surface", "--row", "1", "--grid-points", "17"],
}
# files digested whole, each with its columns kept if it is a CSV file
WHOLE = ("rate.csv", "card.csv", "verdicts.txt", "surface.csv")
# columns left out of table.csv's digest and columns, compared not at all
UNDIGESTED = ("wall_time",)


def golden(threads: int) -> pathlib.Path:
    """The record of the outputs at this OpenBLAS thread count."""
    return HERE / "golden" / f"digests-{threads}.json"


def run_all(root: pathlib.Path, runs: dict, threads: int) -> dict:
    """Run every command of runs at once, each in a fresh interpreter on
    threads OpenBLAS threads that writes its run directory root/<name>, then
    every command of READERS whose run is in runs; raise with the stderr of
    the first that fails. Return each run's stdout, its commands' in turn,
    with root written as <root>."""
    for name, text in CONFIGS.items():
        (root / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(threads))
    stdout = dict.fromkeys(runs, "")
    for phase in ({name: [*argv, "--out", str(root), "--run-id", name]
                   for name, argv in runs.items()},
                  {name: [*argv, "--out", str(root)]
                   for name, argv in READERS.items() if name in runs}):
        procs = {name: subprocess.Popen([sys.executable, "-m", "crossdiff.cli", *argv],
                                        cwd=root, env=env, stdout=subprocess.PIPE,
                                        stderr=subprocess.PIPE, text=True)
                 for name, argv in phase.items()}
        ends = {name: proc.communicate() for name, proc in procs.items()}
        for name, proc in procs.items():
            if proc.returncode != 0:
                raise RuntimeError(f"{' '.join(proc.args)} exited {proc.returncode}: "
                                   f"{ends[name][1]}")
            stdout[name] += ends[name][0].replace(str(root), "<root>")
    return stdout


def _columns(text: str) -> dict:
    """The columns of a CSV text by header name: numbers as floats, other
    fields as text, an empty field as None."""
    header, *rows = (line.split(",") for line in text.splitlines())

    def value(field):
        try:
            return float(field) if field else None
        except ValueError:
            return field

    return {name: [value(row[i]) for row in rows] for i, name in enumerate(header)}


def summarize(run_dir: pathlib.Path, stdout: str) -> dict:
    """The digests and columns of one run directory and its stdout."""
    sha = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    columns = {}
    for path in sorted(run_dir.glob("row_*/deriv.csv")):
        sha[path.relative_to(run_dir).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    for name in WHOLE:
        path = run_dir / name
        if path.exists():
            sha[name] = hashlib.sha256(path.read_bytes()).hexdigest()
            if name.endswith(".csv"):
                columns[name] = _columns(path.read_text())
    config = run_dir / "config.ini"
    if config.exists():  # its [output] dir names the results root
        kept = re.sub(r"(?m)^dir = .*\n", "", config.read_text())
        sha["config.ini"] = hashlib.sha256(kept.encode()).hexdigest()
    table = run_dir / "table.csv"
    if table.exists():
        lines = [line.split(",") for line in table.read_text().splitlines()]
        keep = [i for i, name in enumerate(lines[0]) if name not in UNDIGESTED]
        kept = "".join(",".join(line[i] for i in keep) + "\n" for line in lines)
        sha["table.csv"] = hashlib.sha256(kept.encode()).hexdigest()
        columns["table.csv"] = {name: col for name, col in _columns(table.read_text()).items()
                                if name not in UNDIGESTED}
    return {"sha256": sha, "columns": columns}


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


def _moves(new: dict, old: dict | None) -> str:
    """What re-recording a run changes: "new", "unchanged", or the digests
    that moved and the largest relative deviation of each column that did."""
    if old is None:
        return "new"
    digests = new["sha256"].keys() | old["sha256"].keys()
    moved = sorted(k for k in digests if new["sha256"].get(k) != old["sha256"].get(k))
    if not moved:
        return "unchanged"
    columns = [f"{column} {dev if isinstance(dev, str) else format(dev, '.2g')}"
               for column, dev in _deviations(new["columns"], old["columns"]).items()
               if dev != 0.0]
    return f"moved {', '.join(moved)}; columns {', '.join(columns) or 'none'}"


def main(argv: list[str]) -> int:
    for threads in map(int, argv or THREADS):
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            stdout = run_all(root, RUNS, threads)
            record = {"blas_threads": threads,
                      "runs": {name: {"argv": RUNS[name], **summarize(root / name, stdout[name])}
                               for name in RUNS}}
        path = golden(threads)
        old = json.loads(path.read_text())["runs"] if path.exists() else {}
        for name, run in record["runs"].items():
            print(f"{threads} thread(s), {name}: {_moves(run, old.get(name))}")
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
