"""Record the golden digests that tests/test_golden.py compares against.

Runs each command of RUNS in a fresh interpreter, with crossdiff imported
from ./src and OpenBLAS on 2 threads, and writes tests/golden/digests.json:
for each run the SHA-256 of every row_<i>/deriv.csv, of rate.csv, and of
table.csv less its error_l2 and wall_time columns, plus the columns of
table.csv and rate.csv as numbers. error_l2 is compared to 1e-13 relative,
not by digest, since it is a quadrature sum whose rule may change; the
other columns are kept to show which column moved when a digest does not
match. OpenBLAS sums in an order that depends on its thread count, so the
digests hold at 2 threads only. From the repository root:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=2 python tests/record_golden.py

Record again only with a change that is meant to move these outputs, and
say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "digests.json"
SRC = HERE.parent / "src"
BLAS_THREADS = "2"
# a class-function rate study of 5 deltas x 5 seeds: 25 trials, no fork
RATE_INI = "[experiment]\nfunction = class\n\n[noise]\nseeds = 5\n"
RUNS = {
    "example1-trapezoid": ["example1", "--noise", "trapezoid"],
    "example2": ["example2"],
    "rate-class": ["rate-study", "--config", "rate.ini"],
}
# columns left out of table.csv's digest: compared by value, or not at all
UNDIGESTED = ("error_l2", "wall_time")


def run_all(root: pathlib.Path) -> None:
    """Run every command of RUNS at once, each in a fresh interpreter that
    writes its run directory root/<name>; raise with the stderr of the
    first that fails."""
    (root / "rate.ini").write_text(RATE_INI)
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=BLAS_THREADS)
    procs = [subprocess.Popen([sys.executable, "-m", "crossdiff.cli", *argv,
                               "--out", str(root), "--run-id", name],
                              cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
             for name, argv in RUNS.items()]
    errors = [(proc, proc.communicate()[1]) for proc in procs]
    for proc, err in errors:
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(proc.args)} exited {proc.returncode}: {err}")


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


def summarize(run_dir: pathlib.Path) -> dict:
    """The digests and columns of one run directory."""
    sha = {}
    columns = {}
    for path in sorted(run_dir.glob("row_*/deriv.csv")):
        sha[path.relative_to(run_dir).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    rate = run_dir / "rate.csv"
    if rate.exists():
        sha["rate.csv"] = hashlib.sha256(rate.read_bytes()).hexdigest()
        columns["rate.csv"] = _columns(rate.read_text())
    table = run_dir / "table.csv"
    if table.exists():
        lines = [line.split(",") for line in table.read_text().splitlines()]
        keep = [i for i, name in enumerate(lines[0]) if name not in UNDIGESTED]
        kept = "".join(",".join(line[i] for i in keep) + "\n" for line in lines)
        sha["table.csv"] = hashlib.sha256(kept.encode()).hexdigest()
        columns["table.csv"] = {name: col for name, col in _columns(table.read_text()).items()
                                if name != "wall_time"}
    return {"sha256": sha, "columns": columns}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        run_all(root)
        golden = {"blas_threads": int(BLAS_THREADS),
                  "runs": {name: {"argv": RUNS[name], **summarize(root / name)}
                           for name in RUNS}}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
