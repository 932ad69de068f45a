"""Record the gate's reference outputs for a workload and a range of seeds.

    python3 bench/record_refs.py --workload rate-seeds --seeds 0-39

Runs one operation per seed in-process from the checkout's ``src`` and
merges what the gate observes into ``bench/refs/<workload>-<size>.json``.
trapezoid-fine has no randomness, so it records one entry, ``any``.
Re-record only when a change is meant to alter crossdiff's outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from crossdiff import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def record(workload: str, seeds, size: str, refs_dir: str) -> str:
    path = os.path.join(refs_dir, f"{workload}-{size}.json")
    refs = {}
    if os.path.isfile(path):
        with open(path) as fh:
            refs = json.load(fh)
    if workload == "trapezoid-fine":
        seeds = [0]
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as work:
        for seed in seeds:
            wl = WORKLOADS[workload](work, seed, size)
            wl.prepare()
            wl.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                codes = wl.run(cli)
            if any(codes):
                raise RuntimeError(f"{workload} seed {seed}: exit codes {codes}")
            refs[wl.ref_key] = wl.observe()
            print(f"recorded {workload} {size} {wl.ref_key}", file=sys.stderr)
    os.makedirs(refs_dir, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(refs[k])}"
            for k in sorted(refs, key=lambda k: (len(k), k))) + "\n}\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", default="0-39", help="range lo-hi, inclusive")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--refs", default=os.path.join(HERE, "refs"))
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    print(record(args.workload, range(int(lo), int(hi or lo) + 1), args.size, args.refs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
