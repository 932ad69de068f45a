"""crossdiff benchmark: one closed-loop client driving ``crossdiff.cli.main``.

Usage, from the root of a checkout:

    python3 bench/run.py --workload rate-seeds --seed 3 --seconds 60 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced workload process plus the tracing
overhead against an untraced one. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A full record (environment, problem sizes, every sample) goes
to ``.bench_out/`` in the checkout, and the traced pass's spans next to
it. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "first_op_s": "s",
    "op_s_p50": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
}

_FUNCTIONS = {
    "legendre.gauss_rule": ("calls", "s", "distinct_ratio"),
    "legendre.synthesize": ("calls", "s"),
    "legendre.phi_matrix": ("calls", "s", "cells"),
    "legendre.iterate_derivative": ("s",),
    "coeffs.exact_coeffs": ("s",),
    "coeffs.trapezoid_coeffs": ("s", "nodes"),
    "coeffs.add_noise": ("calls", "s"),
    "coeffs.save_grid": ("calls", "s", "bytes"),
    "truncation.build_cross": ("calls", "s", "distinct_ratio"),
    "truncation.truncate": ("calls", "s"),
    "analysis.l2_error": ("calls", "s"),
    "analysis.c_error": ("calls", "s"),
    "analysis.rate_study": ("s",),
}
_UNITS = {"calls": "count", "s": "s", "distinct_ratio": "ratio", "cells": "count",
          "nodes": "count", "bytes": "bytes"}
PER_LAYER = {f"{fn}.{q}": _UNITS[q] for fn, qs in _FUNCTIONS.items() for q in qs}
PER_LAYER.update({f"{layer}.self_s": "s" for layer in LAYERS})
PER_LAYER.update({"cli.cmd.s": "s", "tracing.op_s_p50": "s",
                  "tracing.overhead_s": "s", "tracing.unattributed_s": "s"})

# most operations after the warm-up in one workload process; a run starts
# processes until its seconds are used, so cheap operations give more
# warm-up samples
POST_OPS = 2
SETUP_ONLY = 7
# a run ends within this many seconds whatever its children do
HARD_LIMIT_S = 170.0


def _blas_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "crossdiff")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


class Runner:
    """Starts workload processes one after another and collects their reports."""

    def __init__(self, args, work: str, threads: int):
        self.args = args
        self.work = work
        self.env = _blas_env(threads)
        self.start = time.monotonic()
        self.deadline = self.start + args.seconds
        self.count = 0
        self.reports = []

    def spawn(self, *, deadline=None, setup_only=False, trace=False, min_post=1,
              max_post=10**6) -> dict:
        """Run one worker to completion; returns its report with setup_s added."""
        self.count += 1
        tag = f"p{self.count}"
        cfg = {
            "root": ROOT, "workload": self.args.workload, "seed": self.args.seed,
            "size": self.args.size, "work": os.path.join(self.work, tag),
            "refs": self.args.refs, "deadline": deadline or self.deadline,
            "setup_only": setup_only, "trace": trace, "min_post": min_post,
            "max_post": max_post, "report": os.path.join(self.work, tag + ".json"),
            "spans": self.args.spans,
        }
        limit = max(1.0, self.start + HARD_LIMIT_S - time.monotonic())
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
            cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL, stdout=sys.stderr,
        )
        try:
            code = proc.wait(timeout=limit)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or not os.path.isfile(cfg["report"]):
            print(f"worker {tag} ended with {code}", file=sys.stderr)
            report = {"ops": [{"s": time.monotonic() - spawned, "ok": False}],
                      "failed_process": True}
        else:
            with open(cfg["report"]) as fh:
                report = json.load(fh)
            report["setup_s"] = report["ready"] - spawned
        if not setup_only:
            self.reports.append(report)
        return report


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _post_ops(reports):
    return [op["s"] for r in reports for op in r["ops"][1:]]


def measure(runner: Runner, trials_per_op: int) -> tuple:
    """Untraced pass: end-to-end metrics over several fresh processes."""
    setups = [runner.spawn(setup_only=True).get("setup_s") for _ in range(SETUP_ONLY)]
    shortest = 0.0  # set-up plus the warm-up operation and its gate
    while not runner.reports or time.monotonic() + shortest <= runner.deadline:
        # the first process guarantees an operation after warm-up; later
        # ones run only what fits, so no time is left idle
        rep = runner.spawn(min_post=0 if runner.reports else 1, max_post=POST_OPS)
        setups.append(rep.get("setup_s"))
        first = rep["ops"][0]
        shortest = max(shortest, rep.get("setup_s", 0.0) + first.get("cycle", first["s"]))
    reps = runner.reports
    ops = [op for r in reps for op in r["ops"]]
    good = [r for r in reps if "rss_kb" in r]
    metrics = {
        "setup_s": _median([s for s in setups if s is not None]),
        "first_op_s": _median([r["ops"][0]["s"] for r in reps]),
        "op_s_p50": _median(_post_ops(reps)),
        "trials_per_s": trials_per_op * len(ops) / sum(op["s"] for op in ops),
        "peak_rss_mb": _median([r["rss_kb"] / 1024.0 for r in good]),
        "ok_ops_ratio": sum(op["ok"] for op in ops) / len(ops),
    }
    samples = {"setup_s": len([s for s in setups if s is not None]),
               "first_op_s": len(reps), "op_s_p50": len(_post_ops(reps)),
               "ops": len(ops)}
    return metrics, samples


def measure_traced(runner: Runner) -> tuple:
    """Untraced then traced process, each with half the run's seconds."""
    half = runner.start + runner.args.seconds / 2
    plain = runner.spawn(deadline=half)
    traced = runner.spawn(trace=True)
    metrics = {name: traced.get("layers", {}).get(name, 0.0) for name in PER_LAYER}
    traced_p50 = _median(_post_ops([traced]))
    metrics["tracing.op_s_p50"] = traced_p50
    metrics["tracing.overhead_s"] = traced_p50 - _median(_post_ops([plain]))
    metrics["tracing.unattributed_s"] = _median(traced.get("unattributed_s", []))
    samples = {"untraced_ops": len(_post_ops([plain])), "traced_ops": len(_post_ops([traced]))}
    return metrics, samples


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="problem size; tiny is for the benchmark's self-tests")
    ap.add_argument("--refs", default=os.path.join(HERE, "refs"),
                    help="directory of recorded reference outputs")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # exit through the finally clauses that stop and reap the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "crossdiff", "__init__.py")):
        print(f"error: no crossdiff sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    label = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    args.spans = os.path.join(out_dir, f"spans-{label}.json")
    threads = len(os.sched_getaffinity(0))
    runner = Runner(args, work, threads)
    trials = WORKLOADS[args.workload](work, args.seed, args.size).trials_per_op()
    try:
        if args.trace:
            metrics, samples = measure_traced(runner)
        else:
            metrics, samples = measure(runner, trials)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = [op for r in runner.reports for op in r["ops"]]
    failed = sum(not op["ok"] for op in ops)
    env = next((r["env"] for r in runner.reports if "env" in r), {})
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds, "nproc": threads,
        "blas_threads_pinned": threads, "git_revision": _git_revision(),
        "source_sha256": _source_digest(), "client": "one closed-loop client",
        "reference_outputs": all(r.get("reference", False) for r in runner.reports),
        "samples": samples, **env,
        "ops": [[op["s"], op["ok"]] for op in ops], "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"record-{label}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    units = PER_LAYER if args.trace else END_TO_END
    if not all(math.isfinite(metrics[k]) for k in units):
        print("error: no operation completed, nothing was measured", file=sys.stderr)
        return 1
    print("env " + json.dumps({k: record[k] for k in record if k not in ("ops", "metrics")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
