"""One workload process: set up, signal ready, run operations in a closed
loop, gate each one, and write a JSON report.

Started by run.py as ``python3 bench/worker.py '<json config>'``; the
config names the checkout root, workload, seed, size, work and reference
directories, the deadline (a ``time.monotonic`` value, which is
system-wide on Linux) and the report path. Set-up ends when crossdiff is
imported from the checkout's ``src`` and the workload's inputs exist; the
report carries that instant so the parent can time set-up from spawn.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
import traceback


def _setup(cfg):
    src = os.path.join(cfg["root"], "src")
    sys.path.insert(0, src)
    import crossdiff
    from crossdiff import cli

    if not os.path.abspath(crossdiff.__file__).startswith(src + os.sep):
        raise ImportError(f"crossdiff imported from {crossdiff.__file__}, not {src}")
    from workloads import WORKLOADS

    wl = WORKLOADS[cfg["workload"]](cfg["work"], cfg["seed"], cfg["size"])
    wl.prepare()
    return cli, wl


def blas_info() -> dict:
    """BLAS library name and its live thread count, read through ctypes."""
    import numpy as np

    dep = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"name": dep.get("name"), "version": dep.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()
                       and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                info["threads"] = int(getattr(lib, fn)())
                info["library"] = os.path.basename(path)
                return info
    return info


def run(cfg) -> dict:
    cli, wl = _setup(cfg)
    report = {"ready": time.monotonic(), "ops": []}
    if cfg["setup_only"]:
        return report

    import numpy as np
    from gate import Gate

    gate = Gate(cfg["refs"], wl)
    tracer = None
    if cfg["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    durations, cycles = [], []
    while True:
        post = len(durations) - 1  # operations after the warm-up one
        if post >= cfg["min_post"] and (
            post >= cfg["max_post"]
            or time.monotonic() + max(cycles) > cfg["deadline"]
        ):
            break
        wl.clear()
        if tracer is not None:
            tracer.op = len(durations)
        problems = []
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes = wl.run(cli)
        except Exception:  # an operation that raises is a failed operation
            codes = None
            problems.append(traceback.format_exc(limit=3))
        dur = time.perf_counter() - start
        durations.append(dur)
        if codes is not None and any(codes):
            problems.append(f"exit codes {codes}")
        if not problems:
            try:
                problems = gate.check(wl)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable outputs: {exc!r}"]
        for p in problems[:3]:
            print(f"[{wl.name} seed {wl.seed} op {len(durations) - 1}] {p}", file=sys.stderr)
        cycles.append(time.perf_counter() - start)  # the operation plus its gate
        report["ops"].append({"s": dur, "ok": not problems, "cycle": cycles[-1]})

    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["reference"] = gate.has_reference
    report["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "sizes": wl.sizes(),
    }
    if tracer is not None:
        tracer.uninstall()
        post_ops = range(1, len(durations))
        report["layers"] = tracer.layer_metrics(post_ops)
        top = {}
        for name, start, end, parent, op, _ in tracer.spans:
            if parent < 0:
                top[op] = top.get(op, 0.0) + end - start
        report["unattributed_s"] = [durations[i] - top.get(i, 0.0) for i in post_ops]
        tracer.write(cfg["spans"])
    wl.clear()
    return report


def main() -> int:
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    report = run(cfg)
    with open(cfg["report"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
