"""The benchmark's workloads: the CLI argv of one operation and the outputs
it leaves behind.

Every workload drives ``crossdiff.cli.main(argv)`` in-process. The
benchmark seed only feeds the generated argv and config files; crossdiff
sees nothing else. Each workload has a ``full`` size (what the benchmark
measures) and a ``tiny`` size (for the benchmark's own smoke tests).
"""

from __future__ import annotations

import math
import os
import shutil

import numpy as np

from gate import FLOAT_TABLE, read_columns, read_csv, read_table

RATE_DELTAS = (1e-5, 1e-6, 1e-7, 1e-8, 1e-9)
# README: with the class function and --metric L2 the slope lands near 0.286
SLOPE_L2 = (0.286 - 0.1, 0.286 + 0.1)

SIZES = {
    "rate-seeds": {
        "full": {"seeds": 50},
        "tiny": {"seeds": 2},
    },
    "trapezoid-fine": {
        "full": {"h1": 1e-6, "n1": 28, "h2": (8e-5, 2e-5, 8e-6), "n2": (19, 31, 43)},
        "tiny": {"h1": 1e-3, "n1": 28, "h2": (4e-3, 2e-3, 1e-3), "n2": (19, 31, 43)},
    },
}

def _csv(values) -> str:
    return ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in values)


class Workload:
    """One operation of a workload, bound to a work directory and a seed.

    ``prepare`` writes the inputs (part of set-up), ``clear`` removes the
    previous operation's outputs so the gate never reads stale files,
    ``run`` performs one operation through ``cli.main`` and returns the
    exit codes of its calls. ``observe`` reads back what the gate compares
    with the reference recorded under ``ref_key``; ``sanity`` holds the
    checks that hold for any seed.
    """

    name = ""

    def __init__(self, work: str, seed: int, size: str = "full"):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.work = os.path.abspath(work)
        self.seed = seed
        self.size = size
        self.p = SIZES[self.name][size]
        self.out = os.path.join(self.work, "results")

    def prepare(self) -> None:
        os.makedirs(self.work, exist_ok=True)

    def clear(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    @property
    def ref_key(self) -> str:
        return str(self.seed)

    def sizes(self) -> dict:
        return {"trials_per_op": self.trials_per_op(), **self.p}

    def trials_per_op(self) -> int:
        raise NotImplementedError

    def run(self, cli) -> list:
        raise NotImplementedError

    def observe(self) -> dict:
        raise NotImplementedError

    def sanity(self, obs) -> list:
        raise NotImplementedError


class RateSeeds(Workload):
    name = "rate-seeds"

    def prepare(self) -> None:
        super().prepare()
        self.ini = os.path.join(self.work, "rate.ini")
        with open(self.ini, "w") as fh:
            fh.write(
                "[experiment]\nfunction = class\n"
                f"[noise]\ndeltas = {_csv(RATE_DELTAS)}\n"
                f"seeds = {self.p['seeds']}\nbase_seed = {self.seed}\n"
            )

    def trials_per_op(self) -> int:
        return len(RATE_DELTAS) * self.p["seeds"]

    def sizes(self) -> dict:
        return {**super().sizes(), "deltas": RATE_DELTAS, "grid_degree": 128}

    def run(self, cli) -> list:
        return [cli.main(["rate-study", "--config", self.ini, "--metric", "L2",
                          "--out", self.out, "--run-id", "rate"])]

    def observe(self) -> dict:
        rows = read_csv(os.path.join(self.out, "rate", "rate.csv"))
        trials, slope = rows[:-1], rows[-1]
        if slope["delta"] != "slope":
            raise ValueError("rate.csv has no slope row")
        deltas = sorted({float(r["delta"]) for r in trials}, reverse=True)
        per = {d: [r for r in trials if float(r["delta"]) == d] for d in deltas}
        return {
            "trials": len(trials),
            "deltas": deltas,
            "n": [int(per[d][0]["n"]) for d in deltas],
            "seeds": [[int(r["seed"]) for r in per[d]] for d in deltas],
            "medians": [float(np.median([float(r["error_l2"]) for r in per[d]]))
                        for d in deltas],
            "slope": float(slope["error_l2"]),
            "finite": all(math.isfinite(float(r[k])) for r in trials
                          for k in ("error_l2", "error_c")),
        }

    def sanity(self, obs) -> list:
        bad = []
        if obs["trials"] != self.trials_per_op():
            bad.append(f"trials {obs['trials']} != {self.trials_per_op()}")
        if not obs["finite"] or not all(math.isfinite(m) for m in obs["medians"]):
            bad.append("non-finite errors")
        if not SLOPE_L2[0] <= obs["slope"] <= SLOPE_L2[1]:
            bad.append(f"slope {obs['slope']!r} outside {SLOPE_L2}")
        return bad


class TrapezoidFine(Workload):
    name = "trapezoid-fine"

    @property
    def ref_key(self) -> str:
        return "any"  # no randomness: one reference serves every seed

    def expected_rows(self) -> dict:
        """{run id: table rows} for the two table runs one operation writes."""
        return {"trap1": 1, "trap2": len(self.p["h2"])}

    def trials_per_op(self) -> int:
        return 1 + len(self.p["h2"])

    def run(self, cli) -> list:
        p = self.p
        return [
            cli.main(["example1", "--noise", "trapezoid", "--h", _csv([p["h1"]]),
                      "--n", str(p["n1"]), "--out", self.out, "--run-id", "trap1"]),
            cli.main(["example2", "--h", _csv(p["h2"]), "--n", _csv(p["n2"]),
                      "--out", self.out, "--run-id", "trap2"]),
        ]

    def observe(self) -> dict:
        obs = {}
        for run in self.expected_rows():
            run_dir = os.path.join(self.out, run)
            table = read_table(os.path.join(run_dir, "table.csv"))
            obs[run] = {"table": table, "deriv": [
                read_columns(os.path.join(run_dir, f"row_{i}", "deriv.csv"), ("value",))
                for i in range(len(table))]}
        return obs

    def sanity(self, obs) -> list:
        bad = []
        for run, rows in self.expected_rows().items():
            got = obs[run]
            if len(got["table"]) != rows:
                bad.append(f"{run}: {len(got['table'])} table rows, expected {rows}")
            if not all(row[k] is None or math.isfinite(row[k])
                       for row in got["table"] for k in FLOAT_TABLE):
                bad.append(f"{run}: non-finite table value")
            if not all(math.isfinite(cols["value"][k]) for cols in got["deriv"]
                       for k in ("sum_abs", "min", "max")):
                bad.append(f"{run}: non-finite deriv.csv values")
        return bad


WORKLOADS = {w.name: w for w in (RateSeeds, TrapezoidFine)}
