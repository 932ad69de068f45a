"""Output gate: checks every timed operation's files against references
recorded for the seed, or against the workload's seed-independent checks
when no reference exists. Each workload says what it observes in its
files (``Workload.observe``); this module digests and compares.

Large grids are recorded as digests (size, sum of |x|, sum of x^2, a
position-weighted sum, min, max and evenly spaced samples) so the
references stay small. Floats compare to 1e-12 relative; a value's own
magnitude sets the scale, with a floor of 1e-12 times the column's
largest magnitude so entries that are zero up to rounding compare
sensibly. Fitted slopes compare to 1e-9 absolute. ``wall_time`` is never
compared.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

REL = 1e-12
SLOPE_ABS = 1e-9
SAMPLES = 16
EXACT_TABLE = ("kind", "value", "n", "gamma", "card")
FLOAT_TABLE = ("error_l2", "error_c", "coeff_linf")


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_table(path) -> list:
    rows = []
    for r in read_csv(path):
        row = {k: r[k] for k in EXACT_TABLE}
        row.update({k: float(r[k]) if r[k] else None for k in FLOAT_TABLE})
        rows.append(row)
    return rows


def digest(values) -> dict:
    a = np.asarray(values, dtype=float).ravel()
    idx = np.linspace(0, a.size - 1, min(SAMPLES, a.size)).round().astype(int)
    return {
        "size": int(a.size),
        "sum_abs": float(np.abs(a).sum()),
        "sum_sq": float((a * a).sum()),
        "moment": float(((np.arange(a.size) + 0.5) / a.size) @ a),
        "min": float(a.min()),
        "max": float(a.max()),
        "sample": [float(x) for x in a[idx]],
    }


def read_columns(path, names) -> dict:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    cols = [header.index(n) for n in names]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)
    return {n: digest(data[:, i]) for i, n in enumerate(names)}


def _close(a, b, floor=0.0) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= REL * max(abs(a), abs(b), floor)


def _compare_digest(got, ref, where) -> list:
    if got["size"] != ref["size"] or len(got["sample"]) != len(ref["sample"]):
        return [f"{where}: size {got['size']} != {ref['size']}"]
    floor = max(abs(ref["min"]), abs(ref["max"]))
    floors = {"sum_abs": 0.0, "sum_sq": 0.0, "moment": ref["sum_abs"],
              "min": floor, "max": floor}
    bad = [f"{where}.{k}: {got[k]!r} != {ref[k]!r}"
           for k, f in floors.items() if not _close(got[k], ref[k], f)]
    bad += [f"{where}.sample[{i}]: {g!r} != {r!r}"
            for i, (g, r) in enumerate(zip(got["sample"], ref["sample"]))
            if not _close(g, r, floor)]
    return bad


def compare(obs, ref, where="") -> list:
    """Mismatches between an observation and its reference, as messages."""
    if isinstance(ref, dict) and "sum_abs" in ref:
        return _compare_digest(obs, ref, where)
    if isinstance(ref, dict):
        if set(obs) != set(ref):
            return [f"{where}: keys {sorted(obs)} != {sorted(ref)}"]
        return [m for k in ref for m in compare(obs[k], ref[k], f"{where}.{k}")]
    if isinstance(ref, list):
        if len(obs) != len(ref):
            return [f"{where}: length {len(obs)} != {len(ref)}"]
        return [m for i, (o, r) in enumerate(zip(obs, ref))
                for m in compare(o, r, f"{where}[{i}]")]
    if isinstance(ref, float) and not isinstance(obs, bool):
        ok = (abs(obs - ref) <= SLOPE_ABS if where.endswith("slope")
              else _close(obs, ref))
        return [] if ok else [f"{where}: {obs!r} != {ref!r}"]
    return [] if obs == ref else [f"{where}: {obs!r} != {ref!r}"]


class Gate:
    """References for one workload and size; ``check`` returns mismatches."""

    def __init__(self, refs_dir: str, wl):
        path = os.path.join(refs_dir, f"{wl.name}-{wl.size}.json")
        refs = {}
        if os.path.isfile(path):
            with open(path) as fh:
                refs = json.load(fh)
        self.ref = refs.get(wl.ref_key)

    @property
    def has_reference(self) -> bool:
        return self.ref is not None

    def check(self, wl) -> list:
        obs = json.loads(json.dumps(wl.observe()))  # same types as a loaded reference
        if self.ref is None:
            return wl.sanity(obs)
        return compare(obs, self.ref, wl.name)
