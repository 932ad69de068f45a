"""Spans around calls into crossdiff's public functions, recorded from the
benchmark's side.

``cli`` and ``analysis`` import ``l2_error``, ``truncate``, ``synthesize``
and others by name, and ``coeffs`` reaches ``gauss_rule`` through
``_composite_rule``, so wrapping a function where it is defined would miss
most calls. ``Tracer.install`` therefore replaces every module-level
binding of each public function in every ``crossdiff.*`` module, and
``uninstall`` puts the originals back. Spans stay in memory until
``write``. The traced pass runs in a process of its own, so untraced
measurements never see a wrapped binding.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time

LAYERS = ("legendre", "coeffs", "truncation", "analysis", "cli")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _file_bytes(path) -> int:
    path = str(path)
    return sum(os.path.getsize(p) for p in (path, path + ".meta") if os.path.isfile(p))


# per-call quantities beyond time: "key" feeds distinct_ratio, others are summed
EXTRAS = {
    "legendre.gauss_rule": lambda a, k, r: {"key": _arg(a, k, 0, "m")},
    "legendre.phi_matrix": lambda a, k, r: {"cells": r.size},
    "coeffs.trapezoid_coeffs": lambda a, k, r: {
        "nodes": int(round(2.0 / _arg(a, k, 3, "h"))) + 1},
    "coeffs.save_grid": lambda a, k, r: {"bytes": _file_bytes(_arg(a, k, 1, "path"))},
    "truncation.build_cross": lambda a, k, r: {"key": (r.n, r.gamma, r.r, r.axis)},
}


def _public_functions(package: str) -> dict:
    """{function: "layer.name"} for each layer module's public functions."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out[fn] = f"{layer}.{name}"
    return out


class Tracer:
    """Records (name, start, end, parent, op, extras) for every wrapped call."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        extra = EXTRAS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "crossdiff") -> int:
        """Wrap every binding of every public layer function; returns the count."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = _public_functions(package)
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        return len(self._saved)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "extra"],
                       "spans": self.spans}, fh, default=str)

    def layer_metrics(self, ops) -> dict:
        """Per-operation means over the given op indices, keyed by metric name.

        For each function: calls, s (inclusive time), summed extras and
        distinct_ratio (distinct keys / calls). For each layer: self_s, the
        time in its spans minus the time of the child spans they contain.
        Also cli.cmd.s, the time in all cmd_* spans.
        """
        ops = set(ops)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals, keys, calls = {}, {}, {}
        for i, (name, start, end, parent, op, extra) in enumerate(self.spans):
            if op not in ops:
                continue
            layer = name.split(".")[0]
            dur = end - start
            _add(totals, f"{layer}.self_s", dur - child[i])
            _add(totals, f"{name}.calls", 1)
            _add(totals, f"{name}.s", dur)
            if name.startswith("cli.cmd_"):
                _add(totals, "cli.cmd.s", dur)
            for key, val in (extra or {}).items():
                if key == "key":
                    keys.setdefault((name, op), set()).add(val)
                    _add(calls, (name, op), 1)
                else:
                    _add(totals, f"{name}.{key}", val)
        n = max(1, len(ops))
        out = {k: v / n for k, v in totals.items()}
        ratios = {}
        for (name, op), distinct in keys.items():
            ratios.setdefault(name, []).append(len(distinct) / calls[name, op])
        for name, vals in ratios.items():
            out[f"{name}.distinct_ratio"] = statistics.fmean(vals)
        return out


def _add(d, key, val):
    d[key] = d.get(key, 0) + val
