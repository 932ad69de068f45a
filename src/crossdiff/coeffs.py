"""Fourier-Legendre coefficient grids: exact tensor-Gauss computation, the
composite trapezoid scheme, and additive l_p-bounded noise.

A coefficient grid holds c_{k,j} = <f, phi_k phi_j> over 0 <= k <= K,
0 <= j <= J together with provenance (exact / trapezoid / noisy /
derivative). Grids are dense rectangular arrays; sparse index selection
happens later, at truncation time.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .legendre import _LegendreSeries, gauss_rule, phi_matrix

__all__ = [
    "CoeffGrid",
    "NoiseSpec",
    "exact_coeffs",
    "trapezoid_coeffs",
    "add_noise",
    "lp_norm",
    "save_grid",
    "load_grid",
]

_MODES = ("rescaled", "raw_gaussian")

# trapezoid_coeffs refuses a (max(K,J)+1) x (2/h+1) basis table beyond this
_TRAPEZOID_TABLE_BYTES = 4 * 2 ** 30
# Gauss nodes per smooth piece per axis past the highest degree projected
# onto, for every exact grid and error reference. A table's coeff_linf
# compares its trapezoid grid with this exact grid, so the margin sets its
# last digits: +64 keeps those of the recorded tables, while +40 moved the
# example1-trapezoid and example2 presets' coeff_linf by up to 1.2e-8 relative.
_GAUSS_MARGIN = 64


@dataclass(frozen=True)
class NoiseSpec:
    """Additive noise model: perturbation with l_p norm delta.

    mode "rescaled" draws a Gaussian grid and rescales it so the l_p norm
    equals delta exactly; "raw_gaussian" adds delta * N(0,1) per entry
    (the uncontrolled variant, which does not guarantee the bound).
    """

    delta: float
    p: float
    mode: str = "rescaled"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"noise level delta={self.delta} must lie in (0,1)")
        if not (self.p >= 1.0 or math.isinf(self.p)):
            raise ValueError(f"norm index p={self.p} must lie in [1, inf]")
        if self.mode not in _MODES:
            raise ValueError(f"unknown noise mode {self.mode!r}")


@dataclass(frozen=True, eq=False)
class CoeffGrid:
    """Dense grid of Fourier-Legendre coefficients with provenance."""

    data: np.ndarray
    provenance: str = "exact"

    @property
    def K(self) -> int:
        return self.data.shape[0] - 1

    @property
    def J(self) -> int:
        return self.data.shape[1] - 1


def _composite_rule(nodes_per_piece: int, breakpoints=()) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule on [-1,1] split at interior breakpoints.

    Splitting keeps the rule exact for piecewise-polynomial integrands
    whose pieces meet at the breakpoints.
    """
    edges = [-1.0, *sorted(breakpoints), 1.0]
    nodes, weights = gauss_rule(nodes_per_piece)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        xs.append(half * nodes + 0.5 * (hi + lo))
        ws.append(half * weights)
    return np.concatenate(xs), np.concatenate(ws)


def _project(f, K: int, J: int):
    """(c, fvals, (pt, wt), (ptau, wtau)): f's coefficients c of degrees up
    to (K, J) under the tensor composite Gauss rule of max(K, J) +
    _GAUSS_MARGIN nodes per smooth piece per axis, split at f's
    breakpoints_t / breakpoints_tau, so piecewise polynomials integrate to
    machine precision; with f(t, tau) on the rule and each axis's basis
    table and weights."""
    nodes = max(K, J) + _GAUSS_MARGIN
    t, wt = _composite_rule(nodes, getattr(f, "breakpoints_t", ()))
    tau, wtau = _composite_rule(nodes, getattr(f, "breakpoints_tau", ()))
    fvals = np.asarray(f(t[:, None], tau[None, :]), dtype=float)
    pt, ptau = phi_matrix(K, t), phi_matrix(J, tau)
    return (pt * wt) @ fvals @ (ptau * wtau).T, fvals, (pt, wt), (ptau, wtau)


def _series_coeffs(f) -> np.ndarray | None:
    """outer(a, b) / C, the exact coefficients of f = g(t) q(tau) / C when
    both factors are Legendre series, a and b their coefficients; None for
    any other f."""
    g, q = getattr(f, "t_factor", None), getattr(f, "tau_factor", None)
    if isinstance(g, _LegendreSeries) and isinstance(q, _LegendreSeries):
        return np.outer(g.coeffs, q.coeffs) / f.C
    return None


def exact_coeffs(f, K: int, J: int) -> CoeffGrid:
    """Coefficient grid of f(t, tau) of degrees (K, J): its exact coefficients
    (_series_coeffs), cut or padded with zeros, or else its projection by the
    rule every exact grid and error reference is projected with (_project)."""
    if K < 0 or J < 0:
        raise ValueError("grid degrees K, J must be >= 0")
    series = _series_coeffs(f)
    if series is None:
        return CoeffGrid(data=_project(f, K, J)[0], provenance="exact")
    data, block = np.zeros((K + 1, J + 1)), series[: K + 1, : J + 1]
    data[: block.shape[0], : block.shape[1]] = block
    return CoeffGrid(data=data, provenance="exact")


def _trapezoid_steps(h: float) -> int:
    """Number of trapezoid steps of width h across [-1, 1]."""
    if not 0 < h <= 1:
        raise ValueError(f"trapezoid step h={h} must lie in (0, 1]")
    steps = 2.0 / h
    n = int(round(steps))
    if abs(steps - n) > 1e-8 * n:
        raise ValueError(f"step h={h} does not divide [-1,1] into whole steps")
    return n


def _weighted(values, h: float, t: np.ndarray) -> np.ndarray:
    """values at the nodes t times the trapezoid weights of step h: values *
    h inside and values * (0.5 * h) at both ends, the products w * values
    forms for w = (h/2, h, ..., h, h/2). An array of t's shape that owns its
    data apart from t, as a factor's eval returns, is weighted in place and
    returned, so no second node-sized array is made; other values are
    weighted in a copy."""
    v = np.asarray(values, dtype=float)
    if (v.shape != t.shape or not (v.flags.owndata and v.flags.writeable)
            or np.may_share_memory(v, t)):
        v = np.array(np.broadcast_to(v, t.shape))
    ends = v[0] * (0.5 * h), v[-1] * (0.5 * h)
    v *= h
    v[0], v[-1] = ends
    return v


def trapezoid_coeffs(f, K: int, J: int, h: float) -> CoeffGrid:
    """Coefficient grid of f(t, tau) = g(t) q(tau) / C, given as its
    t_factor, tau_factor and C (default 1), by the 2D composite trapezoid
    rule with step h: two 1D sums, since the tensor weights factor; one when
    both axes share one factor object and one degree. Each factor's eval(t)
    is weighted in place when it returns a new array, and in a copy
    otherwise, before the basis table is built, so beside the table only the
    nodes and one vector per sum are alive. A basis table over 4 GiB, and an
    f without both factors, are refused before anything is allocated."""
    if K < 0 or J < 0:
        raise ValueError("grid degrees K, J must be >= 0")
    n = _trapezoid_steps(h)
    table_bytes = (max(K, J) + 1) * (n + 1) * 8
    if table_bytes > _TRAPEZOID_TABLE_BYTES:
        raise ValueError(
            f"trapezoid basis table for degree {max(K, J)} at h={h} needs "
            f"{table_bytes / 2 ** 30:.1f} GiB, over the "
            f"{_TRAPEZOID_TABLE_BYTES / 2 ** 30:g} GiB limit"
        )
    gfac, qfac = getattr(f, "t_factor", None), getattr(f, "tau_factor", None)
    if gfac is None or qfac is None:
        raise ValueError("trapezoid_coeffs needs f(t, tau) = g(t) q(tau) / C "
                         "with its t_factor and tau_factor")
    t = np.arange(n + 1, dtype=float)
    t *= h
    t += -1.0
    # the integrands before the table, so no temporary of theirs sits beside it
    shared = qfac is gfac and K == J
    wg = _weighted(gfac.eval(t), h, t)
    wq = None if shared else _weighted(qfac.eval(t), h, t)
    phi = phi_matrix(max(K, J), t)
    a = phi[: K + 1] @ wg
    b = a if shared else phi[: J + 1] @ wq
    return CoeffGrid(data=np.outer(a, b) / getattr(f, "C", 1.0), provenance="trapezoid")


def lp_norm(x, p: float) -> float:
    """l_p norm of a grid or array, p in [1, inf]. Where the p-th powers
    over- or underflow, it is max|x| times the norm of x / max|x|."""
    if not (p >= 1.0 or math.isinf(p)):
        raise ValueError(f"norm index p={p} must lie in [1, inf]")
    a = np.asarray(getattr(x, "data", x), dtype=float)
    if math.isinf(p):
        return float(np.abs(a).max()) if a.size else 0.0
    # for p = 2 one pass: np.square(a) equals np.abs(a) ** 2.0 bit for bit
    with np.errstate(over="ignore"):  # an inf sum is rescaled below
        powers = np.square(a) if p == 2.0 else np.abs(a) ** p
    norm = float(np.sum(powers) ** (1.0 / p))
    top = lp_norm(a, math.inf) if norm in (0.0, math.inf) else 0.0
    return top * lp_norm(a / top, p) if 0.0 < top < math.inf else norm


def add_noise(grid: CoeffGrid, spec: NoiseSpec) -> CoeffGrid:
    """Add the perturbation defined by spec to the whole grid."""
    return CoeffGrid(_noisy_blocks(grid.data, spec, grid.data.shape, (0,))[0], "noisy")


def _noisy_blocks(data: np.ndarray, spec: NoiseSpec, shape, sds) -> np.ndarray:
    """One block of the given shape per draw sd of sds, stacked: data's
    top-left block plus spec's noise from seed spec.seed + sd, which is
    add_noise's grid of that seed there, bit for bit. Each stream is drawn
    whole into one buffer of data's shape, reused, and in mode "rescaled"
    normalised over all of it."""
    kb, jb = shape
    out = np.empty((len(sds), kb, jb))
    buf = np.empty(data.shape)
    for block, sd in zip(out, sds):
        xi = np.random.default_rng(spec.seed + sd).standard_normal(out=buf)
        scale = spec.delta / lp_norm(xi, spec.p) if spec.mode == "rescaled" else spec.delta
        np.multiply(xi[:kb, :jb], scale, out=block)
        block += data[:kb, :jb]
    return out


def _row_format(kinds: str) -> str:
    """The %-format of one CSV line of fields of the given kinds: "f" a float
    in 17 significant digits, which read back bit for bit, "s" str(), "-" empty."""
    return ",".join({"f": "%.17g", "s": "%s", "-": ""}[k] for k in kinds) + "\n"


def _fmt_float(x) -> str:
    """A float as every run file and printed line writes it."""
    return _row_format("f")[:-1] % x


def _cells(rows, cols, *grids):
    """(rows[i], cols[j], grids[0][i, j], ...) for every cell, row by row;
    cols is iterated once per row."""
    return itertools.chain.from_iterable(
        zip(itertools.repeat(r), cols, *(g[i].tolist() for g in grids))
        for i, r in enumerate(rows))


def _write_csv(path, header: str, *blocks) -> None:
    """Write a CSV file: the header line, then for each (kinds, rows) of
    blocks every row, a tuple, in the line format of those kinds."""
    with open(str(path), "w") as fh:
        fh.write(header + "\n")
        for kinds, rows in blocks:
            line = _row_format(kinds)
            fh.writelines(line % row for row in rows)


def _grid_lines(data: np.ndarray):
    """For each row k of data, its lines k,j,value as _write_csv writes the
    cells in kinds "ssf", joined, less the last newline: formatted by one
    call per row, and a row of +0.0 alone with no float formatted."""
    cells = [f",{j},{_row_format('f')[:-1]}" for j in range(data.shape[1])]
    zeros = [cell % 0.0 for cell in cells]
    plain_zero = ~(data.any(axis=1) | np.signbit(data).any(axis=1))
    for k, row in enumerate(data):
        key = str(k)
        sep = "\n" + key
        yield (key + sep.join(zeros) if plain_zero[k]
               else (key + sep.join(cells)) % tuple(row.tolist()),)


def save_grid(grid: CoeffGrid, path) -> None:
    """Write a grid as CSV (k,j,value) plus a key=value sidecar at path+'.meta'
    of its provenance, K and J.

    Values carry 17 significant digits so the round-trip is bit exact.
    """
    path = str(path)
    _write_csv(path, "k,j,value", ("s", _grid_lines(grid.data)))
    with open(path + ".meta", "w") as fh:
        fh.write(f"provenance={grid.provenance}\nK={grid.K}\nJ={grid.J}\n")


def _degree(text: str) -> int:
    """A grid degree from its text: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


# The kinds of value in run files, INI keys and flags, each a (parse, format,
# name) triple: a text that parse refuses "is not" name.
STR = (str, str, "text")
FLOAT = (float, _fmt_float, "a float")
INT = (int, str, "an integer")
DEGREE = (_degree, str, "an integer >= 0")


def _meta_field(path: str, meta: dict, key: str, kind=STR):
    """meta[key] parsed as kind; a missing key or a value kind refuses
    raises one ValueError naming the sidecar and the key."""
    if key not in meta:
        raise ValueError(f"{path}.meta: no {key}= line")
    parse, _, name = kind
    try:
        return parse(meta[key])
    except ValueError:
        raise ValueError(f"{path}.meta: {key}={meta[key]} is not {name}") from None


def load_grid(path) -> CoeffGrid:
    """Inverse of save_grid: the grid and its provenance; any sidecar key
    other than provenance, K and J is ignored. A sidecar without provenance,
    K or J, a field of the wrong kind, a row without three numeric fields,
    an index outside the grid's degrees, a cell given twice, or a row count
    other than the grid's cell count raises ValueError. Rows are counted
    before the grid is allocated."""
    path = str(path)
    with open(path + ".meta") as fh:
        meta = dict(line.strip().partition("=")[::2] for line in fh if line.strip())
    provenance = _meta_field(path, meta, "provenance")
    K, J = (_meta_field(path, meta, key, DEGREE) for key in ("K", "J"))
    try:
        with warnings.catch_warnings():  # on a file without rows; counted below
            warnings.simplefilter("ignore", UserWarning)
            cells = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1,
                               dtype=[("k", np.int64), ("j", np.int64), ("value", float)])
    except ValueError as exc:  # numpy's message ends in advice on usecols
        raise ValueError(f"{path}: {str(exc).partition('; use')[0]}") from None
    size = (K + 1) * (J + 1)
    if cells.size != size:
        raise ValueError(f"{path}: {cells.size} rows, not the {size} of a grid of degrees "
                         f"({K},{J})")
    bad = (cells["k"] < 0) | (cells["k"] > K) | (cells["j"] < 0) | (cells["j"] > J)
    if bad.any():
        k, j, _ = cells[np.argmax(bad)]
        raise ValueError(f"{path}: index ({k},{j}) outside grid of degrees ({K},{J})")
    counts = np.bincount(cells["k"] * (J + 1) + cells["j"], minlength=size)
    if counts.max() > 1:  # the row count holds, so a repeat hides a missing cell
        k, j = divmod(int(np.argmax(counts)), J + 1)
        raise ValueError(f"{path}: cell ({k},{j}) given {counts.max()} times")
    data = np.zeros((K + 1, J + 1))
    data[cells["k"], cells["j"]] = cells["value"]
    return CoeffGrid(data, provenance)
