"""Fourier-Legendre coefficient grids: exact tensor-Gauss computation, the
composite trapezoid scheme, and additive l_p-bounded noise.

A coefficient grid holds c_{k,j} = <f, phi_k phi_j> over 0 <= k <= K,
0 <= j <= J together with provenance (exact / trapezoid / noisy /
derivative). Grids are dense rectangular arrays; sparse index selection
happens later, at truncation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .legendre import gauss_rule, phi_matrix

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

# trapezoid_coeffs refuses work beyond these sizes: a basis table of
# (max(K,J)+1) x (2/h+1) doubles, and (2/h+1)^2 evaluations on the generic path
_TRAPEZOID_TABLE_BYTES = 4 * 2 ** 30
_TRAPEZOID_GENERIC_EVALS = 10 ** 8


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
    h: float | None = None
    noise: NoiseSpec | None = None
    base_provenance: str | None = None

    @property
    def K(self) -> int:
        return self.data.shape[0] - 1

    @property
    def J(self) -> int:
        return self.data.shape[1] - 1


def _bivariate(f):
    """Resolve a test function or plain callable to f(t, tau) with broadcasting."""
    return f.eval if hasattr(f, "eval") else f


def _composite_rule(nodes_per_piece: int, breakpoints=()) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule on [-1,1] split at interior breakpoints.

    Splitting keeps the rule exact for piecewise-polynomial integrands
    whose pieces meet at the breakpoints.
    """
    edges = [-1.0, *sorted(breakpoints), 1.0]
    rule = gauss_rule(nodes_per_piece)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        xs.append(half * rule.nodes + 0.5 * (hi + lo))
        ws.append(half * rule.weights)
    return np.concatenate(xs), np.concatenate(ws)


def exact_coeffs(f, K: int, J: int, quad_nodes: int) -> CoeffGrid:
    """Coefficient grid by tensor Gauss quadrature.

    quad_nodes is the node count per smooth piece per axis and must carry
    a margin over the basis degrees (>= max(K,J)+32). Functions exposing
    breakpoints_t / breakpoints_tau get the rule split there, so piecewise
    polynomials integrate to machine precision.
    """
    if K < 0 or J < 0:
        raise ValueError("grid degrees K, J must be >= 0")
    if quad_nodes < max(K, J) + 32:
        raise ValueError(f"quad_nodes={quad_nodes} too small for degrees ({K},{J})")
    t, wt = _composite_rule(quad_nodes, getattr(f, "breakpoints_t", ()))
    tau, wtau = _composite_rule(quad_nodes, getattr(f, "breakpoints_tau", ()))
    fvals = np.asarray(_bivariate(f)(t[:, None], tau[None, :]), dtype=float)
    data = (phi_matrix(K, t) * wt) @ fvals @ (phi_matrix(J, tau) * wtau).T
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


def trapezoid_coeffs(f, K: int, J: int, h: float) -> CoeffGrid:
    """Coefficient grid by the 2D composite trapezoid rule with step h.

    For separable f(t,tau) = g(t) q(tau) / C (corpus functions expose
    t_factor / tau_factor) the tensor-product weights factor the double sum
    into two 1D sums, which is what makes the fine steps of the error
    tables affordable; when both axes share one factor object and one
    degree, its sum is computed once. The generic path evaluates f on the
    full grid in row blocks. Steps whose basis table would exceed 4 GiB,
    or whose generic path would exceed 1e8 function evaluations, are
    refused before anything is allocated.
    """
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
    gfac = getattr(f, "t_factor", None)
    qfac = getattr(f, "tau_factor", None)
    separable = gfac is not None and qfac is not None
    if not separable and (n + 1) ** 2 > _TRAPEZOID_GENERIC_EVALS:
        raise ValueError(
            f"non-separable trapezoid sum at h={h} needs {(n + 1) ** 2:.3g} "
            f"function evaluations, over the {_TRAPEZOID_GENERIC_EVALS:.0e} limit"
        )
    t = -1.0 + h * np.arange(n + 1)
    w = np.full(n + 1, h)
    w[0] = w[-1] = 0.5 * h
    phi = phi_matrix(max(K, J), t)
    if separable:
        scale = getattr(f, "C", 1.0)
        a = phi[: K + 1] @ (w * gfac.eval(t))
        b = a if qfac is gfac and K == J else phi[: J + 1] @ (w * qfac.eval(t))
        data = np.outer(a, b) / scale
    else:
        fn = _bivariate(f)
        data = np.zeros((K + 1, J + 1))
        block = max(1, 2 ** 22 // (t.size + 1))
        for lo in range(0, t.size, block):
            rows = slice(lo, min(lo + block, t.size))
            fvals = np.asarray(fn(t[rows, None], t[None, :]), dtype=float)
            data += (phi[: K + 1, rows] * w[rows]) @ (fvals * w) @ phi[: J + 1].T
    return CoeffGrid(data=data, provenance="trapezoid", h=h)


def lp_norm(x, p: float) -> float:
    """l_p norm of a grid or array, p in [1, inf]."""
    if not (p >= 1.0 or math.isinf(p)):
        raise ValueError(f"norm index p={p} must lie in [1, inf]")
    a = np.asarray(getattr(x, "data", x), dtype=float)
    if math.isinf(p):
        return float(np.abs(a).max()) if a.size else 0.0
    # for p = 2 one pass: np.square(a) equals np.abs(a) ** 2.0 bit for bit
    powers = np.square(a) if p == 2.0 else np.abs(a) ** p
    return float(np.sum(powers) ** (1.0 / p))


def add_noise(grid: CoeffGrid, spec: NoiseSpec, support=None) -> CoeffGrid:
    """Add the perturbation defined by spec, optionally restricted to a cross.

    support=None perturbs the whole grid; a CrossSet perturbs only its
    indices. The Gaussian stream is drawn over the full grid shape first
    and masked, so results are reproducible regardless of support.
    """
    keep = None if support is None else support.mask(grid.K, grid.J)
    return CoeffGrid(
        data=_noisy_block(grid.data, spec, grid.data.shape, keep),
        provenance="noisy",
        h=grid.h,
        noise=spec,
        base_provenance=grid.provenance,
    )


def _noisy_block(data: np.ndarray, spec: NoiseSpec, shape, keep=None) -> np.ndarray:
    """The top-left block of the given shape of data plus the noise of spec.

    The Gaussian stream is drawn over all of data, zeroed outside the mask
    keep and, in mode "rescaled", normalised over all of data too; only the
    block is then scaled and added. So the block holds exactly the values of
    the same block of add_noise's grid.
    """
    xi = np.random.default_rng(spec.seed).standard_normal(data.shape)
    if keep is not None:
        xi[~keep] = 0.0
    if spec.mode == "rescaled":
        norm = lp_norm(xi, spec.p)
        if norm == 0.0:
            raise ValueError("empty noise support")
        scale = spec.delta / norm
    else:
        scale = spec.delta
    kb, jb = shape
    block = xi[:kb, :jb]
    block *= scale
    block += data[:kb, :jb]
    return block


def _fmt(x) -> str:
    return f"{x:.17g}"


def save_grid(grid: CoeffGrid, path) -> None:
    """Write a grid as CSV (k,j,value) plus a key=value sidecar at path+'.meta'.

    Values carry 17 significant digits so the round-trip is bit exact.
    """
    path = str(path)
    with open(path, "w") as fh:
        fh.write("k,j,value\n")
        for k in range(grid.K + 1):
            for j in range(grid.J + 1):
                fh.write(f"{k},{j},{_fmt(grid.data[k, j])}\n")
    meta = {
        "provenance": grid.provenance,
        "K": grid.K,
        "J": grid.J,
    }
    if grid.h is not None:
        meta["h"] = _fmt(grid.h)
    if grid.base_provenance is not None:
        meta["base_provenance"] = grid.base_provenance
    if grid.noise is not None:
        meta["delta"] = _fmt(grid.noise.delta)
        meta["p"] = _fmt(grid.noise.p)
        meta["mode"] = grid.noise.mode
        meta["seed"] = grid.noise.seed
    with open(path + ".meta", "w") as fh:
        for key, val in meta.items():
            fh.write(f"{key}={val}\n")


def load_grid(path) -> CoeffGrid:
    """Inverse of save_grid."""
    path = str(path)
    meta: dict[str, str] = {}
    with open(path + ".meta") as fh:
        for line in fh:
            line = line.strip()
            if line:
                key, _, val = line.partition("=")
                meta[key] = val
    K, J = int(meta["K"]), int(meta["J"])
    data = np.zeros((K + 1, J + 1))
    with open(path) as fh:
        next(fh)  # header
        for line in fh:
            k_s, j_s, v_s = line.rstrip("\n").split(",")
            data[int(k_s), int(j_s)] = float(v_s)
    noise = None
    if meta["provenance"] == "noisy":
        noise = NoiseSpec(
            delta=float(meta["delta"]),
            p=float(meta["p"]),
            mode=meta["mode"],
            seed=int(meta["seed"]),
        )
    return CoeffGrid(
        data=data,
        provenance=meta["provenance"],
        h=float(meta["h"]) if "h" in meta else None,
        noise=noise,
        base_provenance=meta.get("base_provenance"),
    )
