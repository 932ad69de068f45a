"""Hyperbolic-cross index sets and the stabilized differentiation step.

The estimator keeps only coefficients inside a cross-shaped index set
before applying the coefficient-space derivative operator: for the
mixed derivative order (r,0) ("t" axis) the set is

    Gamma = {(k,j) : r <= k <= n,  k * j**gamma <= n},

with j = 0 always admitted, and the mirrored condition for (0,r). The
truncation level n and shape gamma are chosen from the smoothness class
and the noise level; the formulas below implement that selection together
with its admissibility hypotheses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .coeffs import CoeffGrid
from .legendre import differentiate

__all__ = [
    "CrossSet",
    "SmoothnessParams",
    "MethodParams",
    "build_cross",
    "cardinality_growth",
    "truncate",
    "choose_n",
    "choose_gamma",
    "class_norm",
]

_AXES = ("t", "tau")


@dataclass(frozen=True)
class CrossSet:
    """A hyperbolic-cross index set with its defining parameters."""

    n: int
    gamma: float
    r: int
    axis: str
    indices: tuple = field(repr=False, default=())

    @property
    def cardinality(self) -> int:
        return len(self.indices)

    def mask(self, K: int, J: int) -> np.ndarray:
        """Boolean (K+1, J+1) membership mask; errors if the set sticks out."""
        m = np.zeros((K + 1, J + 1), dtype=bool)
        for k, j in self.indices:
            if k > K or j > J:
                raise ValueError(
                    f"cross index ({k},{j}) outside grid of degrees ({K},{J})"
                )
            m[k, j] = True
        return m


@dataclass(frozen=True)
class SmoothnessParams:
    """Weighted-summability class parameters plus the data accuracy delta."""

    s: float
    mu1: float
    mu2: float
    p: float
    delta: float

    def __post_init__(self):
        if not self.s >= 1.0:
            raise ValueError(f"summability index s={self.s} must be >= 1")
        if not (self.mu1 > 0.0 and self.mu2 > 0.0):
            raise ValueError("smoothness weights mu1, mu2 must be positive")
        if not (self.p >= 1.0 or math.isinf(self.p)):
            raise ValueError(f"norm index p={self.p} must lie in [1, inf]")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"accuracy delta={self.delta} must lie in (0,1)")


@dataclass(frozen=True)
class MethodParams:
    """Resolved method parameters for one reconstruction."""

    n: int
    gamma: float
    r: int
    axis: str = "t"

    def __post_init__(self):
        if self.axis not in _AXES:
            raise ValueError(f"axis must be one of {_AXES}")
        if self.r < 1:
            raise ValueError("derivative order r must be >= 1")
        if not self.gamma >= 1.0:
            raise ValueError(f"cross shape gamma={self.gamma} must be >= 1")


def _limit(n: int, k: int, gamma: float) -> int:
    """Largest j with k * j**gamma <= n, evaluated with the same float test
    a brute-force scan would use so the two enumerations agree exactly."""
    j = int(math.floor((n / k) ** (1.0 / gamma) + 1e-12))
    while k * float(j + 1) ** gamma <= n:
        j += 1
    while j > 0 and k * float(j) ** gamma > n:
        j -= 1
    return j


def build_cross(n: int, gamma: float, r: int, axis: str = "t") -> CrossSet:
    """Enumerate the cross for level n, shape gamma, derivative order r.

    n < r yields the empty set (a valid degenerate case, not an error).
    """
    if r < 1:
        raise ValueError("derivative order r must be >= 1")
    if not gamma >= 1.0:
        raise ValueError(f"cross shape gamma={gamma} must be >= 1")
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}")
    indices = []
    for k in range(r, n + 1):
        for j in range(_limit(n, k, gamma) + 1):
            indices.append((k, j) if axis == "t" else (j, k))
    if axis == "tau":
        indices.sort()
    return CrossSet(n=n, gamma=gamma, r=r, axis=axis, indices=tuple(indices))


def cardinality_growth(gamma: float, r: int, n_list) -> list:
    """[(n, card)] along an increasing sequence of levels."""
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list[:-1], n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    return [(n, build_cross(n, gamma, r).cardinality) for n in n_list]


def truncate(coeffs: CoeffGrid, params: MethodParams) -> CoeffGrid:
    """Zero coefficients outside the cross, then differentiate what remains.

    The result is the coefficient grid of the stabilized approximation to
    the (r,0) or (0,r) partial derivative, with provenance "derivative".
    """
    keep = _cross_block(params.n, params.gamma, params.r, params.axis,
                        coeffs.K, coeffs.J)  # raises if grid too small
    # Everything outside the cross's bounding block is zero, and the
    # derivative never raises a degree, so the derivative of the block is
    # the whole nonzero part of the result.
    kb, jb = keep.shape
    out = np.zeros((coeffs.K + 1, coeffs.J + 1))
    out[:kb, :jb] = _truncate_block(coeffs.data[:kb, :jb], keep, params.r, params.axis)
    return CoeffGrid(data=out, provenance="derivative")


def _truncate_block(block: np.ndarray, keep: np.ndarray, r: int, axis: str) -> np.ndarray:
    """truncate on the cross's bounding block: block, of the shape of the
    mask keep from _cross_block, zeroed outside the cross and differentiated."""
    return differentiate(np.where(keep, block, 0.0), r, axis)


@functools.lru_cache(maxsize=64)
def _cross_block(n: int, gamma: float, r: int, axis: str, K: int, J: int) -> np.ndarray:
    """Read-only membership mask of the cross, trimmed to its bounding box.
    Memoised, since a rate study truncates every seed of a noise level with
    the same cross."""
    cross = build_cross(n, gamma, r, axis)
    kb = max((k + 1 for k, _ in cross.indices), default=0)
    jb = max((j + 1 for _, j in cross.indices), default=0)
    keep = cross.mask(K, J)[:kb, :jb].copy()
    keep.flags.writeable = False
    return keep


def choose_n(sp: SmoothnessParams, r: int, c: float = 0.9) -> int:
    """Truncation level n(delta) = c * delta**(-1/(mu1 - 1/p + 1/s)), rounded.

    Requires mu1 > 2r - 1/s + 1/2 (the regime where the reconstruction
    converges); the calibration constant c defaults to 0.9.
    """
    if r < 1:
        raise ValueError("derivative order r must be >= 1")
    if c <= 0:
        raise ValueError("calibration constant c must be positive")
    if not sp.mu1 > 2 * r - 1.0 / sp.s + 0.5:
        raise ValueError(
            f"smoothness mu1={sp.mu1} too small for order r={r}: "
            f"need mu1 > {2 * r - 1.0 / sp.s + 0.5:g}"
        )
    inv_p = 0.0 if math.isinf(sp.p) else 1.0 / sp.p
    expo = 1.0 / (sp.mu1 - inv_p + 1.0 / sp.s)
    return max(r, int(round(c * sp.delta ** (-expo))))


def choose_gamma(sp: SmoothnessParams, r: int, metric: str = "L2") -> float:
    """Midpoint of the admissible cross-shape interval (1, gamma_max).

    gamma_max depends on the error metric and on whether the summability
    index s reaches 2; an empty interval (gamma_max <= 1) raises.
    """
    if r < 1:
        raise ValueError("derivative order r must be >= 1")
    if metric not in ("L2", "C"):
        raise ValueError(f"metric must be 'L2' or 'C', got {metric!r}")
    shift = 0.5 if metric == "L2" else 1.5
    den = sp.mu1 - 2 * r + 1.0 / sp.s - shift
    if not den > 0:
        raise ValueError(
            f"smoothness mu1={sp.mu1} too small for order r={r} in {metric}: "
            f"need mu1 > {2 * r - 1.0 / sp.s + shift:g}"
        )
    if metric == "L2" and sp.s < 2.0:
        gamma_max = sp.mu2 / den
    else:
        gamma_max = (sp.mu2 + 1.0 / sp.s - shift) / den
    if not gamma_max > 1.0:
        raise ValueError(
            f"admissible gamma interval is empty (gamma_max={gamma_max:g} <= 1)"
        )
    return 0.5 * (1.0 + gamma_max)


def class_norm(coeffs, s: float, mu1: float, mu2: float) -> float:
    """Weighted coefficient norm (sum_k,j max(1,k)^(s mu1) max(1,j)^(s mu2)
    |c_kj|^s)^(1/s) used to measure smoothness-class membership."""
    if not s >= 1.0:
        raise ValueError(f"summability index s={s} must be >= 1")
    data = np.asarray(getattr(coeffs, "data", coeffs), dtype=float)
    kbar = np.maximum(1.0, np.arange(data.shape[0], dtype=float))
    jbar = np.maximum(1.0, np.arange(data.shape[1], dtype=float))
    # The weights kbar^(s mu1) overflow once s*mu1 passes ~146 at degree
    # 128, so sum the terms in log form, scaled by the largest one.
    with np.errstate(divide="ignore"):
        log_w = (mu1 * np.log(kbar)[:, None] + mu2 * np.log(jbar)[None, :]
                 + np.log(np.abs(data)))
    top = float(log_w.max(initial=-np.inf))
    if not math.isfinite(top):  # all zero (-inf), or a NaN or inf coefficient
        return 0.0 if top == -math.inf else top
    return float(math.exp(top) * np.sum(np.exp(s * (log_w - top))) ** (1.0 / s))
