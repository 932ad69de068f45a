"""Hyperbolic-cross index sets and the stabilized differentiation step.

The estimator keeps only coefficients inside a cross-shaped index set
before applying the coefficient-space derivative operator: for the
mixed derivative order (r,0) ("t" axis) the set is

    Gamma = {(k,j) : r <= k <= n,  k * j**gamma <= n},

with j = 0 always admitted, and the mirrored condition for (0,r). A
CrossSet holds the set as a boolean mask over its bounding box, and
truncate differentiates only that box of a grid, since the derivative
never raises a degree. The truncation level n and shape gamma are chosen
from the smoothness class and the noise level; the formulas below
implement that selection, its admissibility hypotheses and its error decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .coeffs import CoeffGrid
from .legendre import differentiate

__all__ = [
    "CrossSet",
    "SmoothnessParams",
    "build_cross",
    "cardinality_growth",
    "truncate",
    "choose_n",
    "choose_gamma",
    "theoretical_slope",
    "class_norm",
]

_AXES = ("t", "tau")


@dataclass(frozen=True)
class CrossSet:
    """A hyperbolic-cross index set with its defining parameters. block is
    its read-only membership mask over its bounding box: block[k, j] is
    whether (k, j) belongs to the set, and an empty set has shape (0, 0)."""

    n: int
    gamma: float
    r: int
    axis: str
    block: np.ndarray = field(repr=False, compare=False)

    @property
    def indices(self) -> tuple:
        """The (k, j) pairs of the set in lexicographic order."""
        return tuple(zip(*(ax.tolist() for ax in np.nonzero(self.block))))

    @property
    def cardinality(self) -> int:
        return int(np.count_nonzero(self.block))


@dataclass(frozen=True)
class SmoothnessParams:
    """Weighted-summability class parameters; choose_n takes the noise level."""

    s: float
    mu1: float
    mu2: float
    p: float

    def __post_init__(self):
        if not self.s >= 1.0:
            raise ValueError(f"summability index s={self.s} must be >= 1")
        if not (self.mu1 > 0.0 and self.mu2 > 0.0):
            raise ValueError("smoothness weights mu1, mu2 must be positive")
        if not self.p >= 1.0:  # NaN and -inf fail
            raise ValueError(f"norm index p={self.p} must lie in [1, inf]")


def _limit(n: int, k: int, gamma: float) -> int:
    """Largest j with k * j**gamma <= n, evaluated with the same float test
    a brute-force scan would use so the two enumerations agree exactly. A
    power that overflows a float (j >= 2 once gamma >= 1024) exceeds n."""
    def over(j):
        try:
            return k * float(j) ** gamma > n
        except OverflowError:
            return True
    j = int(math.floor((n / k) ** (1.0 / gamma) + 1e-12))
    while not over(j + 1):
        j += 1
    while j > 0 and over(j):
        j -= 1
    return j


def build_cross(n: int, gamma: float, r: int, axis: str = "t") -> CrossSet:
    """The cross for level n, shape gamma, derivative order r.

    n < r yields the empty set (a valid degenerate case, not an error).
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}")
    if r < 1:
        raise ValueError("derivative order r must be >= 1")
    if not gamma >= 1.0:
        raise ValueError(f"cross shape gamma={gamma} must be >= 1")
    # _limit falls as k grows, so the widest row, k = r, sets the box's width
    limits = np.array([_limit(n, k, gamma) for k in range(r, n + 1)], dtype=int)
    block = np.zeros((n + 1, limits[0] + 1) if limits.size else (0, 0), dtype=bool)
    block[r:] = np.arange(block.shape[1]) <= limits[:, None]
    if axis == "tau":
        block = np.ascontiguousarray(block.T)
    block.flags.writeable = False
    return CrossSet(n=n, gamma=gamma, r=r, axis=axis, block=block)


def cardinality_growth(gamma: float, r: int, n_list) -> list:
    """[(n, card)] along an increasing sequence of levels."""
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list[:-1], n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    return [(n, build_cross(n, gamma, r).cardinality) for n in n_list]


def truncate(coeffs: CoeffGrid, cross: CrossSet) -> CoeffGrid:
    """Zero coefficients outside the cross, then differentiate what remains.

    The result is the coefficient grid of the stabilized approximation to
    the (r,0) or (0,r) partial derivative, with provenance "derivative".
    """
    kb, jb = _fit(cross, coeffs.K, coeffs.J).shape
    block = _truncate_block(coeffs.data[:kb, :jb], cross)
    return CoeffGrid(data=np.pad(block, [(0, coeffs.K + 1 - kb), (0, coeffs.J + 1 - jb)]),
                     provenance="derivative")


def _truncate_block(block: np.ndarray, cross: CrossSet) -> np.ndarray:
    """truncate on the cross's bounding block: block, of the shape of
    cross.block or a stack of such blocks, zeroed outside the cross and
    differentiated."""
    return differentiate(np.where(cross.block, block, 0.0), cross.r, cross.axis)


def _fit(cross: CrossSet, K: int, J: int) -> np.ndarray:
    """The cross's block, refused unless it fits a grid of degrees (K, J)."""
    if cross.block.shape[0] > K + 1 or cross.block.shape[1] > J + 1:
        k, j = next((k, j) for k, j in cross.indices if k > K or j > J)
        raise ValueError(f"cross index ({k},{j}) outside grid of degrees ({K},{J})")
    return cross.block


def choose_n(sp: SmoothnessParams, delta: float, r: int, c: float = 0.9) -> int:
    """Truncation level n(delta) = c * delta**(-1/(mu1 - 1/p + 1/s)), rounded,
    for the noise level delta in (0, 1), mu1 weighing the axis differentiated.

    Requires mu1 > 2r - 1/s + 1/2 (the regime where the reconstruction
    converges) and a finite level; the calibration constant c defaults to 0.9.
    """
    if r < 1:
        raise ValueError("derivative order r must be >= 1")
    if c <= 0:
        raise ValueError("calibration constant c must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"accuracy delta={delta} must lie in (0,1)")
    if not sp.mu1 > 2 * r - 1.0 / sp.s + 0.5:
        raise ValueError(
            f"smoothness {sp.mu1:g} of the differentiated axis (mu1 along t, mu2 along "
            f"tau) too small for order r={r}: need more than {2 * r - 1.0 / sp.s + 0.5:g}"
        )
    level = c * delta ** (-1.0 / _noise_rate(sp))
    if not math.isfinite(level):
        raise ValueError(f"truncation level for delta={delta} and c={c} is not finite")
    return max(r, int(round(level)))


def choose_gamma(sp: SmoothnessParams, r: int, metric: str = "L2") -> float:
    """Midpoint of the admissible cross-shape interval (1, gamma_max).

    gamma_max depends on the error metric and on whether the summability
    index s reaches 2; an empty interval (gamma_max <= 1) raises.
    """
    if r < 1:
        raise ValueError("derivative order r must be >= 1")
    den, shift = _margin(sp, r, metric)
    if not den > 0:
        raise ValueError(
            f"smoothness {sp.mu1:g} of the differentiated axis (mu1 along t, mu2 along "
            f"tau) too small for order r={r} in {metric}: need more than "
            f"{2 * r - 1.0 / sp.s + shift:g}"
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


def theoretical_slope(sp: SmoothnessParams, r: int, metric: str = "L2", axis: str = "t") -> float:
    """Predicted exponent of the error's power-law decay in delta, for the
    class along axis (_along): choose_gamma's margin over choose_n's rate."""
    sp = _along(sp, axis)
    return _margin(sp, r, metric)[0] / _noise_rate(sp)


def _along(sp: SmoothnessParams, axis: str) -> SmoothnessParams:
    """The class with mu1 the weight of the axis differentiated: mu1 weighs t
    and mu2 tau, as in class_norm, so along tau the two trade places."""
    return sp if axis == "t" else replace(sp, mu1=sp.mu2, mu2=sp.mu1)


def _margin(sp: SmoothnessParams, r: int, metric: str) -> tuple[float, float]:
    """(mu1 - 2r + 1/s - shift, shift), shift 1/2 in L2 and 3/2 in C: the
    smoothness the r-th derivative leaves in the metric, > 0 where it converges."""
    if metric not in ("L2", "C"):
        raise ValueError(f"metric must be 'L2' or 'C', got {metric!r}")
    shift = 0.5 if metric == "L2" else 1.5
    return sp.mu1 - 2 * r + 1.0 / sp.s - shift, shift


def _noise_rate(sp: SmoothnessParams) -> float:
    """mu1 - 1/p + 1/s, with n(delta) = c * delta**(-1/rate); 1/p = 0 at p = inf."""
    return sp.mu1 - 1.0 / sp.p + 1.0 / sp.s


def class_norm(coeffs, s: float, mu1: float, mu2: float) -> float:
    """Weighted coefficient norm (sum_k,j max(1,k)^(s mu1) max(1,j)^(s mu2)
    |c_kj|^s)^(1/s) used to measure smoothness-class membership."""
    if not s >= 1.0:
        raise ValueError(f"summability index s={s} must be >= 1")
    data = np.asarray(getattr(coeffs, "data", coeffs), dtype=float)
    kbar = np.maximum(1.0, np.arange(data.shape[0], dtype=float))
    jbar = np.maximum(1.0, np.arange(data.shape[1], dtype=float))
    # The weights kbar^(s mu1) overflow once s*mu1 passes ~146 at degree
    # 128, so sum the terms in log form, scaled by the largest one. A zero
    # coefficient's term stays -inf: its log 0 is never formed, nor added to
    # a weight past the float range (mu near 1e308) as inf - inf.
    with np.errstate(over="ignore"):
        log_weight = mu1 * np.log(kbar)[:, None] + mu2 * np.log(jbar)[None, :]
    nonzero = data != 0
    log_w = np.log(np.abs(data), out=np.full(data.shape, -np.inf), where=nonzero)
    np.add(log_weight, log_w, out=log_w, where=nonzero)
    top = float(log_w.max(initial=-np.inf))
    if not math.isfinite(top):  # all zero (-inf), or a NaN or inf coefficient or weight
        return 0.0 if top == -math.inf else top
    return float(math.exp(top) * np.sum(np.exp(s * (log_w - top))) ** (1.0 / s))
