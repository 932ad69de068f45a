"""Orthonormal Legendre basis, Gauss-Legendre quadrature, and the
coefficient-space differentiation operator.

The basis is phi_k(t) = sqrt(k + 1/2) * P_k(t) on [-1, 1], orthonormal in
L2. Differentiation acts on expansion coefficients through a sparse
upper-triangular operator built from the expansion

    phi_k'(t) = 2 sqrt(k + 1/2) * sum_{l < k, k+l odd} sqrt(l + 1/2) phi_l(t),

iterated for higher orders. Working in coefficient space keeps evaluation
stable at the interval endpoints, where Legendre derivatives peak.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadRule",
    "DerivOperator",
    "eval_phi",
    "phi_matrix",
    "gauss_rule",
    "mueller_first_derivative",
    "iterate_derivative",
    "differentiate",
    "synthesize",
]


# nodes per block of the tabulation: three float64 work rows of this length
# (128 KB each) stay in cache while the recurrence runs up the degrees
_PHI_BLOCK = 16384


def phi_matrix(max_degree: int, t: np.ndarray) -> np.ndarray:
    """Table of orthonormal Legendre values phi_k(t_i).

    Parameters
    ----------
    max_degree : highest degree k to tabulate.
    t : evaluation points in [-1, 1], any shape.

    Returns
    -------
    Array of shape (max_degree + 1, t.size) with rows phi_0 .. phi_max_degree.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    t = np.asarray(t, dtype=float).ravel()
    out = np.empty((max_degree + 1, t.size))
    scale = np.sqrt(np.arange(max_degree + 1) + 0.5)
    out[0] = scale[0]
    if max_degree == 0:
        return out
    # Unnormalized three-term recurrence over cache-sized node blocks, each
    # row scaled on its way into the table. Every element sees the same
    # operations in the same order as the whole-array form
    # ((2k+1) t p_k - k p_{k-1}) / (k+1) followed by * sqrt(k+1/2), so the
    # table is bit-identical to it.
    width = min(_PHI_BLOCK, t.size)
    p_prev, p, nxt = (np.empty(width) for _ in range(3))
    for lo in range(0, t.size, _PHI_BLOCK):
        tb = t[lo:lo + _PHI_BLOCK]
        m = tb.size
        p_prev_b, p_b, nxt_b = p_prev[:m], p[:m], nxt[:m]
        p_prev_b.fill(1.0)
        p_b[:] = tb
        np.multiply(tb, scale[1], out=out[1, lo:lo + m])
        for k in range(1, max_degree):
            np.multiply(tb, 2 * k + 1, out=nxt_b)
            nxt_b *= p_b
            p_prev_b *= k
            nxt_b -= p_prev_b
            nxt_b /= k + 1
            np.multiply(nxt_b, scale[k + 1], out=out[k + 1, lo:lo + m])
            p_prev_b, p_b, nxt_b = p_b, nxt_b, p_prev_b
    return out


def eval_phi(k: int, t):
    """Evaluate phi_k(t) = sqrt(k + 1/2) P_k(t) by three-term recurrence."""
    if k < 0:
        raise ValueError("degree k must be >= 0")
    arr = np.asarray(t, dtype=float)
    vals = phi_matrix(k, arr.ravel())[k].reshape(arr.shape)
    return float(vals) if np.isscalar(t) or arr.ndim == 0 else vals


@dataclass(frozen=True)
class QuadRule:
    """Gauss-Legendre nodes and weights on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray


def _legendre_and_derivative(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_m(x) and P_m'(x) for interior points |x| < 1."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, m):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    dp = m * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_rule(m: int) -> QuadRule:
    """m-point Gauss-Legendre rule by Newton iteration.

    Initial guesses are the Chebyshev-style estimates
    cos(pi (4i + 3) / (4m + 2)); iteration is run to |dx| < 1e-14.
    Rules are memoised: repeated calls with the same m return the same
    QuadRule, whose arrays are read-only.
    """
    if m < 1:
        raise ValueError("need at least one quadrature node")
    return _gauss_rule(m)


@functools.lru_cache(maxsize=64)
def _gauss_rule(m: int) -> QuadRule:
    i = np.arange(m)
    x = np.cos(np.pi * (4 * i + 3) / (4 * m + 2))
    if m == 1:
        x = np.zeros(1)
    for _ in range(100):
        p, dp = _legendre_and_derivative(m, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-14:
            break
    # enforce the exact +/- symmetry of the node set
    x = 0.5 * (x - x[::-1])
    _, dp = _legendre_and_derivative(m, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    nodes, weights = x[order], w[order]
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadRule(nodes=nodes, weights=weights)


@dataclass(frozen=True)
class DerivOperator:
    """Coefficient-space differentiation operator of a given order.

    matrix[l, k] maps input coefficient k to output coefficient l; it is
    strictly upper triangular, and for order 1 only entries with k + l odd
    are populated.
    """

    order: int
    max_degree: int
    matrix: np.ndarray


def mueller_first_derivative(max_degree: int) -> DerivOperator:
    """Order-1 operator: M[l, k] = 2 sqrt(k+1/2) sqrt(l+1/2) for l < k, k+l odd."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    idx = np.arange(max_degree + 1)
    half = np.sqrt(idx + 0.5)
    mat = 2.0 * np.outer(half, half)
    keep = (idx[:, None] < idx[None, :]) & ((idx[:, None] + idx[None, :]) % 2 == 1)
    mat[~keep] = 0.0
    return DerivOperator(order=1, max_degree=max_degree, matrix=mat)


def iterate_derivative(op1: DerivOperator, r: int) -> DerivOperator:
    """r-fold composition of the order-1 operator."""
    if r < 1:
        raise ValueError("derivative order must be >= 1")
    if op1.order != 1:
        raise ValueError("iterate_derivative starts from an order-1 operator")
    mat = op1.matrix
    for _ in range(r - 1):
        mat = op1.matrix @ mat
        if not np.isfinite(mat).all():  # no later power is finite either
            raise OverflowError(
                f"operator entries overflow for order {r} at degree {op1.max_degree}"
            )
    return DerivOperator(order=r, max_degree=op1.max_degree, matrix=mat)


def differentiate(data: np.ndarray, r: int, axis: str = "t") -> np.ndarray:
    """Order-r derivative of a 2-D coefficient block along t (rows) or tau
    (columns), by the order-r operator of the block's size on that axis."""
    if axis == "t":
        return _deriv_matrix(data.shape[0], r) @ data
    if axis == "tau":
        return data @ _deriv_matrix(data.shape[1], r).T
    raise ValueError(f"axis must be 't' or 'tau', got {axis!r}")


@functools.lru_cache(maxsize=16)  # one operator of degree 1024 holds 8 MB
def _deriv_matrix(size: int, r: int) -> np.ndarray:
    """Read-only order-r operator on degrees below size, zero if size <= r."""
    mat = (iterate_derivative(mueller_first_derivative(size - 1), r).matrix
           if size > r else np.zeros((size, size)))
    mat.flags.writeable = False
    return mat


def synthesize(coeffs, t_points, tau_points) -> np.ndarray:
    """Evaluate sum_{k,j} c_{k,j} phi_k(t_i) phi_j(tau_m) on the point grid.

    Accepts a CoeffGrid or a bare 2D array; returns an array of shape
    (len(t_points), len(tau_points)).
    """
    data = np.asarray(getattr(coeffs, "data", coeffs), dtype=float)
    if data.ndim != 2:
        raise ValueError("coefficient grid must be 2D")
    pt = phi_matrix(data.shape[0] - 1, np.asarray(t_points, dtype=float))
    ptau = phi_matrix(data.shape[1] - 1, np.asarray(tau_points, dtype=float))
    return pt.T @ data @ ptau
