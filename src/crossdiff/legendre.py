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
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "phi_matrix",
    "gauss_rule",
    "iterate_derivative",
    "differentiate",
    "synthesize",
]


# nodes per block of the tabulation: each thread's three float64 work rows
# of this length (512 KB each) and the 512 KB slice of nodes they read fill
# its core's 2 MB L2 cache while the recurrence runs up the degrees (4 MB is
# the two cores' total). On 2 vCPUs, degree 64 over 2M nodes took
# a median 0.43 s on two threads with 65536-node blocks, 0.44 s with 32768,
# 0.55 s with 16384 and 1.0 s with 4096; one thread took 0.71-0.82 s with
# blocks of 16384 to 65536.
_PHI_BLOCK = 65536
# nodes from which a table is split over two threads: below it the two
# threads' contention for the interpreter lock costs more than the second
# CPU saves. Alternating runs on 2 vCPUs at degree 64: 16384 nodes took
# 3.6 ms serial and 6.3 ms split, 25001 took 4.5 and 5.8 ms, 32768 took
# 7.2 and 6.5 ms, and 65536 took 24 and 16 ms. Every table built before a
# fork is far smaller: exact_coeffs of a degree-1024 grid has 2176 nodes.
_PHI_SPLIT = 32768


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, or 1 where the
    platform does not report one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def phi_matrix(max_degree: int, t: np.ndarray) -> np.ndarray:
    """Table of orthonormal Legendre values phi_k(t_i).

    A table of _PHI_SPLIT nodes or more is filled on two threads where two
    CPUs are usable: a one-worker executor fills the second half of the
    nodes, as one future, while the calling thread fills the first. The
    call returns, or raises, only after joining the helper, and the table
    is the same, bit for bit, as on one thread. trapezoid_coeffs fills the
    same table by _phi_table, from nodes it makes a block at a time.

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
    return _phi_table(max_degree, t.size, lambda lo, hi: t[lo:hi])


def _phi_table(max_degree: int, size: int, nodes) -> np.ndarray:
    """phi_matrix's table of the size nodes that nodes(lo, hi) returns a
    block lo..hi-1 at a time; the table is the one array of every node."""
    out = np.empty((max_degree + 1, size))
    scale = np.sqrt(np.arange(max_degree + 1) + 0.5)
    out[0] = scale[0]
    if max_degree == 0:
        return out
    # two threads at most: the most ever measured, as for the forked
    # workers of analysis._forked_map
    if size < _PHI_SPLIT or _usable_cpus() < 2:
        _phi_blocks(nodes, out, scale, 0, size)
        return out
    from concurrent.futures import ThreadPoolExecutor  # loads logging: here, not on import
    half = size // 2
    with ThreadPoolExecutor(1, "phi_matrix") as helper:
        second = helper.submit(_phi_blocks, nodes, out, scale, half, size)
        _phi_blocks(nodes, out, scale, 0, half)
    second.result()
    return out


def _phi_blocks(nodes, out: np.ndarray, scale: np.ndarray, lo: int, hi: int) -> None:
    """Fill rows 1.. of out at the nodes lo..hi-1, nodes(start, end) a block.

    Unnormalized three-term recurrence over cache-sized node blocks, each
    row scaled on its way into the table. Every element sees the same
    operations in the same order as the whole-array form
    ((2k+1) t p_k - k p_{k-1}) / (k+1) followed by * sqrt(k+1/2), so the
    table is bit-identical to it, whichever thread fills which nodes. The
    three work rows are this call's own.
    """
    max_degree = out.shape[0] - 1
    width = min(_PHI_BLOCK, hi - lo)
    p_prev, p, nxt = (np.empty(width) for _ in range(3))
    for start in range(lo, hi, _PHI_BLOCK):
        tb = nodes(start, min(start + _PHI_BLOCK, hi))
        m = tb.size
        p_prev_b, p_b, nxt_b = p_prev[:m], p[:m], nxt[:m]
        p_prev_b.fill(1.0)
        p_b[:] = tb
        np.multiply(tb, scale[1], out=out[1, start:start + m])
        for k in range(1, max_degree):
            np.multiply(tb, 2 * k + 1, out=nxt_b)
            nxt_b *= p_b
            p_prev_b *= k
            nxt_b -= p_prev_b
            nxt_b /= k + 1
            np.multiply(nxt_b, scale[k + 1], out=out[k + 1, start:start + m])
            p_prev_b, p_b, nxt_b = p_b, nxt_b, p_prev_b


def _legendre_and_derivative(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_m(x) and P_m'(x) for interior points |x| < 1."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, m):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    dp = m * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre rule by Newton iteration.

    Initial guesses are the Chebyshev-style estimates
    cos(pi (4i + 3) / (4m + 2)); iteration is run to |dx| < 1e-14.
    Rules are memoised: repeated calls with the same m return the same
    (nodes, weights) tuple, whose arrays are read-only.
    """
    if m < 1:
        raise ValueError("need at least one quadrature node")
    return _gauss_rule(m)


@functools.lru_cache(maxsize=64)
def _gauss_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    i = np.arange(m)
    x = np.cos(np.pi * (4 * i + 3) / (4 * m + 2))
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
    return nodes, weights


def iterate_derivative(max_degree: int, r: int) -> np.ndarray:
    """Order-r operator on degrees 0..max_degree: the r-th power of the
    order-1 operator M[l, k] = 2 sqrt(k+1/2) sqrt(l+1/2) for l < k, k+l odd.

    Entry [l, k] maps input coefficient k to output coefficient l; the
    operator is strictly upper triangular. Raises OverflowError at the first power
    with a non-finite entry.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if r < 1:
        raise ValueError("derivative order must be >= 1")
    idx = np.arange(max_degree + 1)
    half = np.sqrt(idx + 0.5)
    op1 = 2.0 * np.outer(half, half)
    keep = (idx[:, None] < idx[None, :]) & ((idx[:, None] + idx[None, :]) % 2 == 1)
    op1[~keep] = 0.0
    mat = op1
    for _ in range(r - 1):
        mat = op1 @ mat
        if not np.isfinite(mat).all():  # no later power is finite either
            raise OverflowError(
                f"operator entries overflow for order {r} at degree {max_degree}"
            )
    return mat


def differentiate(data: np.ndarray, r: int, axis: str = "t") -> np.ndarray:
    """Order-r derivative of a 2-D coefficient block, or of each block of a
    stack of them, along t (rows) or tau (columns), by the order-r operator
    of the block's size on that axis."""
    if axis == "t":
        return _deriv_matrix(data.shape[-2], r) @ data
    if axis == "tau":
        return data @ _deriv_matrix(data.shape[-1], r).T
    raise ValueError(f"axis must be 't' or 'tau', got {axis!r}")


@functools.lru_cache(maxsize=16)  # one operator of degree 1024 holds 8 MB
def _deriv_matrix(size: int, r: int) -> np.ndarray:
    """Read-only order-r operator on degrees below size, zero if size <= r."""
    mat = iterate_derivative(size - 1, r) if size > r else np.zeros((size, size))
    mat.flags.writeable = False
    return mat


@dataclass(frozen=True, eq=False)
class _LegendreSeries:
    """A factor sum_k coeffs[k] phi_k(t) on [-1, 1], held as its coefficients."""

    coeffs: np.ndarray

    breakpoints = ()

    def eval(self, t) -> np.ndarray:
        """The series at t, of any shape, in a new array, from basis tables of
        _PHI_BLOCK nodes at a time: O(degree x _PHI_BLOCK) doubles beside t."""
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape)
        flat, values = t.reshape(-1), out.reshape(-1)
        for lo in range(0, flat.size, _PHI_BLOCK):
            block = flat[lo:lo + _PHI_BLOCK]
            values[lo:lo + _PHI_BLOCK] = self.coeffs @ phi_matrix(self.coeffs.size - 1, block)
        return out

    def deriv(self, r: int) -> "_LegendreSeries":
        """The order-r operator applied to coeffs."""
        return self if r == 0 else type(self)(_deriv_matrix(self.coeffs.size, r) @ self.coeffs)


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
