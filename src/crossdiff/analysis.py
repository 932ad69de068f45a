"""Test-function corpus, error metrics, and noise-convergence rate studies.

Every function is separable, F(t,tau) = g(t) q(tau) / C, with factors
that are piecewise polynomials (a kink of limited smoothness at t = 0),
trigonometric, or Legendre series of prescribed coefficient decay (the
class members); each carries its exact derivatives, so reconstruction
errors are measured without a reference discretization.
"""

from __future__ import annotations

import math
import mmap
import os
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .coeffs import (
    CoeffGrid, NoiseSpec, _noisy_blocks, _project, _series_coeffs, _write_csv, exact_coeffs,
)
from .legendre import _LegendreSeries, _usable_cpus, phi_matrix
from .truncation import (
    CrossSet,
    SmoothnessParams,
    _fit,
    _truncate_block,
    build_cross,
    choose_gamma,
    choose_n,
    class_norm,
)

__all__ = [
    "PiecewisePoly",
    "CosFactor",
    "TestFunction",
    "example1_F",
    "example2_F",
    "make_class_function",
    "ErrorEvaluator",
    "l2_error",
    "c_error",
    "RateStudyResult",
    "rate_study",
    "theoretical_slope",
]


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial factor on [-1,1]; pieces meet at breakpoints.

    pieces[i] holds ascending-power coefficients valid on the i-th
    subinterval; the right endpoint of the last piece is inclusive.
    """

    breakpoints: tuple
    pieces: tuple

    def eval(self, t):
        """The factor at t: piece i where edge_i <= t < edge_i+1, the edges
        being -inf, the breakpoints and +inf; 0 at NaN and +inf. Each piece
        is evaluated on the inputs its mask selects."""
        from numpy.polynomial.polynomial import polyval  # loaded on first use, not by importing the cli

        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        edges = (-np.inf, *self.breakpoints, np.inf)
        for lo, hi, cs in zip(edges[:-1], edges[1:], self.pieces):
            sel = (t >= lo) & (t < hi)
            out[sel] = polyval(t[sel], cs)
        return out

    def deriv(self, r: int) -> "PiecewisePoly":
        if r == 0:
            return self
        from numpy.polynomial.polynomial import polyder  # loaded on first use, not by importing the cli

        pieces = tuple(tuple(polyder(np.asarray(cs, dtype=float), r)) for cs in self.pieces)
        return PiecewisePoly(self.breakpoints, pieces)


@dataclass(frozen=True)
class CosFactor:
    """amplitude * cos(freq * t + phase); differentiation shifts the phase."""

    amplitude: float
    freq: float
    phase: float = 0.0

    breakpoints = ()

    def eval(self, t):
        return self.amplitude * np.cos(self.freq * t + self.phase)

    def deriv(self, r: int) -> "CosFactor":
        return CosFactor(
            self.amplitude * self.freq ** r, self.freq, self.phase + 0.5 * r * math.pi
        )


@dataclass(eq=False)
class TestFunction:
    """F(t, tau) = g(t) q(tau) / C, callable with broadcasting. Each factor, a
    PiecewisePoly, CosFactor or Legendre series, has eval, deriv and breakpoints."""

    id: str
    C: float
    t_factor: object
    tau_factor: object
    __test__ = False  # a function under study, not a pytest test class

    @property
    def breakpoints_t(self) -> tuple:
        return getattr(self.t_factor, "breakpoints", ())

    @property
    def breakpoints_tau(self) -> tuple:
        return getattr(self.tau_factor, "breakpoints", ())

    def eval(self, t, tau):
        out = self.t_factor.eval(t) * self.tau_factor.eval(tau)
        out /= self.C  # in place: no second array of the grid
        return out

    __call__ = eval

    def exact_deriv(self, r: int, axis: str = "t") -> "TestFunction":
        """d^r F / d axis^r, exact: the function of the differentiated
        factors, which keep their breakpoints."""
        if axis not in ("t", "tau"):
            raise ValueError(f"axis must be 't' or 'tau', got {axis!r}")
        if r < 0:
            raise ValueError("derivative order r must be >= 0")
        name = f"{self.id}-d{r}{axis}"
        gt, qt = self.t_factor, self.tau_factor
        return TestFunction(name, self.C, gt.deriv(r) if axis == "t" else gt,
                            qt.deriv(r) if axis == "tau" else qt)


def _kink_factor() -> PiecewisePoly:
    """The degree-8 piecewise factor with a C^6 kink at t = 0."""
    left = (0.0, 0.0, -1 / 8, 0.0, 1 / 12, -1 / 25, 0.0, 1 / 38, -1 / 108)
    right = (0.0, 0.0, -1 / 8, 0.0, 1 / 12, -1 / 25, 0.0, 1 / 102, -1 / 198)
    return PiecewisePoly((0.0,), (left, right))


def example1_F() -> TestFunction:
    """First corpus function: product of two kink factors, scaled by 947."""
    f = _kink_factor()
    return TestFunction(id="example1", C=947.0, t_factor=f, tau_factor=f)


def example2_F() -> TestFunction:
    """Second corpus function: kink factor times 2 cos(pi tau), scaled by 26318."""
    return TestFunction(id="example2", C=26318.0, t_factor=_kink_factor(),
                        tau_factor=CosFactor(2.0, math.pi))


def make_class_function(s: float = 2.0, mu1: float = 5.6, mu2: float = 5.6) -> TestFunction:
    """Synthetic class member of degree 128 in each variable: the Legendre
    series max(1,k)^(-mu1-1/s-eps) in t times max(1,j)^(-mu2-1/s-eps) in tau,
    eps = 0.01, over C, their outer product's class norm, so that its
    coefficients have class norm 1."""
    eps = 0.01
    kbar = np.maximum(1.0, np.arange(129, dtype=float))
    x, y = kbar ** (-mu1 - 1.0 / s - eps), kbar ** (-mu2 - 1.0 / s - eps)
    return TestFunction(f"class-s{s:g}-mu{mu1:g}x{mu2:g}", class_norm(np.outer(x, y), s, mu1, mu2),
                        _LegendreSeries(x), _LegendreSeries(y))


def _effective_degrees(data: np.ndarray) -> tuple[int, int]:
    """Highest row and column nonzero in any block of data, a grid or a stack;
    (-1, -1) if none, so that a grid of zeros has an empty active block."""
    nonzero = data.any(axis=0) if data.ndim == 3 else data
    rows = np.flatnonzero(nonzero.any(axis=1))
    if rows.size == 0:
        return -1, -1
    return int(rows[-1]), int(np.flatnonzero(nonzero.any(axis=0))[-1])


# points per axis of the uniform inclusive grid that samples the C error
_C_POINTS = 513
# rows of the uniform C grid per slab: a slab of the synthesis and of the
# reference stays in cache while it is subtracted and its absolute maximum
# taken, and the maximum of a noisy trial usually lies in one slab of the 33
_C_SLAB = 16
# unit roundoff of float64
_U = 2.0 ** -53
# trials of a level that RateStudyResult.save turns into Python floats at a time
_SAVE_ROWS = 4096
# bytes of one chunk of a batch of trials, counting a float per row of the
# C grid and of the cross's block per column of the block: the chunk's C
# bound temporaries (the noise's synthesis along the rows of the C grid,
# then its absolute values in place) stay in a core's 2 MB L2 cache while
# they are formed and reduced, as _PHI_BLOCK's rows do in legendre. On 2
# vCPUs a class rate study of 5 deltas x 50 seeds along tau took a median
# 40.0-40.3 ms scored trial by trial, 40.1-40.2 ms with 128 KB chunks,
# 38.9-39.3 ms with 256 KB, 37.8-38.3 ms with 512 KB and 38.4-38.7 ms
# unchunked (3.8 MB a level); along t 34.9-35.5 ms with any of them. The
# chunk's temporaries raise the study's peak RSS, by ~0.2 MB at 128 KB and
# ~0.3 MB at 256 KB.
_BATCH_BYTES = 2 ** 18


class ErrorEvaluator:
    """L2 and C distances of many coefficient grids to one exact reference.

    Built once per study from the reference and the largest degrees (K, J)
    of the grids it will score. The reference is a callable f(t, tau),
    such as TestFunction.exact_deriv. It stands in as coefficients c_Q and
    a tail, computed on first use: a product of two Legendre series has
    its exact coefficients (_series_coeffs), of its own degrees, with tail
    0; any other F its projection c_Q, exact_coeffs(F, K, J) bit for bit
    (Gauss rule split at F's breakpoints_t / breakpoints_tau), and tail =
    ||F - Pi F||_Q^2 under that rule. The rule keeps the basis up to (K, J)
    orthonormal, so for every grid a within those degrees
    ||F - a||_Q^2 = tail + ||c_Q - a||_F^2: two sums of squares, nothing to
    cancel, and no quadrature in any trial (Parseval). Both errors take
    the active block [0..kmax] x [0..jmax] alone, since truncation to the
    cross leaves every coefficient outside it zero: the L2 sum splits
    there, and C synthesizes it on the uniform C grid of 513 points per
    axis (_C_POINTS), whose tables are shared the same way. _Level scores
    trials on the same blocks, the C error from a few slabs of the grid.
    """

    def __init__(self, exact, K: int, J: int):
        self.exact = exact
        self.K, self.J = K, J

    @cached_property
    def _reference(self) -> tuple[np.ndarray, float]:
        """(c_Q, tail): the reference's coefficients, exact or of degrees up
        to (K, J), and the squared quadrature distance they leave."""
        data = _series_coeffs(self.exact)
        if data is not None:
            return data, 0.0
        coeffs, ref, (pt, wt), (ptau, wtau) = _project(self.exact, self.K, self.J)
        resid = ref - pt.T @ coeffs @ ptau
        return coeffs, float(wt @ np.square(resid, out=resid) @ wtau)

    @cached_property
    def _grid_tables(self):
        """(phi, ref): the basis on the C grid up to the largest degree
        scored, and the reference there."""
        g = np.linspace(-1.0, 1.0, _C_POINTS)
        ref = np.asarray(self.exact(g[:, None], g[None, :]), dtype=float)
        return phi_matrix(max(self.K, self.J), g), ref

    @cached_property
    def _phi_max(self) -> np.ndarray:
        """max |phi_l| over the C grid, per degree l."""
        phi = self._grid_tables[0]
        return np.maximum(phi.max(axis=1), -phi.min(axis=1))

    def _active(self, data: np.ndarray) -> np.ndarray:
        """data, a grid or a stack, up to its highest nonzero row and column in any block."""
        kmax, jmax = _effective_degrees(data)
        if kmax > self.K or jmax > self.J:
            raise ValueError(
                f"active degrees ({kmax},{jmax}) exceed the evaluator's "
                f"degrees ({self.K},{self.J})"
            )
        return data[..., : kmax + 1, : jmax + 1]

    def l2(self, approx: CoeffGrid) -> float:
        """L2([-1,1]^2) distance of approx to the reference. approx's active
        degrees must lie within (K, J): the identity holds only there."""
        return float(self._l2_block(self._active(approx.data)))

    def _outside(self, shape) -> float:
        """tail plus the squares of c_Q outside its top-left block of the
        given shape. Summed directly: the total less the inside cancels to
        ~1e-8 relative when the block holds nearly all of it."""
        (ref, tail), (kb, jb) = self._reference, shape
        return float(tail + np.sum(np.square(ref[kb:])) + np.sum(np.square(ref[:kb, jb:])))

    def _l2_block(self, block: np.ndarray):
        """L2 distance of the grid that is block in its top-left corner and zero
        elsewhere, or of each grid of a stack of blocks: the root of _outside of
        the block's shape plus the squared distance to the reference's
        coefficients on the block. l2 and trials pass active blocks (_active)."""
        ref = self._reference[0][: block.shape[-2], : block.shape[-1]]
        diff = np.negative(block)
        diff[..., : ref.shape[0], : ref.shape[1]] += ref
        squares = np.sum(np.square(diff, out=diff), axis=(-2, -1))
        return np.sqrt(self._outside(block.shape[-2:]) + squares)

    def _slab_maxima(self, block: np.ndarray, bounds=None) -> np.ndarray:
        """max |synthesis(block) - reference| over each slab of _C_SLAB rows
        of the C grid; a NaN in a slab is that slab's maximum. Given one
        upper bound per slab, the slabs go in decreasing order of bound and
        the pass stops once its running maximum exceeds every remaining
        bound; the slabs it skips read -inf."""
        phi, ref = self._grid_tables
        left, right = phi[: block.shape[0]].T @ block, phi[: block.shape[1]]
        out = np.full(len(range(0, _C_POINTS, _C_SLAB)), -np.inf)
        buf = np.empty((min(_C_SLAB, _C_POINTS), _C_POINTS))
        # argsort puts NaN bounds last, so they come first here and the
        # running maximum, never above a NaN, cannot stop before them
        order = range(out.size) if bounds is None else np.argsort(bounds)[::-1]
        worst = -np.inf
        for i in order:
            if bounds is not None and worst > bounds[i]:
                break
            lo = i * _C_SLAB
            hi = min(lo + _C_SLAB, _C_POINTS)
            diff = np.matmul(left[lo:hi], right, out=buf[: hi - lo])
            diff -= ref[lo:hi]
            out[i] = np.abs(diff, out=diff).max()
            worst = np.maximum(worst, out[i])  # keeps a NaN, as max() does
        return out

    def c(self, approx: CoeffGrid) -> float:
        """Max-norm distance of approx to the reference on the uniform grid."""
        return float(self._slab_maxima(self._active(approx.data)).max())


def _along(sp: SmoothnessParams, axis: str) -> SmoothnessParams:
    """The class with mu1 the weight of the axis differentiated: mu1 weighs t
    and mu2 tau, as in class_norm, so along tau the two trade places."""
    return sp if axis == "t" else replace(sp, mu1=sp.mu2, mu2=sp.mu1)


def _plan(sp: SmoothnessParams, deltas, ns, r: int, c: float, gamma, metric, axis: str,
          degree: int) -> list[CrossSet]:
    """The cross of every noise level for the r-th derivative along axis: its
    n from ns, or else choose_n of each delta, and the run's one gamma, or
    else choose_gamma, which does not depend on delta, both of the class
    along axis (_along). Refuses the first n beyond degree, the grids'
    degree along axis, before any grid, cross or trial is built."""
    sp = _along(sp, axis)
    levels = list(ns) or [choose_n(sp, delta, r, c) for delta in deltas]
    for n in levels:
        if n > degree:
            raise ValueError(f"truncation level n={n} exceeds grid degree {degree}")
    gamma = choose_gamma(sp, r, metric) if gamma is None else float(gamma)
    return [build_cross(n, gamma, r, axis) for n in levels]


def _noise(delta: float, p: float, mode: str, base_seed: int, level: int) -> NoiseSpec:
    """The noise of draw 0 of noise level `level` (0, 1, ...) of a run;
    draw sd of _Level.trials takes this seed + sd."""
    return NoiseSpec(delta, p, mode, base_seed + 997 * level)


class _Level:
    """One noise level of an error table or a rate study: data cut to the
    cross, differentiated along its axis and scored by scorer as its l2 and
    c score the public path (add_noise, truncate), bit for bit. Built before
    any worker forks: B, the noise-free truncation's active block, and
    bias_max, the maximum b_s of |synthesis(B) - reference| over each slab
    s of the C grid. errors holds B's (L2, C) errors: the bias of every
    trial, and the whole error of a row without noise (noise None).

    A trial A = B + N errs by at most b_s + n_s on slab s, the synthesis
    being linear, where n_s = max over x in s of
    sum_l |(Phi^T N)(x, l)| max_y |phi_l(y)|. _limits raises each bound by
    rel * (b_s + n_s + sigma_A + sigma_B), sigma from _scale, which exceeds
    the rounding of both syntheses and of the bound, and the evaluator's
    slab pass takes these bounds. So it equals ErrorEvaluator.c, bit for
    bit, from the slabs that can hold the maximum. A trial or reference that
    is not finite is evaluated on every slab."""

    def __init__(self, scorer: ErrorEvaluator, data: np.ndarray, cross: CrossSet,
                 noise: NoiseSpec | None):
        self._scorer, self._data, self.cross, self.noise = scorer, data, cross, noise
        _fit(cross, scorer.K, scorer.J)  # refuses a cross outside the grid first
        self._bias = scorer._active(self.approx())
        self.bias_max = scorer._slab_maxima(self._bias)
        self.errors = float(scorer._l2_block(self._bias)), float(self.bias_max.max())
        self._bias_scale = float(self._scale(self._bias))
        # rounding of (K+1)- and (J+1)-term sums, with room to spare
        self._rel = 8 * (scorer.K + scorer.J + 8) * _U
        self._starts = np.arange(0, _C_POINTS, _C_SLAB)
        kb, jb = cross.block.shape
        self._chunk = max(1, _BATCH_BYTES // (8 * (_C_POINTS + kb) * max(jb, 1)))

    def _scale(self, block: np.ndarray):
        """sum_kl max|phi_k| |block_kl| max|phi_l|, which bounds the magnitude
        of every term of the block's synthesis anywhere on the C grid; one
        per block of a stack."""
        phi_max = self._scorer._phi_max
        return phi_max[: block.shape[-2]] @ np.abs(block) @ phi_max[: block.shape[-1]]

    def _limits(self, blocks: np.ndarray) -> np.ndarray:
        """The bound of every slab of each block of the stack blocks, for the
        bounded slab pass: a (blocks, slabs) array."""
        s, (bk, bj) = self._scorer, self._bias.shape
        k, j = max(blocks.shape[1], bk), max(blocks.shape[2], bj)
        noise = np.zeros((len(blocks), k, j))
        noise[:, : blocks.shape[1], : blocks.shape[2]] = blocks
        noise[:, :bk, :bj] -= self._bias
        left_n = s._grid_tables[0][:k].T @ noise
        row_noise = np.abs(left_n, out=left_n) @ s._phi_max[:j]
        bound = self.bias_max + np.maximum.reduceat(row_noise, self._starts, axis=1)
        sigma = self._scale(blocks) + self._bias_scale
        return (bound * (1.0 + self._rel)  # 1e-300: room for underflow
                + self._rel * sigma[:, None] + 1e-300)

    def _c_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """ErrorEvaluator.c of the grid that is each block of a stack padded
        with zeros: the bounded slab pass of its active block."""
        s = self._scorer
        return np.array([s._slab_maxima(s._active(block), limit).max()
                         for block, limit in zip(blocks, self._limits(blocks))])

    def approx(self, sds=None) -> np.ndarray:
        """The truncated cross's block of data (B), or a stack of those of the
        noise draws sds."""
        kb, jb = self.cross.block.shape
        blocks = (self._data[:kb, :jb] if sds is None
                  else _noisy_blocks(self._data, self.noise, (kb, jb), sds))
        return _truncate_block(blocks, self.cross)

    @staticmethod
    def finite(values, fn_id: str, study: str | None = None):
        """values, unless one of them is not finite: then a ValueError naming
        fn_id's coefficients or, given study ("rate study", "error table"),
        the errors it produced. Rate studies and error tables check their
        coefficients, noise-free errors and trial arrays here."""
        if not np.isfinite(values).all():
            raise ValueError(f"coefficients of {fn_id} are not finite" if study is None
                             else f"{study} of {fn_id} produced non-finite errors")
        return values

    def trials(self, sds, out: np.ndarray | None = None) -> np.ndarray:
        """(error_l2, error_c) of each noise draw sd of sds, in out, a
        (len(sds), 2) float64 array, or a new one: approx(sds), scored as a
        stack of _chunk draws at a time, so a batch of any length holds one
        chunk's temporaries."""
        out = np.empty((len(sds), 2)) if out is None else out
        for lo in range(0, len(sds), self._chunk):
            blocks = self.approx(sds[lo:lo + self._chunk])
            out[lo:lo + len(blocks), 0] = self._scorer._l2_block(self._scorer._active(blocks))
            out[lo:lo + len(blocks), 1] = self._c_blocks(blocks)
        return out


def l2_error(approx: CoeffGrid, exact) -> float:
    """L2([-1,1]^2) distance between a coefficient grid and a reference, by
    Parseval (see ErrorEvaluator)."""
    return ErrorEvaluator(exact, approx.K, approx.J).l2(approx)


def c_error(approx: CoeffGrid, exact) -> float:
    """Max-norm distance sampled on a uniform inclusive grid of 513 points
    per axis."""
    return ErrorEvaluator(exact, approx.K, approx.J).c(approx)


def theoretical_slope(sp: SmoothnessParams, r: int, metric: str = "L2", axis: str = "t") -> float:
    """Predicted exponent of the error's power-law decay in delta, for the
    class along axis (_along)."""
    if metric not in ("L2", "C"):
        raise ValueError(f"metric must be 'L2' or 'C', got {metric!r}")
    sp = _along(sp, axis)
    num = sp.mu1 - 2 * r + 1.0 / sp.s - (0.5 if metric == "L2" else 1.5)
    return num / (sp.mu1 - 1.0 / sp.p + 1.0 / sp.s)  # 1/p = 0 at p = inf


@dataclass(eq=False)
class RateStudyResult:
    """Outcome of a noise-convergence study over a list of noise levels.

    trials holds the (error_l2, error_c) of every trial, a float64 array of
    shape (noise levels, seeds, 2); errors holds the per-delta medians in
    the study metric. A level's trials drew seeds first_seeds[i] + 0, 1, ...
    after truncation at ns[i], with the run's one cross shape gamma.
    """

    metric: str
    delta_list: list
    errors: list
    fitted_slope: float
    theoretical_slope: float
    ns: list
    gamma: float
    first_seeds: list
    trials: np.ndarray

    def save(self, path) -> None:
        """CSV of one (delta, n, gamma, error_l2, error_c, seed) row per trial,
        formatted _SAVE_ROWS trials of a level at a time, then a summary row
        'slope', (fitted, theoretical) in the two error columns."""
        rows = ((delta, n, self.gamma, l2, c, seed)
                for delta, n, first, level in zip(self.delta_list, self.ns, self.first_seeds,
                                                  self.trials)
                for lo in range(0, len(level), _SAVE_ROWS)
                for seed, (l2, c) in enumerate(level[lo:lo + _SAVE_ROWS].tolist(), first + lo))
        _write_csv(path, "delta,n,gamma,error_l2,error_c,seed", ("fsfffs", rows),
                   ("s--ff-", [("slope", self.fitted_slope, self.theoretical_slope)]))


# Forking is limited to where it was measured (Linux, OpenBLAS, 2 CPUs).
# There 2 forked workers lost to the serial loop or tied with it up to
# 30-32 trials, and won by 1.12x or more from 52-65 trials on, for L2 and
# C errors, Parseval and quadrature alike. So a worker takes at least
# _MIN_SHARE trials, and there are at most _MAX_WORKERS of them.
_MIN_SHARE = 32
_MAX_WORKERS = 2


def _worker_count(items: int) -> int:
    """Processes for `items` trials: one per usable CPU, at most
    _MAX_WORKERS, each with at least _MIN_SHARE trials; one off Linux."""
    if not sys.platform.startswith("linux"):
        return 1
    return max(1, min(_usable_cpus(), _MAX_WORKERS, items // _MIN_SHARE))


def _run_share(batches, out: np.ndarray, lo: int, hi: int) -> None:
    """Rows lo..hi-1 of every level of out, a (levels, draws, 2) array,
    filled in place level by level, level i's by batches[i](range(lo, hi),
    out[i, lo:hi]). A failure propagates, the earlier levels' runs filled."""
    for i, batch in enumerate(batches):
        batch(range(lo, hi), out[i, lo:hi])


def _forked_map(batches, count: int) -> np.ndarray:
    """The trials of draws 0, ..., count - 1 of every level, as a (levels,
    count, 2) float64 array in one shared anonymous mapping: level i's run
    of draws lo..hi-1 is written by batches[i](range(lo, hi), rows), rows
    being its (hi - lo, 2) view of the result.
    The result is that of the serial call _run_share(batches, out, 0,
    count), rows or exception; forking only splits the work. The draws are
    cut into one contiguous run per process, each process taking its run
    of every level, so it writes only its own pages. The caller forks one
    worker per run but the first, which it scores itself. A worker writes
    only its rows, prints nothing and leaves by os._exit, with status 0
    once its whole run is filled. Every worker is reaped before this
    returns or raises. If any worker did not exit 0 (it raised, exited
    early or was killed), or the caller's run raised while there were
    workers, the caller scores the whole study again serially, so a
    failure raises what a serial call raises, whatever the number of
    processes (_worker_count).

    A forked worker shares the tables the caller built, which a spawned
    one would build again. Fork copies only the calling thread; OpenBLAS,
    NumPy's BLAS, stops its thread pool before a fork and restarts it
    after, through its own fork handlers. Python 3.12 and later warn
    (DeprecationWarning) on a fork while such threads exist."""
    workers = _worker_count(len(batches) * count)
    size = 2 * len(batches) * count
    out = np.frombuffer(mmap.mmap(-1, 8 * max(size, 1)), count=size)
    out = out.reshape(len(batches), count, 2)
    cuts = [w * count // workers for w in range(workers + 1)]
    pids, done, failed = [], False, False
    try:
        for w in range(1, workers):
            pid = os.fork()
            if pid == 0:  # the worker
                code = 1
                try:
                    _run_share(batches, out, cuts[w], cuts[w + 1])
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
        try:
            _run_share(batches, out, 0, cuts[1])
        except Exception:
            if workers == 1:  # the caller's run was the serial call
                raise
            failed = True
        done = True
    finally:
        if not done:
            import signal  # only this path needs it

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    if failed or any(statuses):
        _run_share(batches, out, 0, count)
    return out


def _median(values) -> float:
    """float(np.median(values)), bit for bit, without the numpy.ma import
    np.median's NaN check makes on first use: the middle value, or (a + b) / 2
    of the two middle values; NaN if any value is NaN."""
    v = np.sort(np.asarray(values, dtype=float))  # NaN sorts last
    if np.isnan(v[-1]):
        return math.nan
    mid = v.size // 2
    return float(v[mid] if v.size % 2 else (v[mid - 1] + v[mid]) / 2)


def rate_study(
    fn: TestFunction,
    sp: SmoothnessParams,
    r: int,
    metric: str,
    delta_list,
    seeds: int,
    *,
    c: float = 0.9,
    gamma: float | None = None,
    axis: str = "t",
    noise_mode: str = "rescaled",
    base_seed: int = 1000,
    grid_degree: int | None = None,
) -> RateStudyResult:
    """Measure error versus noise level and fit the decay exponent.

    sp is the smoothness class; each delta's truncation level comes from
    choose_n and the one cross shape from choose_gamma (unless gamma
    overrides it), all planned before any grid is built. `seeds`
    independent perturbations are reconstructed and the per-delta median
    error in the requested metric enters a log-log least-squares fit.
    Requires every delta in (0, 1), spanning at least three decades. The
    grids have degree grid_degree in each variable; None means the degrees
    of a Legendre-series function's own coefficients, or else 64.

    A trial works on the cross's bounding block only. So this call may
    fork: on Linux, a study of 64 or more trials splits them across two
    processes where two CPUs are usable (see _worker_count, _forked_map).
    Each trial draws its own seed, so the result is the same, bit for bit,
    for any number of processes.
    """
    delta_list = [float(d) for d in delta_list]
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    if metric not in ("L2", "C"):
        raise ValueError(f"metric must be 'L2' or 'C', got {metric!r}")
    K = J = grid_degree
    if grid_degree is None:
        series = _series_coeffs(fn)
        K, J = (64, 64) if series is None else (d - 1 for d in series.shape)
    # refuses a delta outside (0,1) before the span, which divides by the smallest
    crosses = _plan(sp, delta_list, (), r, c, gamma, metric, axis, K if axis == "t" else J)
    if len(delta_list) < 2 or max(delta_list) / min(delta_list) < 0.999e3:
        raise ValueError("delta_list must span at least three decades")

    data = _Level.finite(exact_coeffs(fn, K, J).data, fn.id)
    scorer = ErrorEvaluator(fn.exact_deriv(r, axis), K, J)

    # an overflow in scoring reads as a non-finite error, refused below;
    # the forked workers inherit this state
    with np.errstate(over="ignore"):
        levels = [_Level(scorer, data, cross, _noise(delta, sp.p, noise_mode, base_seed, i))
                  for i, (delta, cross) in enumerate(zip(delta_list, crosses))]
        trials = _forked_map([level.trials for level in levels], seeds)
    trials = _Level.finite(trials, fn.id, "rate study")
    medians = [_median(level[:, int(metric == "C")]) for level in trials]

    slope = float(np.polyfit(np.log(delta_list), np.log(medians), 1)[0])
    return RateStudyResult(
        metric=metric,
        delta_list=delta_list,
        errors=medians,
        fitted_slope=slope,
        theoretical_slope=theoretical_slope(sp, r, metric, axis),
        ns=[cross.n for cross in crosses],
        gamma=crosses[0].gamma,
        first_seeds=[level.noise.seed for level in levels],
        trials=trials,
    )
