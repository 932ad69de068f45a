"""Test-function corpus, error metrics, and noise-convergence studies."""

import atexit
import functools
import io
import math
import os
import signal
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.polynomial import legendre as nleg
from numpy.polynomial import polynomial as npoly

from crossdiff import analysis, coeffs, truncation
from crossdiff.analysis import (
    CosFactor,
    ErrorEvaluator,
    PiecewisePoly,
    _kink_factor,
    _Level,
    c_error,
    example1_F,
    example2_F,
    l2_error,
    make_class_function,
    rate_study,
    theoretical_slope,
)
from crossdiff.coeffs import CoeffGrid, NoiseSpec, _composite_rule, add_noise, exact_coeffs
from crossdiff.legendre import _LegendreSeries, gauss_rule, phi_matrix, synthesize
from crossdiff.truncation import (
    SmoothnessParams,
    build_cross,
    choose_gamma,
    choose_n,
    class_norm,
    truncate,
)
from operator_reference import reference_operator


def class_grid(fn):
    # a class function's coefficients, of its own degree 128
    return exact_coeffs(fn, 128, 128)


def c_block(level, data):
    # ErrorEvaluator.c of the grid that is data padded with zeros, by level's bounded pass
    return float(level._c_blocks(level._scorer._active(data)[None])[0])


def series_function(a, b, id="ref"):
    # the rank-one coefficient grid outer(a, b) as a function of two series
    return analysis.TestFunction(id, 1.0, _LegendreSeries(np.asarray(a, dtype=float)),
                                 _LegendreSeries(np.asarray(b, dtype=float)))


def deriv_norm(F, r=2, axis="t", quad=96):
    d = F.exact_deriv(r, axis)
    t, wt = _composite_rule(quad, F.breakpoints_t)
    tau, wtau = _composite_rule(quad, F.breakpoints_tau)
    vals = d(t[:, None], tau[None, :])
    return math.sqrt(wt @ (vals * vals) @ wtau)


def test_example1_vanishes_at_origin():
    F = example1_F()
    assert F.eval(np.array(0.0), np.array(0.0)) == 0.0


def test_example1_second_derivative_norm():
    # frozen quadrature value; the factor-3 band checks the magnitude is
    # genuinely ~1e-5 (the 1/947 scale is doing its job)
    val = deriv_norm(example1_F())
    assert val == pytest.approx(1.2399921169922392e-05, rel=1e-9)
    assert 1e-5 / 3 < val < 3e-5


def test_example2_second_derivative_norm():
    val = deriv_norm(example2_F())
    assert val == pytest.approx(1.8631443460519776e-05, rel=1e-9)


def test_kink_factor_smoothness_order():
    # derivative of an ascending-power polynomial at 0 is r! * coef[r],
    # so comparing the two branch tuples term by term locates the kink
    left, right = _kink_factor().pieces
    for r in range(7):
        dl = math.factorial(r) * left[r]
        dr = math.factorial(r) * right[r]
        assert dl == dr, f"order {r} should match across the kink"
    assert math.factorial(7) * left[7] != math.factorial(7) * right[7]


def where_piecewise_eval(factor, t):
    """Reference evaluation: every piece on every point, merged by np.where."""
    t = np.asarray(t, dtype=float)
    edges = (-np.inf, *factor.breakpoints, np.inf)
    out = np.zeros_like(t)
    for lo, hi, cs in zip(edges[:-1], edges[1:], factor.pieces):
        sel = (t >= lo) & (t < hi)
        out = np.where(sel, npoly.polyval(t, np.asarray(cs, dtype=float)), out)
    return out


def test_piecewise_eval_is_bit_identical_to_where_form():
    kink = _kink_factor()
    grid = np.linspace(-1.0, 1.0, 1001)  # contains -1, the breakpoint 0 and 1
    inputs = [0.0, -1.0, 1.0, 0.37, np.nan, np.array(-0.0), np.array(0.5),
              grid, np.array([np.nan, 0.0, 1.0]),
              grid[::40, None] * grid[None, ::25]]
    for factor in (kink, kink.deriv(2), kink.deriv(8)):
        for t in inputs:
            got, want = factor.eval(t), where_piecewise_eval(factor, t)
            assert type(got) is type(want) and got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)


def test_piecewise_eval_is_polyval_per_piece_signed_zeros_included():
    # the in-place Horner loop gives npoly.polyval's values, signs of zero
    # included, for integer coefficients too
    grid = np.concatenate([np.linspace(-1.0, 1.0, 2001), [-0.0, 0.0, -1e-300, 1e-300]])
    factors = [
        PiecewisePoly((0.0,), ((1, -2, 3), (0, 0, -1, 4))),
        # -0.0 everywhere on the first piece, at t = -0.0 on the second
        PiecewisePoly((-0.5, 0.5), ((-0.0,), (-0.0, 1.0), (0.0, -0.0, 2.0))),
        _kink_factor(), _kink_factor().deriv(8), _kink_factor().deriv(9),
    ]
    negative_zeros = 0
    for factor in factors:
        got = factor.eval(grid)
        edges = (-np.inf, *factor.breakpoints, np.inf)
        for lo, hi, cs in zip(edges[:-1], edges[1:], factor.pieces):
            sel = (grid >= lo) & (grid < hi)
            want = npoly.polyval(grid[sel], cs)
            assert np.array_equal(got[sel], want)
            assert np.array_equal(np.signbit(got[sel]), np.signbit(want))
        negative_zeros += np.count_nonzero(np.signbit(got[got == 0.0]))
    assert negative_zeros > 2


def eval_recording_paths(monkeypatch, factor, t):
    """factor.eval(t), and whether each piece was evaluated in place on a
    slice (True) or on a masked copy (False)."""
    paths = []

    def recording(x, cs, out=None):
        paths.append(out is not None)
        return horner(x, cs, out)

    horner = analysis._horner
    monkeypatch.setattr(analysis, "_horner", recording)
    with np.errstate(invalid="ignore"):  # inf * 0 at an infinite node
        return factor.eval(t), paths


_BREAK_FACTORS = [
    _kink_factor(), _kink_factor().deriv(8),
    PiecewisePoly((0.0,), ((1, -2, 3), (0, 0, -1, 4))),
    # -0.0 on the first piece and at t = -0.0 on the second; each breakpoint
    # is a node, and the pieces disagree there
    PiecewisePoly((-0.5, 0.5), ((-0.0,), (-0.0, 1.0), (0.0, -0.0, 2.0))),
]


def test_piecewise_eval_on_ascending_nodes_is_the_mask_form(monkeypatch):
    grid = np.linspace(-1.0, 1.0, 2001)
    nodes = [
        np.sort(np.concatenate([grid, [-0.5, 0.5, 0.0, -0.0, -0.0, 1e-300, -1e-300]])),
        np.array([-np.inf, -1.0, -0.5, -0.5, 0.0, 0.5, 1.0]),
        np.array([0.0]), np.array([-0.0, 0.0, 0.0]), np.array([0.5]),
        np.linspace(-1.0, 1.0, 2 ** 21 + 1)[::1024],  # a strided view
    ]
    for factor in _BREAK_FACTORS:
        for t in nodes:
            got, paths = eval_recording_paths(monkeypatch, factor, t)
            with np.errstate(invalid="ignore"):
                want = where_piecewise_eval(factor, t)
            assert paths and all(paths)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_piecewise_eval_keeps_the_mask_form_off_ascending_nodes(monkeypatch):
    grid = np.linspace(-1.0, 1.0, 401)
    inputs = [
        np.concatenate([grid, [np.nan]]), np.concatenate([[np.nan], grid]),
        np.array([np.nan]), np.concatenate([grid, [np.inf]]), np.array([np.inf]),
        grid[::-1], np.array([0.5, -0.5, 0.0, -0.0]), grid[::20, None] * grid[None, ::40],
        np.array(0.5), np.array(-0.0), np.empty(0),
    ]
    for factor in _BREAK_FACTORS:
        for t in inputs:
            got, paths = eval_recording_paths(monkeypatch, factor, t)
            with np.errstate(invalid="ignore"):
                want = where_piecewise_eval(factor, t)
            assert not any(paths)
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats().filter(lambda x: x != 0.0 or math.copysign(1.0, x) > 0),
                       min_size=1, max_size=9))
def test_median_is_numpys_median_bit_for_bit(values):
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, or a sum past the range
        got = analysis._median(values)
        want = float(np.median(values))
    assert type(got) is float
    assert np.array_equal(np.float64(got).view(np.uint64), np.float64(want).view(np.uint64)) or (
        math.isnan(got) and math.isnan(want))


def test_cos_factor_eval_is_the_closed_form_bit_for_bit():
    # eval runs each step in place; the values are the one-expression form's
    nodes = np.concatenate([gauss_rule(97)[0], np.linspace(-1.0, 1.0, 301)])
    base = CosFactor(2.0, math.pi)
    for f in (base, base.deriv(1), base.deriv(2), CosFactor(-0.7, 3.3, 0.25)):
        for t in (nodes, nodes[:, None]):
            before = t.copy()
            got = f.eval(t)
            assert np.array_equal(t, before)
            assert got.shape == t.shape
            assert np.array_equal(got, f.amplitude * np.cos(f.freq * t + f.phase))


@pytest.mark.parametrize("axis", ["t", "tau"])
@pytest.mark.parametrize("make", [example1_F, example2_F, make_class_function])
def test_exact_deriv_carries_its_breakpoints_and_the_closed_form(make, axis):
    # the derivative is a TestFunction of the factors' derivatives, with
    # their breakpoints; its values are those of the closure exact_deriv
    # used to return, bit for bit
    fn = make()
    d = fn.exact_deriv(2, axis)
    assert isinstance(d, analysis.TestFunction)
    assert (d.breakpoints_t, d.breakpoints_tau) == (fn.breakpoints_t, fn.breakpoints_tau)
    t = np.linspace(-1.0, 1.0, 201)  # holds the kink t = 0
    gt = fn.t_factor.deriv(2) if axis == "t" else fn.t_factor
    qt = fn.tau_factor.deriv(2) if axis == "tau" else fn.tau_factor
    closure = gt.eval(t[:, None]) * qt.eval(t[None, :]) / fn.C
    if make is make_class_function:
        assert_is_the_class_derivative(fn, d, axis)
    assert np.array_equal(d(t[:, None], t[None, :]), closure)


def assert_is_the_class_derivative(fn, d, axis):
    """d, the class function's second derivative along axis, against two
    forms written apart from legendre.differentiate: the entry-by-entry
    operator on the differentiated factor's coefficients, the other factor
    kept, and numpy's Legendre-series derivative on a 9 x 9 grid."""
    op = reference_operator(128, 2)
    moved, kept = (d.t_factor, d.tau_factor) if axis == "t" else (d.tau_factor, d.t_factor)
    was, same = (fn.t_factor, fn.tau_factor) if axis == "t" else (fn.tau_factor, fn.t_factor)
    assert np.array_equal(moved.coeffs, op @ was.coeffs) and kept is same
    assert d.C == fn.C
    scale = np.sqrt(np.arange(129) + 0.5)  # phi_k = sqrt(k + 1/2) P_k
    series = nleg.legder(class_grid(fn).data * np.outer(scale, scale), 2,
                         axis=0 if axis == "t" else 1)
    t = np.linspace(-1.0, 1.0, 9)
    want = nleg.leggrid2d(t, t, series)
    assert np.abs(d(t[:, None], t[None, :]) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("axis", ["t", "tau"])
@pytest.mark.parametrize("make", [example1_F, example2_F])
def test_evaluator_reference_is_the_exact_grid_of_the_derivative(make, axis):
    # one projection: the evaluator's c_Q of a callable is exact_coeffs of it
    d = make().exact_deriv(2, axis)
    ref = ErrorEvaluator(d, 64, 64)._reference[0]
    assert np.array_equal(ref, exact_coeffs(d, 64, 64).data)


@pytest.mark.parametrize("shape, K, J", [((9, 7), 8, 6), ((9, 7), 12, 3), ((13, 11), 4, 5)])
def test_a_coefficient_reference_is_synthesized_from_the_c_grid_table(shape, K, J):
    # the C grid's table reaches the degrees scored only; the reference, of
    # any degrees, is its own call on the C grid: the product of its two
    # series' values, bit for bit
    rng = np.random.default_rng(sum(shape))
    a, b = rng.standard_normal(shape[0]), rng.standard_normal(shape[1])
    phi, ref = ErrorEvaluator(series_function(a, b), K, J)._grid_tables
    grid = np.linspace(-1.0, 1.0, analysis._C_POINTS)
    assert phi.shape == (max(K, J) + 1, grid.size)
    assert np.array_equal(ref, np.outer(a @ phi_matrix(a.size - 1, grid),
                                        b @ phi_matrix(b.size - 1, grid)))


def test_l2_error_of_identical_grids_is_zero():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((6, 6))
    approx = CoeffGrid(data=data)
    exact = lambda t, tau: synthesize(data, np.ravel(t), np.ravel(tau))
    assert l2_error(approx, exact) < 1e-10


def test_l2_error_of_zero_grid_vs_unit_mode():
    target = np.zeros((2, 2))
    target[1, 0] = 1.0
    exact = lambda t, tau: synthesize(target, np.ravel(t), np.ravel(tau))
    approx = CoeffGrid(data=np.zeros((2, 2)))
    assert l2_error(approx, exact) == pytest.approx(1.0, abs=1e-12)


def test_c_error_trivial_cases():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((5, 5))
    exact = lambda t, tau: synthesize(data, np.ravel(t), np.ravel(tau))
    assert c_error(CoeffGrid(data=data), exact) < 1e-10
    half = lambda t, tau: 0.5 * np.ones(np.broadcast(t, tau).shape)
    assert c_error(CoeffGrid(data=np.zeros((3, 3))), half) == 0.5


def oracle_l2(approx, exact, quad, breakpoints_t=None, breakpoints_tau=None):
    # the per-call quadrature form: fresh rules of quad nodes per piece, split
    # at the reference's breakpoints unless others are given, full synthesis,
    # fresh reference; quad must exceed by 32 the active degrees of approx
    # and of the reference, so the rule resolves the integrand
    if breakpoints_t is None:
        breakpoints_t = getattr(exact, "breakpoints_t", ())
    if breakpoints_tau is None:
        breakpoints_tau = getattr(exact, "breakpoints_tau", ())
    t, wt = _composite_rule(quad, breakpoints_t)
    tau, wtau = _composite_rule(quad, breakpoints_tau)
    diff = synthesize(approx, t, tau) - np.asarray(exact(t[:, None], tau[None, :]))
    return math.sqrt(max(wt @ (diff * diff) @ wtau, 0.0))


def oracle_c(approx, exact, grid_points=513):
    t = np.linspace(-1.0, 1.0, grid_points)
    diff = synthesize(approx, t, t) - np.asarray(exact(t[:, None], t[None, :]))
    return float(np.abs(diff).max())


def noisy_trials(grid, params, deltas, seeds=2):
    for i, delta in enumerate(deltas):
        for sd in range(seeds):
            noisy = add_noise(grid, NoiseSpec(delta, 2.0, "rescaled", 10 * i + sd))
            yield truncate(noisy, params)


@pytest.mark.parametrize("axis", ["t", "tau"])
def test_evaluator_matches_per_call_quadrature_on_class_function(axis):
    fn = make_class_function()
    grid = class_grid(fn)
    exact = fn.exact_deriv(2, axis)
    quad = grid.K + 40
    scorer = ErrorEvaluator(exact, grid.K, grid.J)
    params = build_cross(n=24, gamma=2.25, r=2, axis=axis)
    for approx in noisy_trials(grid, params, (1e-5, 1e-8)):
        assert scorer.l2(approx) == pytest.approx(oracle_l2(approx, exact, quad), rel=1e-12)
        assert scorer.c(approx) == pytest.approx(oracle_c(approx, exact), rel=1e-12)


@pytest.mark.parametrize("make", [example1_F, example2_F])
def test_evaluator_matches_per_call_quadrature_across_kinks(make):
    # example1 has its kink on both axes, example2 on t only
    F = make()
    grid = exact_coeffs(F, 48, 48)
    exact = F.exact_deriv(2, "t")
    bt, btau = F.breakpoints_t, F.breakpoints_tau
    assert bt == (0.0,) and (exact.breakpoints_t, exact.breakpoints_tau) == (bt, btau)
    scorer = ErrorEvaluator(exact, 48, 48)
    params = build_cross(n=20, gamma=1.0, r=2)
    for approx in noisy_trials(grid, params, (1e-7, 1e-9)):
        expect = oracle_l2(approx, exact, 88, bt, btau)
        assert scorer.l2(approx) == pytest.approx(expect, rel=1e-12)
        assert scorer.c(approx) == pytest.approx(oracle_c(approx, exact), rel=1e-12)


def test_evaluator_scores_all_zero_grid_as_reference_norm():
    F = example1_F()
    exact = F.exact_deriv(2, "t")
    zero = CoeffGrid(data=np.zeros((33, 33)))
    scorer = ErrorEvaluator(exact, 32, 32)
    expect = oracle_l2(zero, exact, 72, F.breakpoints_t, F.breakpoints_tau)
    assert expect > 0
    assert scorer.l2(zero) == pytest.approx(expect, rel=1e-12)
    assert scorer.c(zero) == pytest.approx(oracle_c(zero, exact), rel=1e-12)


def test_error_metric_preconditions():
    # the evaluator refuses a grid beyond its own degrees
    data = np.zeros((11, 11))
    data[10, 10] = 1.0
    grid = CoeffGrid(data=data)
    exact = lambda t, tau: np.zeros(np.broadcast(t, tau).shape)
    with pytest.raises(ValueError, match="exceed the evaluator's degrees"):
        ErrorEvaluator(exact, 8, 8).c(grid)
    # a coefficient reference, of any degrees, takes the same check in both
    # metrics
    scorer = ErrorEvaluator(series_function(np.ones(13), np.ones(13)), 8, 8)
    for metric in (scorer.l2, scorer.c):
        with pytest.raises(ValueError, match=r"active degrees \(10,10\) exceed"):
            metric(grid)


def test_l2_error_counts_the_degrees_of_a_coefficient_reference():
    # approx's active degrees alone would give the quadrature 56 nodes, 2.4e-2
    # relative off; the class derivative's own degrees, (126, 128), ask for 160
    fn = make_class_function()
    exact = fn.exact_deriv(2, "t")
    approx = truncate(class_grid(fn), build_cross(n=24, gamma=2.25, r=2))
    parseval = ErrorEvaluator(exact, 128, 128).l2(approx)
    assert oracle_l2(approx, exact, 160) == pytest.approx(parseval, rel=1e-12)


def readme_case():
    # the README's library example: example1, delta 1e-9, n = 28, K = J = 64
    F = example1_F()
    noisy = add_noise(exact_coeffs(F, 64, 64), NoiseSpec(delta=1e-9, p=np.inf, seed=0))
    return truncate(noisy, build_cross(28, 1.0, 2)), F.exact_deriv(2, "t"), 104


def class_case(degree):
    # the class reference, of degrees (126, 128), on a grid of this degree
    fn = make_class_function()
    approx = truncate(exact_coeffs(fn, degree, degree), build_cross(24, 2.25, 2))
    return approx, fn.exact_deriv(2, "t"), max(degree, 128) + 32


def example2_tau_case():
    F = example2_F()
    noisy = add_noise(exact_coeffs(F, 48, 40), NoiseSpec(1e-7, 2.0, "rescaled", 5))
    return truncate(noisy, build_cross(20, 1.0, 2, axis="tau")), F.exact_deriv(2, "tau"), 88


@pytest.mark.parametrize("case", [readme_case, lambda: class_case(64),
                                  lambda: class_case(160), example2_tau_case],
                         ids=["readme", "class-above-grid", "class-below-grid", "example2-tau"])
def test_l2_error_is_the_quadrature_distance(case):
    approx, exact, quad = case()
    assert l2_error(approx, exact) == pytest.approx(oracle_l2(approx, exact, quad), rel=1e-12)


def test_l2_bounded_by_twice_sup_norm():
    # area of the square is 4, so ||g||_L2 <= 2 ||g||_C; the sampled sup
    # slightly underestimates, hence the tiny slack
    rng = np.random.default_rng(8)
    exact = lambda t, tau: np.zeros(np.broadcast(t, tau).shape)
    for _ in range(3):
        grid = CoeffGrid(data=rng.standard_normal((9, 9)))
        assert l2_error(grid, exact) <= 2.0 * c_error(grid, exact) * (1 + 1e-6)
    F = example1_F()
    from crossdiff.coeffs import exact_coeffs

    grid = exact_coeffs(F, 32, 32)
    approx = truncate(grid, build_cross(n=12, gamma=1.0, r=2))
    d = F.exact_deriv(2, "t")
    el2 = l2_error(approx, d)
    ec = c_error(approx, d)
    assert el2 <= 2.0 * ec * (1 + 1e-6)


def test_exact_first_derivatives_match_difference_quotients():
    rng = np.random.default_rng(2024)
    t = rng.uniform(-0.9, 0.9, 100)
    tau = rng.uniform(-0.9, 0.9, 100)
    h = 1e-5
    for F in (example1_F(), example2_F(), make_class_function()):
        for axis in ("t", "tau"):
            d = F.exact_deriv(1, axis)(t, tau)
            if axis == "t":
                fd = (F.eval(t + h, tau) - F.eval(t - h, tau)) / (2 * h)
            else:
                fd = (F.eval(t, tau + h) - F.eval(t, tau - h)) / (2 * h)
            scale = max(1.0, np.abs(d).max())
            assert np.abs(d - fd).max() < 1e-5 * scale, (F.id, axis)


def test_class_function_has_unit_class_norm():
    fn = make_class_function()
    assert class_norm(class_grid(fn), 2.0, 5.6, 5.6) == pytest.approx(1.0, rel=1e-12)
    assert fn.id == "class-s2-mu5.6x5.6"
    other = make_class_function(s=2.0, mu1=6.0, mu2=4.0)
    assert class_norm(class_grid(other), 2.0, 6.0, 4.0) == pytest.approx(1.0, rel=1e-12)


def test_theoretical_slope_values():
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
    assert theoretical_slope(sp, 2, "L2") == pytest.approx(1.6 / 5.6, rel=1e-12)
    assert theoretical_slope(sp, 2, "C") == pytest.approx(0.6 / 5.6, rel=1e-12)
    with pytest.raises(ValueError):
        theoretical_slope(sp, 2, "H1")
    # swapping the axis swaps the roles of the two smoothness weights
    mixed = SmoothnessParams(s=2.0, mu1=5.6, mu2=4.8, p=2.0)
    assert theoretical_slope(mixed, 2, "L2", axis="tau") == pytest.approx(
        0.8 / 4.8, rel=1e-12
    )


def test_rate_study_recovers_theoretical_slope_l2():
    fn = make_class_function()
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
    res = rate_study(fn, sp, 2, "L2", (1e-5, 1e-6, 1e-7, 1e-8, 1e-9), 3)
    assert abs(res.fitted_slope - res.theoretical_slope) < 0.1
    assert res.errors == sorted(res.errors, reverse=True)
    assert res.trials.shape == (5, 3, 2)


def test_rate_study_recovers_theoretical_slope_c():
    fn = make_class_function()
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
    res = rate_study(fn, sp, 2, "C", (1e-5, 1e-6, 1e-7, 1e-8, 1e-9), 3)
    assert abs(res.fitted_slope - res.theoretical_slope) < 0.1


@pytest.mark.parametrize("metric", ["L2", "C"])
@pytest.mark.parametrize("mu1, mu2", [(5.6, 8.0), (8.0, 5.6)])
def test_a_class_along_tau_plans_as_its_mirror_along_t(mu1, mu2, metric):
    # mu1 weighs t and mu2 tau; the planner and the predicted slope read the
    # weight of the axis differentiated
    deltas = (1e-5, 1e-6, 1e-7, 1e-8, 1e-9)
    tau_sp, t_sp = SmoothnessParams(2.0, mu1, mu2, 2.0), SmoothnessParams(2.0, mu2, mu1, 2.0)
    tau = analysis._plan(tau_sp, deltas, (), 2, 0.9, None, metric, "tau", 128)
    t = analysis._plan(t_sp, deltas, (), 2, 0.9, None, metric, "t", 128)
    assert [(c.n, c.gamma, c.axis) for c in tau] == [(c.n, c.gamma, "tau") for c in t]
    assert [c.n for c in t] == [choose_n(t_sp, delta, 2) for delta in deltas]
    assert t[0].gamma == choose_gamma(t_sp, 2, metric)
    assert theoretical_slope(tau_sp, 2, metric, "tau") == theoretical_slope(t_sp, 2, metric)


def test_anisotropic_class_rate_along_tau():
    # mu2 = 8 weighs tau, the axis differentiated: L2 slope 0.5 in theory
    fn = make_class_function(2.0, 5.6, 8.0)
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=8.0, p=2.0)
    res = rate_study(fn, sp, 2, "L2", (1e-5, 1e-6, 1e-7, 1e-8, 1e-9), 20, axis="tau")
    assert res.theoretical_slope == pytest.approx(0.5, rel=1e-12)
    assert abs(res.fitted_slope - res.theoretical_slope) < 0.1


def test_rate_study_first_order():
    fn = make_class_function()
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
    res = rate_study(fn, sp, 1, "L2", (1e-5, 1e-6, 1e-7, 1e-8, 1e-9), 3)
    assert res.theoretical_slope == pytest.approx(3.6 / 5.6, rel=1e-12)
    assert abs(res.fitted_slope - res.theoretical_slope) < 0.1


def test_rate_study_is_reproducible():
    fn = make_class_function()
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
    args = (fn, sp, 2, "L2", (1e-5, 1e-7, 1e-9), 2)
    a = rate_study(*args)
    b = rate_study(*args)
    assert np.array_equal(a.trials, b.trials)
    assert a.fitted_slope == b.fitted_slope


def test_rate_study_validation():
    fn = make_class_function()
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
    with pytest.raises(ValueError):
        rate_study(fn, sp, 2, "L2", (1e-5, 1e-6), 3)  # only one decade
    with pytest.raises(ValueError):
        rate_study(fn, sp, 2, "L2", (1e-5, 1e-7, 1e-9), 0)
    with pytest.raises(ValueError):
        rate_study(fn, sp, 2, "H1", (1e-5, 1e-7, 1e-9), 3)
    # every delta is checked before the span, which divides by the smallest
    with pytest.raises(ValueError, match=r"^accuracy delta=0\.0 must lie in \(0,1\)$"):
        rate_study(fn, sp, 2, "L2", (0.0, 1e-5, 1e-9), 2)
    with pytest.raises(ValueError, match=r"^accuracy delta=-0\.001 must lie in \(0,1\)$"):
        rate_study(fn, sp, 2, "L2", (-1e-3, 1e-5, 1e-9), 2)


def test_rate_study_cuts_a_series_function_to_its_grid_degree():
    # None is the series' own degree; another degree cuts or pads the series
    # (test_cli: a class study at 64), and each n must lie within it
    fn = make_class_function()
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
    same = rate_study(fn, sp, 2, "L2", (1e-5, 1e-7, 1e-9), 1, grid_degree=128)
    assert np.array_equal(same.trials, rate_study(fn, sp, 2, "L2", (1e-5, 1e-7, 1e-9), 1).trials)
    with pytest.raises(ValueError, match="^truncation level n=36 exceeds grid degree 32$"):
        rate_study(fn, sp, 2, "L2", (1e-5, 1e-7, 1e-9), 1, grid_degree=32)


def test_rate_study_result_save(tmp_path):
    fn = make_class_function()
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
    res = rate_study(fn, sp, 2, "L2", (1e-5, 1e-7, 1e-9), 2)
    path = tmp_path / "rate.csv"
    res.save(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "delta,n,gamma,error_l2,error_c,seed"
    assert len(lines) == 1 + 3 * 2 + 1
    assert lines[-1].startswith("slope,")
    fitted = float(lines[-1].split(",")[3])
    assert fitted == res.fitted_slope


def test_noise_free_truncation_decay_rate():
    # with no noise the truncation error should decay in n at least as
    # fast as the class decay exponent mu1 - 2r + 1/s - 1/2 (within a
    # 0.3 preasymptotic allowance)
    fn = make_class_function()
    grid = class_grid(fn)
    exact_d = fn.exact_deriv(2, "t")
    errs = []
    ns = (8, 16, 32, 64)
    for n in ns:
        approx = truncate(grid, build_cross(n=n, gamma=2.25, r=2))
        errs.append(l2_error(approx, exact_d))
    slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope >= 5.6 - 4 + 0.5 - 0.5 - 0.3


def nonzero_degrees(data):
    # the np.nonzero form the evaluator used before
    rows, cols = np.nonzero(data)
    if rows.size == 0:
        return 0, 0
    return int(rows.max()), int(cols.max())


def test_effective_degrees_match_the_nonzero_form():
    rng = np.random.default_rng(11)
    grids = [np.zeros((1, 1)), np.zeros((9, 5)), np.full((4, 6), -0.0),
             np.array([[0.0, -0.0], [-0.0, 3.0]]), np.array([[np.nan]]),
             np.array([[0.0, np.inf, 0.0], [0.0, 0.0, 0.0]])]
    for shape in ((1, 7), (7, 1), (12, 12), (40, 9)):
        for density in (0.02, 0.3, 1.0):
            data = rng.standard_normal(shape) * (rng.random(shape) < density)
            grids += [data, -data, np.where(data == 0.0, -0.0, 0.0)]
    zeros = np.zeros((6, 6))
    zeros[2, 5] = -0.0
    zeros[4, 1] = 1e-300
    grids.append(zeros)
    for data in grids:
        assert analysis._effective_degrees(data) == nonzero_degrees(data), data


def rounding_bound(scorer, approx):
    # largest rounding gap between two summation orders of one entry of
    # the synthesis: each is a (jmax+1)-term sum of products
    block = scorer._active(approx.data)
    phi, _ = scorer._grid_tables
    left = phi[: block.shape[0]].T @ block
    mags = np.abs(left) @ np.abs(phi[: block.shape[1]])
    return 2 * (block.shape[1] + 1) * np.finfo(float).eps * float(mags.max())


def whole_array_c(scorer, approx):
    # the one-product form of ErrorEvaluator.c
    block = scorer._active(approx.data)
    phi, ref = scorer._grid_tables
    diff = phi[: block.shape[0]].T @ block @ phi[: block.shape[1]]
    diff -= ref
    np.abs(diff, out=diff)
    return float(diff.max())


@pytest.mark.parametrize("points,slab", [
    (257, None), (513, None), (1025, None), (257, 256), (257, 258), (513, 100)],
    ids=["257", "513", "1025", "block+1", "block-1", "ragged"])
def test_blocked_c_error_matches_the_whole_array_form(monkeypatch, points, slab):
    # block+1 leaves a one-row last slab, block-1 and ragged a slab that
    # does not divide the grid
    monkeypatch.setattr(analysis, "_C_POINTS", points)
    if slab is not None:
        monkeypatch.setattr(analysis, "_C_SLAB", slab)
    fn = make_class_function()
    grid = class_grid(fn)
    for axis in ("t", "tau"):
        scorer = ErrorEvaluator(fn.exact_deriv(2, axis), grid.K, grid.J)
        assert scorer._grid_tables[1].shape == (points, points)
        params = build_cross(n=36, gamma=2.25, r=2, axis=axis)
        trials = list(noisy_trials(grid, params, (1e-5, 1e-9)))
        level = _Level(scorer, grid.data, params, None)
        # the reference itself, and the reference plus phi_0(t) + phi_1(t),
        # whose worst points lie in the last row (t = 1) only
        exact = class_grid(fn.exact_deriv(2, axis)).data
        trials.append(CoeffGrid(data=exact))
        bumped = exact.copy()
        bumped[:2, 0] += 1.0
        trials.append(CoeffGrid(data=bumped))
        for approx in trials:
            whole, bound = whole_array_c(scorer, approx), rounding_bound(scorer, approx)
            got = scorer.c(approx)
            assert abs(got - whole) <= bound, (axis, got, whole)
            # the bounded pass multiplies the same slabs
            assert_same_float(c_block(level, approx.data), got)
    # a NaN anywhere is the result, as in the one-product form
    data = np.zeros((3, 3))
    data[1, 1] = np.nan
    assert math.isnan(scorer.c(CoeffGrid(data=data)))


def rate_trials(fn, axis, seeds=3):
    # the trials a default rate study scores, at all five of its deltas
    grid = class_grid(fn)
    for i, delta in enumerate((1e-5, 1e-6, 1e-7, 1e-8, 1e-9)):
        sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
        params = build_cross(n=choose_n(sp, delta, 2), gamma=choose_gamma(sp, 2), r=2,
                             axis=axis)
        for sd in range(seeds):
            yield truncate(add_noise(grid, NoiseSpec(delta, 2.0, "rescaled", 50 * i + sd)),
                           params)


@pytest.mark.parametrize("axis", ["t", "tau"])
def test_parseval_l2_matches_quadrature_on_rate_trials(axis):
    fn = make_class_function()
    quad = class_grid(fn).data.shape[0] + 40
    scorer = ErrorEvaluator(fn.exact_deriv(2, axis), 128, 128)
    exact = fn.exact_deriv(2, axis)
    for approx in rate_trials(fn, axis):
        assert scorer.l2(approx) == pytest.approx(oracle_l2(approx, exact, quad), rel=1e-12)


def test_coefficient_reference_is_the_exact_derivative():
    fn = make_class_function()
    for axis in ("t", "tau"):
        assert_is_the_class_derivative(fn, fn.exact_deriv(2, axis), axis)
    d0 = fn.exact_deriv(0)
    assert d0.t_factor is fn.t_factor and d0.tau_factor is fn.tau_factor
    with pytest.raises(ValueError, match="axis must be"):
        fn.exact_deriv(2, "x")


# Values below sqrt(tiny) ~ 1.5e-154 have subnormal squares, so both the
# quadrature and the Parseval sums keep only a few of their digits there
UNDERFLOW = math.sqrt(np.finfo(float).tiny)


def assert_parseval(a, b, approx_data):
    # the Frobenius distance of two coefficient grids is the L2 distance of
    # the functions they define, which quadrature measures exactly; the
    # reference is outer(a, b), a product of two series
    ref = np.outer(a, b)
    K, J = ref.shape[0] - 1, ref.shape[1] - 1
    approx_data = np.asarray(approx_data, dtype=float)
    approx = CoeffGrid(data=approx_data)
    exact = lambda t, tau: synthesize(ref, np.ravel(t), np.ravel(tau))
    quad = oracle_l2(approx, exact, max(K, J) + 32)
    parseval = ErrorEvaluator(series_function(a, b), K, J).l2(approx)
    floor = max(1e-12 * (np.abs(ref).sum() + np.abs(approx_data).sum()), UNDERFLOW)
    assert parseval == pytest.approx(quad, rel=1e-9, abs=floor)
    # the evaluator on the callable, of approx's degrees: its projection is
    # ref's top-left block, its tail the squares of ref outside that block
    projected = ErrorEvaluator(exact, approx.K, approx.J).l2(approx)
    assert projected == pytest.approx(parseval, rel=1e-12, abs=floor)
    # the block form against the whole difference: the reference's squares
    # outside approx's block are summed apart from the block's residual
    diff = -np.pad(approx_data, [(0, K + 1 - approx_data.shape[0]),
                                 (0, J + 1 - approx_data.shape[1])]) + ref
    assert parseval == pytest.approx(math.sqrt(np.sum(diff * diff)), rel=1e-14, abs=UNDERFLOW)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_parseval_holds_for_a_coefficient_reference(data):
    K, J = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 12))
    elems = st.floats(-1e3, 1e3, allow_subnormal=False)
    a = data.draw(hnp.arrays(float, K + 1, elements=elems))
    b = data.draw(hnp.arrays(float, J + 1, elements=elems))
    kk, jj = data.draw(st.integers(0, K)), data.draw(st.integers(0, J))
    approx = data.draw(hnp.arrays(float, (kk + 1, jj + 1), elements=elems))
    if data.draw(st.booleans()):  # as large as the reference
        approx = np.pad(approx, [(0, K - kk), (0, J - jj)])
    assert_parseval(a, b, approx)


def test_parseval_holds_below_the_underflow_scale():
    # a draw whose squares are subnormal: quadrature 1.414906331e-158,
    # Parseval 1.414906488e-158, 1.1e-7 apart relative
    assert_parseval([0.0], [1.0], [[1.4149065e-158]])
    assert_parseval([3e-160, -2e-155], [1.0, 0.0], [[1e-158]])


def test_rate_study_rejects_non_finite_coefficients_and_errors():
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
    fn = make_class_function()
    coeffs = fn.t_factor.coeffs.copy()
    coeffs[3] = np.nan
    bad = replace(fn, id="nan-coeffs", t_factor=_LegendreSeries(coeffs))
    with pytest.raises(ValueError, match="^coefficients of nan-coeffs are not finite$"):
        rate_study(bad, sp, 2, "L2", (1e-5, 1e-7, 1e-9), 1)
    # finite coefficients whose derivative's squares overflow
    huge = series_function(np.full(129, 1e100), np.full(129, 1e100), id="huge")
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="^rate study of huge produced non-finite errors$"):
        rate_study(huge, sp, 2, "L2", (1e-5, 1e-7, 1e-9), 1)


def power_form_class_norm(data, s, mu1, mu2):
    # the direct form, which overflows once s * mu1 passes ~146 at degree 128
    kbar = np.maximum(1.0, np.arange(data.shape[0], dtype=float))
    jbar = np.maximum(1.0, np.arange(data.shape[1], dtype=float))
    weighted = kbar[:, None] ** (s * mu1) * jbar[None, :] ** (s * mu2) * np.abs(data) ** s
    return float(np.sum(weighted) ** (1.0 / s))


def test_class_norm_is_finite_beyond_the_power_form():
    for s, mu1, mu2 in ((2.0, 5.6, 5.6), (2.0, 6.0, 4.0), (1.0, 5.6, 5.6), (3.0, 7.0, 2.0)):
        kbar = np.maximum(1.0, np.arange(129, dtype=float))
        data = np.outer(kbar ** (-mu1 - 1 / s - 0.01), kbar ** (-mu2 - 1 / s - 0.01))
        expect = power_form_class_norm(data, s, mu1, mu2)
        assert class_norm(data, s, mu1, mu2) == pytest.approx(expect, rel=1e-13)
    with np.errstate(over="ignore", invalid="ignore"):
        fn = make_class_function(s=10.0, mu1=20.0, mu2=20.0)
    assert np.isfinite(class_grid(fn).data).all()
    assert class_norm(class_grid(fn), 10.0, 20.0, 20.0) == pytest.approx(1.0, rel=1e-12)
    assert class_norm(np.zeros((3, 3)), 2.0, 1.0, 1.0) == 0.0


def slab_maxima(scorer, approx):
    # the slab pass's formula, left[slab] @ right - ref[slab], evaluated
    # on every slab of _C_SLAB rows: one maximum of |.| per slab
    block = scorer._active(approx.data)
    phi, ref = scorer._grid_tables
    left = phi[: block.shape[0]].T @ block
    step = analysis._C_SLAB
    return np.array([
        np.abs(left[lo:lo + step] @ phi[: block.shape[1]] - ref[lo:lo + step]).max()
        for lo in range(0, analysis._C_POINTS, step)])


def assert_same_float(got, want):
    assert np.array_equal([got], [want], equal_nan=True), (got, want)


# (n, delta) of three noise levels of the class function: the truncation
# error dominates, both are of one size, the noise dominates
LEVELS = {"bias": (6, 1e-12), "even": (16, 1e-4), "noise": (40, 1e-2)}


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("axis", ["t", "tau"])
@pytest.mark.parametrize("points", [257, 513, 1025])
def test_bounded_c_equals_the_exhaustive_slab_pass(monkeypatch, points, axis, r):
    monkeypatch.setattr(analysis, "_C_POINTS", points)
    fn = make_class_function()
    grid = class_grid(fn)
    scorer = ErrorEvaluator(fn.exact_deriv(r, axis), grid.K, grid.J)
    assert scorer._grid_tables[1].shape == (points, points)
    g = np.linspace(-1.0, 1.0, points)
    trials = 0
    for level, (n, delta) in LEVELS.items():
        params = build_cross(n=n, gamma=2.0, r=r, axis=axis)
        bias = truncate(grid, params)
        noise_level = _Level(scorer, grid.data, params, None)
        noisy = [truncate(add_noise(grid, NoiseSpec(delta, 2.0, "rescaled", sd)), params)
                 for sd in range(20)]
        noise = np.abs(synthesize(noisy[0].data - bias.data, g, g)).max()
        ratio = noise / slab_maxima(scorer, bias).max()
        assert {"bias": ratio < 1e-6, "even": 0.05 < ratio < 20,
                "noise": ratio > 1e3}[level], (level, ratio)
        # noise-free (approx == B); a bump phi_0(t) + phi_1(t) whose worst
        # points lie in the last row (t = 1), a slab of one row
        bumped = bias.data.copy()
        bumped[:2, 0] += 10.0 * (slab_maxima(scorer, bias).max() + noise)
        assert (np.argmax(slab_maxima(scorer, CoeffGrid(data=bumped)))
                == len(noise_level.bias_max) - 1)
        for approx in [bias, CoeffGrid(data=bumped), *noisy]:
            want = slab_maxima(scorer, approx).max()
            assert_same_float(c_block(noise_level, approx.data), want)
            assert_same_float(scorer.c(approx), want)
            trials += 1
        # a NaN or an inf in the trial
        for k, value in ((1, np.nan), (0, np.nan), (1, np.inf), (0, np.inf)):
            data = noisy[0].data.copy()
            data[k, 1] = value
            with np.errstate(invalid="ignore"):  # inf * 0 in the synthesis
                got = c_block(noise_level, data)
                assert_same_float(got, slab_maxima(scorer, CoeffGrid(data=data)).max())
                assert_same_float(scorer.c(CoeffGrid(data=data)), got)
            assert not math.isfinite(got)
            assert math.isnan(got) or value == np.inf
            trials += 1
    assert trials == 3 * 26


def test_bounded_c_keeps_a_nan_of_the_reference():
    # a reference that is NaN at one point of one middle slab
    F = example1_F()
    d = F.exact_deriv(2)

    def exact(t, tau):
        vals = np.array(d(t, tau), dtype=float)
        vals[(np.abs(t - 0.25) < 1e-12) & (np.abs(tau) < 1e-12)] = np.nan
        return vals

    grid = exact_coeffs(F, 32, 32)
    params = build_cross(n=16, gamma=2.0, r=2)
    scorer = ErrorEvaluator(exact, 32, 32)
    level = _Level(scorer, grid.data, params, None)
    assert np.isnan(level.bias_max).sum() == 1
    noisy = add_noise(grid, NoiseSpec(1e-7, 2.0, "rescaled", 3))
    assert math.isnan(c_block(level, truncate(noisy, params).data))


@pytest.mark.parametrize("axis", ["t", "tau"])
def test_bounded_c_prunes_rate_trials(axis):
    # every trial of a default rate study, scored as one batch a level: the
    # same maximum as the exhaustive pass from a small share of the slabs
    fn = make_class_function()
    grid = class_grid(fn)
    scorer = ErrorEvaluator(fn.exact_deriv(2, axis), grid.K, grid.J)
    slab_pass, slabs = scorer._slab_maxima, []

    def counting(block, bounds=None):
        maxima = slab_pass(block, bounds)
        if bounds is not None:
            slabs.append(int(np.count_nonzero(maxima != -np.inf)))
        return maxima

    for i, delta in enumerate((1e-5, 1e-6, 1e-7, 1e-8, 1e-9)):
        sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
        params = build_cross(n=choose_n(sp, delta, 2), gamma=choose_gamma(sp, 2), r=2,
                             axis=axis)
        spec = NoiseSpec(delta, 2.0, "rescaled", 50 * i)
        level = _Level(scorer, grid.data, params, spec)
        scorer._slab_maxima = counting
        got = level.trials(range(20))[:, 1]
        scorer._slab_maxima = slab_pass
        for sd in range(20):
            approx = truncate(add_noise(grid, replace(spec, seed=50 * i + sd)), params)
            assert_same_float(got[sd], slab_maxima(scorer, approx).max())
    assert len(slabs) == 5 * 20
    assert np.mean(slabs) <= 3 and max(slabs) < len(level.bias_max) // 2, slabs


@pytest.mark.parametrize("axis,make", [
    ("t", make_class_function), ("tau", make_class_function),
    ("t", example1_F), ("tau", example1_F)], ids=["t", "tau", "example1-t", "example1-tau"])
def test_block_trials_score_like_the_full_grid(axis, make):
    # a rate-study trial on the cross's bounding block: the block of the
    # full-grid trial, the same C error bit for bit, the same L2 error to
    # rounding, and the reference's squares outside it summed directly;
    # against a callable reference, the L2 error of per-call quadrature
    fn = make()
    bt, btau = fn.breakpoints_t, fn.breakpoints_tau
    if make is make_class_function:
        grid = class_grid(fn)
        scorer = ErrorEvaluator(fn.exact_deriv(2, axis), grid.K, grid.J)
    else:  # as rate_study builds it
        grid = exact_coeffs(fn, 64, 64)
        scorer = ErrorEvaluator(fn.exact_deriv(2, axis), 64, 64)
    ref, tail = scorer._reference
    for i, delta in enumerate((1e-5, 1e-7, 1e-9)):
        sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
        params = build_cross(n=choose_n(sp, delta, 2), gamma=choose_gamma(sp, 2), r=2,
                             axis=axis)
        kb, jb = truncation._fit(params, grid.K, grid.J).shape
        outside = scorer._outside((kb, jb))
        inside = np.zeros(ref.shape, dtype=bool)
        inside[:kb, :jb] = True
        assert outside == pytest.approx(tail + math.fsum(ref[~inside] ** 2), rel=1e-14)
        level = _Level(scorer, grid.data, params, None)
        for sd in range(5):
            spec = NoiseSpec(delta, 2.0, "rescaled", 50 * i + sd)
            full = truncate(add_noise(grid, spec), params).data
            block = truncation._truncate_block(
                coeffs._noisy_blocks(grid.data, spec, (kb, jb), (0,))[0], params)
            assert np.array_equal(block, full[:kb, :jb]) and not full[~inside].any()
            assert_same_float(c_block(level, block), c_block(level, full))
            if make is not make_class_function:
                whole, rel = oracle_l2(CoeffGrid(data=full), scorer.exact, 104, bt, btau), 1e-12
            else:
                whole, rel = float(np.linalg.norm(ref - full)), 1e-15
            assert scorer._l2_block(block, outside) == pytest.approx(whole, rel=rel)


def public_trial(scorer, grid, cross, spec):
    # one trial by the public path, add_noise then truncate: the evaluator's
    # C error, and its L2 error on the cross's bounding block as a trial
    # sums it, beside ErrorEvaluator.l2, which splits the sum at the grid's
    # active degrees and so agrees to rounding only
    approx = truncate(add_noise(grid, spec), cross)
    kb, jb = cross.block.shape
    l2 = float(scorer._l2_block(approx.data[:kb, :jb], scorer._outside((kb, jb))))
    return np.array([l2, scorer.c(approx)]), scorer.l2(approx)


NOISES = {"rescaled-2": (2.0, "rescaled"), "rescaled-inf": (math.inf, "rescaled"),
          "raw-gaussian": (2.0, "raw_gaussian")}


@pytest.mark.parametrize("chunk", [None, 1, 4], ids=["chunk-default", "chunk-1", "chunk-4"])
@pytest.mark.parametrize("noise", list(NOISES))
@pytest.mark.parametrize("axis", ["t", "tau"])
def test_level_trials_are_the_public_path_bit_for_bit(axis, noise, chunk):
    # every draw of a batch, whatever the chunks it is scored in, and a
    # batch of one or one that starts inside the level gives the same rows
    p, mode = NOISES[noise]
    fn = make_class_function()
    grid = class_grid(fn)
    scorer = ErrorEvaluator(fn.exact_deriv(2, axis), grid.K, grid.J)
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=p)
    for i, delta in enumerate((1e-5, 1e-7, 1e-9)):
        cross = build_cross(n=choose_n(sp, delta, 2), gamma=choose_gamma(sp, 2), r=2, axis=axis)
        spec = NoiseSpec(delta, p, mode, 1000 + 997 * i)
        level = _Level(scorer, grid.data, cross, spec)
        if chunk is not None:
            level._chunk = chunk
        got = level.trials(range(7))
        assert got.dtype == np.float64 and got.shape == (7, 2)
        for sd in range(7):
            want, l2 = public_trial(scorer, grid, cross, replace(spec, seed=spec.seed + sd))
            assert got[sd].tobytes() == want.tobytes(), (delta, sd, got[sd], want)
            assert got[sd, 0] == pytest.approx(l2, rel=1e-14)
        assert level.trials(range(3, 4)).tobytes() == got[3:4].tobytes()
        assert level.trials(range(2, 7)).tobytes() == got[2:].tobytes()
        assert level.trials(range(0)).shape == (0, 2)
        # in place, into rows of a larger array, as a forked share writes
        rows = np.full((9, 2), -9.0)
        assert level.trials(range(7), rows[1:8]).base is rows
        assert rows[1:8].tobytes() == got.tobytes() and (rows[[0, 8]] == -9.0).all()


@pytest.mark.parametrize("axis", ["t", "tau"])
def test_an_empty_cross_scores_every_draw_as_the_zero_grid(axis):
    # n = 1 < r = 2: every trial truncates to nothing, and errs as the
    # noise-free level does and as the public path does
    fn = example1_F()
    grid = exact_coeffs(fn, 24, 24)
    scorer = ErrorEvaluator(fn.exact_deriv(2, axis), 24, 24)
    cross = build_cross(n=1, gamma=2.0, r=2, axis=axis)
    assert cross.block.shape == (0, 0)
    spec = NoiseSpec(1e-7, 2.0, "rescaled", 5)
    level = _Level(scorer, grid.data, cross, spec)
    got = level.trials(range(3))
    for sd, row in enumerate(got):
        want, _ = public_trial(scorer, grid, cross, replace(spec, seed=5 + sd))
        assert row.tobytes() == want.tobytes() == np.array(level.errors).tobytes()


@pytest.mark.parametrize("axis", ["t", "tau"])
@pytest.mark.parametrize("h", [1e-4, None], ids=["h", "delta0"])
def test_noise_free_level_errors_match_the_exhaustive_oracle(h, axis):
    # a table row without noise, an h row or delta = 0, built as the table
    # command builds it: its level's errors are the whole-grid C pass, bit
    # for bit, and the whole-grid L2 error
    fn = example1_F()
    grid = exact_coeffs(fn, 24, 24) if h is None else coeffs.trapezoid_coeffs(fn, 24, 24, h)
    oracle = ErrorEvaluator(fn.exact_deriv(2, axis), 24, 24)
    for n in (8, 16, 24):
        cross = build_cross(n=n, gamma=1.0, r=2, axis=axis)
        level = _Level(ErrorEvaluator(fn.exact_deriv(2, axis), 24, 24), grid.data, cross, None)
        approx = truncate(grid, cross)
        assert_same_float(level.errors[1], oracle.c(approx))
        assert level.errors[0] == pytest.approx(oracle.l2(approx), rel=1e-15)


RATE_SP = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
# three noise levels of four seeds: trial 4 * i + sd draws seed 1000 + 997 * i + sd
RATE_ARGS = (RATE_SP, 2, "L2", (1e-5, 1e-7, 1e-9), 4)


def force_workers(monkeypatch, count):
    monkeypatch.setattr(analysis, "_worker_count", lambda items: count)


def fail_draws(monkeypatch, seeds, fail):
    # fail(seed, pid of the caller) runs in place of the draws of a batch
    # that holds one of these seeds, for the first of them in the batch
    caller, draw = os.getpid(), analysis._noisy_blocks

    def noisy_blocks(data, spec, shape, sds):
        for sd in sds:
            if spec.seed + sd in seeds:
                fail(spec.seed + sd, caller)
        return draw(data, spec, shape, sds)

    monkeypatch.setattr(analysis, "_noisy_blocks", noisy_blocks)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_count_follows_the_usable_cpus(monkeypatch):
    # at least 32 trials a worker, at most two workers, forked on Linux only
    sizes = (0, 31, 32, 63, 64, 250, 10 ** 6)
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert [analysis._worker_count(n) for n in sizes] == [1, 1, 1, 1, 2, 2, 2]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert [analysis._worker_count(n) for n in sizes] == [1] * len(sizes)
    for platform in ("darwin", "win32"):
        monkeypatch.setattr(sys, "platform", platform)
        assert analysis._worker_count(10 ** 6) == 1


def pair(index):
    return float(index), -0.5 * index


def pair_batches(levels, count):
    # one batch a level: writes the pairs of its draws sds into out, draw sd
    # of level i being trial i * count + sd
    def batch(i, sds, out):
        out[:] = np.reshape([pair(i * count + sd) for sd in sds], (-1, 2))

    return [functools.partial(batch, i) for i in range(levels)]


def test_a_share_fills_its_rows_in_place():
    # the run lo..hi-1 of every level, level by level; a failure stops the
    # share at its level, the earlier levels' runs filled and the rest untouched
    out = np.full((3, 7, 2), -9.0)
    assert analysis._run_share(pair_batches(3, 7), out, 2, 5) is None
    assert out[:, 2:5].reshape(-1, 2).tolist() == [
        list(pair(7 * i + sd)) for i in range(3) for sd in range(2, 5)]
    assert (out[:, :2] == -9.0).all() and (out[:, 5:] == -9.0).all()

    def fail(sds, out):
        raise ValueError("bad run")

    batches = pair_batches(3, 7)
    batches[1] = fail
    out = np.full((3, 7, 2), -9.0)
    index, exc = analysis._run_share(batches, out, 2, 5)
    assert index == 7 + 2 and isinstance(exc, ValueError) and str(exc) == "bad run"
    assert out[0, 2:5].tolist() == [list(pair(sd)) for sd in range(2, 5)]
    assert (out[0, :2] == -9.0).all() and (out[0, 5:] == -9.0).all() and (out[1:] == -9.0).all()


@pytest.mark.parametrize("workers", [2, 5])
def test_a_worker_pipes_back_only_its_failure(monkeypatch, workers):
    # each worker writes its rows into the shared result, more workers than
    # CPUs among them; its pipe carries None, a few bytes, where a pickled
    # share of 1000 rows would be ~16 KB
    force_workers(monkeypatch, workers)
    fdopen, payloads = os.fdopen, []

    def recording(fd, mode="r", *args, **kwargs):
        fh = fdopen(fd, mode, *args, **kwargs)
        if mode != "rb":  # a worker's write end
            return fh
        with fh:
            payloads.append(fh.read())
        return io.BytesIO(payloads[-1])

    monkeypatch.setattr(analysis.os, "fdopen", recording)
    out = analysis._forked_map(pair_batches(5, 400), 400)
    assert out.shape == (5, 400, 2)
    assert out.reshape(-1, 2).tolist() == [list(pair(i)) for i in range(2000)]
    assert len(payloads) == workers - 1 and all(len(payload) < 100 for payload in payloads)
    assert_no_child_left()


def test_shares_may_be_empty(monkeypatch):
    # three processes on no draws, and on two: the caller's run is empty
    force_workers(monkeypatch, 3)
    empty = analysis._forked_map(pair_batches(2, 0), 0)
    assert empty.dtype == np.float64 and empty.shape == (2, 0, 2)
    assert analysis._forked_map(pair_batches(1, 2), 2).tolist() == [[[0.0, -0.0], [1.0, -0.5]]]
    assert_no_child_left()


def test_an_interrupt_in_the_callers_share_kills_and_reaps_the_worker(monkeypatch):
    # KeyboardInterrupt is no Exception, so the caller's share does not catch
    # it: the worker, still busy with its own share, is killed and reaped
    # before the interrupt reaches the caller
    force_workers(monkeypatch, 2)
    caller, waitpid, statuses = os.getpid(), os.waitpid, []

    def recording_waitpid(pid, options):
        reaped = waitpid(pid, options)
        statuses.append(reaped[1])
        return reaped

    def batch(sds, out):
        if os.getpid() != caller:
            time.sleep(30)  # far longer than the caller takes to be interrupted
        elif sds[0] == 0:
            raise KeyboardInterrupt
        pair_batches(1, 4)[0](sds, out)

    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    with pytest.raises(KeyboardInterrupt):
        analysis._forked_map([batch], 4)
    assert [os.WIFSIGNALED(s) and os.WTERMSIG(s) for s in statuses] == [signal.SIGKILL]
    assert_no_child_left()


@pytest.mark.parametrize("fn,metric,axis", [
    (make_class_function(), "L2", "t"), (make_class_function(), "C", "tau"),
    (example1_F(), "C", "t"), (example1_F(), "L2", "tau")],
    ids=["class-L2", "class-C-tau", "example1-C", "example1-L2-tau"])
def test_rate_csv_is_the_same_for_any_worker_count(tmp_path, monkeypatch, fn, metric, axis):
    sp = SmoothnessParams(2.0, 5.6, 5.6, 2.0)
    written = set()
    for workers in (1, 2, 3, 5):
        force_workers(monkeypatch, workers)
        path = tmp_path / f"rate-{workers}.csv"
        rate_study(fn, sp, 2, metric, (1e-5, 1e-7, 1e-9), 4, axis=axis,
                   grid_degree=None if fn.id.startswith("class") else 40).save(path)
        written.add(path.read_bytes())
    assert len(written) == 1
    assert_no_child_left()


def test_uneven_runs_score_as_one_process_does(monkeypatch):
    # 13 draws a level on two processes: the caller scores draws 0-5 of
    # every level and the forked worker draws 6-12, the trials of one process
    run_share, runs = analysis._run_share, []

    def recording(batches, out, lo, hi):
        runs.append((lo, hi))  # the caller's; a worker's stays there
        return run_share(batches, out, lo, hi)

    monkeypatch.setattr(analysis, "_run_share", recording)
    trials = []
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        trials.append(rate_study(make_class_function(), RATE_SP, 2, "C", (1e-5, 1e-7, 1e-9), 13,
                                 axis="tau").trials)
    assert runs == [(0, 13), (0, 6)]
    assert trials[0].shape == (3, 13, 2) and trials[0].tobytes() == trials[1].tobytes()
    assert_no_child_left()


def test_a_trial_sends_back_two_floats(monkeypatch, tmp_path):
    # every share fills its run of every level of one float64 array of
    # (error_l2, error_c) in place, which becomes the result's trials; save
    # rebuilds each row's delta, n, gamma and seed from the trial's level
    # and draw
    force_workers(monkeypatch, 2)
    run_share, sent = analysis._run_share, []

    def recording(batches, out, lo, hi):
        failure = run_share(batches, out, lo, hi)
        sent.append((out, lo, hi, failure))  # the caller's; a worker's stays there
        return failure

    monkeypatch.setattr(analysis, "_run_share", recording)
    result = rate_study(make_class_function(), *RATE_ARGS)
    ((out, lo, hi, failure),) = sent
    assert (lo, hi, failure) == (0, 2, None)
    assert out.dtype == np.float64 and out.shape == (3, 4, 2)
    trials = result.trials
    assert trials.dtype == np.float64 and trials.shape == (3, 4, 2)
    assert np.shares_memory(trials, out)
    deltas = RATE_ARGS[3]
    crosses = analysis._plan(RATE_SP, deltas, (), 2, 0.9, None, "L2", "t", 128)
    path = tmp_path / "rate.csv"
    result.save(path)
    lines = path.read_text().splitlines()[1:-1]
    written = [tuple(kind(x) for kind, x in zip((float, int, float, float, float, int),
                                                line.split(",")))
               for line in lines]
    assert written == [(deltas[i], crosses[i].n, crosses[i].gamma, *trials[i, sd].tolist(),
                        1000 + 997 * i + sd) for i in range(3) for sd in range(4)]


def test_rate_csv_is_the_same_for_any_save_slice(monkeypatch, tmp_path):
    # seven seeds a level cross slices of three at 3 and 6, which no study
    # of the default slice of 4096 rows reaches
    result = rate_study(make_class_function(), *RATE_ARGS[:-1], 7)
    whole, sliced = tmp_path / "whole.csv", tmp_path / "sliced.csv"
    result.save(whole)
    monkeypatch.setattr(analysis, "_SAVE_ROWS", 3)
    result.save(sliced)
    assert sliced.read_bytes() == whole.read_bytes()
    assert len(whole.read_text().splitlines()) == 1 + 3 * 7 + 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_trial_is_reported_without_a_warning(monkeypatch):
    # the forked worker's trials overflow too, and inherit the study's
    # ignored overflow
    force_workers(monkeypatch, 2)
    trials = _Level.trials

    def overflowing(level, sds, out=None):
        out = trials(level, sds, out)
        out[:, 0] = np.square(np.float64(1e200))
        return out

    monkeypatch.setattr(_Level, "trials", overflowing)
    with pytest.raises(ValueError, match="^rate study of .* produced non-finite errors$"):
        rate_study(make_class_function(), *RATE_ARGS)
    assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_first_failing_trial_raises_for_any_worker_count(monkeypatch, workers):
    # trials 5 and 6, draws 1 and 2 of level 1, fail; trial 5's run comes
    # first, whichever process scores it (the caller for one and two
    # processes, where 6 is in the caller's run or the worker's, and a
    # forked one for three, where another worker runs 6)
    force_workers(monkeypatch, workers)

    def fail(seed, caller):
        raise ValueError(f"bad draw {seed}")

    fail_draws(monkeypatch, {1998, 1999}, fail)
    with pytest.raises(ValueError, match="^bad draw 1998$"):
        rate_study(make_class_function(), *RATE_ARGS)
    assert_no_child_left()


def test_worker_ending_without_results_is_reported(monkeypatch):
    force_workers(monkeypatch, 2)

    def die(seed, caller):
        if os.getpid() != caller:
            os._exit(3)

    fail_draws(monkeypatch, {1999}, die)  # trial 6, in the forked worker's run of draws 2, 3
    with pytest.raises(ChildProcessError,
                       match=r"^forked worker \d+ ended with exit code 3 and no results$"):
        rate_study(make_class_function(), *RATE_ARGS)
    assert_no_child_left()


def test_workers_print_nothing_and_leave_by_os_exit(tmp_path, monkeypatch, capfd):
    # a worker that left through the interpreter's exit would run the
    # atexit handlers and flush its copy of the unflushed "before"
    force_workers(monkeypatch, 3)
    marker = tmp_path / "atexit-ran"

    def at_exit():
        marker.write_text(str(os.getpid()))

    atexit.register(at_exit)
    try:
        print("before", end="")
        rate_study(make_class_function(), *RATE_ARGS)
        print(" after")
    finally:
        atexit.unregister(at_exit)
    assert capfd.readouterr() == ("before after\n", "")
    assert not marker.exists()
    assert_no_child_left()
