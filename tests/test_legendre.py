"""Basis evaluation, Gauss quadrature, and coefficient-space differentiation."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import legendre as npleg

from crossdiff import legendre
from crossdiff.coeffs import _composite_rule
from crossdiff.legendre import (
    _PHI_BLOCK,
    _PHI_SPLIT,
    _LegendreSeries,
    _phi_blocks,
    differentiate,
    gauss_rule,
    iterate_derivative,
    phi_matrix,
    synthesize,
)
from crossdiff.truncation import build_cross
from operator_reference import reference_operator


def test_phi0_is_normalized_constant():
    t = np.linspace(-1.0, 1.0, 11)
    assert np.allclose(phi_matrix(0, t)[0], 1.0 / math.sqrt(2.0), atol=1e-15)


def test_phi1_endpoint_value():
    assert phi_matrix(1, np.array([1.0]))[1, 0] == pytest.approx(math.sqrt(1.5), rel=1e-15)


def test_phi5_against_rodrigues_polynomial():
    # P_5(t) = (63 t^5 - 70 t^3 + 15 t)/8, independent of the recurrence
    for t in (0.3, -0.77, 0.995):
        p5 = (63.0 * t**5 - 70.0 * t**3 + 15.0 * t) / 8.0
        assert phi_matrix(5, np.array([t]))[5, 0] == pytest.approx(math.sqrt(5.5) * p5, abs=1e-13)


def test_phi_matrix_shape_and_negative_degree():
    t = np.linspace(-1.0, 1.0, 5)
    assert phi_matrix(7, t).shape == (8, 5)
    with pytest.raises(ValueError):
        phi_matrix(-1, t)


def whole_array_phi_matrix(max_degree, t):
    """Reference tabulation: the recurrence over the whole node array at
    once, scaled in a second pass."""
    t = np.asarray(t, dtype=float).ravel()
    out = np.empty((max_degree + 1, t.size))
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = t
    for k in range(1, max_degree):
        out[k + 1] = ((2 * k + 1) * t * out[k] - k * out[k - 1]) / (k + 1)
    out *= np.sqrt(np.arange(max_degree + 1) + 0.5)[:, None]
    return out


def tabulate_on(monkeypatch, cpus, max_degree, t):
    """phi_matrix with cpus usable CPUs; also the threads that filled which
    nodes, and the live thread count before and after the call."""
    fills = []

    def recording(t, out, scale, lo, hi):
        fills.append((threading.current_thread(), lo, hi))
        _phi_blocks(t, out, scale, lo, hi)

    monkeypatch.setattr(legendre, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(legendre, "_phi_blocks", recording)
    before = threading.active_count()
    table = phi_matrix(max_degree, t)
    return table, fills, (before, threading.active_count())


# node counts around the split size and the block edges; from the split size
# on, the threaded fill splits the nodes into halves of whole and partial
# blocks
SIZES = {"0": 0, "1": 1, "split-1": _PHI_SPLIT - 1, "split": _PHI_SPLIT,
         "split+1": _PHI_SPLIT + 1, "block-1": _PHI_BLOCK - 1, "block": _PHI_BLOCK,
         "block+1": _PHI_BLOCK + 1, "2blocks-1": 2 * _PHI_BLOCK - 1,
         "2blocks+3": 2 * _PHI_BLOCK + 3, "3blocks+5": 3 * _PHI_BLOCK + 5,
         "4blocks+5": 4 * _PHI_BLOCK + 5}


@pytest.mark.parametrize("size", SIZES.values(), ids=SIZES.keys())
def test_blocked_phi_matrix_is_bit_identical_to_whole_array_recurrence(monkeypatch, size):
    t = np.random.default_rng(size).uniform(-1.0, 1.0, size)
    t[:3] = (-1.0, 1.0, 0.0)[:size]
    for deg in (0, 1, 2, 64):
        table, fills, threads = tabulate_on(monkeypatch, 2, deg, t)
        assert table.shape == (deg + 1, size)
        assert np.array_equal(table, whole_array_phi_matrix(deg, t))
        # two threads from the split size on, each filling one half of the
        # nodes; no thread outlives the call
        threaded = deg > 0 and size >= _PHI_SPLIT
        assert len({thread for thread, _, _ in fills}) == (2 if threaded else min(deg, 1))
        if threaded:
            assert sorted((lo, hi) for _, lo, hi in fills) == [(0, size // 2), (size // 2, size)]
        assert threads[0] == threads[1]
        serial, fills, _ = tabulate_on(monkeypatch, 1, deg, t)
        assert np.array_equal(table, serial)
        assert len({thread for thread, _, _ in fills}) == min(deg, 1)
        # independent oracle: numpy's Legendre series times sqrt(k + 1/2);
        # both recurrences round once per degree, so the gap grows with k
        for k in sorted({0, deg // 2, deg}):
            unit = np.zeros(k + 1)
            unit[k] = 1.0
            expect = math.sqrt(k + 0.5) * np.polynomial.legendre.legval(t, unit)
            assert np.all(np.abs(table[k] - expect) <= 1e-13 * (k + 1))


@pytest.mark.parametrize("failing", ["caller's half", "helper's half", "both halves"])
def test_a_failed_half_raises_and_leaves_no_thread(monkeypatch, failing):
    # the exception of the failing half reaches the caller after the helper
    # is joined, so no half-filled table is returned and no thread lives on;
    # where both fail, the caller's own is raised
    errors = {False: RuntimeError("caller's half failed"),
              True: RuntimeError("helper's half failed")}

    def fill_or_fail(t, out, scale, lo, hi):
        if failing in ("both halves", "helper's half" if lo > 0 else "caller's half"):
            raise errors[lo > 0]
        _phi_blocks(t, out, scale, lo, hi)

    monkeypatch.setattr(legendre, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(legendre, "_phi_blocks", fill_or_fail)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        phi_matrix(8, np.linspace(-1.0, 1.0, 2 * _PHI_BLOCK + 3))
    assert info.value is errors[failing == "helper's half"]
    assert threading.active_count() == before
    assert not any(thread.name.startswith("phi_matrix") for thread in threading.enumerate())


def test_blocked_phi_matrix_flattens_2d_input():
    t = np.linspace(-1.0, 1.0, 3 * (_PHI_BLOCK + 5)).reshape(3, -1)
    table = phi_matrix(64, t)
    assert table.shape == (65, t.size)
    assert np.array_equal(table, whole_array_phi_matrix(64, t))
    assert np.array_equal(table, phi_matrix(64, t.ravel()))


def test_blocked_series_eval_matches_the_whole_table_form():
    # over two blocks of nodes and a ragged third, the values from one basis
    # table per block agree with the one-table form to rounding; a new array
    # of t's shape, which owns its data, for any shape of t
    coeffs = np.random.default_rng(7).standard_normal(129) / (1.0 + np.arange(129)) ** 2
    series = _LegendreSeries(coeffs)
    t = np.random.default_rng(8).uniform(-1.0, 1.0, 2 * _PHI_BLOCK + 3)
    got = series.eval(t)
    want = coeffs @ phi_matrix(128, t)
    assert got.shape == t.shape and got.flags.owndata
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    grid = t.reshape(5, -1)
    assert np.array_equal(series.eval(grid), got.reshape(grid.shape))
    assert series.eval(np.float64(0.5)).shape == ()
    # the derivative is the operator applied to the coefficients
    assert np.array_equal(series.deriv(2).coeffs, reference_operator(128, 2) @ coeffs)
    assert series.deriv(0) is series


def test_orthonormality_to_degree_40():
    nodes, weights = gauss_rule(64)
    P = phi_matrix(40, nodes)
    gram = (P * weights) @ P.T
    assert np.abs(gram - np.eye(41)).max() < 1e-10


def test_gauss_rule_smallest_sizes():
    x1, w1 = gauss_rule(1)
    assert np.allclose(x1, [0.0], atol=1e-15)
    assert np.allclose(w1, [2.0], atol=1e-15)
    x2, w2 = gauss_rule(2)
    assert np.allclose(x2, [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], atol=1e-15)
    assert np.allclose(w2, [1.0, 1.0], atol=1e-14)
    with pytest.raises(ValueError):
        gauss_rule(0)


def test_memoised_gauss_rule_cannot_be_corrupted():
    rule = gauss_rule(37)
    assert gauss_rule(37) is rule
    memo_nodes, memo_weights = rule
    nodes = memo_nodes.copy()
    with pytest.raises(ValueError):
        memo_nodes[0] = 0.0
    with pytest.raises(ValueError):
        memo_weights[0] = 0.0
    # composite rules are fresh, writable arrays on every call
    for breakpoints in ((), (0.0,)):
        t, w = _composite_rule(37, breakpoints)
        t2, _ = _composite_rule(37, breakpoints)
        assert t.flags.writeable and w.flags.writeable
        assert t is not t2
        t[:] = 5.0
        w[:] = 5.0
        assert np.array_equal(_composite_rule(37, breakpoints)[0], t2)
    assert np.array_equal(gauss_rule(37)[0], nodes)


def test_gauss_rule_five_nodes_closed_form():
    # classical closed form for the 5-point rule
    a = math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
    b = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
    nodes = np.array([-b, -a, 0.0, a, b])
    w_a = (322.0 + 13.0 * math.sqrt(70.0)) / 900.0
    w_b = (322.0 - 13.0 * math.sqrt(70.0)) / 900.0
    weights = np.array([w_b, w_a, 128.0 / 225.0, w_a, w_b])
    got_nodes, got_weights = gauss_rule(5)
    assert np.abs(got_nodes - nodes).max() < 1e-14
    assert np.abs(got_weights - weights).max() < 1e-14


def test_gauss_rule_matches_numpy_reference():
    for m in (3, 8, 17, 33):
        x_ref, w_ref = np.polynomial.legendre.leggauss(m)
        nodes, weights = gauss_rule(m)
        assert np.abs(nodes - x_ref).max() < 1e-13
        assert np.abs(weights - w_ref).max() < 1e-13


def test_gauss_weights_sum_to_two():
    for m in (1, 2, 3, 7, 12, 33, 64):
        assert abs(gauss_rule(m)[1].sum() - 2.0) < 1e-12


def test_gauss_monomial_exactness():
    # an m-point rule integrates t^d exactly for d <= 2m-1
    nodes, weights = gauss_rule(7)
    for d in range(14):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert weights @ nodes**d == pytest.approx(exact, abs=1e-13)


def test_first_derivative_operator_columns():
    M = iterate_derivative(6, 1)
    # column 2: only entry l=1, value 2*sqrt(5/2)*sqrt(3/2) = sqrt(15)
    col2 = M[:, 2].copy()
    assert col2[1] == pytest.approx(math.sqrt(15.0), rel=1e-15)
    col2[1] = 0.0
    assert np.all(col2 == 0.0)
    # column 1: only entry l=0, value sqrt(3)
    assert M[0, 1] == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert np.count_nonzero(M[:, 1]) == 1
    # column 0: derivative of a constant
    assert np.all(M[:, 0] == 0.0)


def test_first_derivative_operator_sparsity_pattern():
    M = iterate_derivative(25, 1)
    for k in range(26):
        nz = np.nonzero(M[:, k])[0]
        assert len(nz) == (k + 1) // 2
        for l in nz:
            assert l < k and (k + l) % 2 == 1


def test_iterate_derivative_identity_and_validation():
    assert np.array_equal(iterate_derivative(8, 1), reference_operator(8, 1))
    with pytest.raises(ValueError, match="^derivative order must be >= 1$"):
        iterate_derivative(8, 0)
    with pytest.raises(ValueError, match="^max_degree must be >= 1$"):
        iterate_derivative(0, 1)


def test_second_derivative_of_cubic():
    # t^3 = (3/5) P_1 + (2/5) P_3; second derivative is 6t
    c = np.zeros(5)
    c[1] = (3.0 / 5.0) / math.sqrt(1.5)
    c[3] = (2.0 / 5.0) / math.sqrt(3.5)
    out = iterate_derivative(4, 2) @ c
    expect = np.zeros(5)
    expect[1] = 6.0 / math.sqrt(1.5)
    assert np.abs(out - expect).max() < 1e-12


def test_second_derivative_operator_column_2():
    col = iterate_derivative(4, 2)[:, 2].copy()
    assert col[0] == pytest.approx(math.sqrt(45.0), rel=1e-14)
    col[0] = 0.0
    assert np.all(col == 0.0)


def test_coefficient_space_derivatives_match_polynomial_calculus():
    # random degree-30 polynomials, r = 1..3, synthesized on 33 points
    rng = np.random.default_rng(7)
    nodes, weights = gauss_rule(64)
    deg = 40
    P = phi_matrix(deg, nodes)
    pts = np.linspace(-1.0, 1.0, 33)
    P_pts = phi_matrix(deg, pts)
    for trial in range(5):
        coeffs = rng.uniform(-1.0, 1.0, 31)
        qvals = np.polynomial.polynomial.polyval(nodes, coeffs)
        c = (P * weights) @ qvals
        for r in (1, 2, 3):
            d_coeffs = np.polynomial.polynomial.polyder(coeffs, r)
            exact = np.polynomial.polynomial.polyval(pts, d_coeffs)
            approx = P_pts.T @ (iterate_derivative(deg, r) @ c)
            scale = max(1.0, np.abs(exact).max())
            assert np.abs(approx - exact).max() < 1e-8 * scale


@settings(max_examples=80, deadline=None)
@given(deg=st.integers(1, 256), r=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_derivative_operator_matches_legder_property(deg, r, seed):
    # orthonormal coefficients c_k are Legendre coefficients c_k sqrt(k+1/2)
    c = np.random.default_rng(seed).standard_normal(deg + 1)
    half = np.sqrt(np.arange(deg + 1) + 0.5)
    expected = np.zeros(deg + 1)
    der = npleg.legder(c * half, r)
    expected[: der.size] = der / half[: der.size]
    got = iterate_derivative(deg, r) @ c
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


@settings(max_examples=120, deadline=None)
@given(data=st.data(), gamma=st.floats(1, 4), r=st.integers(1, 4),
       axis=st.sampled_from(("t", "tau")), seed=st.integers(0, 2 ** 32 - 1))
def test_differentiate_cross_block_matches_legder_and_the_operator_property(
        data, gamma, r, axis, seed):
    # the bounding block of a cross, zero outside it, as truncate hands it on
    n = data.draw(st.integers(r, 160))
    cross = build_cross(n, gamma, r, axis)
    rng = np.random.default_rng(seed)
    block = np.where(cross.block, rng.standard_normal(cross.block.shape), 0.0)
    got = differentiate(block, r, axis)
    cols = block if axis == "t" else block.T  # coefficient vectors as columns
    size = cols.shape[0]
    half = np.sqrt(np.arange(size) + 0.5)[:, None]
    by_legder = np.zeros_like(cols)
    der = npleg.legder(cols * half, r, axis=0)
    by_legder[: der.shape[0]] = der / half[: der.shape[0]]
    # the oracle operator is built at a larger degree and cut to the block
    deg = size - 1 + data.draw(st.integers(0, 8))
    by_operator = reference_operator(deg, r)[:size, :size] @ cols
    for expected in (by_legder, by_operator):
        expected = expected if axis == "t" else expected.T
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_differentiate_validation_and_limits():
    for args in ((np.ones((3, 3)), 2, "x"), (np.ones((3, 3)), 0), (np.ones((3, 3)), -1)):
        with pytest.raises(ValueError):
            differentiate(*args)
    # degrees below r differentiate to zero, whatever r
    for r in (2, 3, 10 ** 6):
        assert np.array_equal(differentiate(np.ones((2, 3)), r), np.zeros((2, 3)))
    assert differentiate(np.ones((4, 0)), 2, "tau").shape == (4, 0)
    # the operator's first non-finite power ends the build, with its order and degree
    with pytest.raises(OverflowError,
                       match="^operator entries overflow for order 200 at degree 299$"):
        differentiate(np.ones((300, 1)), 200)


def test_endpoint_derivative_closed_form():
    # phi_k^{(r)}(1) = sqrt(k+1/2) * prod_{i=0}^{r-1} (k-i)(k+i+1) / (2^r r!)
    deg = 40
    one = np.array([1.0])
    for k in (1, 3, 7, 12, 20, 40):
        for r in (1, 2, 3):
            num = 1.0
            for i in range(r):
                num *= (k - i) * (k + i + 1)
            expect = math.sqrt(k + 0.5) * num / (2.0**r * math.factorial(r))
            c = np.zeros(deg + 1)
            c[k] = 1.0
            d = iterate_derivative(deg, r) @ c
            val = float((phi_matrix(deg, one).T @ d)[0])
            if expect == 0.0:
                assert abs(val) < 1e-10
            else:
                assert val == pytest.approx(expect, rel=1e-8)


def test_synthesize_constant_surface():
    data = np.zeros((1, 1))
    data[0, 0] = 1.0
    t = np.linspace(-1.0, 1.0, 9)
    out = synthesize(data, t, t)
    assert np.allclose(out, 0.5, atol=1e-15)


def test_synthesize_linear_function():
    data = np.zeros((2, 1))
    data[1, 0] = (2.0 / 3.0) * math.sqrt(3.0)
    t = np.linspace(-1.0, 1.0, 21)
    tau = np.linspace(-1.0, 1.0, 5)
    out = synthesize(data, t, tau)
    assert np.abs(out - t[:, None]).max() < 1e-14


def test_synthesize_rejects_non_2d():
    with pytest.raises(ValueError):
        synthesize(np.zeros(4), np.zeros(3), np.zeros(3))
