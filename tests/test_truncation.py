"""Hyperbolic cross index sets, coefficient-space truncated derivatives,
and the parameter-selection rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crossdiff import legendre, truncation
from crossdiff.analysis import example1_F
from crossdiff.coeffs import CoeffGrid, exact_coeffs, lp_norm
from crossdiff.legendre import gauss_rule, iterate_derivative, synthesize
from crossdiff.truncation import (
    SmoothnessParams,
    build_cross,
    cardinality_growth,
    choose_gamma,
    choose_n,
    class_norm,
    truncate,
)
from operator_reference import reference_operator


def brute_force_cross(n, gamma, r, axis):
    """Direct double-loop enumeration of the index set, no shortcuts."""
    out = set()
    if axis == "t":
        for k in range(r, n + 1):
            for j in range(0, n + 1):
                if j == 0 or k * float(j) ** gamma <= n:
                    out.add((k, j))
    else:
        for j in range(r, n + 1):
            for k in range(0, n + 1):
                if k == 0 or j * float(k) ** gamma <= n:
                    out.add((k, j))
    return out


def grid_mask(cross, K, J):
    """The cross's membership mask over a whole grid of degrees (K, J)."""
    kb, jb = cross.block.shape
    return np.pad(cross.block, [(0, K + 1 - kb), (0, J + 1 - jb)])


def test_build_cross_small_examples():
    assert build_cross(2, 1.0, 2).indices == ((2, 0), (2, 1))
    assert build_cross(2, 1.0, 2, "tau").block.tolist() == [[False, False, True],
                                                            [False, False, True]]
    assert build_cross(5, 1.0, 1).cardinality == 15
    assert build_cross(1, 3.0, 2).indices == ()
    assert build_cross(1, 3.0, 2).block.shape == (0, 0)


def test_build_cross_n_equals_r():
    cross = build_cross(2, 2.0, 2)
    assert set(cross.indices) == {(2, 0), (2, 1)}


def test_build_cross_matches_brute_force_everywhere():
    for gamma in (1.0, 1.5, 2.0, 3.0):
        for r in (1, 2, 3):
            for n in range(1, 65):
                for axis in ("t", "tau"):
                    got = set(build_cross(n, gamma, r, axis=axis).indices)
                    want = brute_force_cross(n, gamma, r, axis)
                    assert got == want, (n, gamma, r, axis)


@pytest.mark.parametrize("gamma", [1024.0, 1e308])
def test_build_cross_with_a_shape_whose_powers_overflow(gamma):
    # k * 2.0**gamma overflows a float from gamma = 1024 on; it exceeds every
    # n, so each k keeps j = 0 and 1 only, as gamma = 1000 already does
    for axis in ("t", "tau"):
        cross = build_cross(16, gamma, 2, axis)
        want = {(k, j) if axis == "t" else (j, k) for k in range(2, 17) for j in (0, 1)}
        assert set(cross.indices) == want and cross.cardinality == 30
        assert cross.indices == build_cross(16, 1000.0, 2, axis).indices
    assert build_cross(1, gamma, 1).indices == ((1, 0), (1, 1))
    assert cardinality_growth(gamma, 1, (4, 8)) == [(4, 8), (8, 16)]


def test_build_cross_validation():
    with pytest.raises(ValueError):
        build_cross(8, 0.9, 2)
    with pytest.raises(ValueError):
        build_cross(8, 1.0, 0)


def test_cross_indices_sorted_and_unique():
    cross = build_cross(20, 1.5, 2, axis="tau")
    assert list(cross.indices) == sorted(set(cross.indices))


def test_cross_mask_shape_guard():
    # block is the read-only mask over the bounding box of the indices
    for n, gamma, r, axis in ((10, 1.0, 2, "t"), (20, 1.5, 2, "tau"), (16, 1e308, 3, "t")):
        cross = build_cross(n, gamma, r, axis)
        ks, js = zip(*cross.indices)
        assert cross.block.shape == (max(ks) + 1, max(js) + 1)
        assert cross.cardinality == cross.block.sum() == len(cross.indices)
        assert not cross.block.flags.writeable
        with pytest.raises(ValueError):
            cross.block[r, 0] = False
    # a grid the cross sticks out of is refused, naming the first index outside it
    cross = build_cross(10, 1.0, 2)
    assert truncation._fit(cross, 10, 5) is cross.block
    with pytest.raises(ValueError, match=r"cross index \(6,0\) outside grid of degrees \(5,5\)"):
        truncation._fit(cross, 5, 5)


def test_cardinality_growth_rates():
    ns = (64, 128, 256, 512)
    rows = cardinality_growth(2.0, 2, ns)
    ratios = [card / n for n, card in rows]
    assert max(ratios) / min(ratios) < 2.0
    rows = cardinality_growth(1.0, 2, ns)
    ratios = [card / (n * math.log(n)) for n, card in rows]
    assert max(ratios) / min(ratios) < 2.0
    with pytest.raises(ValueError):
        cardinality_growth(2.0, 2, (64, 64))


def test_truncate_single_mode_against_difference_quotient():
    # grid holding exactly phi_3(t) phi_0(tau)
    data = np.zeros((8, 8))
    data[3, 0] = 1.0
    grid = CoeffGrid(data=data)
    out = truncate(grid, build_cross(n=3, gamma=1.0, r=2))
    ts = np.array([-0.7, -0.2, 0.4, 0.8])
    approx = synthesize(out.data, ts, np.array([0.3]))[:, 0]
    h = 1e-4
    fd = (
        synthesize(data, ts + h, np.array([0.3]))[:, 0]
        - 2 * synthesize(data, ts, np.array([0.3]))[:, 0]
        + synthesize(data, ts - h, np.array([0.3]))[:, 0]
    ) / h**2
    assert np.abs(approx - fd).max() < 1e-6
    # phi_3'' = sqrt(3.5) * 15 t, and phi_0(tau) = 1/sqrt(2)
    analytic = math.sqrt(3.5) * 15.0 * ts / math.sqrt(2.0)
    assert np.abs(approx - analytic).max() < 1e-10
    assert out.provenance == "derivative"


def test_truncate_zero_grid():
    grid = CoeffGrid(data=np.zeros((12, 12)))
    out = truncate(grid, build_cross(n=6, gamma=1.0, r=2))
    assert np.all(out.data == 0.0)


def test_truncate_error_decreases_with_n():
    F = example1_F()
    grid = exact_coeffs(F, 64, 64)
    exact = F.exact_deriv(2, "t")
    nodes, weights = gauss_rule(80)
    target = exact(nodes[:, None], nodes[None, :])
    errs = []
    for n in (8, 12, 16, 24):
        out = truncate(grid, build_cross(n=n, gamma=2.0, r=2))
        vals = synthesize(out.data, nodes, nodes)
        diff = vals - target
        errs.append(math.sqrt(weights @ (diff * diff) @ weights))
    assert errs[0] > errs[1] > errs[2] > errs[3]


def test_truncate_idempotent_on_masked_grid():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((20, 20))
    params = build_cross(n=10, gamma=1.5, r=2)
    masked = data * grid_mask(build_cross(10, 1.5, 2), 19, 19)
    a = truncate(CoeffGrid(data=masked), params)
    b = truncate(CoeffGrid(data=data), params)
    assert np.array_equal(a.data, b.data)


def test_truncate_is_linear():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((16, 16))
    y = rng.standard_normal((16, 16))
    params = build_cross(n=8, gamma=1.0, r=2)
    combined = truncate(CoeffGrid(data=2.0 * x - 3.0 * y), params)
    parts = (
        2.0 * truncate(CoeffGrid(data=x), params).data
        - 3.0 * truncate(CoeffGrid(data=y), params).data
    )
    assert np.abs(combined.data - parts).max() < 1e-12


def test_truncate_axis_symmetry():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((18, 18))
    out_t = truncate(CoeffGrid(data=data),
                     build_cross(n=9, gamma=1.5, r=2, axis="t"))
    out_tau = truncate(CoeffGrid(data=data.T),
                       build_cross(n=9, gamma=1.5, r=2, axis="tau"))
    assert np.array_equal(out_t.data, out_tau.data.T)


def test_truncate_noise_amplification_shape():
    # with coefficients that are pure rescaled sup-norm noise, the output
    # norm is bounded by a constant times delta * n^(2r + 1/2); the
    # measured ratio actually decays (~n^(2r - 1/2) growth), so staying
    # below a unit constant over an 8x span of n is the invariant
    delta, r = 1e-7, 2
    ratios = []
    for n in (8, 16, 32, 64):
        # noise on the cross alone: a draw zeroed outside it, of sup norm delta
        xi = np.random.default_rng(n).standard_normal((n + 1, n + 1))
        xi[~grid_mask(build_cross(n, 1.0, r), n, n)] = 0.0
        noisy = CoeffGrid(data=xi * (delta / lp_norm(xi, math.inf)))
        out = truncate(noisy, build_cross(n=n, gamma=1.0, r=r))
        ratios.append(np.linalg.norm(out.data) / (delta * n ** (2 * r + 0.5)))
    assert max(ratios) < 1.0


def test_truncate_validation():
    small = CoeffGrid(data=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        truncate(small, build_cross(n=8, gamma=1.0, r=2))


def test_choose_n_reference_values():
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
    assert choose_n(sp, 1e-7, 2) == 16
    assert choose_n(sp, 1e-9, 2) == 36


def test_choose_n_monotone_in_delta():
    prev = 0
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
    for d in (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        n = choose_n(sp, d, 2)
        assert n >= prev
        prev = n


def test_choose_n_rejects_insufficient_smoothness():
    # mu1 must exceed 2r - 1/s + 1/2 = 4 for s=2, r=2
    sp = SmoothnessParams(s=2.0, mu1=3.9, mu2=3.9, p=2.0)
    with pytest.raises(ValueError):
        choose_n(sp, 1e-7, 2)
    good = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
    with pytest.raises(ValueError):
        choose_n(good, 1e-7, 2, c=0.0)


@pytest.mark.parametrize("delta", [0.0, 1.0, 2.0, -1e-3, math.nan])
def test_choose_n_refuses_a_noise_level_outside_the_unit_interval(delta):
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
    with pytest.raises(ValueError) as exc:
        choose_n(sp, delta, 2)
    assert str(exc.value) == f"accuracy delta={delta} must lie in (0,1)"


def test_choose_n_refuses_a_level_that_is_not_finite():
    # 1e308 * 1e7**(1/5.6) overflows to inf, which no integer rounds to
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
    with pytest.raises(ValueError) as exc:
        choose_n(sp, 1e-7, 2, c=1e308)
    assert str(exc.value) == "truncation level for delta=1e-07 and c=1e+308 is not finite"
    assert choose_n(sp, 1e-7, 2, c=1e300) > 10 ** 300  # large but finite


def test_choose_gamma_reference_values():
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
    # L2 metric, s >= 2: gamma_max = (mu2 + 1/s - 1/2) / (mu1 - 2r + 1/s - 1/2)
    #                              = 5.6 / 1.6 = 3.5, midpoint 2.25
    assert choose_gamma(sp, 2, "L2") == pytest.approx(2.25, rel=1e-12)
    sp1 = SmoothnessParams(s=1.0, mu1=6.0, mu2=6.0, p=2.0)
    # s < 2: gamma_max = mu2 / (mu1 - 2r + 1/s - 1/2) = 6/2.5 = 2.4, mid 1.7
    assert choose_gamma(sp1, 2, "L2") == pytest.approx(1.7, rel=1e-12)
    # sup-norm metric: gamma_max = (mu2 + 1/s - 3/2)/(mu1 - 2r + 1/s - 3/2)
    #                            = 4.6/0.6, midpoint (1 + 23/3)/2
    assert choose_gamma(sp, 2, "C") == pytest.approx((1.0 + 4.6 / 0.6) / 2, rel=1e-12)


def test_choose_gamma_empty_interval_and_bad_metric():
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=0.1, p=2.0)
    with pytest.raises(ValueError):
        choose_gamma(sp, 2, "L2")
    good = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
    with pytest.raises(ValueError):
        choose_gamma(good, 2, "H1")


def test_class_norm_values():
    data = np.zeros((4, 4))
    data[0, 0] = 1.0
    assert class_norm(data, 2.0, 5.6, 5.6) == pytest.approx(1.0, rel=1e-14)
    data2 = np.zeros((4, 4))
    data2[2, 0] = 1.0
    # (2^(2*1) * 1 * 1)^(1/2) = 2
    assert class_norm(data2, 2.0, 1.0, 7.0) == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(ValueError):
        class_norm(data, 0.5, 5.6, 5.6)


def test_class_norm_of_huge_smoothness_skips_zero_coefficients():
    # mu * log k overflows for k >= 2, where every coefficient is zero: the
    # norm is that of the four ones at k, j <= 1
    kbar = np.maximum(1.0, np.arange(129, dtype=float))
    norms = []
    for mu in (1e300, 1e308):
        x = kbar ** (-mu - 0.51)
        norms.append(class_norm(np.outer(x, x), 2.0, mu, mu))
    assert norms == [2.0, 2.0]


def test_class_norm_example1_is_order_one():
    F = example1_F()
    grid = exact_coeffs(F, 64, 64)
    info = SmoothnessParams(2.0, 5.6, 5.6, 2.0)
    val = class_norm(grid, info.s, info.mu1, info.mu2)
    assert 0.5 < val < 1.5
    assert val == pytest.approx(0.8660465661515082, rel=1e-6)


def test_smoothness_params_validation():
    with pytest.raises(ValueError):
        SmoothnessParams(s=0.5, mu1=5.0, mu2=5.0, p=2.0)
    with pytest.raises(ValueError):
        SmoothnessParams(s=2.0, mu1=-1.0, mu2=5.0, p=2.0)
    for p in (0.5, -math.inf, math.nan):
        with pytest.raises(ValueError, match=r"must lie in \[1, inf\]$"):
            SmoothnessParams(s=2.0, mu1=5.0, mu2=5.0, p=p)
    SmoothnessParams(s=2.0, mu1=5.0, mu2=5.0, p=math.inf)


def test_method_params_validation():
    build_cross(n=8, gamma=1.0, r=1, axis="tau")
    with pytest.raises(ValueError):
        build_cross(n=8, gamma=1.0, r=0, axis="t")
    with pytest.raises(ValueError):
        build_cross(n=8, gamma=0.5, r=1, axis="t")
    with pytest.raises(ValueError):
        build_cross(n=8, gamma=1.0, r=1, axis="x")


def dense_truncate(grid, params, op):
    """The whole-grid form: mask every entry, apply the full operator."""
    keep = grid_mask(build_cross(params.n, params.gamma, params.r, params.axis), grid.K, grid.J)
    masked = np.where(keep, grid.data, 0.0)
    if params.axis == "t":
        return op[: grid.K + 1, : grid.K + 1] @ masked
    return masked @ op[: grid.J + 1, : grid.J + 1].T


def test_block_truncate_matches_the_dense_form():
    rng = np.random.default_rng(12)
    for K, J in ((128, 128), (40, 61), (64, 33), (12, 12)):
        data = rng.standard_normal((K + 1, J + 1))
        for r in (1, 2, 3):
            op = reference_operator(max(K, J), r)
            for axis in ("t", "tau"):
                for n in (r - 1, r, 7, min(K, J)):  # n < r is the empty cross
                    for gamma in (1.0, 2.25):
                        params = build_cross(n=n, gamma=gamma, r=r, axis=axis)
                        got = truncate(CoeffGrid(data=data), params).data
                        expect = dense_truncate(CoeffGrid(data=data), params, op)
                        assert got.shape == expect.shape
                        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()
                        if n < r:
                            assert not got.any()


def test_truncate_builds_no_cross(monkeypatch):
    params = build_cross(n=10, gamma=1.5, r=2)
    # k runs over 2..10 and j up to (10/2)^(1/1.5) ~ 2.9 at k = 2
    assert params.block.shape == (11, 3) and not params.block.flags.writeable

    def refuse(*args):
        raise AssertionError("truncate built a cross")

    monkeypatch.setattr(truncation, "build_cross", refuse)
    grid = CoeffGrid(data=np.ones((20, 20)))
    first = truncate(grid, params)
    assert np.array_equal(truncate(grid, params).data, first.data)
    assert not first.data[:, 3:].any() and not first.data[11:].any()
    # a grid the cross sticks out of is refused on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="outside grid of degrees"):
            truncate(CoeffGrid(data=np.ones((6, 6))), params)


def test_truncate_reuses_one_read_only_operator_per_size_and_order(monkeypatch):
    legendre._deriv_matrix.cache_clear()
    calls = []
    monkeypatch.setattr(legendre, "iterate_derivative", lambda max_degree, r: (
        calls.append((max_degree, r)) or iterate_derivative(max_degree, r)))
    # every cross below has an 11-wide block along its axis, whatever the grid
    for K, gamma, axis in ((19, 1.5, "t"), (19, 1.5, "tau"), (19, 2.5, "t"), (30, 1.5, "t")):
        grid = CoeffGrid(data=np.ones((K + 1, K + 1)))
        truncate(grid, build_cross(n=10, gamma=gamma, r=2, axis=axis))
    assert calls == [(10, 2)]
    truncate(grid, build_cross(n=10, gamma=1.5, r=3))
    assert calls == [(10, 2), (10, 3)]
    op = legendre._deriv_matrix(11, 2)
    assert not op.flags.writeable
    assert np.array_equal(op, reference_operator(10, 2))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), a=st.floats(-10, 10), b=st.floats(-10, 10), r=st.integers(1, 3),
       gamma=st.floats(1, 4), axis=st.sampled_from(("t", "tau")))
def test_truncate_is_linear_property(data, a, b, r, gamma, axis):
    K, J = data.draw(st.integers(1, 24)), data.draw(st.integers(1, 24))
    x, y = (data.draw(hnp.arrays(float, (K + 1, J + 1), elements=st.floats(-1e3, 1e3)))
            for _ in range(2))
    params = build_cross(n=data.draw(st.integers(0, min(K, J))), gamma=gamma, r=r, axis=axis)
    tx, ty, both = (truncate(CoeffGrid(data=g), params).data
                    for g in (x, y, a * x + b * y))
    scale = 1.0 + np.abs(tx).max() * abs(a) + np.abs(ty).max() * abs(b) + np.abs(both).max()
    assert np.abs(both - (a * tx + b * ty)).max() <= 1e-12 * scale


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 80), gamma=st.floats(1, 5), r=st.integers(1, 4),
       axis=st.sampled_from(("t", "tau")))
def test_build_cross_matches_brute_force_property(n, gamma, r, axis):
    cross = build_cross(n, gamma, r, axis)
    assert set(cross.indices) == brute_force_cross(n, gamma, r, axis)
    assert list(cross.indices) == sorted(set(cross.indices))
