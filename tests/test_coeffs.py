"""Coefficient grids: Gauss and trapezoid computation, noise, serialization."""

import math
import os
import re
import tempfile
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from crossdiff import coeffs as coeffs_module
from crossdiff.analysis import (
    CosFactor, PiecewisePoly, TestFunction, _kink_factor, example1_F, example2_F,
    make_class_function,
)
from crossdiff.coeffs import (
    CoeffGrid,
    NoiseSpec,
    _composite_rule,
    add_noise,
    exact_coeffs,
    load_grid,
    lp_norm,
    save_grid,
    trapezoid_coeffs,
)
from crossdiff.legendre import _PHI_BLOCK, gauss_rule, phi_matrix, synthesize
from crossdiff.truncation import build_cross, truncate


def test_exact_coeffs_orthonormal_product():
    # exact_coeffs evaluates f on a column of t nodes and a row of tau nodes
    f = lambda t, tau: phi_matrix(2, t)[2][:, None] * phi_matrix(3, tau)[3][None, :]
    grid = exact_coeffs(f, 4, 4)
    expect = np.zeros((5, 5))
    expect[2, 3] = 1.0
    assert np.abs(grid.data - expect).max() < 1e-12
    assert grid.provenance == "exact"
    assert grid.K == 4 and grid.J == 4


def test_exact_coeffs_linear_function():
    grid = exact_coeffs(lambda t, tau: t + 0.0 * tau, 3, 3)
    assert grid.data[1, 0] == pytest.approx((2.0 / 3.0) * math.sqrt(3.0), rel=1e-14)
    mask = np.ones((4, 4), dtype=bool)
    mask[1, 0] = False
    assert np.abs(grid.data[mask]).max() < 1e-13


def test_exact_coeffs_parseval_for_example1():
    F = example1_F()
    grid = exact_coeffs(F, 64, 64)
    t, wt = _composite_rule(96, F.breakpoints_t)
    tau, wtau = _composite_rule(96, F.breakpoints_tau)
    fvals = F.eval(t[:, None], tau[None, :])
    norm_sq = wt @ (fvals * fvals) @ wtau
    assert np.sum(grid.data**2) == pytest.approx(norm_sq, rel=1e-10)


@pytest.mark.parametrize("make", [example1_F, example2_F])
def test_exact_coeffs_is_the_tensor_gauss_form_at_128_nodes_per_piece(make):
    # degree 64 plus the margin of 64: the form every table's exact grid
    # has had, split at the function's breakpoints
    F = make()
    t, wt = _composite_rule(128, F.breakpoints_t)
    tau, wtau = _composite_rule(128, F.breakpoints_tau)
    fvals = np.asarray(F.eval(t[:, None], tau[None, :]), dtype=float)
    want = (phi_matrix(64, t) * wt) @ fvals @ (phi_matrix(64, tau) * wtau).T
    assert np.array_equal(exact_coeffs(F, 64, 64).data, want)


def test_exact_coeffs_preconditions():
    f = lambda t, tau: t * tau
    with pytest.raises(ValueError):
        exact_coeffs(f, -1, 3)


# the factor 1 everywhere, and the factor t
ONE = CosFactor(1.0, 0.0)
T = PiecewisePoly((), ((0.0, 1.0),))


def test_trapezoid_constant_exact():
    grid = trapezoid_coeffs(TestFunction("one", 1.0, ONE, ONE), 2, 2, 0.25)
    assert grid.data[0, 0] == pytest.approx(2.0, abs=1e-14)
    assert grid.provenance == "trapezoid"


def test_trapezoid_step_validation():
    f = lambda t, tau: t + tau
    for bad in (0.0, -0.1, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="must lie in"):
            trapezoid_coeffs(f, 2, 2, bad)
    with pytest.raises(ValueError):
        trapezoid_coeffs(f, 2, 2, 0.0003)  # 2/h is not an integer


def test_trapezoid_refuses_oversized_work_by_message(monkeypatch):
    class Tabulated(Exception):
        pass

    def tabulate(*args):
        raise Tabulated  # stands in for the basis table: nothing is allocated

    monkeypatch.setattr(coeffs_module, "_phi_table", tabulate)
    F = example1_F()
    for K, J, h, size in ((64, 64, 1e-7, "9.7"), (1024, 1024, 1e-6, "15.3"),
                          (8, 700, 1e-6, "10.4")):
        with pytest.raises(ValueError, match=rf"needs {size} GiB, over the 4 GiB limit"):
            trapezoid_coeffs(F, K, J, h)
    # a callable without factors, at any step
    generic = lambda t, tau: t * tau
    for h in (1e-4, 2.5e-4, 0.25):
        with pytest.raises(ValueError, match=r"^trapezoid_coeffs needs f\(t, tau\) = "
                                             r"g\(t\) q\(tau\) / C with its t_factor "
                                             r"and tau_factor$"):
            trapezoid_coeffs(generic, 8, 8, h)
    # a size inside the limit reaches the tabulation: 1.04 GB
    with pytest.raises(Tabulated):
        trapezoid_coeffs(F, 64, 64, 1e-6)


class CountingFactor:
    """A factor that counts its evaluations."""

    def __init__(self, inner):
        self.inner, self.calls = inner, 0

    def eval(self, t):
        self.calls += 1
        return self.inner.eval(t)


@pytest.mark.parametrize("K, J", [(28, 28), (28, 20), (12, 31)])
def test_trapezoid_shared_factor_sum_is_bit_identical(K, J):
    F = example1_F()
    assert F.t_factor is F.tau_factor
    shared = CountingFactor(F.t_factor)
    one = trapezoid_coeffs(replace(F, t_factor=shared, tau_factor=shared), K, J, 1e-3)
    two = trapezoid_coeffs(replace(F, tau_factor=_kink_factor()), K, J, 1e-3)
    assert np.array_equal(one.data, two.data)
    assert np.array_equal(one.data, trapezoid_coeffs(F, K, J, 1e-3).data)
    # the one-dimensional sum is reused only when both axes share it
    assert shared.calls == (1 if K == J else 2)


def weighted_sum_trapezoid(f, K, J, h):
    """The separable trapezoid grid in its reference form: the nodes -1 + h i,
    the weight vector w, and each factor's sum phi @ (w * factor(t))."""
    n = int(round(2.0 / h))
    t = -1.0 + h * np.arange(n + 1)
    w = np.full(n + 1, h)
    w[0] = w[-1] = 0.5 * h
    phi = phi_matrix(max(K, J), t)
    a = phi[: K + 1] @ (w * f.t_factor.eval(t))
    b = phi[: J + 1] @ (w * f.tau_factor.eval(t))
    return np.outer(a, b) / f.C


# node counts around the node blocks of the integrands and the table, and
# the step h = 2 / (N - 1) of N nodes
EDGES = (_PHI_BLOCK - 1, _PHI_BLOCK + 1, 2 * _PHI_BLOCK + 3)
EDGE_STEPS = tuple(2.0 / (N - 1) for N in EDGES)


# the table presets' steps at grid degree 64, both shapes of the shared
# factor's sum, h = 1e-6 (2M nodes) at a degree whose table stays small, and
# node counts at the block edges for series factors, unshared factors and
# K != J
@pytest.mark.parametrize("fn, h, K, J", [
    *((example1_F, h, 64, 64) for h in (1e-4, 8e-5, 4e-5)),
    *((example2_F, h, 64, 64) for h in (8e-5, 2e-5, 8e-6)),
    (example1_F, 8e-5, 28, 20), (example2_F, 2e-5, 12, 31),
    (example1_F, 1e-6, 8, 8), (example2_F, 1e-6, 8, 5),
    *((make_class_function, h, 64, 64) for h in EDGE_STEPS),
    *((example2_F, h, 64, 64) for h in EDGE_STEPS),
    (make_class_function, EDGE_STEPS[2], 20, 12)])
def test_trapezoid_grid_is_bit_identical_to_the_weighted_sum_form(fn, h, K, J):
    # the nodes and weighted integrands are built block by block, the same
    # products in the same sums as over the whole node array
    got = trapezoid_coeffs(fn(), K, J, h).data
    assert np.array_equal(got, weighted_sum_trapezoid(fn(), K, J, h))


def traced_peak(call) -> int:
    """Bytes of the traced peak of call() above what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fn, K, J, sums", [(example1_F, 4, 4, 1), (example2_F, 4, 2, 2),
                                            (example1_F, 2, 3, 2)])
def test_trapezoid_footprint_grows_by_the_table_and_one_vector_per_sum(fn, K, J, sums):
    # from 1M to 2M nodes the peak grows by the table's rows and one weighted
    # integrand per distinct factor sum, 8 bytes each per node, and by no
    # array of the nodes: node blocks and a block's temporaries are the same
    # at both counts. A byte per node is left for the two threads' timing.
    f = fn()
    small, large = (traced_peak(lambda: trapezoid_coeffs(f, K, J, 2.0 / (nodes - 1)))
                    for nodes in (1_000_001, 2_000_001))
    assert (large - small) / 1_000_000 <= 8 * (max(K, J) + 1 + sums) + 1


class ValueFactor:
    """A factor whose eval returns value(t): an array it does not own."""

    def __init__(self, value):
        self.value = value

    def eval(self, t):
        return self.value(t)


def test_trapezoid_weights_a_factor_value_it_does_not_own_in_a_copy():
    # the nodes themselves, a view, a read-only array and a scalar are left
    # as they are; the grid is still the weighted sum form's
    h = 1e-3
    t = -1.0 + h * np.arange(int(round(2.0 / h)) + 1)
    kink = _kink_factor()
    cached = kink.eval(t)
    frozen = cached.copy()
    frozen.flags.writeable = False
    values = {"nodes": lambda t: t, "view": lambda t: cached[:],
              "read-only": lambda t: frozen, "scalar": lambda t: 2.0}
    for name, value in values.items():
        F = SimpleNamespace(t_factor=ValueFactor(value), tau_factor=kink, C=3.0)
        grid = trapezoid_coeffs(F, 12, 12, h)
        assert np.array_equal(grid.data, weighted_sum_trapezoid(F, 12, 12, h)), name
    assert np.array_equal(cached, kink.eval(t)) and np.array_equal(frozen, cached)


def test_trapezoid_second_order_on_linear_function():
    f = TestFunction("t", 1.0, T, ONE)
    exact = exact_coeffs(f, 1, 1)
    hs = (1e-2, 5e-3, 2.5e-3)
    errs = [
        abs(trapezoid_coeffs(f, 1, 1, h).data[1, 0] - exact.data[1, 0]) for h in hs
    ]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.7 < slope < 2.3


def test_trapezoid_second_order_on_example1():
    F = example1_F()
    exact = exact_coeffs(F, 32, 32)
    hs = (4e-3, 2e-3, 1e-3)
    errs = [
        np.abs(trapezoid_coeffs(F, 32, 32, h).data - exact.data).max() for h in hs
    ]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.7 < slope < 2.3


def test_trapezoid_gap_magnitude_at_published_step():
    # regression pin: the h=1e-4 trapezoid grid sits ~8e-12 from exact
    # coefficients on the 29x29 grid (the kink factor's endpoint
    # derivatives are small and the function carries a 1/947 scale)
    F = example1_F()
    exact = exact_coeffs(F, 28, 28)
    gap = np.abs(trapezoid_coeffs(F, 28, 28, 1e-4).data - exact.data).max()
    assert 2e-12 < gap < 3e-11


@pytest.mark.xfail(
    reason="documented discrepancy: the published step/noise pairing "
    "h=1e-4 <-> delta=1e-7 does not describe the actual coefficient "
    "perturbation, which is four orders smaller (see README, Known "
    "discrepancies); kept as the nominal claim",
    strict=True,
)
def test_trapezoid_gap_matches_nominal_noise_pairing():
    F = example1_F()
    exact = exact_coeffs(F, 28, 28)
    gap = np.abs(trapezoid_coeffs(F, 28, 28, 1e-4).data - exact.data).max()
    assert 1e-8 < gap < 1e-6


def oracle_trapezoid(f, K, J, h):
    """The trapezoid grid as the double sum over the full tensor grid of
    nodes, f(t, tau) evaluated a block of rows at a time: the form that needs
    no factors."""
    n = int(round(2.0 / h))
    t = -1.0 + h * np.arange(n + 1)
    w = np.full(n + 1, h)
    w[0] = w[-1] = 0.5 * h
    phi = phi_matrix(max(K, J), t)
    data = np.zeros((K + 1, J + 1))
    block = max(1, 2 ** 22 // (t.size + 1))
    for lo in range(0, t.size, block):
        rows = slice(lo, min(lo + block, t.size))
        fvals = np.asarray(f(t[rows, None], t[None, :]), dtype=float)
        data += (phi[: K + 1, rows] * w[rows]) @ (fvals * w) @ phi[: J + 1].T
    return data


def test_trapezoid_generic_path_matches_separable_path():
    F = example2_F()
    fast = trapezoid_coeffs(F, 8, 8, 1e-2)
    assert np.abs(fast.data - oracle_trapezoid(F, 8, 8, 1e-2)).max() < 1e-13


@pytest.mark.parametrize("mu2, K, J", [(5.6, 64, 64), (8.0, 64, 40)])
def test_class_trapezoid_grid_is_the_double_sum(mu2, K, J):
    # the class function's two series factors, isotropic or not
    F = make_class_function(2.0, 5.6, mu2)
    fast = trapezoid_coeffs(F, K, J, 1e-2)
    assert np.abs(fast.data - oracle_trapezoid(F, K, J, 1e-2)).max() < 1e-13


def test_parseval_identity_random_grid():
    rng = np.random.default_rng(11)
    data = rng.standard_normal((13, 13))
    nodes, weights = gauss_rule(54)
    vals = synthesize(data, nodes, nodes)
    quad = weights @ (vals * vals) @ weights
    assert quad == pytest.approx(np.sum(data**2), rel=1e-9)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(delta=0.0, p=2.0)
    with pytest.raises(ValueError):
        NoiseSpec(delta=1.0, p=2.0)
    with pytest.raises(ValueError):
        NoiseSpec(delta=1e-5, p=0.5)
    with pytest.raises(ValueError):
        NoiseSpec(delta=1e-5, p=2.0, mode="uniform")


def test_add_noise_vanishing_delta():
    grid = CoeffGrid(data=np.ones((6, 6)))
    out = add_noise(grid, NoiseSpec(delta=1e-300, p=math.inf, seed=3))
    assert np.abs(out.data - grid.data).max() < 1e-299
    assert out.provenance == "noisy"


def test_add_noise_linf_rescale_hits_bound():
    grid = CoeffGrid(data=np.zeros((20, 20)))
    out = add_noise(grid, NoiseSpec(delta=1e-7, p=math.inf, seed=5))
    assert np.abs(out.data).max() == pytest.approx(1e-7, rel=1e-13)


def test_add_noise_l2_rescale_sum_of_squares():
    grid = CoeffGrid(data=np.zeros((30, 30)))
    out = add_noise(grid, NoiseSpec(delta=1e-8, p=2.0, seed=42))
    assert abs(np.sum(out.data**2) - 1e-16) < 1e-30


def test_add_noise_lp_norm_exact_for_all_p():
    grid = CoeffGrid(data=np.zeros((25, 25)))
    for p in (1.0, 1.5, 2.0, math.inf):
        out = add_noise(grid, NoiseSpec(delta=3e-4, p=p, seed=9))
        assert lp_norm(out.data, p) == pytest.approx(3e-4, rel=1e-12)


def test_add_noise_deterministic():
    grid = CoeffGrid(data=np.arange(36.0).reshape(6, 6))
    spec = NoiseSpec(delta=1e-5, p=2.0, seed=123)
    a = add_noise(grid, spec)
    b = add_noise(grid, spec)
    assert np.array_equal(a.data, b.data)


def test_add_noise_raw_gaussian_mode():
    grid = CoeffGrid(data=np.zeros((8, 8)))
    spec = NoiseSpec(delta=1e-6, p=2.0, mode="raw_gaussian", seed=17)
    out = add_noise(grid, spec)
    draw = np.random.default_rng(17).standard_normal((8, 8))
    assert np.array_equal(out.data, 1e-6 * draw)


def test_lp_norm_values():
    one = np.array([[3.0]])
    assert lp_norm(one, 1.0) == 3.0
    two = np.array([[3.0, 4.0]])
    assert lp_norm(two, 2.0) == pytest.approx(5.0, rel=1e-15)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10, 10))
    direct = np.sum(np.abs(x) ** 1.5) ** (1.0 / 1.5)
    assert lp_norm(x, 1.5) == pytest.approx(direct, rel=1e-12)
    assert lp_norm(CoeffGrid(data=two), math.inf) == 4.0
    with pytest.raises(ValueError):
        lp_norm(x, 0.9)


def test_lp_norm_where_the_powers_overflow_or_underflow():
    # the p-th powers of 4.0 overflow from p ~ 512 on and those of 0.5 underflow
    # from p ~ 1075 on; the norm is then the largest magnitude times the norm
    # of the array scaled by it
    x = np.array([[0.5, -4.0], [3.0, 0.0]])
    for p in (1e3, 1e4, 1e6):
        scaled = float(np.sum(np.abs(x / 4.0) ** p) ** (1.0 / p))
        assert lp_norm(x, p) == 4.0 * scaled
        assert lp_norm(x / 8.0, p) == pytest.approx(0.5 * scaled, rel=1e-14)
    assert lp_norm(np.array([3e200, 4e200]), 2.0) == pytest.approx(5e200, rel=1e-15)
    assert lp_norm(np.array([3e-200, 4e-200]), 2.0) == pytest.approx(5e-200, rel=1e-15)
    assert lp_norm(np.zeros((3, 3)), 1e4) == 0.0
    assert lp_norm(np.array([1.0, math.inf]), 1e4) == math.inf


@pytest.mark.parametrize("p", [1e3, 1e6])
def test_add_noise_rescales_to_delta_where_the_powers_overflow(p):
    # seed 29 draws a 3x3 grid with every entry inside (-1, 1), whose 1e6-th
    # powers all underflow; larger grids hold entries whose powers overflow
    for shape, seed in (((3, 3), 29), ((65, 65), 1)):
        out = add_noise(CoeffGrid(data=np.zeros(shape)), NoiseSpec(1e-7, p, seed=seed))
        assert lp_norm(out.data, p) == pytest.approx(1e-7, rel=1e-12)
        assert np.abs(out.data).max() > 0.5e-7


def test_lp_norm_two_is_the_abs_power_sum_bit_for_bit():
    # np.square(x) and np.abs(x) ** 2.0 give the same bits, so the one-pass
    # p = 2 norm is the norm of the abs/power form
    rng = np.random.default_rng(5)
    arrays = [rng.standard_normal((129, 129)), rng.standard_normal((7, 3)) * 1e-160,
              rng.standard_normal(1000) * 1e150, np.array([[-0.0, 5e-324, -3.0]]),
              np.zeros((0, 4))]
    for x in arrays:
        power = np.sum(np.abs(x) ** 2.0)
        assert np.array_equal(np.sum(np.square(x)), power)
        assert np.array_equal(lp_norm(x, 2.0), power ** 0.5)


def test_noisy_block_is_the_block_of_add_noise():
    # each block of the stack is the block of add_noise's grid of its seed,
    # in any order of the draws, each drawn into the one reused buffer
    grid = exact_coeffs(example1_F(), 20, 20)
    for spec in (NoiseSpec(1e-6, 2.0, "rescaled", 7), NoiseSpec(1e-6, math.inf, "rescaled", 8),
                 NoiseSpec(1e-6, 2.0, "raw_gaussian", 9), NoiseSpec(1e-6, 1.0, "rescaled", 10)):
        sds = (0, 5, 2, 5)
        full = [add_noise(grid, replace(spec, seed=spec.seed + sd)).data for sd in sds]
        for shape in ((21, 21), (10, 4), (1, 1), (0, 0)):
            blocks = coeffs_module._noisy_blocks(grid.data, spec, shape, sds)
            assert blocks.shape == (len(sds), *shape)
            for block, whole in zip(blocks, full):
                assert np.array_equal(block, whole[: shape[0], : shape[1]])
            assert coeffs_module._noisy_blocks(grid.data, spec, shape, ()).shape == (0, *shape)


def test_grid_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(77)
    grid = CoeffGrid(data=rng.standard_normal((7, 5)) * 1e-6, provenance="exact")
    noisy = add_noise(grid, NoiseSpec(delta=1e-7, p=math.inf, seed=21))
    path = tmp_path / "grid.csv"
    save_grid(noisy, path)
    back = load_grid(path)
    assert np.array_equal(back.data, noisy.data)
    assert (back.provenance, back.K, back.J) == ("noisy", 6, 4)


def test_sidecar_holds_provenance_and_degrees_and_old_sidecars_load(tmp_path):
    # every grid's sidecar is its provenance, K and J; a sidecar that also
    # carries the step, base provenance and noise fields loads the same grid
    F = example1_F()
    exact, trap = exact_coeffs(F, 6, 4), trapezoid_coeffs(F, 6, 4, 0.125)
    noisy = add_noise(trap, NoiseSpec(delta=1e-7, p=math.inf, seed=21))
    grids = [exact, trap, truncate(exact, build_cross(n=4, gamma=2.0, r=2)), noisy]
    assert [g.provenance for g in grids] == ["exact", "trapezoid", "derivative", "noisy"]
    path = tmp_path / "grid.csv"
    for grid in grids:
        save_grid(grid, path)
        with open(f"{path}.meta") as fh:
            assert fh.read() == f"provenance={grid.provenance}\nK=6\nJ=4\n"
    # the noisy grid's sidecar as older versions wrote it
    with open(f"{path}.meta", "w") as fh:
        fh.write("provenance=noisy\nK=6\nJ=4\nh=0.125\nbase_provenance=trapezoid\n"
                 "delta=9.9999999999999995e-08\np=inf\nmode=rescaled\nseed=21\n")
    back = load_grid(path)
    assert np.array_equal(back.data.view(np.uint64), noisy.data.view(np.uint64))
    assert (back.provenance, back.K, back.J) == ("noisy", 6, 4)


# values a CSV round trip could lose: signed zeros, subnormals, the ends of
# the finite range, both infinities, and exact zeros besides ordinary numbers
_EDGE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
                     math.inf, -math.inf]),
    st.floats(allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(
    data=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40),
                    elements=_EDGE_VALUES),
    kind=st.sampled_from(["exact", "trapezoid", "noisy", "derivative"]),
)
def test_grid_csv_round_trip_property(data, kind):
    grid = CoeffGrid(data=data, provenance=kind)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.csv")
        save_grid(grid, path)
        back = load_grid(path)
    assert back.data.shape == data.shape
    assert np.array_equal(back.data, data)
    assert np.array_equal(np.signbit(back.data), np.signbit(data))
    assert np.array_equal(back.data.view(np.uint64), data.view(np.uint64))
    assert (back.provenance, back.K, back.J) == (grid.provenance, grid.K, grid.J)


def test_grid_csv_round_trip_keeps_every_bit(tmp_path):
    data = np.array([
        [0.0, -0.0, 5e-324, -5e-324],
        [1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf],
        [0.1, -1.0 / 3.0, 2.2250738585072014e-308, 1e-7],
    ])
    save_grid(CoeffGrid(data=data), tmp_path / "grid.csv")
    back = load_grid(tmp_path / "grid.csv")
    assert np.array_equal(back.data.view(np.uint64), data.view(np.uint64))


def per_cell_grid_csv(data):
    """The grid lines as one %-format call per cell writes them."""
    line = coeffs_module._row_format("ssf")
    return "".join(line % (k, j, data[k, j])
                   for k in range(data.shape[0]) for j in range(data.shape[1]))


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (5, 1), (6, 7)])
def test_save_grid_writes_the_bytes_of_the_per_cell_writer(tmp_path, shape):
    # rows of +0.0 come from one string; a row holding -0.0 keeps its "-0"
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    data = np.where(rng.uniform(size=shape) < 0.5, rng.standard_normal(shape), 0.0)
    data[0] = 0.0
    specials = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300]
    for i, value in enumerate(specials):
        data.flat[(i + shape[1]) % data.size] = value
    if shape[0] > 2:
        data[2] = -0.0
        data[-1] = 0.0
    save_grid(CoeffGrid(data=data), tmp_path / "grid.csv")
    text = (tmp_path / "grid.csv").read_text()
    assert text == "k,j,value\n" + per_cell_grid_csv(data)


@settings(max_examples=200, deadline=None)
@given(x=st.one_of(st.floats(), st.integers(-2 ** 60, 2 ** 60)))
def test_one_float_format_for_run_files_and_printed_lines(x):
    # the %-format every CSV row uses writes what the 17-digit f-string wrote
    want = f"{float(x):.17g}"
    assert coeffs_module._fmt_float(x) == want
    assert coeffs_module._row_format("sf-f") % ("a", x, x) == f"a,{want},,{want}\n"


@pytest.mark.parametrize("rows, reason", [
    ("0,1,1\n1.5,0,2\n", "could not convert string '1.5' to int64"),
    ("0,1,1\n0,0\n", "requires 3 columns but 2 were found"),
    ("0,1,1\n0,0,2,3\n", "requires 3 columns but 4 were found"),
    ("0,1,1\n0,0,x\n", "could not convert string 'x' to float64"),
    ("0,0,1\n0,1,1\n1,0,1\n", "3 rows, not the 4 of a grid of degrees (1,1)"),
    ("", "0 rows, not the 4 of a grid of degrees (1,1)"),
    ("0,0,1\n0,1,1\n1,0,1\n0,1,2\n", "cell (0,1) given 2 times"),
])
def test_load_grid_refuses_a_bad_row(tmp_path, rows, reason):
    path = tmp_path / "grid.csv"
    save_grid(CoeffGrid(data=np.ones((2, 2))), path)
    path.write_text(f"k,j,value\n{rows}")
    with pytest.raises(ValueError, match=re.escape(reason)) as info:
        load_grid(path)
    assert str(info.value).startswith(f"{path}: ") and "usecols" not in str(info.value)
