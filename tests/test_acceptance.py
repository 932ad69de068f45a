"""Acceptance criteria: published error tables, convergence rates,
cardinality asymptotics, and cross-cutting property suites.

Each test prints one [PASS]/[FAIL] line per checked quantity with the
measured value and its admissible band, then asserts that no line failed.

The random-noise table (criterion 1) is expected to fail in its noisy
rows: the stated error bands are only reachable when the coefficient
perturbation is far below the advertised noise level. The noise-free
rows of the same pipeline land inside every band, which isolates the
discrepancy to the noise model itself; see README, section "Known
discrepancies".
"""

import math
import os
import time

import numpy as np
import pytest

from crossdiff.analysis import make_class_function, rate_study
from crossdiff.cli import ResultsTable, main
from crossdiff.coeffs import CoeffGrid, NoiseSpec, add_noise, lp_norm
from crossdiff.legendre import gauss_rule, iterate_derivative, phi_matrix
from crossdiff.truncation import SmoothnessParams, build_cross, cardinality_growth


def run_cli(*args):
    return main([str(a) for a in args])


def read_rows(root, run_id):
    return ResultsTable.load(os.path.join(str(root), run_id, "table.csv")).rows


def check(failures, label, value, lo, hi):
    ok = lo <= value <= hi
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: measured {value:.6g} "
          f"band [{lo:.3g}, {hi:.3g}]")
    if not ok:
        failures.append(f"{label}: {value:.6g} not in [{lo:.3g}, {hi:.3g}]")


def test_criterion_1_random_noise_table(tmp_path):
    """Random-noise error table: r=2, mu=5.6, s=p=2, n in {16,25,28},
    sup-norm rescaled noise, medians over 5 seeds."""
    t0 = time.perf_counter()
    assert run_cli("example1", "--delta", "0,0,0", "--n", "16,25,28",
                   "--out", tmp_path, "--run-id", "c1-noisefree") == 0
    assert run_cli("example1", "--out", tmp_path, "--run-id", "c1") == 0
    elapsed = time.perf_counter() - t0

    l2_ref = (2.1e-6, 8.6e-7, 3.4e-7)
    c_ref = (1.8e-5, 5.58e-6, 1.37e-6)
    failures = []

    free = read_rows(tmp_path, "c1-noisefree")
    for row, l2r, cr in zip(free, l2_ref, c_ref):
        check(failures, f"criterion 1 noise-free context n={row.n} ErrorL2",
              row.error_l2, l2r / 10, l2r * 10)
        check(failures, f"criterion 1 noise-free context n={row.n} ErrorC",
              row.error_c, cr / 10, cr * 10)

    noisy = read_rows(tmp_path, "c1")
    for row, l2r, cr in zip(noisy, l2_ref, c_ref):
        check(failures, f"criterion 1 delta={row.value:g} n={row.n} ErrorL2",
              row.error_l2, l2r / 10, l2r * 10)
        check(failures, f"criterion 1 delta={row.value:g} n={row.n} ErrorC",
              row.error_c, cr / 10, cr * 10)

    check(failures, "criterion 1 runtime (s)", elapsed, 0.0, 60.0)
    assert not failures, "; ".join(failures)


def test_criterion_2_trapezoid_table(tmp_path):
    """Trapezoid-data error table: h in {1e-4, 8e-5, 4e-5}, n in {16,22,28}."""
    t0 = time.perf_counter()
    assert run_cli("example1", "--noise", "trapezoid",
                   "--out", tmp_path, "--run-id", "c2") == 0
    elapsed = time.perf_counter() - t0
    print("criterion 2: full h ran (h = 1e-4, 8e-5, 4e-5)")

    l2_ref = (1.9e-6, 1.6e-6, 4.5e-7)
    failures = []
    for row, l2r in zip(read_rows(tmp_path, "c2"), l2_ref):
        check(failures, f"criterion 2 h={row.value:g} n={row.n} ErrorL2",
              row.error_l2, l2r / 10, l2r * 10)
    check(failures, "criterion 2 runtime (s)", elapsed, 0.0, 300.0)
    assert not failures, "; ".join(failures)


def test_criterion_3_second_function_table(tmp_path):
    """Second corpus function: h in {8e-5, 2e-5, 8e-6}, n in {19,31,43}."""
    t0 = time.perf_counter()
    assert run_cli("example2", "--out", tmp_path, "--run-id", "c3") == 0
    elapsed = time.perf_counter() - t0
    print("criterion 3: full h ran (h = 8e-5, 2e-5, 8e-6)")

    l2_ref = (4.5e-6, 9.65e-7, 8.6e-8)
    failures = []
    for row, l2r in zip(read_rows(tmp_path, "c3"), l2_ref):
        check(failures, f"criterion 3 h={row.value:g} n={row.n} ErrorL2",
              row.error_l2, l2r / 10, l2r * 10)
    check(failures, "criterion 3 runtime (s)", elapsed, 0.0, 300.0)
    assert not failures, "; ".join(failures)


def test_criterion_4_rate_exponents():
    """Fitted error-decay exponents vs noise level match theory within 0.1."""
    t0 = time.perf_counter()
    fn = make_class_function()
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
    deltas = (1e-5, 1e-6, 1e-7, 1e-8, 1e-9)
    res_l2 = rate_study(fn, sp, 2, "L2", deltas, 5)
    res_c = rate_study(fn, sp, 2, "C", deltas, 5)
    elapsed = time.perf_counter() - t0

    failures = []
    check(failures, "criterion 4 L2 slope", res_l2.fitted_slope,
          res_l2.theoretical_slope - 0.1, res_l2.theoretical_slope + 0.1)
    check(failures, "criterion 4 C slope", res_c.fitted_slope,
          res_c.theoretical_slope - 0.1, res_c.theoretical_slope + 0.1)
    print(f"criterion 4 theory: L2 {res_l2.theoretical_slope:.6g}, "
          f"C {res_c.theoretical_slope:.6g}")
    check(failures, "criterion 4 runtime (s)", elapsed, 0.0, 120.0)
    assert not failures, "; ".join(failures)


def test_criterion_5_cardinality_asymptotics():
    """card grows like n for gamma=2 and like n ln n for gamma=1."""
    ns = (64, 128, 256, 512)
    failures = []
    growth = cardinality_growth(2.0, 2, ns)
    ratios = [card / n for n, card in growth]
    check(failures, "criterion 5 gamma=2 (card/n) max/min",
          max(ratios) / min(ratios), 1.0, 2.0)
    growth = cardinality_growth(1.0, 2, ns)
    ratios = [card / (n * math.log(n)) for n, card in growth]
    check(failures, "criterion 5 gamma=1 (card/(n ln n)) max/min",
          max(ratios) / min(ratios), 1.0, 2.0)
    assert not failures, "; ".join(failures)


def test_criterion_6_property_suites():
    """Orthonormality, operator exactness, Parseval, noise norms,
    cross enumeration, determinism."""
    failures = []

    # orthonormality of the basis to degree 40
    nodes, weights = gauss_rule(64)
    phi = phi_matrix(40, nodes)
    gram = (phi * weights) @ phi.T
    dev = np.abs(gram - np.eye(41)).max()
    check(failures, "criterion 6 orthonormality deviation (deg <= 40)",
          dev, 0.0, 1e-10)

    # coefficient-space operator vs polynomial calculus, degree 30, r <= 3
    from numpy.polynomial import legendre as npleg

    rng = np.random.default_rng(1234)
    deg = 30
    c = rng.standard_normal(deg + 1)
    scale_vec = np.sqrt(np.arange(deg + 1) + 0.5)
    pts = np.linspace(-0.99, 0.99, 41)
    worst = 0.0
    for r in (1, 2, 3):
        d = iterate_derivative(deg, r) @ c
        ours = phi_matrix(deg, pts).T @ d
        ref = npleg.legval(pts, npleg.legder(c * scale_vec, r))
        worst = max(worst, np.abs(ours - ref).max() / max(1.0, np.abs(ref).max()))
    check(failures, "criterion 6 operator vs calculus rel dev (deg 30, r <= 3)",
          worst, 0.0, 1e-8)

    # Parseval: quadrature norm of a synthesized grid vs coefficient norm
    from crossdiff.legendre import synthesize

    data = rng.standard_normal((13, 13))
    vals = synthesize(data, nodes, nodes)
    quad = weights @ (vals * vals) @ weights
    rel = abs(quad - np.sum(data**2)) / np.sum(data**2)
    check(failures, "criterion 6 Parseval rel dev", rel, 0.0, 1e-9)

    # rescaled noise hits the requested lp norm exactly
    worst = 0.0
    for p in (1.0, 1.5, 2.0, math.inf):
        noisy = add_noise(CoeffGrid(data=np.zeros((25, 25))),
                          NoiseSpec(delta=2e-6, p=p, seed=31))
        worst = max(worst, abs(lp_norm(noisy.data, p) - 2e-6) / 2e-6)
    check(failures, "criterion 6 noise lp-norm rel dev (p in {1,1.5,2,inf})",
          worst, 0.0, 1e-12)

    # cross enumeration equals brute force on the full lattice
    mismatches = 0
    for gamma in (1.0, 1.5, 2.0, 3.0):
        for r in (1, 2, 3):
            for n in range(1, 65):
                got = set(build_cross(n, gamma, r).indices)
                want = {
                    (k, j)
                    for k in range(r, n + 1)
                    for j in range(0, n + 1)
                    if j == 0 or k * float(j) ** gamma <= n
                }
                mismatches += got != want
    check(failures, "criterion 6 cross vs brute force mismatches", mismatches, 0, 0)

    # bit-identical reruns under fixed seeds
    spec = NoiseSpec(delta=1e-7, p=math.inf, seed=99)
    base = CoeffGrid(data=np.arange(49.0).reshape(7, 7))
    identical = np.array_equal(add_noise(base, spec).data,
                               add_noise(base, spec).data)
    fn = make_class_function()
    sp = SmoothnessParams(s=2.0, mu1=5.6, mu2=5.6, p=2.0)
    a = rate_study(fn, sp, 2, "L2", (1e-5, 1e-7, 1e-9), 2)
    b = rate_study(fn, sp, 2, "L2", (1e-5, 1e-7, 1e-9), 2)
    identical = (identical and np.array_equal(a.trials, b.trials)
                 and a.fitted_slope == b.fitted_slope)
    check(failures, "criterion 6 bit-identical reruns (1 = yes)",
          int(identical), 1, 1)

    assert not failures, "; ".join(failures)
