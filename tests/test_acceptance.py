"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass line per criterion (run with ``pytest -s`` to see them
on success)."""

import time

import numpy as np
import pytest

from s3flow.flow import StopReason
from s3flow.gaussmaps import degeneracy_measure, fiber_average_curve, gauss_maps
from s3flow.mesh import (
    estimate_curvature,
    make_clifford_torus,
    make_geodesic_sphere,
    make_hopf_torus,
    mesh_quality,
)
from s3flow.s2curves import (
    geodesic_curvature,
    hausdorff_distance,
    make_latitude_circle,
    run_csf,
    sup_subinterval_cyclic,
)
from s3flow.speeds import (
    Profile,
    admissibility_bounds,
    arctan_speed,
    candidate_affine_arctan,
    check_admissible,
    phi_pinch,
    z_term,
)

CENTER = np.array([1.0, 0.0, 0.0, 0.0])


def mean_radius(mesh):
    return float(np.mean(np.arccos(np.clip(mesh.vertices @ CENTER, -1.0, 1.0))))


def report(n, msg):
    print(f"[acceptance {n:2d}] PASS: {msg}")


def test_criterion_01_admissibility_pinch():
    t0 = time.perf_counter()
    h = np.linspace(-50.0, 50.0, 10000)
    lo, up = admissibility_bounds(phi_pinch(), h)
    target = -2.0 * h / (4.0 + h * h)
    assert np.max(np.abs(lo - target)) <= 1e-12
    assert np.max(np.abs(up - target)) <= 1e-12

    grid = np.linspace(-10.0, 10.0, 2001)
    rng = np.random.default_rng(1234)
    for _ in range(5):
        c1, c2 = rng.uniform(0.05, 3.0, 2)
        rep = check_admissible(candidate_affine_arctan(c1, c2), phi_pinch(), grid)
        assert rep.verdict

    failures = [
        Profile(lambda x: x, lambda x: np.ones_like(x), lambda x: np.zeros_like(x), "H"),
        Profile(lambda x: x ** 3 + x, lambda x: 3 * x * x + 1, lambda x: 6 * x, "H^3+H"),
        Profile(np.exp, np.exp, np.exp, "e^H"),
    ]
    for cand in failures:
        assert not check_admissible(cand, phi_pinch(), grid).verdict

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"pinch bounds = -2H/(4+H^2) to 1e-12; affine arctan family passes, "
              f"H / H^3+H / e^H fail ({elapsed:.2f}s)")


def test_criterion_02_z_term_identity():
    t0 = time.perf_counter()
    f = candidate_affine_arctan(0.0, 2.0)
    rng = np.random.default_rng(4321)
    k1 = rng.uniform(-3, 3, 50000)
    k2 = rng.uniform(-3, 3, 50000)
    keep = 1.0 + k1 * k2 > 1e-6
    k1, k2 = k1[keep][:10000], k2[keep][:10000]
    assert len(k1) == 10000
    za, zb = z_term(f, phi_pinch(), k1, k2)
    rel = np.abs(za - zb) / np.maximum(np.abs(za), 1e-30)
    assert np.max(rel) <= 1e-8

    kk = np.concatenate([np.linspace(0.25, 4.0, 500), -np.linspace(0.25, 4.0, 500)])
    za0, zb0 = z_term(f, phi_pinch(), kk, -1.0 / kk)
    assert np.max(np.abs(za0)) <= 1e-10
    assert np.max(np.abs(zb0)) <= 1e-10

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, f"Z routes agree to 1e-8 on 1e4 points with G > 0; |Z| <= 1e-10 on "
              f"1e3 points of G = 0 ({elapsed:.2f}s)")


def test_criterion_03_sphere_flow_oracle(sphere_mcf_run):
    result, oracle, elapsed = sphere_mcf_run
    exact = 0.5 * np.log(2.0)
    assert result.reason is StopReason.EXTINCT
    assert abs(result.final.t - exact) / exact <= 0.05
    worst = 0.0
    umbilic_spread = 0.0
    for st in result.snapshots:
        r_mesh = mean_radius(st.mesh)
        if r_mesh > 0.2:
            r_ode = float(np.interp(st.t, oracle.t, oracle.r))
            worst = max(worst, abs(r_mesh - r_ode) / r_ode)
            umbilic_spread = max(
                umbilic_spread,
                float(np.max(st.curvature.kappa1 - st.curvature.kappa2)),
            )
    assert worst <= 2e-2
    assert umbilic_spread <= 5e-2  # spheres stay discretely umbilic
    assert elapsed < 60.0
    report(3, f"MCF sphere extinct at t={result.final.t:.5f} (exact {exact:.5f}); "
              f"trajectory within {worst:.4f} of RK4 oracle ({elapsed:.0f}s)")


def test_criterion_04_stationarity(clifford_stationarity_runs):
    t0 = time.perf_counter()
    great = make_geodesic_sphere(np.pi / 2, 4)
    c = estimate_curvature(great, order=2)
    max_speed = float(np.max(np.abs(arctan_speed().eval(c.kappa1, c.kappa2))))
    assert max_speed < 1e-6
    sphere_elapsed = time.perf_counter() - t0

    runs, tori_elapsed = clifford_stationarity_runs
    drifts = {}
    for n, (mesh0, result) in runs.items():
        h = mesh_quality(mesh0).max_edge
        drift = float(np.max(np.linalg.norm(result.final.mesh.vertices - mesh0.vertices, axis=1)))
        assert drift <= 5.0 * h * h, (n, drift, 5 * h * h)
        drifts[n] = drift
    # drift refines at least as fast as h^2 (both sit at round-off here)
    assert drifts[128] <= 0.6 * drifts[64] or drifts[128] < 1e-8
    elapsed = sphere_elapsed + tori_elapsed
    assert elapsed < 60.0
    report(4, f"great sphere max speed {max_speed:.1e} < 1e-6; Clifford drift "
              f"{drifts[64]:.1e} (64^2) / {drifts[128]:.1e} (128^2) under 5h^2 ({elapsed:.0f}s)")


def test_criterion_05_flatness_preservation(hopf_flat_run):
    mesh0, result, elapsed = hopf_flat_run
    assert result.reason is StopReason.TIME_EXHAUSTED  # survived to t = 0.1
    g0 = result.reports[0].max_abs_G
    worst = max(rep.max_abs_G for rep in result.reports)
    assert worst <= 3.0 * g0
    assert elapsed < 60.0
    report(5, f"Hopf torus kept max|G| <= {worst:.3e} <= 3 x initial {g0:.3e} "
              f"over t in [0, 0.1] ({elapsed:.0f}s)")


def test_criterion_06_gauss_map_csf_correspondence(hopf_gauss_run):
    mesh0, result, flow_elapsed = hopf_gauss_run
    t0 = time.perf_counter()
    curve0 = fiber_average_curve(gauss_maps(mesh0).left, mesh0.grid_shape)
    curve_t = fiber_average_curve(
        gauss_maps(result.final.mesh).left, mesh0.grid_shape
    )
    csf = run_csf(curve0, 0.05, sigma=0.25)
    dist = hausdorff_distance(curve_t, csf.final)
    assert dist <= 5e-2
    elapsed = flow_elapsed + time.perf_counter() - t0
    assert elapsed < 90.0
    report(6, f"left Gauss image of flowed Hopf torus within Hausdorff "
              f"{dist:.2e} of curve-shortened initial image ({elapsed:.0f}s)")


def test_criterion_07_theorem1_dichotomy(perturbed_sphere_runs):
    runs, elapsed = perturbed_sphere_runs
    for seed, h, result in runs:
        assert result.reason in (StopReason.CONVERGED, StopReason.EXTINCT), (
            seed, result.reason)
        assert result.reports[0].min_G > 0.0, seed
        floor = -5e-2 * h
        worst = min(rep.min_G for rep in result.reports)
        assert worst >= floor, (seed, worst, floor)
    assert elapsed < 600.0
    report(7, f"10 perturbed spheres all Converged/Extinct with min G(t) >= "
              f"-5e-2 h throughout ({elapsed:.0f}s)")


def test_criterion_08_omega_epsilon_preserved(perturbed_sphere_runs):
    runs, _ = perturbed_sphere_runs
    for seed, h, result in runs:
        eps0 = result.reports[0].epsilon_star
        worst = min(rep.epsilon_star for rep in result.reports)
        assert worst >= eps0 - 0.05, (seed, eps0, worst)
    report(8, "epsilon_star(t) >= epsilon_star(0) - 0.05 in all dichotomy runs")


def test_criterion_09_degeneracy_detection():
    clifford = make_clifford_torus(64, 64)
    hopf = make_hopf_torus(make_latitude_circle(1.0, 96), 64)
    values = []
    for mesh in (clifford, hopf):
        img = gauss_maps(mesh)
        for pts in (img.left, img.right):
            d = degeneracy_measure(pts)
            assert d <= 2e-2
            values.append(d)
    rng = np.random.default_rng(42)
    u = rng.standard_normal((1000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    control = degeneracy_measure(u)
    assert control >= 0.5
    report(9, f"flat fixtures degeneracy <= {max(values):.1e}; uniform control "
              f"{control:.2f} >= 0.5")


def test_criterion_10_weiner_sup_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(16, 200))
        vals = rng.standard_normal(n) * rng.uniform(0.05, 1.0)
        fast = sup_subinterval_cyclic(vals)
        brute = 0.0
        pref = np.concatenate([[0.0], np.cumsum(np.concatenate([vals, vals]))])
        for start in range(n):
            seg = pref[start + 1: start + n + 1] - pref[start]
            brute = max(brute, float(np.max(np.abs(seg))))
        assert abs(fast - brute) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(10, f"cyclic sup-subinterval routine equals brute force on 50 seeded "
               f"sequences ({elapsed:.2f}s)")


def test_criterion_11_discrete_gauss_bonnet():
    for theta in (0.5, 1.0, np.pi / 4):
        k, ds = geodesic_curvature(make_latitude_circle(theta, 256))
        total = float(np.sum(k * ds))
        expected = 2.0 * np.pi - 2.0 * np.pi * (1.0 - np.cos(theta))
        assert abs(total - expected) <= 2e-2
    report(11, "total turning of latitude circles matches 2 pi - cap area to 2e-2")
