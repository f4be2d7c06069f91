"""Shared fixtures.  The expensive flow runs are session-scoped because
several acceptance criteria read different aspects of the same trajectory;
each fixture also reports its wall time so the runtime budgets can be
asserted."""

import os
import time

import numpy as np
import pytest

from s3flow import s2curves
from s3flow.cli import list_scenarios, run_scenario
from s3flow.flow import FlowConfig, run_flow, sphere_ode_oracle
from s3flow.mesh import (
    make_clifford_torus,
    make_geodesic_sphere,
    make_hopf_torus,
    make_perturbed_sphere,
    mesh_quality,
)
from s3flow.s2curves import make_latitude_circle
from s3flow.speeds import arctan_speed, mcf

CENTER = np.array([1.0, 0.0, 0.0, 0.0])
BUNDLED = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "examples.cfg")


def mean_radius(mesh, center=CENTER):
    return float(np.mean(np.arccos(np.clip(mesh.vertices @ center, -1.0, 1.0))))


@pytest.fixture
def nan_on_third_curve_step(monkeypatch):
    """Make the third curve-shortening step move one sample to NaN."""
    turns = []
    turning = s2curves._turning

    def nan_on_third(curve):
        turns.append(curve)
        psi, ds, t_in, t_out = turning(curve)
        if len(turns) == 3:
            psi[5] = np.nan
        return psi, ds, t_in, t_out

    monkeypatch.setattr(s2curves, "_turning", nan_on_third)


@pytest.fixture(scope="session")
def bundled_runs(tmp_path_factory):
    """Every scenario of examples.cfg, run once through the CLI into one
    output directory: that directory, and the exit status and wall time of
    each scenario by name."""
    out = tmp_path_factory.mktemp("bundled")
    runs = {}
    for name, _ in list_scenarios(BUNDLED):
        t0 = time.perf_counter()
        status = run_scenario(BUNDLED, name, output_dir=str(out))
        runs[name] = (status, time.perf_counter() - t0)
    return out, runs


@pytest.fixture(scope="session")
def sphere_mcf_run():
    """Level-4 geodesic sphere, r0 = pi/3, under mean curvature flow, run to
    extinction, plus the independent RK4 radius oracle."""
    t0 = time.perf_counter()
    mesh = make_geodesic_sphere(np.pi / 3, 4)
    config = FlowConfig(
        speed=mcf(), t_end=1.0, sigma=0.7, width_tol=0.3, cadence=10,
        snapshot_every=50, smoothing=0.3, fit_order=4,
    )
    result = run_flow(mesh, config)
    oracle = sphere_ode_oracle(mcf(), np.pi / 3, 1.0)
    return result, oracle, time.perf_counter() - t0


@pytest.fixture(scope="session")
def perturbed_sphere_runs():
    """Ten seeded perturbed spheres (amplitude 0.02) under the arctan flow."""
    t0 = time.perf_counter()
    runs = []
    for seed in range(10):
        mesh = make_perturbed_sphere(np.pi / 3, 4, 0.02, seed=seed)
        h = mesh_quality(mesh).max_edge
        config = FlowConfig(
            speed=arctan_speed(), t_end=2.0, sigma=0.7, width_tol=0.4,
            cadence=5, smoothing=0.3, fit_order=2,
        )
        runs.append((seed, h, run_flow(mesh, config)))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="session")
def hopf_flat_run():
    """Hopf torus over the latitude circle at colatitude 1.0 under the
    arctan flow for t in [0, 0.1]."""
    t0 = time.perf_counter()
    mesh = make_hopf_torus(make_latitude_circle(1.0, 96), 64)
    config = FlowConfig(
        speed=arctan_speed(), t_end=0.1, sigma=0.5, width_tol=0.01,
        speed_tol=1e-15, g_floor=0.5, cadence=10, fit_order=2,
    )
    return mesh, run_flow(mesh, config), time.perf_counter() - t0


@pytest.fixture(scope="session")
def hopf_gauss_run():
    """The same Hopf torus flowed to t = 0.05 for the Gauss-map test."""
    t0 = time.perf_counter()
    mesh = make_hopf_torus(make_latitude_circle(1.0, 96), 64)
    config = FlowConfig(
        speed=arctan_speed(), t_end=0.05, sigma=0.5, width_tol=0.01,
        speed_tol=1e-15, g_floor=0.5, cadence=10, fit_order=2,
    )
    return mesh, run_flow(mesh, config), time.perf_counter() - t0


@pytest.fixture(scope="session")
def clifford_stationarity_runs():
    """Clifford tori at 64x64 and 128x128 under the arctan flow to t = 0.1."""
    t0 = time.perf_counter()
    out = {}
    for n in (64, 128):
        mesh = make_clifford_torus(n, n)
        config = FlowConfig(
            speed=arctan_speed(), t_end=0.1, sigma=0.5, width_tol=0.01,
            speed_tol=1e-15, g_floor=0.5, cadence=20, fit_order=2,
        )
        out[n] = (mesh, run_flow(mesh, config))
    return out, time.perf_counter() - t0
