import errno
import os
import signal

import numpy as np
import pytest

from s3flow import flow
from s3flow import mesh as mesh_module
from s3flow.cli import main
from s3flow.flow import (
    DT_MAX,
    FlowConfig,
    FlowState,
    MeshDegenerateError,
    StopReason,
    _check_degeneracy,
    cfl_dt,
    epsilon_star,
    flow_step,
    omega_epsilon_member,
    pinching_report,
    run_flow,
    sphere_ode_oracle,
)
from s3flow.mesh import (
    SurfaceMesh,
    estimate_curvature,
    make_clifford_torus,
    make_geodesic_sphere,
    make_perturbed_sphere,
    mesh_quality,
    step_worker,
)
from s3flow.s3core import normalize
from s3flow.speeds import arctan_speed, custom_fH, mcf

CENTER = np.array([1.0, 0.0, 0.0, 0.0])


def mean_radius(mesh):
    return float(np.mean(np.arccos(np.clip(mesh.vertices @ CENTER, -1, 1))))


# -- Omega_eps and the pinching report -----------------------------------


def test_omega_membership_umbilic():
    for k in (-0.9, 0.0, 0.5, 1.0):
        assert omega_epsilon_member(k, k, 0.7)


def test_omega_membership_printed_examples():
    assert omega_epsilon_member(3.0, 0.0, 1.0 / 3.0)
    assert not omega_epsilon_member(3.0, 0.0, 0.5)
    assert omega_epsilon_member(5.0, 3.0, 0.4)


def test_omega_requires_positive_eps():
    with pytest.raises(ValueError):
        omega_epsilon_member(1.0, 1.0, 0.0)


def test_epsilon_star_closed_forms():
    # exact Clifford data sits on the boundary of {G = 0}
    assert epsilon_star(np.array([1.0]), np.array([-1.0])) == 0.0
    # umbilic meshes impose no constraint
    assert np.isinf(epsilon_star(np.array([0.5, 0.5]), np.array([0.5, 0.5])))
    # a mixed mesh takes the minimum over the per-vertex values
    k1 = np.array([3.0, 0.7, 0.7])
    k2 = np.array([0.0, 0.7, 0.7])
    np.testing.assert_allclose(epsilon_star(k1, k2), 1.0 / 3.0)


def test_epsilon_star_agrees_with_membership():
    rng = np.random.default_rng(30)
    k1 = rng.uniform(-3, 3, 300)
    k2 = rng.uniform(-3, 3, 300)
    keep = 1.0 + k1 * k2 > 0.05
    k1, k2 = k1[keep], k2[keep]
    eps = epsilon_star(k1, k2)
    assert np.all(omega_epsilon_member(k1, k2, eps * 0.999))
    assert not np.all(omega_epsilon_member(k1, k2, eps * 1.001))
    # each point lies inside Omega_eps at its own epsilon_star, to the bit
    for a, b in zip(k1, k2):
        assert omega_epsilon_member(a, b, epsilon_star([a], [b]))


def test_pinching_report_on_round_sphere():
    m = make_geodesic_sphere(np.pi / 4, 3)
    c = estimate_curvature(m)
    rep = pinching_report(c, m, mcf().eval(c.kappa1, c.kappa2))
    assert rep.min_G > 1.0  # 1 + cot^2 r
    assert np.isinf(rep.epsilon_star) or rep.epsilon_star > 10
    assert rep.frac_okumura == 1.0
    np.testing.assert_allclose(rep.max_abs_speed, 2.0 / np.tan(np.pi / 4), rtol=1e-2)


# -- step control ---------------------------------------------------------


def test_cfl_dt_caps_for_stationary_surface():
    m = make_geodesic_sphere(np.pi / 2, 3)
    c = estimate_curvature(m)
    dt = cfl_dt(m, c, arctan_speed(), 0.25)
    # partials ~ 1 on the great sphere, so the cap does not bind here,
    # but a zero-derivative speed hits the DT_MAX cap
    from s3flow.speeds import SpeedFunction

    frozen = SpeedFunction("zero", lambda a, b: 0.0 * a,
                           partials=lambda a, b: (0.0 * a, 0.0 * b))
    assert cfl_dt(m, c, frozen, 0.25) == DT_MAX


def test_cfl_dt_scales_with_resolution():
    dts = []
    for level in (3, 4):
        m = make_geodesic_sphere(np.pi / 3, level)
        c = estimate_curvature(m, order=2)
        dts.append(cfl_dt(m, c, mcf(), 0.25))
    assert 3.0 < dts[0] / dts[1] < 5.0  # h halves per level


def test_cfl_dt_linear_in_sigma():
    m = make_geodesic_sphere(np.pi / 3, 3)
    c = estimate_curvature(m, order=2)
    np.testing.assert_allclose(
        cfl_dt(m, c, mcf(), 0.125), 0.5 * cfl_dt(m, c, mcf(), 0.25), rtol=1e-12
    )


def test_flow_config_validation(tmp_path, capsys):
    with pytest.raises(ValueError):
        FlowConfig(speed=mcf(), t_end=1.0, sigma=0.0)
    with pytest.raises(ValueError):
        FlowConfig(speed=mcf(), t_end=1.0, speed_tol=0.0)
    with pytest.raises(ValueError, match="^cadence must be at least 1$"):
        FlowConfig(speed=mcf(), t_end=1.0, cadence=0)
    p = tmp_path / "cfg.cfg"
    p.write_text("[s]\nkind = flow\nsurface = geodesic_sphere r=1.0 level=1\ncadence = 0\n")
    assert main(["run", str(p), "s", "--output-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: cadence must be at least 1\n"


# -- stepping -------------------------------------------------------------


def test_great_sphere_is_stationary_under_arctan():
    m = make_geodesic_sphere(np.pi / 2, 3)
    st = FlowState(0.0, m, estimate_curvature(m), 0)
    st2 = flow_step(st, arctan_speed(), 1e-3)
    disp = np.max(np.linalg.norm(st2.mesh.vertices - m.vertices, axis=1))
    assert disp < 1e-9


def test_clifford_is_discretely_stationary():
    m = make_clifford_torus(32, 32)
    st = FlowState(0.0, m, estimate_curvature(m, order=2), 0)
    st2 = flow_step(st, arctan_speed(), 1e-3, fit_order=2)
    disp = np.max(np.linalg.norm(st2.mesh.vertices - m.vertices, axis=1))
    h = mesh_quality(m).max_edge
    assert disp < h * h


def test_single_mcf_step_matches_ode():
    m = make_geodesic_sphere(np.pi / 3, 4)
    st = FlowState(0.0, m, estimate_curvature(m, order=2), 0)
    st2 = flow_step(st, mcf(), 1e-4, fit_order=2)
    dr = mean_radius(st2.mesh) - mean_radius(m)
    expected = -2.0 / np.tan(np.pi / 3) * 1e-4
    assert abs(dr - expected) / abs(expected) < 5e-2


def test_sphere_mcf_run_matches_closed_form(sphere_mcf_run):
    # a geodesic sphere under MCF keeps cos r = cos r0 * e^(2t); unlike the
    # RK4 oracle of criterion 03, this does not integrate the program's speed
    result, _, _ = sphere_mcf_run
    errors = []
    for st in result.snapshots:
        r_mesh = mean_radius(st.mesh)
        if r_mesh > 0.2:
            r_exact = np.arccos(np.cos(np.pi / 3) * np.exp(2.0 * st.t))
            errors.append(abs(r_mesh - r_exact) / r_exact)
    assert len(errors) >= 20
    assert np.all(np.array(errors) <= 2e-2)  # criterion 03's tolerance; NaN fails


def test_flow_step_keeps_vertices_on_sphere():
    m = make_perturbed_sphere(np.pi / 3, 3, 0.02, seed=1)
    st = FlowState(0.0, m, estimate_curvature(m, order=2), 0)
    for _ in range(5):
        st = flow_step(st, arctan_speed(), 5e-4, fit_order=2)
    dev = np.max(np.abs(np.linalg.norm(st.mesh.vertices, axis=1) - 1.0))
    assert dev < 1e-12


def test_flow_step_rejects_bad_dt():
    m = make_geodesic_sphere(np.pi / 3, 2)
    st = FlowState(0.0, m, estimate_curvature(m), 0)
    with pytest.raises(ValueError):
        flow_step(st, mcf(), 0.0)


# -- full runs ------------------------------------------------------------


def test_great_sphere_converges_immediately():
    m = make_geodesic_sphere(np.pi / 2, 3)
    res = run_flow(m, FlowConfig(speed=arctan_speed(), t_end=0.5))
    assert res.reason is StopReason.CONVERGED
    assert res.final.t == 0.0
    assert res.reports[0].max_abs_speed < 1e-6


def test_sphere_mcf_extinction_small():
    # level-3 run; the level-4 acceptance run pins the tight tolerance
    m = make_geodesic_sphere(np.pi / 3, 3)
    cfg = FlowConfig(speed=mcf(), t_end=1.0, sigma=0.7, width_tol=0.3,
                     cadence=20, smoothing=0.3, fit_order=2)
    res = run_flow(m, cfg)
    assert res.reason is StopReason.EXTINCT
    exact = 0.5 * np.log(2.0)
    assert abs(res.final.t - exact) / exact < 5e-2


def test_time_exhausted_and_monotone_time():
    m = make_geodesic_sphere(np.pi / 3, 2)
    cfg = FlowConfig(speed=mcf(), t_end=5e-3, cadence=1, fit_order=2)
    res = run_flow(m, cfg)
    assert res.reason is StopReason.TIME_EXHAUSTED
    assert np.all(np.diff(res.times) > 0)
    np.testing.assert_allclose(res.final.t, 5e-3, atol=1e-12)


def test_condition_breach_detected():
    # a saddle-like Hopf torus breaches a tight positive-curvature floor
    from s3flow.mesh import make_hopf_torus
    from s3flow.s2curves import make_latitude_circle

    m = make_hopf_torus(make_latitude_circle(1.0, 48), 32)
    cfg = FlowConfig(speed=arctan_speed(), t_end=0.05, g_floor=1e-4, fit_order=2)
    res = run_flow(m, cfg)
    assert res.reason is StopReason.CONDITION_BREACHED


def test_run_flow_deterministic():
    m = make_perturbed_sphere(np.pi / 3, 2, 0.02, seed=3)
    cfg = FlowConfig(speed=arctan_speed(), t_end=0.02, cadence=1, fit_order=2)
    r1 = run_flow(m, cfg)
    r2 = run_flow(m, cfg)
    assert np.array_equal(r1.times, r2.times)
    assert np.array_equal(r1.final.mesh.vertices, r2.final.mesh.vertices)
    assert [rep.min_G for rep in r1.reports] == [rep.min_G for rep in r2.reports]


def test_speed_evaluated_once_per_step():
    # once per pass of the loop, for the report, the Converged check and
    # the step; the final report reuses the last pass's values
    speed = mcf()
    calls = []

    def counted(k1, k2):
        calls.append(k1)
        return mcf().eval(k1, k2)

    speed.eval = counted
    cfg = FlowConfig(speed=speed, t_end=0.06, cadence=1000, fit_order=2)
    result = run_flow(make_geodesic_sphere(np.pi / 3, 2), cfg)
    assert result.final.step_index > 5
    assert len(calls) == result.final.step_index + 1


def test_mesh_degenerate_detected():
    # force huge steps so the mesh folds over itself
    m = make_geodesic_sphere(np.pi / 3, 2)
    st = FlowState(0.0, m, estimate_curvature(m, order=2), 0)
    with pytest.raises(MeshDegenerateError):
        for _ in range(50):
            st = flow_step(st, mcf(), 0.05, fit_order=2)


def test_nan_speed_stops_as_numerical_failure():
    # log(H - 10) is NaN wherever H < 10: on this sphere, from step 0 on
    cfg = FlowConfig(speed=custom_fH("log(H-10)"), t_end=1.0)
    with np.errstate(invalid="ignore"):
        result = run_flow(make_geodesic_sphere(1.0, 2), cfg)
    assert result.reason is StopReason.NUMERICAL_FAILURE
    assert result.detail == "non-finite speed at step 0"
    assert result.final.step_index == 0


def test_nonfinite_vertices_stop_the_run_at_that_step(monkeypatch):
    steps = []
    step = mesh_module.geodesic_step

    def nan_on_third_step(x, d, s):
        steps.append(s)
        out = step(x, d, s)
        if len(steps) == 3:
            out[7] = np.nan
        return out

    monkeypatch.setattr(mesh_module, "geodesic_step", nan_on_third_step)
    with np.errstate(invalid="ignore"):
        result = run_flow(make_geodesic_sphere(1.0, 2), FlowConfig(speed=mcf(), t_end=1.0))
    assert result.reason is StopReason.NUMERICAL_FAILURE
    assert result.detail == "non-finite vertices at step 3"
    assert result.final.step_index == 3


def test_vertices_with_no_unflagged_neighbour_stop_the_run(monkeypatch):
    # from the third fit on, every vertex is flagged: none has a neighbour
    # to inherit from, so its curvature is NaN and the run stops there
    fits = []

    def all_flagged_from_third_fit(mesh, **kwargs):
        fits.append(mesh)
        if len(fits) == 3:
            monkeypatch.setattr(mesh_module, "COND_LIMIT", 0.0)
        return estimate_curvature(mesh, **kwargs)

    monkeypatch.setattr(flow, "estimate_curvature", all_flagged_from_third_fit)
    result = run_flow(make_geodesic_sphere(1.0, 2), FlowConfig(speed=mcf(), t_end=1.0))
    assert result.reason is StopReason.NUMERICAL_FAILURE
    assert result.detail == "non-finite curvature at step 2"
    assert result.final.curvature.n_flagged == result.final.mesh.n_vertices
    assert len(fits) == 3


def _sliver(angle_deg, t=0.1):
    """Two triangles glued back to back on S3 with Euclidean corner angle
    ``angle_deg`` at vertex 0 and edges from vertex 0 of chord 2 sin(t/2).

    With s = sin(t/2) and c = cos(t/2), the corner at (1, 0, 0, 0) between
    (cos t, sin t cos psi, +-sin t sin psi, 0) has cosine s^2 + c^2 cos 2 psi.
    """
    s, c = np.sin(0.5 * t), np.cos(0.5 * t)
    psi = 0.5 * np.arccos((np.cos(np.radians(angle_deg)) - s * s) / (c * c))
    verts = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [np.cos(t), np.sin(t) * np.cos(psi), np.sin(t) * np.sin(psi), 0.0],
        [np.cos(t), np.sin(t) * np.cos(psi), -np.sin(t) * np.sin(psi), 0.0],
    ])
    normals = np.tile([0.0, 0.0, 0.0, 1.0], (3, 1))
    return SurfaceMesh(verts, [[0, 1, 2], [0, 2, 1]], normals=normals, validate=False)


def test_degeneracy_check_at_one_degree():
    with pytest.raises(MeshDegenerateError, match=r"^minimum triangle angle 0\.900 deg < 1 deg$"):
        _check_degeneracy(_sliver(0.9))
    _check_degeneracy(_sliver(1.1))


# -- the step worker of a run ---------------------------------------------


@pytest.fixture
def started(monkeypatch):
    """An affinity mask of two CPUs, so that each run_flow starts a step
    worker on any machine; returns the worker pid of each run."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pids = []

    def recording(mesh, order):
        worker = step_worker(mesh, order)
        pids.append(worker.pid)
        return worker

    monkeypatch.setattr(flow, "step_worker", recording)
    return pids


def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


MCF_L4 = FlowConfig(speed=mcf(), t_end=1.0, sigma=0.7, smoothing=0.3, fit_order=2)


def test_killed_fit_worker_raises_and_is_reaped(started, monkeypatch):
    calls = []

    def kill_on_third_fit(mesh, **kwargs):
        calls.append(mesh)
        if len(calls) == 3:
            os.kill(kwargs["worker"].pid, signal.SIGKILL)
        return estimate_curvature(mesh, **kwargs)

    monkeypatch.setattr(flow, "estimate_curvature", kill_on_third_fit)
    with pytest.raises(RuntimeError, match=r"^curvature fit worker \d+ killed by signal 9$"):
        run_flow(make_geodesic_sphere(np.pi / 3, 4), MCF_L4)
    assert len(calls) == 3
    assert len(started) == 1
    assert _reaped(started[0])


def test_mesh_degenerate_stop_leaves_no_fit_worker(started, monkeypatch):
    checks = []

    def collapse_on_third_step(mesh):
        checks.append(mesh)
        if len(checks) == 3:
            raise MeshDegenerateError("edge collapsed")

    monkeypatch.setattr(flow, "_check_degeneracy", collapse_on_third_step)
    result = run_flow(make_geodesic_sphere(np.pi / 3, 4), MCF_L4)
    assert result.reason is StopReason.MESH_DEGENERATE
    assert result.final.step_index == 2
    assert len(started) == 1
    assert _reaped(started[0])


def test_fit_stays_serial_on_one_cpu_or_a_small_mesh(monkeypatch):
    def no_fork():
        raise AssertionError("a fit worker was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert step_worker(make_geodesic_sphere(np.pi / 3, 2), 2) is None
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    m = make_geodesic_sphere(np.pi / 3, 4)
    assert step_worker(m, 2) is None
    cfg = FlowConfig(speed=mcf(), t_end=1e-3, sigma=0.7, smoothing=0.3, fit_order=2)
    assert run_flow(m, cfg).reason is StopReason.TIME_EXHAUSTED


def test_refused_fork_falls_back_to_the_serial_fit(monkeypatch):
    pipes = []
    pipe = os.pipe

    def recording_pipe():
        pipes.extend(pipe())
        return pipes[-2:]

    def refused():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    m = make_geodesic_sphere(np.pi / 3, 4)
    cfg = FlowConfig(speed=mcf(), t_end=2e-3, sigma=0.7, smoothing=0.3, fit_order=2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = run_flow(m, cfg)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(os, "fork", refused)
    result = run_flow(m, cfg)
    assert len(pipes) == 4
    for fd in pipes:
        with pytest.raises(OSError):
            os.fstat(fd)
    assert result.reason is serial.reason is StopReason.TIME_EXHAUSTED
    assert result.final.step_index == serial.final.step_index > 1
    assert np.array_equal(result.final.mesh.vertices, serial.final.mesh.vertices)


def _pushed(m, picked, by=1e-2):
    """``m`` with the vertices ``picked`` moved by ``by`` along their first
    one-ring edge, and normals recomputed."""
    verts = m.vertices.copy()
    for i in picked:
        verts[i] += by * (verts[m.topology.one_ring_padded[i, 0]] - verts[i])
    return m.with_vertices(normalize(verts))


STEP_CASES = {
    "sphere-l4-order4-smoothed": (lambda: make_geodesic_sphere(np.pi / 3, 4), mcf(), 4, 0.3),
    "clifford-64-order2": (lambda: make_clifford_torus(64, 64), arctan_speed(), 2, 0.0),
    # smoothing moves only the pushed vertices of the worker's half and their
    # neighbours; the parent's half is renormalised and nothing more
    "clifford-64-smoothed-in-one-half": (
        lambda: _pushed(make_clifford_torus(64, 64), [3000, 3500]), arctan_speed(), 2, 0.3),
    # halves of 321 rows, each ending inside a 320-row fit block
    "perturbed-l3-order2-smoothed": (
        lambda: make_perturbed_sphere(np.pi / 3, 3, 0.02, seed=1), arctan_speed(), 2, 0.3),
}


@pytest.mark.parametrize("case", STEP_CASES)
def test_split_step_bit_identical_to_serial(case, monkeypatch):
    build, speed, order, smoothing = STEP_CASES[case]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    m = build()
    state = FlowState(0.0, m, estimate_curvature(m, order=order), 0)
    worker = step_worker(m, order)
    try:
        assert worker.pid > 0
        split = [state]
        for _ in range(2):  # the second step reuses every buffer of the first
            split.append(flow_step(split[-1], speed, 1e-3, smoothing, order, worker=worker))
    finally:
        worker.close()
    serial = state
    for got in split[1:]:
        serial = flow_step(serial, speed, 1e-3, smoothing, order)
        # the serial step's normals, caches and fit are those of its vertices
        fresh = m.with_vertices(serial.mesh.vertices)
        want = estimate_curvature(fresh, order=order)
        for st in (got, serial):
            assert np.array_equal(st.mesh.normals, fresh.normals)
            assert np.array_equal(st.mesh.side_lengths(), fresh.side_lengths())
            assert np.array_equal(st.mesh.triangle_cosines(), fresh.triangle_cosines())
            for name in ("kappa1", "kappa2", "flagged"):
                assert np.array_equal(getattr(st.curvature, name), getattr(want, name)), name
        assert np.array_equal(got.mesh.vertices, serial.mesh.vertices)


def test_error_in_the_worker_half_raised_as_in_the_serial_step(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    m = make_geodesic_sphere(np.pi / 3, 4)
    state = FlowState(0.0, m, estimate_curvature(m, order=2), 0)
    normals = m.normals.copy()
    normals[2000] *= 1.1  # a vertex of the worker's half
    bad = FlowState(0.0, m.with_vertices(m.vertices, normals=normals), state.curvature, 0)
    with pytest.raises(ValueError) as serial:
        flow_step(bad, mcf(), 1e-3, 0.3, 2)
    assert str(serial.value).startswith("geodesic_step requires unit directions")
    worker = step_worker(m, 2)
    try:
        assert worker.parts[1][0].start <= 2000
        with pytest.raises(ValueError) as split:
            flow_step(bad, mcf(), 1e-3, 0.3, 2, worker=worker)
        # the worker goes on with the next step
        after = flow_step(state, mcf(), 1e-3, 0.3, 2, worker=worker)
    finally:
        worker.close()
    assert str(split.value) == str(serial.value)
    assert np.array_equal(after.mesh.vertices, flow_step(state, mcf(), 1e-3, 0.3, 2).mesh.vertices)


# the kernel of each phase that may fail, with the rows of one call's output
RERUN_KERNELS = {
    "geodesic_step": len,
    "_tangential_smooth": len,
    "_fit_block": lambda out: len(out[0]),
}


@pytest.mark.parametrize("kernel", RERUN_KERNELS)
def test_phase_rerun_after_a_failed_half_bit_identical_to_serial(kernel, monkeypatch):
    # the kernel raises on its first call in the forked worker only; the
    # parent then runs the whole phase again over rows it has written once
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, original = os.getpid(), getattr(mesh_module, kernel)
    failed, parent_rows = [], []

    def fails_once_in_the_worker(*args):
        if os.getpid() != parent:
            if not failed:
                failed.append(True)
                raise RuntimeError(f"{kernel} failed in the worker")
            return original(*args)
        out = original(*args)
        parent_rows.append(RERUN_KERNELS[kernel](out))
        return out

    monkeypatch.setattr(mesh_module, kernel, fails_once_in_the_worker)
    m = make_perturbed_sphere(np.pi / 3, 4, 0.02, seed=1)
    state = FlowState(0.0, m, estimate_curvature(m, order=2), 0)
    worker = step_worker(m, 2)
    try:
        parent_rows.clear()
        got = flow_step(state, mcf(), 1e-3, 0.3, 2, worker=worker)
        half = worker.parts[0][0].stop
    finally:
        worker.close()
    # the parent's half, then every row
    assert sum(parent_rows) == half + m.n_vertices
    want = flow_step(state, mcf(), 1e-3, 0.3, 2)
    assert np.array_equal(got.mesh.vertices, want.mesh.vertices)
    assert np.array_equal(got.mesh.normals, want.mesh.normals)
    assert np.array_equal(got.mesh.side_lengths(), want.mesh.side_lengths())
    assert np.array_equal(got.mesh.triangle_cosines(), want.mesh.triangle_cosines())
    for name in ("kappa1", "kappa2", "flagged"):
        assert np.array_equal(getattr(got.curvature, name), getattr(want.curvature, name)), name


def test_sliver_in_the_worker_half_stops_the_step(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    m = make_geodesic_sphere(np.pi / 3, 4)
    topo = m.topology
    half = len(topo.triangles) // 2
    # a vertex whose triangles all lie in the worker's half, pushed almost
    # onto a neighbour: the triangles on that edge get a corner below 1 deg
    v = next(i for i in range(m.n_vertices)
             if topo.vertex_faces[i, :6].min() >= half)
    sliver = _pushed(m, [v], by=0.995)
    state = FlowState(0.0, sliver, estimate_curvature(sliver, order=2), 0)
    still = np.zeros(m.n_vertices)
    with pytest.raises(MeshDegenerateError) as serial:
        flow_step(state, mcf(), 1e-3, 0.0, 2, speed_values=still)
    worker = step_worker(sliver, 2)
    try:
        with pytest.raises(MeshDegenerateError) as split:
            flow_step(state, mcf(), 1e-3, 0.0, 2, worker=worker, speed_values=still)
    finally:
        worker.close()
    assert str(split.value) == str(serial.value)
    assert str(serial.value).startswith("minimum triangle angle")


def test_run_flow_same_on_one_and_two_cpus(monkeypatch):
    # five steps, the last cut short at t_end
    cfg = FlowConfig(speed=mcf(), t_end=5e-3, sigma=0.7, smoothing=0.3, fit_order=4,
                     snapshot_every=2)
    m = make_geodesic_sphere(np.pi / 3, 4)
    results = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        results.append(run_flow(m, cfg))
    two, one = results
    assert two.worker_peak_rss_mb > 1.0
    assert one.worker_peak_rss_mb is None
    assert two.reason is one.reason is StopReason.TIME_EXHAUSTED
    assert two.final.step_index == 5
    assert two.detail == one.detail
    assert np.array_equal(two.times, one.times)
    assert two.reports == one.reports
    assert len(two.snapshots) == len(one.snapshots) == 3
    for a, b in zip(two.snapshots + [two.final], one.snapshots + [one.final]):
        assert (a.t, a.step_index) == (b.t, b.step_index)
        assert np.array_equal(a.mesh.vertices, b.mesh.vertices)
        assert np.array_equal(a.mesh.normals, b.mesh.normals)
        for name in ("kappa1", "kappa2", "flagged"):
            assert np.array_equal(getattr(a.curvature, name), getattr(b.curvature, name))


# -- the radius oracle -----------------------------------------------------


def test_oracle_mcf_closed_form():
    res = sphere_ode_oracle(mcf(), np.pi / 3, 1.0)
    assert res.extinction_time is not None
    assert abs(res.extinction_time - 0.5 * np.log(2.0)) < 1e-4
    # the full trajectory matches cos r(t) = cos r0 exp(2t)
    mask = res.r > 1e-2
    np.testing.assert_allclose(
        np.cos(res.r[mask]), 0.5 * np.exp(2.0 * res.t[mask]), atol=1e-6
    )


def test_oracle_arctan_great_sphere_stationary():
    res = sphere_ode_oracle(arctan_speed(), np.pi / 2, 0.5)
    np.testing.assert_allclose(res.r, np.pi / 2, atol=1e-12)
    assert res.extinction_time is None


def test_oracle_arctan_expands_past_equator():
    res = sphere_ode_oracle(arctan_speed(), np.pi / 2 + 0.1, 0.3)
    assert res.r[-1] > np.pi / 2 + 0.1


def test_oracle_rejects_bad_radius():
    with pytest.raises(ValueError):
        sphere_ode_oracle(mcf(), 0.0, 1.0)
