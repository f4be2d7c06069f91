"""Time integration of the normal-speed flow dx/dt = -F nu on meshes in S3.

Sign convention: nu is the outward normal, so positive F contracts
geodesic spheres of radius below pi/2.  Stepping is explicit (forward
Euler in time, great-circle steps in space) under a parabolic CFL bound;
the speeds are fully nonlinear, the meshes are desk-scale, and explicit
stepping keeps the scheme honest.

The pinching monitor tracks the preserved curvature regions

    Omega_eps = {|k1 - k2| <= (1 + k1 k2)/eps, k1 k2 <= 1}
                union {|k1 - k2| <= 2/eps, k1 k2 >= 1}

through the largest eps for which every vertex still lies inside.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .mesh import (CurvatureData, MeshDegenerateError, Stepper, SurfaceMesh,
                   estimate_curvature, step_worker)
# log_map and geodesic_step are not called here; they stay bound because
# perfbench/layers.py wraps flow.log_map and flow.geodesic_step by name
from .s3core import geodesic_step, log_map  # noqa: F401
from .speeds import SpeedFunction, speed_huisken_monitor


class _NonFinite(ArithmeticError):
    """A quantity of the run is NaN or infinite."""


class StopReason(enum.Enum):
    CONVERGED = "Converged"
    EXTINCT = "Extinct"
    CONDITION_BREACHED = "ConditionBreached"
    TIME_EXHAUSTED = "TimeExhausted"
    MESH_DEGENERATE = "MeshDegenerate"
    NUMERICAL_FAILURE = "NumericalFailure"


@dataclass
class FlowConfig:
    """Run parameters; each of at most MAX_STEPS steps is the parabolic CFL
    bound with factor sigma, capped at DT_MAX (see :func:`cfl_dt`).

    Raises ValueError for a setting out of range; each check is written so
    that a NaN fails it.  t_end may be infinite.
    """

    speed: SpeedFunction
    t_end: float
    sigma: float = 0.25
    speed_tol: float = 1e-6
    width_tol: float = 0.05
    g_floor: float = 0.05
    cadence: int = 1
    snapshot_every: int = 0
    smoothing: float = 0.0
    fit_order: int = 2

    def __post_init__(self):
        if not (0.0 < self.sigma <= 1.0):
            raise ValueError("sigma must lie in (0, 1]")
        for name in ("t_end", "speed_tol", "width_tol", "g_floor"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.cadence < 1:
            raise ValueError("cadence must be at least 1")
        if not self.snapshot_every >= 0:
            raise ValueError("snapshot_every must be at least 0")
        if not self.smoothing >= 0.0:
            raise ValueError("smoothing must be at least 0")
        if self.fit_order not in (2, 4):
            raise ValueError("fit_order must be 2 or 4")


@dataclass
class FlowState:
    t: float
    mesh: SurfaceMesh
    curvature: CurvatureData
    step_index: int


@dataclass
class PinchingReport:
    min_G: float
    max_G: float
    max_normA2: float
    max_abs_speed: float
    area: float
    epsilon_star: float
    frac_simons: float
    frac_huisken2d: float
    frac_okumura: float

    @property
    def max_abs_G(self):
        return max(abs(self.min_G), abs(self.max_G))


@dataclass
class FlowResult:
    times: np.ndarray
    reports: list
    snapshots: list
    final: FlowState
    reason: StopReason
    detail: str = None  # why a MeshDegenerate or NumericalFailure run stopped
    worker_peak_rss_mb: float = None  # the step worker's, None without one


def _epsilon(k1, k2):
    """Per point, the largest eps with (k1, k2) inside Omega_eps:
    (1 + k1 k2)/|k1 - k2| where k1 k2 <= 1, 2/|k1 - k2| where k1 k2 >= 1
    (the two agree on the seam), infinite at umbilic points."""
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    lam = np.abs(k1 - k2)
    prod = k1 * k2
    bound = np.where(prod <= 1.0, 1.0 + prod, 2.0) / np.maximum(lam, 1e-300)
    return np.where(lam == 0.0, np.inf, bound)


def omega_epsilon_member(k1, k2, eps):
    """Membership in the preserved curvature region Omega_eps (eps > 0)."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return _epsilon(k1, k2) >= eps


def epsilon_star(k1, k2):
    """Largest eps with every (k1, k2) inside Omega_eps, clamped at 0; NaN
    where a point's is NaN."""
    return float(max(np.min(_epsilon(k1, k2)), 0.0))


def pinching_report(curvature: CurvatureData, mesh: SurfaceMesh,
                    speed_values) -> PinchingReport:
    flags = speed_huisken_monitor(curvature.kappa1, curvature.kappa2)
    return PinchingReport(
        min_G=float(np.min(curvature.G)),
        max_G=float(np.max(curvature.G)),
        max_normA2=float(np.max(curvature.normA2)),
        max_abs_speed=float(np.max(np.abs(speed_values))),
        area=mesh.area(),
        epsilon_star=epsilon_star(curvature.kappa1, curvature.kappa2),
        frac_simons=float(np.mean(flags.simons)),
        frac_huisken2d=float(np.mean(flags.huisken2d)),
        frac_okumura=float(np.mean(flags.okumura)),
    )


LAMBDA_FLOOR = 1e-8  # lower bound on lambda_max in cfl_dt, for speeds flat in curvature
DT_MAX = 1e-2  # the cap of cfl_dt: no step of a flow is longer
MAX_STEPS = 500_000  # steps after which a flow or a curve run stops as TimeExhausted


def cfl_dt(mesh: SurfaceMesh, curvature: CurvatureData, speed: SpeedFunction, sigma):
    """Parabolic step bound sigma * h_min^2 / lambda_max, capped at DT_MAX."""
    h_min = float(np.min(mesh.side_lengths()))
    d1, d2 = speed.partials(curvature.kappa1, curvature.kappa2)
    lam = float(np.max(np.abs(d1) + np.abs(d2)))
    return min(sigma * h_min * h_min / max(lam, LAMBDA_FLOOR), DT_MAX)


def flow_step(state: FlowState, speed: SpeedFunction, dt, stepper: Stepper,
              speed_values=None) -> FlowState:
    """One explicit step: every vertex moves along the great circle through
    its outward normal by arclength -F dt; normals and curvature are then
    recomputed from the new geometry.  The step raises MeshDegenerateError
    where the new mesh fails the quality check (:meth:`mesh.Stepper.step`).

    ``stepper`` is the run's :class:`mesh.Stepper` (or step worker), made
    with its fit order and smoothing; it also runs the fit.
    ``speed_values`` is F at the state's curvature, when the caller has
    evaluated it already.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if speed_values is None:
        speed_values = speed.eval(state.curvature.kappa1, state.curvature.kappa2)
    new_mesh = stepper.step(state.mesh, -np.asarray(speed_values, dtype=float) * dt)
    return FlowState(
        t=state.t + dt,
        mesh=new_mesh,
        curvature=estimate_curvature(new_mesh, order=stepper.order, worker=stepper),
        step_index=state.step_index + 1,
    )


def run_flow(mesh0: SurfaceMesh, config: FlowConfig) -> FlowResult:
    """Drive the flow until a stop condition fires.

    Deterministic for a given config.  The trajectory samples one
    :class:`PinchingReport` every ``cadence`` steps (plus the final state);
    full mesh snapshots are kept every ``snapshot_every`` steps when that
    is positive.

    Normals are re-derived from the triangle geometry at t = 0 so that the
    whole trajectory, including its first report, uses the same discrete
    pipeline as every later step (generator-supplied analytic normals
    would make the t = 0 diagnostics incomparably sharper than the rest).

    Every step checks the vertices, the curvature, the speed and dt for NaN
    or infinity; a run that meets one stops as NumericalFailure.  The mesh
    the run starts from must pass the quality check that each step applies
    to the mesh it makes, or the run stops as MeshDegenerate at step 0.
    ``FlowResult.detail`` names that quantity, or carries the message of a
    MeshDegenerate stop.

    Each step is shared with a forked worker where :func:`mesh.step_worker`
    starts one; it is ended when the run returns or raises, and
    ``FlowResult.worker_peak_rss_mb`` keeps its peak RSS.
    """
    mesh0 = mesh0.with_vertices(mesh0.vertices)
    settings = (mesh0, config.fit_order, config.smoothing)
    stepper = step_worker(*settings) or Stepper(*settings)
    try:
        result = _run(mesh0, config, stepper)
    finally:
        stepper.close()
    result.worker_peak_rss_mb = stepper.peak_rss_mb
    return result


def _run(mesh0, config, stepper):
    curvature = estimate_curvature(mesh0, order=stepper.order, worker=stepper)
    state = FlowState(0.0, mesh0, curvature, 0)
    times = []
    reports = []
    snapshots = []

    def record(st, f, force=False):
        if force or st.step_index % config.cadence == 0:
            times.append(st.t)
            reports.append(pinching_report(st.curvature, st.mesh, f))
        if config.snapshot_every > 0 and (force or st.step_index % config.snapshot_every == 0):
            snapshots.append(st)

    reason = detail = None
    # F once per state, for its report, the Converged check and the step
    f = config.speed.eval(curvature.kappa1, curvature.kappa2)
    try:
        stepper.check(mesh0)
        while True:
            record(state, f)
            _check_finite(state.step_index, vertices=state.mesh.vertices,
                          curvature=(state.curvature.kappa1, state.curvature.kappa2))
            if float(np.min(state.curvature.G)) < -config.g_floor:
                reason = StopReason.CONDITION_BREACHED
                break
            if state.mesh.diameter_proxy() < config.width_tol:
                reason = StopReason.EXTINCT
                break
            _check_finite(state.step_index, speed=f)
            if float(np.max(np.abs(f))) < config.speed_tol:
                reason = StopReason.CONVERGED
                break
            if state.t >= config.t_end - 1e-14 or state.step_index >= MAX_STEPS:
                reason = StopReason.TIME_EXHAUSTED
                break
            dt = min(cfl_dt(state.mesh, state.curvature, config.speed, config.sigma),
                     config.t_end - state.t)
            _check_finite(state.step_index, dt=dt)
            state = flow_step(state, config.speed, dt, stepper, speed_values=f)
            f = config.speed.eval(state.curvature.kappa1, state.curvature.kappa2)
    except MeshDegenerateError as exc:
        reason, detail = StopReason.MESH_DEGENERATE, str(exc)
    except _NonFinite as exc:
        reason, detail = StopReason.NUMERICAL_FAILURE, str(exc)

    if not times or times[-1] != state.t:
        record(state, f, force=True)
    return FlowResult(
        times=np.array(times),
        reports=reports,
        snapshots=snapshots,
        final=state,
        reason=reason,
        detail=detail,
    )


def _check_finite(step, **values):
    """Raise _NonFinite naming the first of ``values`` that holds a NaN or
    an infinity."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise _NonFinite(f"non-finite {name} at step {step}")


@dataclass
class SphereOdeResult:
    t: np.ndarray
    r: np.ndarray
    extinction_time: float = None  # None if never reached ORACLE_R_MIN


ORACLE_DT = 1e-5  # the RK4 step of sphere_ode_oracle
ORACLE_R_MIN = 1e-3  # the radius from either center at which the oracle stops


def sphere_ode_oracle(speed: SpeedFunction, r0, t_end) -> SphereOdeResult:
    """Independent RK4 oracle for the radius of a flowing geodesic sphere.

    Geodesic spheres are umbilic with kappa = cot(r), so the exact radius
    obeys dr/dt = -F(cot r, cot r).  Integration (step ORACLE_DT) stops when
    r < ORACLE_R_MIN (extinction at the center) or r > pi - ORACLE_R_MIN
    (extinction at the antipode after expanding over the equator).
    """
    if not (0.0 < r0 < np.pi):
        raise ValueError("r0 must lie in (0, pi)")

    def rhs(r):
        r = min(max(r, 1e-9), np.pi - 1e-9)
        c = np.cos(r) / np.sin(r)
        return -float(speed.eval(c, c))

    ts = [0.0]
    rs = [float(r0)]
    t, r = 0.0, float(r0)
    extinction = None
    n_steps = int(np.ceil(t_end / ORACLE_DT))
    for _ in range(n_steps):
        k1 = rhs(r)
        k2 = rhs(r + 0.5 * ORACLE_DT * k1)
        k3 = rhs(r + 0.5 * ORACLE_DT * k2)
        k4 = rhs(r + ORACLE_DT * k3)
        r = r + ORACLE_DT * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        t += ORACLE_DT
        ts.append(t)
        rs.append(r)
        if r < ORACLE_R_MIN or r > np.pi - ORACLE_R_MIN:
            extinction = t
            break
    return SphereOdeResult(t=np.array(ts), r=np.array(rs), extinction_time=extinction)
