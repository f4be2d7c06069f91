"""Config-driven scenario runner and mesh exporters.

Configs are flat INI files, one section per scenario::

    [sphere-mcf-shrink]
    description = sphere under mean curvature flow, shrinks to a point
    kind = flow
    surface = geodesic_sphere r=1.0471975511965976 level=3
    speed = mcf
    t_end = 0.5

Verbs: ``run <config> <scenario>``, ``list <config>``,
``export <snapshot.raw4> --format {raw4|obj3|vtk} <path>``.

A flow run writes ``trajectory.csv`` (frozen header
``t,min_G,max_A2,max_speed,area,epsilon_star,flags``), mesh snapshots at
the snapshot cadence, and a ``summary`` file.  Exit status is 0 for the
healthy outcomes (Converged / Extinct / TimeExhausted), 2 for
ConditionBreached, 3 for MeshDegenerate, 4 for NumericalFailure (a NaN
or infinity in the vertices, curvature, speed or step), 1 for usage or
config errors.  Exits 3 and 4 print why the run stopped to stderr.
Curve scenarios reuse the same trajectory header with max_speed the
largest |kappa_g| and area the curve length.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import mesh as meshmod
from . import s2curves as curvemod
from .flow import FlowConfig, StopReason, run_flow
from .gaussmaps import gauss_maps
from .mesh import SurfaceMesh, estimate_curvature
from .s2curves import write_rows
from .speeds import make_speed

OUTPUT_ROOT_ENV = "S3FLOW_OUTPUT_ROOT"

_FLOAT = "%.17g"
_FLOAT9 = "%.9g"

_KNOWN_KEYS = {
    "description", "kind", "surface", "curve", "curves", "speed", "t_end",
    "dt", "sigma", "dt_max", "speed_tol", "width_tol", "g_floor", "cadence",
    "snapshot_every", "smoothing", "fit_order", "perturbation", "seed",
    "exports", "resample", "length_tol",
}


class ConfigError(ValueError):
    pass


@dataclass
class Scenario:
    name: str
    kind: str = "flow"
    description: str = ""
    surface: str = None
    curve: str = None
    curves: str = None
    speed: str = "arctan"
    t_end: float = 0.1
    dt: float = None
    sigma: float = 0.25
    dt_max: float = 1e-2
    speed_tol: float = 1e-6
    width_tol: float = 0.05
    g_floor: float = 0.05
    cadence: int = 1
    snapshot_every: int = 0
    smoothing: float = 0.0
    fit_order: int = 2
    perturbation: float = 0.0
    seed: int = None
    exports: tuple = field(default_factory=tuple)
    resample: bool = True
    length_tol: float = 0.05


def _parse_scalar(name, raw, cast):
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc


def parse_config(path):
    """Parse a scenario config file; raises ConfigError with location info."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    scenarios = {}
    for section in cp.sections():
        sc = Scenario(name=section)
        for key, raw in cp.items(section):
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"{path}: [{section}] unknown key {key!r}")
            if key in ("description", "kind", "surface", "curve", "curves", "speed"):
                setattr(sc, key, raw.strip())
            elif key in ("cadence", "snapshot_every", "seed", "fit_order"):
                setattr(sc, key, _parse_scalar(key, raw, int))
            elif key == "exports":
                sc.exports = tuple(t.strip() for t in raw.split(",") if t.strip())
            elif key == "resample":
                sc.resample = raw.strip().lower() in ("1", "true", "yes", "on")
            else:
                setattr(sc, key, _parse_scalar(key, raw, float))
        if sc.kind not in ("flow", "csf", "weiner"):
            raise ConfigError(f"{path}: [{section}] unknown kind {sc.kind!r}")
        if sc.perturbation > 0.0 and sc.seed is None:
            raise ConfigError(
                f"{path}: [{section}] perturbation requires an explicit seed"
            )
        if sc.kind == "flow" and not sc.surface:
            raise ConfigError(f"{path}: [{section}] flow scenario needs a surface")
        if sc.kind == "flow":
            try:
                make_speed(sc.speed)
            except ValueError as exc:
                raise ConfigError(f"{path}: [{section}] bad speed {sc.speed!r}: {exc}") from exc
        if sc.kind == "csf" and not sc.curve:
            raise ConfigError(f"{path}: [{section}] csf scenario needs a curve")
        if sc.kind == "weiner" and not sc.curves:
            raise ConfigError(f"{path}: [{section}] weiner scenario needs curves")
        for fmt in sc.exports:
            if fmt not in ("raw4", "obj3", "vtk", "gauss_csv"):
                raise ConfigError(f"{path}: [{section}] unknown export format {fmt!r}")
        scenarios[section] = sc
    return scenarios


def _parse_kv(tokens):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def build_surface(spec, perturbation=0.0, seed=None):
    tokens = spec.split()
    if not tokens:
        raise ConfigError("empty surface spec")
    gen, kv = tokens[0], _parse_kv(tokens[1:])
    if gen == "geodesic_sphere":
        r = float(kv.pop("r"))
        level = int(kv.pop("level"))
        if kv:
            raise ConfigError(f"unknown surface args {sorted(kv)}")
        if perturbation > 0.0:
            return meshmod.make_perturbed_sphere(r, level, perturbation, seed)
        return meshmod.make_geodesic_sphere(r, level)
    if perturbation > 0.0:
        raise ConfigError("perturbation is only supported for geodesic_sphere")
    if gen == "clifford":
        nu = int(kv.pop("nu"))
        nv = int(kv.pop("nv"))
        if kv:
            raise ConfigError(f"unknown surface args {sorted(kv)}")
        return meshmod.make_clifford_torus(nu, nv)
    if gen == "hopf_latitude":
        theta = float(kv.pop("theta"))
        n_curve = int(kv.pop("n_curve"))
        n_fiber = int(kv.pop("n_fiber"))
        if kv:
            raise ConfigError(f"unknown surface args {sorted(kv)}")
        base = curvemod.make_latitude_circle(theta, n_curve)
        return meshmod.make_hopf_torus(base, n_fiber)
    if gen == "hopf_csv":
        base = curvemod.load_curve_csv(kv.pop("path"))
        n_fiber = int(kv.pop("n_fiber"))
        if kv:
            raise ConfigError(f"unknown surface args {sorted(kv)}")
        return meshmod.make_hopf_torus(base, n_fiber)
    if gen == "raw4":
        return import_raw4(kv.pop("path"))
    raise ConfigError(f"unknown surface generator {gen!r}")


def build_curve(spec):
    tokens = spec.split()
    if not tokens:
        raise ConfigError("empty curve spec")
    gen, kv = tokens[0], _parse_kv(tokens[1:])
    if gen == "latitude_circle":
        return curvemod.make_latitude_circle(float(kv["theta"]), int(kv["n"]))
    if gen == "great_circle":
        n = int(kv.get("n", 128))
        axis = tuple(float(t) for t in kv.get("axis", "0,0,1").split(","))
        return curvemod.make_great_circle(axis, n)
    if gen == "csv":
        return curvemod.load_curve_csv(kv["path"])
    raise ConfigError(f"unknown curve generator {gen!r}")


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


def export_mesh(mesh: SurfaceMesh, fmt, path, curvature=None, comment=""):
    """Write a mesh snapshot; output is bit-stable for identical inputs.

    raw4: CSV with 17-significant-digit vertices plus the triangle list
    (lossless round trip).  obj3: stereographic projection of R4 to R3
    from the pole (-1, 0, 0, 0) as a standard OBJ (for inspection only;
    never analyze projected data).  vtk: legacy ASCII polydata with
    per-vertex scalar fields G, H, A2.
    """
    if fmt == "raw4":
        _export_raw4(mesh, path, comment)
    elif fmt == "obj3":
        _export_obj3(mesh, path, comment)
    elif fmt == "vtk":
        if curvature is None:
            curvature = estimate_curvature(mesh)
        _export_vtk(mesh, curvature, path, comment)
    else:
        raise ValueError(f"unknown export format {fmt!r}")


def _export_raw4(mesh, path, comment):
    with open(path, "w") as fh:
        fh.write(f"# s3flow raw4 {comment}\n")
        write_rows(fh, "v," + ",".join([_FLOAT] * 4), mesh.vertices)
        write_rows(fh, "n," + ",".join([_FLOAT] * 4), mesh.normals)
        write_rows(fh, "t,%d,%d,%d", mesh.triangles)


def import_raw4(path) -> SurfaceMesh:
    with open(path) as fh:
        rows = [line.split(",") for line in map(str.strip, fh) if line and line[0] != "#"]
    unknown = {row[0] for row in rows} - {"v", "n", "t"}
    if unknown:
        tag = next(row[0] for row in rows if row[0] in unknown)
        raise ValueError(f"{path}: unknown record {tag!r}")

    def records(tag, dtype):
        # numpy parses each field as float() or int() does, with its message
        return np.array([row[1:] for row in rows if row[0] == tag], dtype=dtype)

    normals = records("n", float)
    return SurfaceMesh(records("v", float), records("t", np.int64),
                       normals=normals if len(normals) else None)


_POLE_CANDIDATES = [
    np.array([-1.0, 0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]),
    np.array([0.0, -1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0]),
    np.array([0.0, 0.0, -1.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0]),
    np.array([0.0, 0.0, 0.0, -1.0]), np.array([0.0, 0.0, 0.0, 1.0]),
]


def _select_pole(vertices):
    for pole in _POLE_CANDIDATES:
        if np.min(np.linalg.norm(vertices - pole, axis=1)) > 1e-6:
            return pole
    raise ValueError("no stereographic pole clears every vertex")


def stereographic(vertices, pole):
    """Project S3 minus the pole onto the 3-plane through 0 orthogonal to it."""
    d = vertices @ pole
    rest = vertices - d[:, None] * pole[None, :]
    basis = np.eye(4)[np.argsort(np.abs(pole))[:3]]  # axes orthogonal to pole
    basis = basis - (basis @ pole)[:, None] * pole[None, :]
    return (rest / (1.0 - d)[:, None]) @ basis.T


def _export_obj3(mesh, path, comment):
    pole = _select_pole(mesh.vertices)
    pts = stereographic(mesh.vertices, pole)
    with open(path, "w") as fh:
        fh.write(f"# s3flow obj3 {comment}\n")
        fh.write("# stereographic projection pole: %s\n" % (_FLOAT9 % pole[0]
                 + " " + _FLOAT9 % pole[1] + " " + _FLOAT9 % pole[2] + " " + _FLOAT9 % pole[3]))
        write_rows(fh, "v " + " ".join([_FLOAT9] * 3), pts)
        write_rows(fh, "f %d %d %d", mesh.triangles + 1)


def _export_vtk(mesh, curvature, path, comment):
    pole = _select_pole(mesh.vertices)
    pts = stereographic(mesh.vertices, pole)
    tri = mesh.triangles
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"s3flow snapshot {comment}\n")
        fh.write("ASCII\nDATASET POLYDATA\n")
        fh.write(f"POINTS {len(pts)} float\n")
        write_rows(fh, " ".join([_FLOAT9] * 3), pts)
        fh.write(f"POLYGONS {len(tri)} {4 * len(tri)}\n")
        write_rows(fh, "3 %d %d %d", tri)
        fh.write(f"POINT_DATA {len(pts)}\n")
        for name, vals in (("G", curvature.G), ("H", curvature.H), ("A2", curvature.normA2)):
            fh.write(f"SCALARS {name} float 1\nLOOKUP_TABLE default\n")
            write_rows(fh, _FLOAT, vals)


def export_gauss_csv(mesh, path):
    """Both Gauss images as CSV point lists (left and right, labelled)."""
    img = gauss_maps(mesh)
    with open(path, "w") as fh:
        fh.write("map,x,y,z\n")
        write_rows(fh, "left," + ",".join([_FLOAT] * 3), img.left)
        write_rows(fh, "right," + ",".join([_FLOAT] * 3), img.right)


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------


_TRAJ_HEADER = "t,min_G,max_A2,max_speed,area,epsilon_star,flags"


def _flag_cell(rep):
    return "simons=%.6f|huisken2d=%.6f|okumura=%.6f" % (
        rep.frac_simons, rep.frac_huisken2d, rep.frac_okumura)


def _write_trajectory(path, times, reports):
    with open(path, "w") as fh:
        fh.write(_TRAJ_HEADER + "\n")
        for t, rep in zip(times, reports):
            fh.write(",".join([
                _FLOAT % t, _FLOAT % rep.min_G, _FLOAT % rep.max_normA2,
                _FLOAT % rep.max_abs_speed, _FLOAT % rep.area,
                _FLOAT % rep.epsilon_star, _flag_cell(rep),
            ]) + "\n")


def _run_flow_scenario(sc: Scenario, outdir):
    mesh0 = build_surface(sc.surface, sc.perturbation, sc.seed)
    config = FlowConfig(
        speed=make_speed(sc.speed), t_end=sc.t_end, dt=sc.dt, sigma=sc.sigma,
        dt_max=sc.dt_max, speed_tol=sc.speed_tol, width_tol=sc.width_tol,
        g_floor=sc.g_floor, cadence=sc.cadence,
        snapshot_every=sc.snapshot_every if sc.exports else 0,
        smoothing=sc.smoothing, fit_order=sc.fit_order,
    )
    result = run_flow(mesh0, config)
    _write_trajectory(os.path.join(outdir, "trajectory.csv"), result.times, result.reports)
    for i, st in enumerate(result.snapshots):
        stem = os.path.join(outdir, f"snapshot_{i:05d}")
        for fmt in sc.exports:
            if fmt == "gauss_csv":
                export_gauss_csv(st.mesh, stem + ".gauss.csv")
            else:
                ext = {"raw4": ".raw4", "obj3": ".obj", "vtk": ".vtk"}[fmt]
                export_mesh(st.mesh, fmt, stem + ext, curvature=st.curvature,
                            comment=f"t={_FLOAT % st.t}")
    final_rep = result.reports[-1]
    with open(os.path.join(outdir, "summary"), "w") as fh:
        fh.write(f"scenario: {sc.name}\n")
        fh.write(f"stop_reason: {result.reason.value}\n")
        fh.write(f"t_final: {_FLOAT % result.final.t}\n")
        fh.write(f"steps: {result.final.step_index}\n")
        fh.write(f"min_G: {_FLOAT % final_rep.min_G}\n")
        fh.write(f"max_A2: {_FLOAT % final_rep.max_normA2}\n")
        fh.write(f"max_speed: {_FLOAT % final_rep.max_abs_speed}\n")
        fh.write(f"area: {_FLOAT % final_rep.area}\n")
        fh.write(f"epsilon_star: {_FLOAT % final_rep.epsilon_star}\n")
    if result.detail is not None:
        print(f"{sc.name}: {result.reason.value}: {result.detail}", file=sys.stderr)
    return {
        StopReason.CONVERGED: 0, StopReason.EXTINCT: 0, StopReason.TIME_EXHAUSTED: 0,
        StopReason.CONDITION_BREACHED: 2, StopReason.MESH_DEGENERATE: 3,
        StopReason.NUMERICAL_FAILURE: 4,
    }[result.reason]


def _run_csf_scenario(sc: Scenario, outdir):
    curve = build_curve(sc.curve)
    res = curvemod.run_csf(curve, sc.t_end, dt=sc.dt, sigma=sc.sigma,
                           resample=sc.resample, cadence=max(sc.cadence, 1),
                           length_tol=sc.length_tol)
    with open(os.path.join(outdir, "trajectory.csv"), "w") as fh:
        fh.write(_TRAJ_HEADER + "\n")
        for t, length in zip(res.times, res.lengths):
            fh.write(",".join([
                _FLOAT % t, "0", "nan", "nan", _FLOAT % length, "inf", "n/a",
            ]) + "\n")
    k_final, _ = curvemod.geodesic_curvature(res.final)
    with open(os.path.join(outdir, "summary"), "w") as fh:
        fh.write(f"scenario: {sc.name}\n")
        fh.write(f"stop_reason: {res.status}\n")
        fh.write(f"t_final: {_FLOAT % res.times[-1]}\n")
        fh.write(f"length_final: {_FLOAT % res.lengths[-1]}\n")
        fh.write(f"max_kappa_g: {_FLOAT % float(np.max(np.abs(k_final)))}\n")
    for i, cur in enumerate(res.curves):
        curvemod.save_curve_csv(cur, os.path.join(outdir, f"curve_{i:05d}.csv"))
    return 0


def _run_weiner_scenario(sc: Scenario, outdir):
    parts = [p.strip() for p in sc.curves.split(";")]
    if len(parts) != 2:
        raise ConfigError("weiner scenario needs two curve specs separated by ';'")
    g1 = build_curve(parts[0])
    g2 = build_curve(parts[1])
    rep = curvemod.weiner_check(g1, g2)
    with open(os.path.join(outdir, "weiner_report.txt"), "w") as fh:
        fh.write(f"total_curvature_1: {_FLOAT % rep.total_curvature[0]}\n")
        fh.write(f"total_curvature_2: {_FLOAT % rep.total_curvature[1]}\n")
        fh.write(f"sup_1: {_FLOAT % rep.sup1}\n")
        fh.write(f"sup_2: {_FLOAT % rep.sup2}\n")
        fh.write(f"sup_pair: {_FLOAT % rep.sup_pair}\n")
        fh.write(f"verdict: {'pass' if rep.verdict else 'fail'}\n")
    with open(os.path.join(outdir, "summary"), "w") as fh:
        fh.write(f"scenario: {sc.name}\n")
        fh.write("stop_reason: WeinerCheck\n")
        fh.write(f"verdict: {'pass' if rep.verdict else 'fail'}\n")
    return 0


def run_scenario(config_path, scenario_name, output_dir=None, cadence=None):
    """Execute one scenario; returns the process exit status."""
    scenarios = parse_config(config_path)
    if scenario_name not in scenarios:
        raise ConfigError(
            f"{config_path}: no scenario named {scenario_name!r} "
            f"(available: {', '.join(sorted(scenarios)) or 'none'})"
        )
    sc = scenarios[scenario_name]
    if cadence is not None:
        sc.cadence = cadence
    root = output_dir or os.environ.get(OUTPUT_ROOT_ENV, ".")
    outdir = os.path.join(root, sc.name)
    os.makedirs(outdir, exist_ok=True)
    try:
        if sc.kind == "flow":
            return _run_flow_scenario(sc, outdir)
        if sc.kind == "csf":
            return _run_csf_scenario(sc, outdir)
        return _run_weiner_scenario(sc, outdir)
    finally:
        _release_heap()


def _release_heap():
    """Hand the heap memory freed so far back to the operating system.

    glibc returns freed heap memory on its own only from the top of the
    heap, so one small block still in use near the top (such as a buffer
    held in numpy's or glibc's cache of small blocks) keeps the process
    holding everything freed below it: after the Hopf torus scenarios,
    11.7 of a 17 MB heap was free and held.  Which block ends up on top
    changes with the order of allocations, so the memory a process held
    after a scenario varied by some 10 MB with the directory it ran from.
    ``malloc_trim`` is glibc's; elsewhere this does nothing.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def list_scenarios(config_path):
    """(name, description) pairs in file order."""
    scenarios = parse_config(config_path)
    return [(sc.name, sc.description) for sc in scenarios.values()]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="s3flow", description="curvature flows of surfaces in the 3-sphere"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run one scenario from a config file")
    p_run.add_argument("config")
    p_run.add_argument("scenario")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--cadence", type=int, default=None)

    p_list = sub.add_parser("list", help="list scenarios in a config file")
    p_list.add_argument("config")

    p_exp = sub.add_parser("export", help="convert a raw4 snapshot")
    p_exp.add_argument("snapshot")
    p_exp.add_argument("path")
    p_exp.add_argument("--format", choices=("raw4", "obj3", "vtk"), required=True)

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            return run_scenario(args.config, args.scenario,
                                output_dir=args.output_dir, cadence=args.cadence)
        if args.verb == "list":
            for name, desc in list_scenarios(args.config):
                print(f"{name}: {desc}" if desc else name)
            return 0
        if args.verb == "export":
            mesh = import_raw4(args.snapshot)
            export_mesh(mesh, args.format, args.path)
            return 0
    except (ConfigError, ValueError, meshmod.MeshError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
