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
Curve scenarios reuse the trajectory header (max_speed the largest
|kappa_g|, area the curve length), the stop reasons and the exit statuses.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import os
import sys
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from . import mesh as meshmod
from . import s2curves as curvemod
from .flow import FlowConfig, StopReason, run_flow
from .gaussmaps import gauss_maps
from .mesh import SurfaceMesh, estimate_curvature
from .s2curves import read_rows, write_rows
from .s3core import row_norms
from .speeds import make_speed

OUTPUT_ROOT_ENV = "S3FLOW_OUTPUT_ROOT"

_FLOAT = "%.17g"
_FLOAT9 = "%.9g"


class ConfigError(ValueError):
    pass


@dataclass
class Scenario:
    """One config section: every field but ``name`` is a key, read as its type."""

    name: str
    kind: str = "flow"
    description: str = ""
    surface: str = None
    curve: str = None
    curves: str = None
    speed: str = "arctan"
    t_end: float = 0.1
    sigma: float = FlowConfig.sigma
    speed_tol: float = FlowConfig.speed_tol
    width_tol: float = FlowConfig.width_tol
    g_floor: float = FlowConfig.g_floor
    cadence: int = FlowConfig.cadence
    snapshot_every: int = FlowConfig.snapshot_every
    smoothing: float = FlowConfig.smoothing
    fit_order: int = FlowConfig.fit_order
    perturbation: float = 0.0
    seed: int = None
    exports: tuple = ()


_READ = {str: str.strip, int: int, float: float,
         tuple: lambda raw: tuple(t.strip() for t in raw.split(",") if t.strip())}
# config key -> reader of its text
_KEYS = {key: _READ[kind] for key, kind in get_type_hints(Scenario).items() if key != "name"}
# the keys that are also FlowConfig fields, which a flow scenario passes on
_FLOW_KEYS = [f.name for f in fields(FlowConfig) if f.name in _KEYS]
# kind -> the keys that a scenario of that kind reads
_READS = {kind: {"kind", "description", *keys} for kind, keys in {
    "flow": ("surface", "perturbation", "seed", "exports", *_FLOW_KEYS),
    "csf": ("curve", "t_end", "sigma", "cadence"),
    "weiner": ("curves",),
}.items()}


def parse_config(path):
    """Parse a scenario config file; raises ConfigError with location info,
    also for a key that the section's kind does not read (``_READS``),
    checked once the whole section is read, since ``kind`` may come last.
    A key of the DEFAULT section reaches the sections whose kind reads it."""
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
        items = cp.items(section)
        for key, raw in items:
            if key not in _KEYS:
                raise ConfigError(f"{path}: [{section}] unknown key {key!r}")
            try:
                setattr(sc, key, _KEYS[key](raw))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r}") from exc
        if sc.kind not in _RUNNERS:
            raise ConfigError(f"{path}: [{section}] unknown kind {sc.kind!r}")
        for key, _ in items:
            if key not in _READS[sc.kind] and key not in cp.defaults():
                raise ConfigError(
                    f"{path}: [{section}] key {key!r} is not read by a {sc.kind} scenario")
        if not sc.perturbation >= 0.0:
            raise ConfigError(f"{path}: [{section}] perturbation must be at least 0")
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
            if fmt not in _EXPORTS:
                raise ConfigError(f"{path}: [{section}] unknown export format {fmt!r}")
        scenarios[section] = sc
    return scenarios


def _parse_spec(spec, what):
    """``<generator> key=value ...`` -> (generator, {key: value})."""
    tokens = spec.split()
    if not tokens:
        raise ConfigError(f"empty {what} spec")
    out = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ConfigError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        if k in out:
            raise ConfigError(f"{what} spec repeats {k}=")
        out[k] = v
    return tokens[0], out


def _args(what, gen, kv, *required, **optional):
    """The values of the ``required`` args, then of the ``optional`` ones
    (given as their defaults), of the spec of generator ``gen``; a missing
    or unknown arg is a ConfigError."""
    for key in required:
        if key not in kv:
            raise ConfigError(f"{what} generator {gen!r} needs {key}=")
    unknown = sorted(set(kv) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"unknown {what} args {unknown}")
    return [kv[key] for key in required] + [kv.get(k, v) for k, v in optional.items()]


def build_surface(spec, perturbation=0.0, seed=None):
    gen, kv = _parse_spec(spec, "surface")
    if gen == "geodesic_sphere":
        r, level = _args("surface", gen, kv, "r", "level")
        if perturbation > 0.0:
            return meshmod.make_perturbed_sphere(float(r), int(level), perturbation, seed)
        return meshmod.make_geodesic_sphere(float(r), int(level))
    if perturbation > 0.0:
        raise ConfigError("perturbation is only supported for geodesic_sphere")
    if gen == "clifford":
        nu, nv = _args("surface", gen, kv, "nu", "nv")
        return meshmod.make_clifford_torus(int(nu), int(nv))
    if gen == "hopf_latitude":
        theta, n_curve, n_fiber = _args("surface", gen, kv, "theta", "n_curve", "n_fiber")
        base = curvemod.make_latitude_circle(float(theta), int(n_curve))
        return meshmod.make_hopf_torus(base, int(n_fiber))
    if gen == "hopf_csv":
        path, n_fiber = _args("surface", gen, kv, "path", "n_fiber")
        return meshmod.make_hopf_torus(curvemod.load_curve_csv(path), int(n_fiber))
    if gen == "raw4":
        (path,) = _args("surface", gen, kv, "path")
        return import_raw4(path)
    raise ConfigError(f"unknown surface generator {gen!r}")


def build_curve(spec):
    gen, kv = _parse_spec(spec, "curve")
    if gen == "latitude_circle":
        theta, n = _args("curve", gen, kv, "theta", "n")
        return curvemod.make_latitude_circle(float(theta), int(n))
    if gen == "great_circle":
        n, axis = _args("curve", gen, kv, n="128", axis="0,0,1")
        return curvemod.make_great_circle(tuple(float(t) for t in axis.split(",")), int(n))
    if gen == "csv":
        (path,) = _args("curve", gen, kv, "path")
        return curvemod.load_curve_csv(path)
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
    if fmt not in _MESH_FORMATS:
        raise ValueError(f"unknown export format {fmt!r}")
    _EXPORTS[fmt][1](mesh, path, curvature, comment)


def _export_raw4(mesh, path, curvature, comment):
    with open(path, "w") as fh:
        fh.write(f"# s3flow raw4 {comment}\n")
        write_rows(fh, "v," + ",".join([_FLOAT] * 4), mesh.vertices)
        write_rows(fh, "n," + ",".join([_FLOAT] * 4), mesh.normals)
        write_rows(fh, "t,%d,%d,%d", mesh.triangles)


def import_raw4(path) -> SurfaceMesh:
    rows = read_rows(path)
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


# -e0, e0, -e1, e1, ...; 0.0 - e keeps the zeros positive, as obj3 prints them
_POLE_CANDIDATES = [pole for e in np.eye(4) for pole in (0.0 - e, e)]


def _select_pole(vertices):
    for pole in _POLE_CANDIDATES:
        if np.min(row_norms(vertices - pole)) > 1e-6:
            return pole
    raise ValueError("no stereographic pole clears every vertex")


def stereographic(vertices, pole):
    """Project S3 minus the pole onto the 3-plane through 0 orthogonal to it."""
    d = vertices @ pole
    rest = vertices - d[:, None] * pole[None, :]
    basis = np.eye(4)[np.argsort(np.abs(pole))[:3]]  # axes orthogonal to pole
    basis = basis - (basis @ pole)[:, None] * pole[None, :]
    return (rest / (1.0 - d)[:, None]) @ basis.T


def _export_obj3(mesh, path, curvature, comment):
    pole = _select_pole(mesh.vertices)
    pts = stereographic(mesh.vertices, pole)
    with open(path, "w") as fh:
        fh.write(f"# s3flow obj3 {comment}\n")
        fh.write("# stereographic projection pole: %s\n" % " ".join(_FLOAT9 % c for c in pole))
        write_rows(fh, "v " + " ".join([_FLOAT9] * 3), pts)
        write_rows(fh, "f %d %d %d", mesh.triangles + 1)


def _export_vtk(mesh, path, curvature, comment):
    if curvature is None:
        curvature = estimate_curvature(mesh)
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


# export format -> (suffix of a snapshot file, writer of (mesh, path, curvature,
# comment)); gauss_csv is written by export_gauss_csv, not by export_mesh
_EXPORTS = {
    "raw4": (".raw4", _export_raw4),
    "obj3": (".obj", _export_obj3),
    "vtk": (".vtk", _export_vtk),
    "gauss_csv": (".gauss.csv", None),
}
_MESH_FORMATS = tuple(fmt for fmt, (_, write) in _EXPORTS.items() if write)


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------


_TRAJ_HEADER = "t,min_G,max_A2,max_speed,area,epsilon_star,flags"


# the rows of a flow's and of a curve-shortening run's trajectory, under one header
_FLOW_ROW = ",".join([_FLOAT] * 6) + ",simons=%.6f|huisken2d=%.6f|okumura=%.6f"
_CURVE_ROW = _FLOAT + ",0,nan,nan," + _FLOAT + ",inf,n/a"


def _write_trajectory(path, fmt, rows):
    with open(path, "w") as fh:
        fh.write(_TRAJ_HEADER + "\n")
        write_rows(fh, fmt, rows)


def _write_fields(path, **values):
    """One ``key: value`` line per keyword, in order; floats to 17 digits."""
    with open(path, "w") as fh:
        for key, value in values.items():
            fh.write(f"{key}: {_FLOAT % value if isinstance(value, float) else value}\n")


# the exit status of a flow or curve run by its stop reason
_EXIT_STATUS = {
    StopReason.CONVERGED: 0, StopReason.EXTINCT: 0, StopReason.TIME_EXHAUSTED: 0,
    StopReason.CONDITION_BREACHED: 2, StopReason.MESH_DEGENERATE: 3,
    StopReason.NUMERICAL_FAILURE: 4,
}


def _exit_status(sc: Scenario, result):
    """The exit status of a flow or curve run; prints its ``detail`` to stderr."""
    if result.detail is not None:
        print(f"{sc.name}: {result.reason.value}: {result.detail}", file=sys.stderr)
    return _EXIT_STATUS[result.reason]


def _run_flow_scenario(sc: Scenario, outdir):
    mesh0 = build_surface(sc.surface, sc.perturbation, sc.seed)
    config = FlowConfig(**{
        **{key: getattr(sc, key) for key in _FLOW_KEYS},
        "speed": make_speed(sc.speed),
        "snapshot_every": sc.snapshot_every if sc.exports else 0,
    })
    result = run_flow(mesh0, config)
    _write_trajectory(os.path.join(outdir, "trajectory.csv"), _FLOW_ROW, [
        (t, rep.min_G, rep.max_normA2, rep.max_abs_speed, rep.area, rep.epsilon_star,
         rep.frac_simons, rep.frac_huisken2d, rep.frac_okumura)
        for t, rep in zip(result.times, result.reports)])
    for i, st in enumerate(result.snapshots):
        stem = os.path.join(outdir, f"snapshot_{i:05d}")
        for fmt in sc.exports:
            path = stem + _EXPORTS[fmt][0]
            if fmt in _MESH_FORMATS:
                export_mesh(st.mesh, fmt, path, curvature=st.curvature,
                            comment=f"t={_FLOAT % st.t}")
            else:
                export_gauss_csv(st.mesh, path)
    final = result.reports[-1]
    _write_fields(os.path.join(outdir, "summary"), scenario=sc.name,
                  stop_reason=result.reason.value, t_final=result.final.t,
                  steps=result.final.step_index, min_G=final.min_G, max_A2=final.max_normA2,
                  max_speed=final.max_abs_speed, area=final.area, epsilon_star=final.epsilon_star)
    return _exit_status(sc, result)


def _run_csf_scenario(sc: Scenario, outdir):
    curve = build_curve(sc.curve)
    res = curvemod.run_csf(curve, sc.t_end, sigma=sc.sigma, cadence=sc.cadence)
    _write_trajectory(os.path.join(outdir, "trajectory.csv"), _CURVE_ROW,
                      np.stack([res.times, res.lengths], axis=1))
    k_final, _ = curvemod.geodesic_curvature(res.final)
    _write_fields(os.path.join(outdir, "summary"), scenario=sc.name, stop_reason=res.reason.value,
                  t_final=res.times[-1], length_final=res.lengths[-1],
                  max_kappa_g=float(np.max(np.abs(k_final))))
    for i, cur in enumerate(res.curves):
        curvemod.save_curve_csv(cur, os.path.join(outdir, f"curve_{i:05d}.csv"))
    return _exit_status(sc, res)


def _run_weiner_scenario(sc: Scenario, outdir):
    parts = [p.strip() for p in sc.curves.split(";")]
    if len(parts) != 2:
        raise ConfigError("weiner scenario needs two curve specs separated by ';'")
    g1 = build_curve(parts[0])
    g2 = build_curve(parts[1])
    rep = curvemod.weiner_check(g1, g2)
    verdict = "pass" if rep.verdict else "fail"
    total_1, total_2 = rep.total_curvature
    _write_fields(os.path.join(outdir, "weiner_report.txt"),
                  total_curvature_1=total_1, total_curvature_2=total_2,
                  sup_1=rep.sup1, sup_2=rep.sup2, sup_pair=rep.sup_pair, verdict=verdict)
    _write_fields(os.path.join(outdir, "summary"), scenario=sc.name,
                  stop_reason="WeinerCheck", verdict=verdict)
    return 0


_RUNNERS = {"flow": _run_flow_scenario, "csf": _run_csf_scenario, "weiner": _run_weiner_scenario}


def run_scenario(config_path, scenario_name, output_dir=None):
    """Execute one scenario; returns the process exit status."""
    scenarios = parse_config(config_path)
    if scenario_name not in scenarios:
        raise ConfigError(
            f"{config_path}: no scenario named {scenario_name!r} "
            f"(available: {', '.join(sorted(scenarios)) or 'none'})"
        )
    sc = scenarios[scenario_name]
    root = output_dir or os.environ.get(OUTPUT_ROOT_ENV, ".")
    outdir = os.path.join(root, sc.name)
    os.makedirs(outdir, exist_ok=True)
    try:
        return _RUNNERS[sc.kind](sc, outdir)
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
    ``malloc_trim`` is glibc's, resolved once: each ``ctypes.CDLL`` and its
    own function-pointer class form a reference cycle.  Elsewhere this does
    nothing.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes = [ctypes.c_size_t]
    _MALLOC_TRIM.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):  # not glibc
    _MALLOC_TRIM = None


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

    p_list = sub.add_parser("list", help="list scenarios in a config file")
    p_list.add_argument("config")

    p_exp = sub.add_parser("export", help="convert a raw4 snapshot")
    p_exp.add_argument("snapshot")
    p_exp.add_argument("path")
    p_exp.add_argument("--format", choices=_MESH_FORMATS, required=True)

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            return run_scenario(args.config, args.scenario, output_dir=args.output_dir)
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
