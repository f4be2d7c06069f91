import gc
import os
import re
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from s3flow import cli, flow, s2curves
from s3flow import mesh as mesh_module
from s3flow.cli import (
    ConfigError,
    build_curve,
    build_surface,
    export_gauss_csv,
    export_mesh,
    import_raw4,
    list_scenarios,
    main,
    parse_config,
    run_scenario,
    stereographic,
)
from s3flow.flow import FlowConfig
from s3flow.mesh import estimate_curvature, make_clifford_torus, make_geodesic_sphere
from s3flow.s2curves import make_latitude_circle, save_curve_csv

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUNDLED = os.path.join(REPO_ROOT, "examples.cfg")


# -- config parsing --------------------------------------------------------


def test_bundled_config_lists_required_scenarios():
    names = [n for n, _ in list_scenarios(BUNDLED)]
    assert len(names) >= 8
    for required in (
        "great-sphere-arctan", "sphere-mcf-shrink", "clifford-stationary",
        "hopf-flat-preservation", "hopf-gaussmap-vs-csf",
        "perturbed-sphere-theorem1", "latitude-csf", "weiner-check-demo",
    ):
        assert required in names


def test_empty_config_lists_nothing(tmp_path):
    p = tmp_path / "empty.cfg"
    p.write_text("")
    assert list_scenarios(str(p)) == []
    assert main(["list", str(p)]) == 0


def test_malformed_config_diagnostic(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("[s]\nkey without value\n")
    with pytest.raises(ConfigError, match="line"):
        parse_config(str(p))
    assert main(["list", str(p)]) == 1
    capsys.readouterr()
    # a value out of range stops a curve run before it starts, as it stops
    # a flow run, with the same message
    for kind in ("kind = flow\nsurface = geodesic_sphere r=1.0 level=1",
                 "kind = csf\ncurve = latitude_circle theta=1.0 n=32"):
        for line, message in (("sigma = 0", "sigma must lie in (0, 1]"),
                              ("sigma = 1.5", "sigma must lie in (0, 1]"),
                              ("cadence = 0", "cadence must be at least 1"),
                              ("cadence = -5", "cadence must be at least 1"),
                              ("t_end = nan", "t_end must be positive")):
            p.write_text(f"[s]\n{kind}\n{line}\n")
            assert main(["run", str(p), "s", "--output-dir", str(tmp_path)]) == 1, line
            assert capsys.readouterr().err == f"error: {message}\n"
    # each check of a flow setting fails on a NaN
    for line, message in (("g_floor = nan", "g_floor must be positive"),
                          ("speed_tol = nan", "speed_tol must be positive"),
                          ("width_tol = nan", "width_tol must be positive"),
                          ("smoothing = nan", "smoothing must be at least 0"),
                          ("smoothing = -0.1", "smoothing must be at least 0"),
                          ("fit_order = 3", "fit_order must be 2 or 4"),
                          ("perturbation = nan", f"{p}: [s] perturbation must be at least 0")):
        p.write_text(f"[s]\nkind = flow\nsurface = geodesic_sphere r=1.0 level=1\n{line}\n")
        assert main(["run", str(p), "s", "--output-dir", str(tmp_path)]) == 1, line
        assert capsys.readouterr().err == f"error: {message}\n"


def test_module_entry_point_runs_without_warnings():
    # the package does not import cli, so running it as __main__ finds no
    # copy of it imported already
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "s3flow.cli", "list", BUNDLED],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "latitude-csf" in proc.stdout


def test_unknown_key_rejected(tmp_path, capsys):
    # neither dt (a fixed step) nor resample (a curve run without
    # resampling) is a key: every step is the CFL bound, every curve step
    # resamples; the step's cap and a curve run's extinction length are
    # the constants flow.DT_MAX and s2curves.CSF_LENGTH_TOL
    p = tmp_path / "bad.cfg"
    for line in ("whatever = 3", "dt = 1e-3", "resample = no", "dt_max = 2e-3",
                 "length_tol = 0.1"):
        p.write_text(f"[s]\nkind = flow\nsurface = clifford nu=8 nv=8\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"unknown key '{key}'$"):
            parse_config(str(p))
        assert main(["run", str(p), "s", "--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {p}: [s] unknown key '{key}'\n"
    # a key that another kind reads; kind may come after it
    circle = "latitude_circle theta=1.0 n=64"
    for section, key, kind in (
        ("kind = csf\ncurve = {c}\ng_floor = nan\nsmoothing = -3\nfit_order = 7\n"
         "speed = nonsense\n", "g_floor", "csf"),
        ("t_end = -1\nsurface = clifford nu=8 nv=8\ncurves = great_circle n=64 ; {c}\n"
         "kind = weiner\n", "t_end", "weiner"),
        ("kind = flow\nsurface = clifford nu=8 nv=8\ncurve = {c}\n"
         "curves = great_circle n=64 ; {c}\n", "curve", "flow"),
    ):
        p.write_text("[s]\n" + section.format(c=circle))
        message = f"[s] key '{key}' is not read by a {kind} scenario"
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            parse_config(str(p))
        assert main(["run", str(p), "s", "--output-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {p}: {message}\n"
    # a DEFAULT key reaches only the kinds that read it
    p.write_text(f"[DEFAULT]\nt_end = 0.2\ng_floor = 0.3\n[f]\nsurface = clifford nu=8 nv=8\n"
                 f"[c]\nkind = csf\ncurve = {circle}\n"
                 f"[w]\nkind = weiner\ncurves = great_circle n=64 ; {circle}\n")
    scenarios = parse_config(str(p))
    assert (scenarios["f"].g_floor, scenarios["c"].t_end) == (0.3, 0.2)


def test_perturbation_requires_seed(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text(
        "[s]\nkind = flow\nsurface = geodesic_sphere r=1.0 level=2\n"
        "speed = arctan\nperturbation = 0.02\n"
    )
    with pytest.raises(ConfigError, match="seed"):
        parse_config(str(p))


@pytest.mark.parametrize("expr", [
    "H.__class__.__name__", "__import__('os')", "(lambda: H)()", "H[0]",
])
def test_custom_speed_outside_the_grammar_rejected_at_load(expr, tmp_path):
    p = tmp_path / "cfg.cfg"
    p.write_text(
        "[sphere]\nkind = flow\nsurface = geodesic_sphere r=1.0 level=1\n"
        f"speed = custom_fH({expr})\n"
    )
    with pytest.raises(ConfigError, match=r"\[sphere\] bad speed .*is not allowed$"):
        parse_config(p)
    assert main(["list", str(p)]) == 1


def test_speed_decreasing_in_H_rejected_at_load(tmp_path, capsys):
    # affine_arctan(0, -1) runs the flow backward: a config error, not a run
    p = tmp_path / "cfg.cfg"
    p.write_text(
        "[sphere]\nkind = flow\nsurface = geodesic_sphere r=1.0 level=2\n"
        "speed = affine_arctan(0, -1)\nt_end = 0.5\nsigma = 0.5\n"
    )
    with pytest.raises(ConfigError, match=r"\[sphere\] bad speed .*C2 > 0, got \(0.0, -1.0\)$"):
        parse_config(p)
    assert main(["run", str(p), "sphere", "--output-dir", str(tmp_path)]) == 1
    assert "bad speed 'affine_arctan(0, -1)'" in capsys.readouterr().err


def test_missing_scenario_reported():
    with pytest.raises(ConfigError, match="no scenario"):
        run_scenario(BUNDLED, "does-not-exist")
    assert main(["run", BUNDLED, "does-not-exist"]) == 1


def test_build_surface_and_curve_specs(tmp_path, capsys):
    m = build_surface("clifford nu=8 nv=8")
    assert m.n_vertices == 64
    c = build_curve("latitude_circle theta=0.9 n=32")
    assert len(c) == 32
    with pytest.raises(ConfigError):
        build_surface("unknown_generator a=1")
    with pytest.raises(ConfigError):
        build_surface("clifford nu=8 nv=8 junk=1")
    with pytest.raises(ConfigError, match="^surface generator 'geodesic_sphere' needs r=$"):
        build_surface("geodesic_sphere level=2")
    with pytest.raises(ConfigError, match="^curve generator 'latitude_circle' needs theta=$"):
        build_curve("latitude_circle n=64")
    with pytest.raises(ConfigError, match=r"^unknown curve args \['bogus'\]$"):
        build_curve("latitude_circle theta=1.0 n=64 bogus=3")
    with pytest.raises(ConfigError, match="^surface spec repeats nu=$"):
        build_surface("clifford nu=8 nv=8 nu=16")
    p = tmp_path / "cfg.cfg"
    p.write_text("[s]\nkind = flow\nsurface = geodesic_sphere level=2\n")
    assert main(["run", str(p), "s", "--output-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: surface generator 'geodesic_sphere' needs r=\n"


class Reached(Exception):
    """Raised by a stand-in for a run, once it has recorded its arguments."""


# one value per key that a flow scenario hands to FlowConfig, none the default
FLOW_VALUES = {
    "t_end": 0.02, "sigma": 0.5, "speed_tol": 1e-7, "width_tol": 0.1,
    "g_floor": 0.01, "cadence": 3, "snapshot_every": 7, "smoothing": 0.2, "fit_order": 4,
}


def test_every_flow_key_reaches_flow_config(tmp_path, monkeypatch):
    shared = {f.name for f in fields(FlowConfig)} & {f.name for f in fields(cli.Scenario)}
    assert shared == set(FLOW_VALUES) | {"speed"}
    seen = []

    def record(mesh, config):
        seen.append(config)
        raise Reached

    monkeypatch.setattr(cli, "run_flow", record)
    sphere = "kind = flow\nsurface = geodesic_sphere r=1.0 level=1\n"
    all_keys = "".join(f"{key} = {value}\n" for key, value in FLOW_VALUES.items())
    p = tmp_path / "cfg.cfg"
    p.write_text(
        f"[every]\n{sphere}speed = mcf\n{all_keys}exports = raw4\n"
        f"[defaults]\n{sphere}"
        f"[no-exports]\n{sphere}snapshot_every = 7\n"
    )
    for name in ("every", "defaults", "no-exports"):
        with pytest.raises(Reached):
            run_scenario(str(p), name, output_dir=str(tmp_path))
    every, defaults, no_exports = seen
    assert every.speed.name == "mcf"
    assert {key: getattr(every, key) for key in FLOW_VALUES} == FLOW_VALUES
    assert defaults == FlowConfig(speed=defaults.speed, t_end=0.1)
    assert defaults.speed.name == "arctan"
    assert all(getattr(defaults, key) != value for key, value in FLOW_VALUES.items())
    assert no_exports.snapshot_every == 0  # snapshots are written only with exports


def test_every_csf_key_reaches_run_csf(tmp_path, monkeypatch):
    seen = []

    def record(curve, t_end, **kwargs):
        seen.append((curve.samples[0], len(curve), t_end, kwargs))
        raise Reached

    monkeypatch.setattr(s2curves, "run_csf", record)
    p = tmp_path / "cfg.cfg"
    p.write_text(
        "[every]\nkind = csf\ncurve = latitude_circle theta=1.0 n=64\nt_end = 0.02\n"
        "sigma = 0.5\ncadence = 3\n"
        "[defaults]\nkind = csf\ncurve = latitude_circle theta=1.0 n=64\n"
    )
    for name in ("every", "defaults"):
        with pytest.raises(Reached):
            run_scenario(str(p), name, output_dir=str(tmp_path))
    (start, n, t_end, kwargs), (_, _, default_t_end, default_kwargs) = seen
    assert np.arccos(start[2]) == pytest.approx(1.0) and n == 64
    assert t_end == 0.02
    assert kwargs == dict(sigma=0.5, cadence=3)
    assert default_t_end == 0.1
    assert default_kwargs == dict(sigma=0.25, cadence=1)


# -- exporters --------------------------------------------------------------


def test_raw4_round_trip_exact(tmp_path):
    m = make_geodesic_sphere(0.9, 2)
    path = tmp_path / "m.raw4"
    export_mesh(m, "raw4", str(path))
    back = import_raw4(str(path))
    assert np.array_equal(back.vertices, m.vertices)  # 17 digits round-trip floats
    assert np.array_equal(back.normals, m.normals)
    assert np.array_equal(back.triangles, m.triangles)


@pytest.mark.parametrize("bad, message", [
    ("v,1,abc,0,0", "could not convert string to float: 'abc'"),
    ("n, 0,1,x,0", "could not convert string to float: 'x'"),
    ("t,0,1.5,2", "invalid literal for int() with base 10: '1.5'"),
    ("  q,1,2", "unknown record 'q'"),
])
def test_raw4_malformed_line_named(tmp_path, bad, message):
    path = tmp_path / "m.raw4"
    export_mesh(make_geodesic_sphere(0.9, 1), "raw4", str(path))
    lines = path.read_text().splitlines()
    lines.insert(7, bad)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        import_raw4(str(path))
    assert str(err.value).endswith(message)


def test_raw4_export_bit_stable(tmp_path):
    m = make_clifford_torus(8, 8)
    p1, p2 = tmp_path / "a.raw4", tmp_path / "b.raw4"
    export_mesh(m, "raw4", str(p1))
    export_mesh(m, "raw4", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_obj3_export_parses(tmp_path):
    m = make_clifford_torus(8, 8)
    path = tmp_path / "m.obj"
    export_mesh(m, "obj3", str(path))
    verts, faces = [], []
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(t) for t in line.split()[1:]])
        elif line.startswith("f "):
            faces.append([int(t) for t in line.split()[1:]])
    assert len(verts) == m.n_vertices
    assert len(faces) == len(m.triangles)
    arr = np.array(faces)
    assert arr.min() == 1 and arr.max() == m.n_vertices  # 1-based indices
    assert path.read_text().splitlines()[1] == "# stereographic projection pole: -1 0 0 0"


def test_obj3_pole_reselection(tmp_path):
    # a mesh containing the default pole (-1, 0, 0, 0) forces another pole
    m = make_geodesic_sphere(np.pi / 2, 2, center=np.array([0.0, 1.0, 0.0, 0.0]))
    # great sphere about j contains -1? vertices satisfy <x, j> = 0; the
    # subdivision contains (-1,0,0,0) only if it was an icosphere vertex;
    # force the collision explicitly instead:
    verts = m.vertices.copy()
    verts[0] = np.array([-1.0, 0.0, 0.0, 0.0])
    from s3flow.mesh import SurfaceMesh

    forced = SurfaceMesh(verts, m.triangles, validate=False)
    path = tmp_path / "m.obj"
    export_mesh(forced, "obj3", str(path))
    header = path.read_text().splitlines()[1]
    assert "pole" in header
    assert header.split(":")[1].strip() != "-1 0 0 0"


def test_vtk_export_carries_curvature_fields(tmp_path):
    m = make_clifford_torus(12, 12)
    c = estimate_curvature(m)
    path = tmp_path / "m.vtk"
    export_mesh(m, "vtk", str(path), curvature=c)
    text = path.read_text()
    assert "DATASET POLYDATA" in text
    assert f"POINTS {m.n_vertices} float" in text
    for field in ("SCALARS G float 1", "SCALARS H float 1", "SCALARS A2 float 1"):
        assert field in text
    g_block = text.split("SCALARS G float 1\nLOOKUP_TABLE default\n")[1]
    g_vals = np.array([float(t) for t in g_block.split("\n")[: m.n_vertices]])
    assert abs(g_vals.min() - c.G.min()) < 1e-12


def test_writers_leave_no_reference_cycles(tmp_path):
    # with the collector off, every object the writers make is freed by
    # reference counting alone, the open file and its buffer included; so
    # is every object of the heap release that ends each scenario
    m = make_geodesic_sphere(1.0, 2)
    curve = make_latitude_circle(1.0, 32)
    gc.collect()
    gc.disable()
    try:
        for fmt in ("raw4", "obj3", "vtk"):
            export_mesh(m, fmt, tmp_path / f"m.{fmt}")
        export_gauss_csv(m, tmp_path / "m.gauss.csv")
        save_curve_csv(curve, tmp_path / "c.csv")
        cli._release_heap()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stereographic_projection_formula():
    pole = np.array([-1.0, 0.0, 0.0, 0.0])
    q = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    pts = stereographic(q, pole)
    np.testing.assert_allclose(pts[0], [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(pts[1], [0.0, 0.0, 0.0], atol=1e-15)


# -- scenario runs -----------------------------------------------------------


def test_great_sphere_scenario_runs(bundled_runs):
    root, runs = bundled_runs
    assert runs["great-sphere-arctan"][0] == 0
    out = root / "great-sphere-arctan"
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,min_G,max_A2,max_speed,area,epsilon_star,flags"
    first = traj[1].split(",")
    assert float(first[3]) < 1e-6  # stationary from row 0
    summary = (out / "summary").read_text()
    assert "stop_reason: Converged" in summary


def test_weiner_scenario_runs(bundled_runs):
    root, runs = bundled_runs
    assert runs["weiner-check-demo"][0] == 0
    rep = (root / "weiner-check-demo" / "weiner_report.txt").read_text()
    assert "verdict: fail" in rep  # a latitude circle is not a Gauss image


def test_heap_released_after_each_scenario(tmp_path, monkeypatch):
    released = []
    monkeypatch.setattr(cli, "_release_heap", lambda: released.append(True))
    assert run_scenario(BUNDLED, "weiner-check-demo", output_dir=str(tmp_path)) == 0
    assert released == [True]
    p = tmp_path / "cfg.cfg"
    p.write_text("[bad-weiner]\nkind = weiner\ncurves = great_circle n=16\n")
    with pytest.raises(ConfigError, match="two curve specs"):
        run_scenario(str(p), "bad-weiner", output_dir=str(tmp_path))
    assert released == [True, True]
    monkeypatch.undo()
    cli._release_heap()  # glibc's malloc_trim here; a no-op elsewhere


def test_csf_scenario_runs(tmp_path):
    p = tmp_path / "cfg.cfg"
    p.write_text(
        "[tiny-csf]\nkind = csf\ncurve = latitude_circle theta=1.0 n=64\n"
        "t_end = 0.01\ncadence = 10\n"
    )
    code = run_scenario(str(p), "tiny-csf", output_dir=str(tmp_path))
    assert code == 0
    traj = (tmp_path / "tiny-csf" / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,min_G,max_A2,max_speed,area,epsilon_star,flags"
    assert len(traj) > 2


def test_flow_scenario_exports_and_reproducibility(tmp_path):
    p = tmp_path / "cfg.cfg"
    p.write_text(
        "[tiny-flow]\ndescription = small deterministic run\nkind = flow\n"
        "surface = geodesic_sphere r=1.0471975511965976 level=2\nspeed = mcf\n"
        "t_end = 0.003\ncadence = 1\nsnapshot_every = 5\nexports = raw4, vtk, obj3, gauss_csv\n"
        "perturbation = 0.01\nseed = 4\n"
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_scenario(str(p), "tiny-flow", output_dir=str(out1)) == 0
    assert run_scenario(str(p), "tiny-flow", output_dir=str(out2)) == 0
    t1 = (out1 / "tiny-flow" / "trajectory.csv").read_bytes()
    t2 = (out2 / "tiny-flow" / "trajectory.csv").read_bytes()
    assert t1 == t2  # identical config + seed => identical bytes
    snaps = sorted((out1 / "tiny-flow").glob("snapshot_*.raw4"))
    assert snaps
    back = import_raw4(str(snaps[0]))
    assert back.n_vertices == 162
    first = sorted(f.name for f in (out1 / "tiny-flow").glob("snapshot_00000.*"))
    assert first == ["snapshot_00000.gauss.csv", "snapshot_00000.obj",
                     "snapshot_00000.raw4", "snapshot_00000.vtk"]


def test_exports_without_a_snapshot_cadence_rejected(tmp_path, capsys):
    # exports write only snapshots, so without a cadence of at least 1 they
    # would write nothing: a config error before the run starts
    p = tmp_path / "cfg.cfg"
    sphere = "kind = flow\nsurface = geodesic_sphere r=1.0 level=1\n"
    message = "[s] exports need snapshot_every of at least 1"
    for line in ("", "snapshot_every = 0\n", "snapshot_every = -3\n"):
        p.write_text(f"[s]\n{sphere}exports = raw4\n{line}")
        with pytest.raises(ConfigError, match=re.escape(message) + "$"):
            parse_config(str(p))
        assert main(["run", str(p), "s", "--output-dir", str(tmp_path / "out")]) == 1, line
        assert capsys.readouterr().err == f"error: {p}: {message}\n"
    assert not (tmp_path / "out").exists()
    # without exports snapshot_every is not read; a DEFAULT exports does not
    # reach a curve run, which has no snapshots
    p.write_text(f"[DEFAULT]\nexports = raw4\n[c]\nkind = csf\n"
                 f"curve = latitude_circle theta=1.0 n=32\n[s]\n{sphere}snapshot_every = 2\n"
                 f"[n]\n{sphere}exports =\nsnapshot_every = -3\n")
    assert set(parse_config(str(p))) == {"c", "s", "n"}


def test_condition_breached_exits_2(tmp_path):
    # the discrete Clifford torus has min_G just below zero, so a floor of
    # 1e-9 is breached at step 0
    p = tmp_path / "cfg.cfg"
    p.write_text(
        "[clifford]\nkind = flow\nsurface = clifford nu=32 nv=32\nspeed = arctan\n"
        "t_end = 0.01\ng_floor = 1e-9\n"
    )
    assert main(["run", str(p), "clifford", "--output-dir", str(tmp_path)]) == 2
    summary = (tmp_path / "clifford" / "summary").read_text()
    assert "stop_reason: ConditionBreached" in summary
    assert "steps: 0\n" in summary


def test_mesh_degenerate_exits_3(tmp_path, monkeypatch, capsys):
    def collapse(cosines, sides):
        raise flow.MeshDegenerateError("edge collapsed")

    monkeypatch.setattr(mesh_module, "_check_shape", collapse)
    p = tmp_path / "cfg.cfg"
    p.write_text(
        "[sphere]\nkind = flow\nsurface = geodesic_sphere r=1.0 level=2\n"
        "speed = mcf\nt_end = 0.01\n"
    )
    assert main(["run", str(p), "sphere", "--output-dir", str(tmp_path)]) == 3
    summary = (tmp_path / "sphere" / "summary").read_text()
    assert "stop_reason: MeshDegenerate" in summary
    assert "steps: 0\n" in summary
    assert capsys.readouterr().err == "sphere: MeshDegenerate: edge collapsed\n"


def test_numerical_failure_exits_4(tmp_path, capsys):
    p = tmp_path / "cfg.cfg"
    p.write_text(
        "[sphere]\nkind = flow\nsurface = geodesic_sphere r=1.0 level=2\n"
        "speed = custom_fH(log(H-10))\nt_end = 1.0\n"
    )
    with np.errstate(invalid="ignore"):
        assert main(["run", str(p), "sphere", "--output-dir", str(tmp_path)]) == 4
    summary = (tmp_path / "sphere" / "summary").read_text()
    assert "stop_reason: NumericalFailure" in summary
    assert "steps: 0\n" in summary
    assert capsys.readouterr().err == "sphere: NumericalFailure: non-finite speed at step 0\n"


def test_nan_curve_exits_4(tmp_path, nan_on_third_curve_step, capsys):
    p = tmp_path / "cfg.cfg"
    p.write_text("[curve]\nkind = csf\ncurve = latitude_circle theta=1.0 n=64\nt_end = 0.5\n")
    with np.errstate(invalid="ignore"):
        assert main(["run", str(p), "curve", "--output-dir", str(tmp_path)]) == 4
    summary = (tmp_path / "curve" / "summary").read_text()
    assert "stop_reason: NumericalFailure" in summary
    assert capsys.readouterr().err == (
        "curve: NumericalFailure: sample off S2 by nan at step 3\n")


def test_export_verb_round_trip(tmp_path):
    m = make_clifford_torus(8, 8)
    raw = tmp_path / "m.raw4"
    export_mesh(m, "raw4", str(raw))
    out = tmp_path / "m.obj"
    assert main(["export", str(raw), str(out), "--format", "obj3"]) == 0
    assert out.exists()


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("S3FLOW_OUTPUT_ROOT", str(tmp_path))
    code = run_scenario(BUNDLED, "weiner-check-demo")
    assert code == 0
    assert (tmp_path / "weiner-check-demo" / "summary").exists()


def test_hopf_from_csv_curve(tmp_path):
    from s3flow.s2curves import make_latitude_circle, save_curve_csv

    src = make_latitude_circle(1.0, 32)
    path = tmp_path / "base.csv"
    save_curve_csv(src, str(path))
    m = build_surface(f"hopf_csv path={path} n_fiber=16")
    assert m.n_vertices == 32 * 16
    c = build_curve(f"csv path={path}")
    assert len(c) == 32


def test_sphere_mcf_scenario_extinction(bundled_runs):
    root, runs = bundled_runs
    assert runs["sphere-mcf-shrink"][0] == 0
    summary = (root / "sphere-mcf-shrink" / "summary").read_text()
    assert "stop_reason: Extinct" in summary
    t_final = float(summary.split("t_final: ")[1].split("\n")[0])
    assert abs(t_final - 0.34657) / 0.34657 < 0.05


@pytest.mark.parametrize(
    "scenario",
    [
        "clifford-stationary",
        "hopf-flat-preservation",
        "hopf-gaussmap-vs-csf",
        "perturbed-sphere-theorem1",
        "latitude-csf",
    ],
)
def test_remaining_bundled_scenarios_complete_quickly(bundled_runs, scenario):
    # every bundled scenario finishes healthy in under a minute
    root, runs = bundled_runs
    code, elapsed = runs[scenario]
    assert code == 0
    assert elapsed < 60.0, (scenario, elapsed)
    assert (root / scenario / "summary").exists()
    assert (root / scenario / "trajectory.csv").exists()
