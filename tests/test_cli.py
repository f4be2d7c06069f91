import os

import numpy as np
import pytest

from s3flow import flow
from s3flow.cli import (
    ConfigError,
    build_curve,
    build_surface,
    export_mesh,
    import_raw4,
    list_scenarios,
    main,
    parse_config,
    run_scenario,
    stereographic,
)
from s3flow.mesh import estimate_curvature, make_clifford_torus, make_geodesic_sphere

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


def test_malformed_config_diagnostic(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[s]\nkey without value\n")
    with pytest.raises(ConfigError, match="line"):
        parse_config(str(p))
    assert main(["list", str(p)]) == 1


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[s]\nkind = flow\nsurface = clifford nu=8 nv=8\nwhatever = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(str(p))


def test_perturbation_requires_seed(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text(
        "[s]\nkind = flow\nsurface = geodesic_sphere r=1.0 level=2\n"
        "speed = arctan\nperturbation = 0.02\n"
    )
    with pytest.raises(ConfigError, match="seed"):
        parse_config(str(p))


def test_missing_scenario_reported():
    with pytest.raises(ConfigError, match="no scenario"):
        run_scenario(BUNDLED, "does-not-exist")
    assert main(["run", BUNDLED, "does-not-exist"]) == 1


def test_build_surface_and_curve_specs():
    m = build_surface("clifford nu=8 nv=8")
    assert m.n_vertices == 64
    c = build_curve("latitude_circle theta=0.9 n=32")
    assert len(c) == 32
    with pytest.raises(ConfigError):
        build_surface("unknown_generator a=1")
    with pytest.raises(ConfigError):
        build_surface("clifford nu=8 nv=8 junk=1")


# -- exporters --------------------------------------------------------------


def test_raw4_round_trip_exact(tmp_path):
    m = make_geodesic_sphere(0.9, 2)
    path = tmp_path / "m.raw4"
    export_mesh(m, "raw4", str(path))
    back = import_raw4(str(path))
    assert np.array_equal(back.vertices, m.vertices)  # 17 digits round-trip floats
    assert np.array_equal(back.normals, m.normals)
    assert np.array_equal(back.triangles, m.triangles)


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


def test_stereographic_projection_formula():
    pole = np.array([-1.0, 0.0, 0.0, 0.0])
    q = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    pts = stereographic(q, pole)
    np.testing.assert_allclose(pts[0], [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(pts[1], [0.0, 0.0, 0.0], atol=1e-15)


# -- scenario runs -----------------------------------------------------------


def test_great_sphere_scenario_runs(tmp_path):
    code = run_scenario(BUNDLED, "great-sphere-arctan", output_dir=str(tmp_path))
    assert code == 0
    out = tmp_path / "great-sphere-arctan"
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,min_G,max_A2,max_speed,area,epsilon_star,flags"
    first = traj[1].split(",")
    assert float(first[3]) < 1e-6  # stationary from row 0
    summary = (out / "summary").read_text()
    assert "stop_reason: Converged" in summary


def test_weiner_scenario_runs(tmp_path):
    code = run_scenario(BUNDLED, "weiner-check-demo", output_dir=str(tmp_path))
    assert code == 0
    rep = (tmp_path / "weiner-check-demo" / "weiner_report.txt").read_text()
    assert "verdict: fail" in rep  # a latitude circle is not a Gauss image


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
        "t_end = 0.003\ncadence = 1\nsnapshot_every = 5\nexports = raw4, vtk\n"
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
    assert (out1 / "tiny-flow" / "snapshot_00000.vtk").exists()


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


def test_mesh_degenerate_exits_3(tmp_path, monkeypatch):
    def collapse(mesh):
        raise flow.MeshDegenerateError("edge collapsed")

    monkeypatch.setattr(flow, "_check_degeneracy", collapse)
    p = tmp_path / "cfg.cfg"
    p.write_text(
        "[sphere]\nkind = flow\nsurface = geodesic_sphere r=1.0 level=2\n"
        "speed = mcf\nt_end = 0.01\n"
    )
    assert main(["run", str(p), "sphere", "--output-dir", str(tmp_path)]) == 3
    summary = (tmp_path / "sphere" / "summary").read_text()
    assert "stop_reason: MeshDegenerate" in summary
    assert "steps: 0\n" in summary


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


def test_sphere_mcf_scenario_extinction(tmp_path):
    code = run_scenario(BUNDLED, "sphere-mcf-shrink", output_dir=str(tmp_path))
    assert code == 0
    summary = (tmp_path / "sphere-mcf-shrink" / "summary").read_text()
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
def test_remaining_bundled_scenarios_complete_quickly(tmp_path, scenario):
    # every bundled scenario finishes healthy in under a minute
    import time

    t0 = time.perf_counter()
    code = run_scenario(BUNDLED, scenario, output_dir=str(tmp_path))
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 60.0, (scenario, elapsed)
    assert (tmp_path / scenario / "summary").exists()
    assert (tmp_path / scenario / "trajectory.csv").exists()
