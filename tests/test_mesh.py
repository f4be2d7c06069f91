import itertools
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from s3flow import mesh as mesh_module
from s3flow.mesh import (
    MeshError,
    Stepper,
    SurfaceMesh,
    _Topology,
    _fit_blocks,
    _icosphere,
    estimate_curvature,
    fit_block_rows,
    make_clifford_torus,
    make_geodesic_sphere,
    make_hopf_torus,
    make_perturbed_sphere,
    mesh_quality,
    step_worker,
    validate_topology,
)
from s3flow.s2curves import S2Curve, make_great_circle, make_latitude_circle
from s3flow.s3core import geodesic_distance, hopf_project, log_map, normalize, quat_mul


def cot(r):
    return np.cos(r) / np.sin(r)


# -- generators ---------------------------------------------------------


@pytest.mark.parametrize("level", [2, 3])
def test_icosphere_counts(level):
    m = make_geodesic_sphere(1.0, level)
    assert m.n_vertices == 10 * 4 ** level + 2
    assert mesh_quality(m).euler_characteristic == 2


def test_sphere_radius_bounds():
    with pytest.raises(ValueError):
        make_geodesic_sphere(0.0, 2)
    with pytest.raises(ValueError):
        make_geodesic_sphere(np.pi, 2)


def test_sphere_level_must_be_non_negative():
    # range(-1) is empty, so without the check level -1 builds level 0
    with pytest.raises(ValueError, match="level must be >= 0"):
        make_geodesic_sphere(1.0, -1)
    with pytest.raises(ValueError, match="level must be >= 0"):
        make_perturbed_sphere(1.0, -1, 0.05, seed=0)


def test_geodesic_sphere_invariants():
    center = np.array([0.3, -0.5, 0.7, 0.2])
    m = make_geodesic_sphere(0.9, 3, center=center / np.linalg.norm(center))
    m.validate()
    c = center / np.linalg.norm(center)
    r = np.arccos(np.clip(m.vertices @ c, -1, 1))
    np.testing.assert_allclose(r, 0.9, atol=1e-12)


@pytest.mark.parametrize("r", [0.3, 0.9, np.pi / 2, 2.5])
def test_sphere_about_c_is_c_times_the_sphere_about_1(r):
    # about 1 the direction u of the icosphere goes to cos r + u sin r; about
    # c every vertex and normal is c times that sphere's, on the same triangles
    rng = np.random.default_rng(int(100 * r))
    one = make_geodesic_sphere(r, 3)
    dirs, _ = _icosphere(3)
    np.testing.assert_allclose(one.vertices[:, 0], np.cos(r), rtol=0, atol=1e-15)
    np.testing.assert_allclose(one.vertices[:, 1:], np.sin(r) * dirs, rtol=0, atol=1e-15)
    for _ in range(3):
        c = normalize(rng.standard_normal(4))
        m = make_geodesic_sphere(r, 3, center=c)
        assert np.array_equal(m.triangles, one.triangles)
        np.testing.assert_allclose(m.vertices, quat_mul(c, one.vertices), rtol=0, atol=1e-14)
        np.testing.assert_allclose(m.normals, quat_mul(c, one.normals), rtol=0, atol=1e-14)


def test_great_sphere_is_flat_to_machine_precision():
    m = make_geodesic_sphere(np.pi / 2, 4)
    c = estimate_curvature(m)
    assert np.max(c.normA2) <= 1e-2  # far below: totally geodesic case is exact
    assert np.max(c.normA2) <= 1e-20


@pytest.mark.parametrize("r", [np.pi / 4, np.pi / 3])
def test_sphere_curvature_closed_form(r):
    m = make_geodesic_sphere(r, 4)
    c = estimate_curvature(m)
    np.testing.assert_allclose(c.kappa1, cot(r), atol=5e-2)
    np.testing.assert_allclose(c.kappa2, cot(r), atol=5e-2)
    assert c.n_flagged == 0


def test_sphere_estimator_convergence():
    # max error must shrink by at least 1.5x per subdivision level
    errs = []
    for level in (3, 4, 5):
        m = make_geodesic_sphere(np.pi / 3, level)
        c = estimate_curvature(m)
        errs.append(
            max(np.abs(c.kappa1 - cot(np.pi / 3)).max(),
                np.abs(c.kappa2 - cot(np.pi / 3)).max())
        )
    assert errs[1] < errs[0] / 1.5
    assert errs[2] < errs[1] / 1.5


def test_clifford_torus_curvature():
    m = make_clifford_torus(64, 64)
    assert mesh_quality(m).euler_characteristic == 0
    c = estimate_curvature(m)
    np.testing.assert_allclose(c.kappa1, 1.0, atol=2e-2)
    np.testing.assert_allclose(c.kappa2, -1.0, atol=2e-2)
    assert np.max(np.abs(c.H)) < 1e-10
    np.testing.assert_allclose(c.normA2, 2.0, atol=5e-2)
    np.testing.assert_allclose(c.G, 0.0, atol=2e-2)


def test_clifford_resolution_minimum():
    with pytest.raises(ValueError):
        make_clifford_torus(7, 64)


def test_hopf_torus_over_equator_matches_clifford():
    m = make_hopf_torus(make_great_circle(n=96), 64)
    c = estimate_curvature(m)
    np.testing.assert_allclose(c.normA2, 2.0, atol=5e-2)
    np.testing.assert_allclose(c.G, 0.0, atol=2e-2)
    assert mesh_quality(m).euler_characteristic == 0


def test_hopf_torus_latitude_flat():
    m = make_hopf_torus(make_latitude_circle(1.0, 96), 64)
    c = estimate_curvature(m)
    np.testing.assert_allclose(c.G, 0.0, atol=3e-2)
    assert mesh_quality(m).euler_characteristic == 0
    # flatness bound max|G| <= C h with C pinned for this fixture
    h = mesh_quality(m).max_edge
    assert np.max(np.abs(c.G)) <= 0.05 * h


def test_hopf_torus_fiber_minimum():
    with pytest.raises(ValueError):
        make_hopf_torus(make_latitude_circle(1.0, 96), 7)


def _latitude_with_a_small_gap():
    # 33 samples of the circle at colatitude 1 and one more, 3e-8 rad along
    # it after sample 5: an arccos of the rounded dot product there loses
    # half its digits
    theta = 1.0
    phi = 2.0 * np.pi * np.arange(33) / 33
    phi = np.insert(phi, 6, phi[5] + 3e-8 / np.sin(theta))
    return S2Curve(np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                             np.full(34, np.cos(theta))], axis=-1))


@pytest.mark.parametrize("make_curve", [
    _latitude_with_a_small_gap,
    # first sample -i: the first turn of the lift is the turn by pi about j
    lambda: S2Curve(-make_great_circle(n=96).samples),
], ids=["small-gap", "antipodal-start"])
def test_hopf_torus_lies_on_the_fibres_of_its_curve(make_curve):
    curve = make_curve()
    m = make_hopf_torus(curve, 16)
    p = hopf_project(m.vertices).reshape(len(curve), 16, 3)
    assert np.max(np.abs(p - curve.samples[:, None, :])) <= 1e-14


def test_hopf_torus_normals_are_x_times_the_curve_tangent():
    # over a latitude circle the unit tangent at longitude phi is
    # (-sin phi, cos phi, 0), and the normal at x over it is x times that
    curve = make_latitude_circle(0.9, 48)
    m = make_hopf_torus(curve, 32)
    phi = 2.0 * np.pi * np.arange(48) / 48
    t = np.stack([np.zeros(48), -np.sin(phi), np.cos(phi), np.zeros(48)], axis=-1)
    x = m.vertices.reshape(48, 32, 4)
    np.testing.assert_allclose(m.normals, quat_mul(x, t[:, None, :]).reshape(-1, 4),
                               rtol=0, atol=1e-14)


def test_orientation_covariance():
    # flipping normals negates and swaps the principal curvatures
    m = make_hopf_torus(make_latitude_circle(0.9, 48), 32)
    c = estimate_curvature(m)
    flipped = SurfaceMesh(
        m.vertices, m.triangles[:, [0, 2, 1]], normals=-m.normals
    )
    cf = estimate_curvature(flipped)
    np.testing.assert_allclose(cf.kappa1, -c.kappa2, atol=1e-10)
    np.testing.assert_allclose(cf.kappa2, -c.kappa1, atol=1e-10)
    np.testing.assert_allclose(cf.H, -c.H, atol=1e-10)
    np.testing.assert_allclose(cf.G, c.G, atol=1e-10)
    np.testing.assert_allclose(cf.normA2, c.normA2, atol=1e-10)


def test_gauss_equation_identity():
    # G = 1 + H^2/2 - |A|^2/2 per vertex, an algebraic identity of the data
    m = make_perturbed_sphere(np.pi / 3, 3, 0.02, seed=5)
    c = estimate_curvature(m)
    np.testing.assert_allclose(c.G, 1.0 + 0.5 * c.H ** 2 - 0.5 * c.normA2, atol=1e-10)


def test_perturbed_sphere_positive_curvature():
    m = make_perturbed_sphere(np.pi / 3, 3, 0.02, seed=7)
    c = estimate_curvature(m)
    assert float(c.G.min()) > 0.5


# -- quality and topology diagnostics ------------------------------------


def test_mesh_quality_report_fields():
    q = mesh_quality(make_geodesic_sphere(np.pi / 3, 3))
    assert q.n_vertices == 642
    assert q.euler_characteristic == 2
    assert 0 < q.min_edge <= q.max_edge < 0.2
    assert q.min_angle_deg > 30


def test_boundary_edge_rejected():
    verts = make_geodesic_sphere(np.pi / 2, 1).vertices
    tris = make_geodesic_sphere(np.pi / 2, 1).triangles[:-1]  # drop one face
    with pytest.raises(MeshError, match="boundary edge"):
        validate_topology(tris, len(verts))


def test_inconsistent_winding_rejected():
    base = make_geodesic_sphere(np.pi / 2, 1)
    tris = base.triangles.copy()
    tris[0] = tris[0][[0, 2, 1]]  # flip one face
    with pytest.raises(MeshError, match="winding"):
        validate_topology(tris, base.n_vertices)


def test_vertex_off_sphere_rejected():
    base = make_geodesic_sphere(np.pi / 2, 1)
    bad = base.vertices.copy()
    bad[0] *= 1.001
    with pytest.raises(MeshError, match="off S3"):
        SurfaceMesh(bad, base.triangles, normals=base.normals)


@pytest.mark.parametrize("field, message", [("vertices", "off S3"), ("normals", "not unit")])
def test_nan_vertex_or_normal_rejected(field, message):
    base = make_geodesic_sphere(1.0, 2)
    data = {"vertices": base.vertices.copy(), "normals": base.normals.copy()}
    data[field][5] = np.nan
    with pytest.raises(MeshError, match=message):
        SurfaceMesh(data["vertices"], base.triangles, normals=data["normals"])


def test_repeated_vertex_rejected():
    # each directed edge of (0, 0, 1) has its reverse, so only an explicit
    # check catches it
    with pytest.raises(MeshError, match="repeats a vertex"):
        validate_topology([[0, 0, 1]], 2)
    base = make_geodesic_sphere(np.pi / 2, 1)
    tris = base.triangles.copy()
    tris[0, 2] = tris[0, 0]
    with pytest.raises(MeshError, match=r"triangle 0 \[0, 12, 0\] repeats a vertex"):
        validate_topology(tris, base.n_vertices)


def test_topology_errors_name_the_smallest_edge():
    base = make_geodesic_sphere(np.pi / 2, 1)
    with pytest.raises(MeshError, match=r"boundary edge \(23, 30\)"):
        validate_topology(base.triangles[:-1], base.n_vertices)
    tris = base.triangles.copy()
    tris[0] = tris[0][[0, 2, 1]]
    with pytest.raises(MeshError, match=r"directed edge \(0, 14\) appears"):
        validate_topology(tris, base.n_vertices)


def _loop_icosphere(level):
    """Subdivision with a dict of edge midpoints, triangle by triangle: the
    reference for the vectorised _icosphere."""
    verts, tris = _icosphere(0)
    for _ in range(level):
        vlist = list(verts)
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = vlist[i] + vlist[j]
                cache[key] = len(vlist)
                vlist.append(m / np.linalg.norm(m))
            return cache[key]

        new_tris = []
        for i, j, k in tris:
            a, b, c = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            new_tris += [[i, a, c], [j, b, a], [k, c, b], [a, b, c]]
        verts = np.array(vlist)
        tris = np.array(new_tris, dtype=np.int64)
    return normalize(verts), tris


@pytest.mark.parametrize("level", range(5))
def test_icosphere_matches_loop_build(level):
    verts, tris = _icosphere(level)
    want_verts, want_tris = _loop_icosphere(level)
    np.testing.assert_array_equal(tris, want_tris)
    np.testing.assert_allclose(verts, want_verts, rtol=0, atol=1e-15)


def _loop_topology(tris, n):
    """The connectivity tables built vertex by vertex with Python sets:
    the reference for the vectorised build in _Topology."""
    e = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    one = [set() for _ in range(n)]
    for a, b in e:
        one[a].add(b)
    two = []
    for v in range(n):
        s = set(one[v])
        for u in one[v]:
            s |= one[u]
        two.append(s - {v})
    faces = [[] for _ in range(n)]
    for t, corners in enumerate(tris):
        for v in corners:
            faces[v].append(t)

    def table(rows, pad):
        out = np.full((n, max(len(r) for r in rows)), pad, dtype=np.int64)
        for v, r in enumerate(rows):
            out[v, :len(r)] = sorted(r)
        return out

    return {
        "one_ring_padded": table(one, n), "one_ring_counts": [len(r) for r in one],
        "two_ring_padded": table(two, n), "ring_counts": [len(r) for r in two],
        "vertex_faces": table(faces, len(tris)),
        "edges": np.unique(np.sort(e, axis=1), axis=0),
    }


@pytest.mark.parametrize("build", [
    lambda: make_geodesic_sphere(1.0, 0).topology,
    lambda: make_geodesic_sphere(1.0, 2).topology,
    lambda: make_clifford_torus(16, 16).topology,
    lambda: make_hopf_torus(make_latitude_circle(1.0, 24), 16).topology,
    # every fan has degree 3, the smallest a closed mesh has
    lambda: _Topology([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]], 4),
], ids=["sphere-l0", "sphere-l2", "clifford-16", "hopf", "tetrahedron"])
def test_topology_tables_match_loop_build(build):
    topo = build()
    n = topo.n_vertices
    for name, want in _loop_topology(topo.triangles, n).items():
        np.testing.assert_array_equal(getattr(topo, name), want, err_msg=name)
    for ring, counts in ((topo.one_ring_padded, topo.one_ring_counts),
                         (topo.two_ring_padded, topo.ring_counts)):
        filled = np.arange(ring.shape[1]) < counts[:, None]
        assert np.all(ring[~filled] == n)
        assert np.all(np.diff(ring, axis=1)[filled[:, 1:]] > 0)
        assert not np.any(ring == np.arange(n)[:, None])


def test_area_of_great_sphere():
    m = make_geodesic_sphere(np.pi / 2, 4)
    np.testing.assert_allclose(m.area(), 4 * np.pi, rtol=2e-3)


def _vertex_lhuilier_area(m):
    """Sum of l'Huilier triangle areas with the sides measured from the
    vertices: a, b, c opposite corners 0, 1, 2."""
    tri, x = m.triangles, m.vertices
    a = geodesic_distance(x[tri[:, 1]], x[tri[:, 2]])
    b = geodesic_distance(x[tri[:, 0]], x[tri[:, 2]])
    c = geodesic_distance(x[tri[:, 0]], x[tri[:, 1]])
    s = 0.5 * (a + b + c)
    t = np.tan(0.5 * s) * np.tan(0.5 * (s - a)) * np.tan(0.5 * (s - b)) * np.tan(0.5 * (s - c))
    return float(np.sum(4.0 * np.arctan(np.sqrt(np.maximum(t, 0.0)))))


def _stepped_sphere():
    """A perturbed level-3 sphere after one smoothed step, whose side
    lengths are the ones the step cached."""
    m = make_perturbed_sphere(np.pi / 3, 3, 0.05, seed=2)
    offsets = 1e-3 * np.sin(np.arange(m.n_vertices))
    return Stepper(m, 2, 0.3).step(m, offsets)


AREA_MESHES = {
    "sphere-l3": lambda: make_geodesic_sphere(1.0, 3),
    "perturbed-l3": lambda: make_perturbed_sphere(np.pi / 3, 3, 0.05, seed=0),
    "hopf-96x64": lambda: make_hopf_torus(make_latitude_circle(1.0, 96), 64),
    "clifford-32": lambda: make_clifford_torus(32, 32),
    "perturbed-l3-stepped": _stepped_sphere,
}


@pytest.mark.parametrize("name", AREA_MESHES)
def test_area_from_edge_lengths_matches_vertex_sum(name):
    m = AREA_MESHES[name]()
    assert m.area() == _vertex_lhuilier_area(m)


def _gram_diameter(m):
    """The diameter proxy as the largest arccos over the whole Gram matrix of
    the sampled vertices."""
    n = m.n_vertices
    idx = np.linspace(0, n - 1, min(mesh_module.DIAMETER_SAMPLES, n)).astype(np.int64)
    pts = m.vertices[idx]
    return float(np.max(np.arccos(np.clip(pts @ pts.T, -1.0, 1.0))))


# below DIAMETER_SAMPLES vertices, and a sphere with antipodal vertices
DIAMETER_MESHES = {**AREA_MESHES, "sphere-l0": lambda: make_geodesic_sphere(0.2, 0),
                   "great-sphere-l2": lambda: make_geodesic_sphere(np.pi / 2, 2)}


@pytest.mark.parametrize("name", DIAMETER_MESHES)
def test_diameter_proxy_takes_the_arccos_of_the_smallest_dot(name):
    m = DIAMETER_MESHES[name]()
    assert m.diameter_proxy() == _gram_diameter(m)


@pytest.mark.parametrize("name", AREA_MESHES)
def test_side_lengths_are_the_sides_opposite_each_corner(name):
    m = AREA_MESHES[name]()
    tri, x = m.triangles, m.vertices
    sides = m.side_lengths()
    assert sides.shape == (len(tri), 3)
    for k in range(3):
        other = geodesic_distance(x[tri[:, (k + 1) % 3]], x[tri[:, (k + 2) % 3]])
        assert np.array_equal(sides[:, k], other), k


def test_flagged_vertices_inherit_neighbors(monkeypatch):
    # an extremely tight condition limit flags everything except nothing to
    # inherit from; with a sane limit nothing is flagged on clean meshes
    m = make_geodesic_sphere(np.pi / 3, 3)
    with monkeypatch.context() as patch:
        patch.setattr(mesh_module, "COND_LIMIT", 1.0)
        c = estimate_curvature(m)
    assert c.n_flagged == m.n_vertices
    c2 = estimate_curvature(m)
    assert c2.n_flagged == 0


# -- the batched fit against a per-vertex reference --------------------------


def _lstsq_principal_curvatures(m, order):
    """kappa1 >= kappa2 at every vertex from np.linalg.lstsq on the same
    design as estimate_curvature: log-map coordinates of the two-ring in an
    orthonormal frame of the tangent plane, scaled by their RMS radius;
    columns u, v, u^2/2, uv, v^2/2 and, for order 4 with at least 15
    neighbours, the cubic and quartic monomials."""
    out = np.empty((m.n_vertices, 2))
    for i in range(m.n_vertices):
        x, nu = m.vertices[i], m.normals[i]
        ring = m.topology.two_ring_padded[i, :m.topology.ring_counts[i]]
        logs = log_map(x, m.vertices[ring])
        e1, e2 = np.linalg.svd(np.stack([x, nu]))[2][2:]
        u, v, w = logs @ e1, logs @ e2, logs @ nu
        s = np.sqrt(np.mean(u * u + v * v))
        u, v, w = u / s, v / s, w / s
        cols = [u, v, 0.5 * u * u, u * v, 0.5 * v * v]
        if order >= 4 and len(u) >= 15:
            cols += [u ** p * v ** (k - p) for k in (3, 4) for p in range(k + 1)]
        coef = np.linalg.lstsq(np.stack(cols, axis=1), w, rcond=None)[0]
        a, b, c = coef[2:5] / s
        out[i] = np.linalg.eigvalsh(-np.array([[a, b], [b, c]]))[::-1]
    return out


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("build", [
    lambda: make_geodesic_sphere(np.pi / 3, 3),
    lambda: make_clifford_torus(32, 32),
], ids=["sphere-l3", "clifford-32"])
def test_fit_matches_per_vertex_lstsq(build, order):
    m = build()
    c = estimate_curvature(m, order=order)
    ref = _lstsq_principal_curvatures(m, order)
    assert c.n_flagged == 0
    np.testing.assert_allclose(c.kappa1, ref[:, 0], rtol=0, atol=1e-10)
    np.testing.assert_allclose(c.kappa2, ref[:, 1], rtol=0, atol=1e-10)


def _mixed_areas(m):
    """The mixed areas of Meyer, Desbrun, Schroeder and Barr on the chordal
    triangles in R4: a non-obtuse triangle gives each corner its Voronoi
    part, an obtuse one A/2 to the obtuse corner and A/4 to the others."""
    p = m.vertices[m.triangles]  # (m, 3, 4)
    u = np.roll(p, -1, axis=1) - p  # from corner k to corner k + 1
    v = np.roll(p, 1, axis=1) - p  # from corner k to corner k - 1
    uu, vv, uv = (np.einsum("mkd,mkd->mk", a, b) for a, b in [(u, u), (v, v), (u, v)])
    twice_area = np.sqrt(uu * vv - uv ** 2)
    cot = uv / twice_area
    # the side to k + 1 is opposite corner k + 2, the side to k - 1 corner k + 1
    voronoi = (uu * np.roll(cot, -2, axis=1) + vv * np.roll(cot, -1, axis=1)) / 8.0
    obtuse = uv < 0.0
    share = np.where(obtuse.any(axis=1, keepdims=True),
                     np.where(obtuse, 0.5, 0.25) * twice_area[:, :1] / 2.0, voronoi)
    out = np.zeros(m.n_vertices)
    np.add.at(out, m.triangles, share)
    return out


GAUSS_BONNET_FAMILIES = {  # the build, its three resolutions and the Euler characteristic
    "sphere": (lambda level: make_geodesic_sphere(np.pi / 3, level), (2, 3, 4), 2),
    "hopf": (lambda n: make_hopf_torus(make_latitude_circle(1.0, n), n // 2), (32, 64, 128), 0),
}


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("family", GAUSS_BONNET_FAMILIES)
def test_gauss_bonnet_residual_falls_with_the_mesh(family, order):
    # sum G_i A_i - 2 pi chi of the fit's G: the smallest fall per level
    # measured is 4.0x, on the order-4 spheres
    build, sizes, chi = GAUSS_BONNET_FAMILIES[family]
    residuals = []
    for size in sizes:
        m = build(size)
        residuals.append(estimate_curvature(m, order=order).G @ _mixed_areas(m) - 2.0 * np.pi * chi)
    residuals = np.abs(residuals)
    assert np.all(residuals[1:] * 3.0 <= residuals[:-1]), residuals


@pytest.mark.parametrize("order", [2, 4])
def test_fit_blocks_independent_of_block_layout(order):
    # each vertex is fitted on its own, so neither where the blocks start nor
    # how many rows they hold changes a bit of the fit
    m = make_perturbed_sphere(np.pi / 3, 3, 0.02, seed=5)
    n = m.n_vertices
    stepper = Stepper(m, order)
    want = stepper.fit(m)
    default = fit_block_rows(order, m.topology.two_ring_padded.shape[1])
    assert default == {2: 320, 4: 128}[order]
    # the whole mesh, its two halves (321 rows each) and two other ranges
    for rows in (slice(0, n), slice(0, n // 2), slice(n // 2, n), slice(64, n),
                 slice(321, 600)):
        for block in (1, 37, default, n):
            out = tuple(np.zeros_like(a) for a in want)
            _fit_blocks(stepper.new, stepper.normals, m.topology, order, out, rows, block)
            for got, full in zip(out, want):
                assert np.array_equal(got[rows], full[rows]), (rows, block)
                # rows outside the range are left as they were
                assert not np.any(np.delete(got, np.r_[rows], axis=0))


@pytest.mark.parametrize("level, order, lengths", [
    (3, 2, [321]),  # not a block of 320 and one of 1
    (4, 4, [128] * 9 + [129]),  # not ten of 128 and one of 1
])
def test_fit_blocks_of_equal_length(level, order, lengths, monkeypatch):
    # each half of a sphere is cut into the nearest whole number of blocks
    # of the default length, of equal lengths to a row
    m = make_geodesic_sphere(np.pi / 3, level)
    stepper = Stepper(m, order)
    out = stepper.fit(m)
    fit_block = mesh_module._fit_block
    seen = []

    def record(frame, y, counts, order):
        seen.append(len(counts))
        return fit_block(frame, y, counts, order)

    monkeypatch.setattr(mesh_module, "_fit_block", record)
    for rows, _ in stepper.parts[:2]:
        _fit_blocks(stepper.new, stepper.normals, m.topology, order, out, rows, stepper.block)
    assert seen == lengths * 2


def test_not_spd_vertex_flagged_alone():
    # A great sphere lying exactly in the hyperplane x0 = 0, with a normal
    # at one vertex that lies in that hyperplane: the vertex's frame vector
    # e2 is then (1, 0, 0, 0) up to sign, its two-ring has v = 0 exactly, and
    # its normal matrix has zero rows.  np.linalg.cholesky refuses the whole
    # batch that holds it; only that vertex may be flagged.
    m = make_geodesic_sphere(np.pi / 2, 3)
    verts = m.vertices.copy()
    verts[:, 0] = 0.0
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    normals = np.tile([1.0, 0.0, 0.0, 0.0], (m.n_vertices, 1))
    i = 100
    t = np.array([0.0, 1.0, 2.0, 3.0])
    t -= (t @ verts[i]) * verts[i]
    normals[i] = t / np.linalg.norm(t)
    for order in (2, 4):
        c = estimate_curvature(m.with_vertices(verts, normals=normals), order=order)
        assert np.flatnonzero(c.flagged).tolist() == [i]
        assert np.max(c.normA2) <= 1e-20


def test_nonfinite_vertex_inherits_one_ring():
    # A non-finite normal at one vertex makes its fit non-finite.  Only that
    # vertex is flagged, it inherits its one-ring mean, and every other
    # vertex keeps its own fit.
    m = make_geodesic_sphere(np.pi / 3, 3)
    clean = estimate_curvature(m)
    i = 100
    normals = m.normals.copy()
    normals[i] = np.nan
    c = estimate_curvature(m.with_vertices(m.vertices, normals=normals))
    assert np.flatnonzero(c.flagged).tolist() == [i]
    ring = m.topology.one_ring_padded[i, :m.topology.one_ring_counts[i]]
    assert c.kappa1[i] == pytest.approx(np.mean(c.kappa1[ring]), abs=1e-14)
    assert c.kappa2[i] == pytest.approx(np.mean(c.kappa2[ring]), abs=1e-14)
    others = np.arange(m.n_vertices) != i
    np.testing.assert_allclose(c.kappa1[others], clean.kappa1[others], rtol=0, atol=1e-12)
    np.testing.assert_allclose(c.kappa2[others], clean.kappa2[others], rtol=0, atol=1e-12)


def test_flagged_vertices_take_the_mean_of_their_unflagged_one_ring():
    # Non-finite normals flag vertex i and its whole one-ring.  Each ring
    # vertex takes the mean of its unflagged neighbours, as a loop over the
    # flagged vertices computes it; i has none and gets NaN.
    m = make_geodesic_sphere(np.pi / 3, 3)
    topo = m.topology
    i = 100
    picked = [i, *topo.one_ring_padded[i, :topo.one_ring_counts[i]]]
    normals = m.normals.copy()
    normals[picked] = np.nan
    c = estimate_curvature(m.with_vertices(m.vertices, normals=normals))
    assert np.flatnonzero(c.flagged).tolist() == sorted(picked)
    assert np.isnan(c.kappa1[i]) and np.isnan(c.kappa2[i])
    for j in picked[1:]:
        ring = topo.one_ring_padded[j, :topo.one_ring_counts[j]]
        ok = ring[~c.flagged[ring]]
        assert len(ok)
        assert c.kappa1[j] == float(np.mean(c.kappa1[ok]))
        assert c.kappa2[j] == float(np.mean(c.kappa2[ok]))


# -- the fit shared with a forked worker -------------------------------------


@pytest.fixture
def two_cpus(monkeypatch):
    """An affinity mask of two CPUs, so that step_worker starts a worker on
    any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.mark.parametrize("build, order", [
    (lambda: make_geodesic_sphere(np.pi / 3, 4), 4),
    (lambda: make_clifford_torus(64, 64), 2),
], ids=["sphere-l4-order4", "clifford-64-order2"])
def test_parallel_fit_bit_identical_to_serial(build, order, two_cpus):
    # two fits by the same worker, as in two steps of a flow: the mesh,
    # then the mesh pushed off along its normals
    m = build()
    meshes = (m, m.with_vertices(normalize(m.vertices + 0.01 * m.normals)))
    worker = step_worker(m, order)
    try:
        assert worker.pid > 0
        got = [estimate_curvature(mesh, order=order, worker=worker) for mesh in meshes]
        # a stepper fits at the order it was made for, and at no other
        with pytest.raises(ValueError, match=f"^stepper was made for fit order {order}, not "):
            estimate_curvature(m, order=6 - order, worker=worker)
    finally:
        worker.close()
    for mesh, g in zip(meshes, got):
        want = estimate_curvature(mesh, order=order)
        for name in ("kappa1", "kappa2", "flagged"):
            assert np.array_equal(getattr(g, name), getattr(want, name)), name


def test_not_spd_vertices_flagged_alone_by_every_process(two_cpus):
    # the construction of test_not_spd_vertex_flagged_alone on a level-4
    # sphere, with a vertex in the range of each process
    m = make_geodesic_sphere(np.pi / 2, 4)
    verts = m.vertices.copy()
    verts[:, 0] = 0.0
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    normals = np.tile([1.0, 0.0, 0.0, 0.0], (m.n_vertices, 1))
    t = np.array([0.0, 1.0, 2.0, 3.0])
    for order in (2, 4):
        worker = step_worker(m, order)
        try:
            halves = [part[0] for part in worker.parts[:2]]
            assert halves == [slice(0, 1281), slice(1281, 2562)]
            picked = [100, halves[1].start + 20]
            bent = normals.copy()
            for i in picked:
                bent[i] = t - (t @ verts[i]) * verts[i]
                bent[i] /= np.linalg.norm(bent[i])
            c = estimate_curvature(m.with_vertices(verts, normals=bent), order=order,
                                   worker=worker)
        finally:
            worker.close()
        assert np.flatnonzero(c.flagged).tolist() == picked
        assert np.max(c.normA2) <= 1e-20


def test_workers_pinned_off_the_cpu_the_parent_was_on(two_cpus, monkeypatch):
    # the parent may move between CPUs while the worker's CPU is chosen;
    # the CPU it is on is read once
    monkeypatch.setattr(mesh_module, "_current_cpu", itertools.cycle([0, 1]).__next__)
    m = make_geodesic_sphere(np.pi / 3, 4)
    worker = step_worker(m, 2)
    try:
        assert worker.cpu == 1
        got = estimate_curvature(m, order=2, worker=worker)
    finally:
        worker.close()
    want = estimate_curvature(m, order=2)
    assert np.array_equal(got.kappa1, want.kappa1)


def test_worker_count_capped(monkeypatch):
    # eight CPUs in the mask still fork one worker, which takes half the fit
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(mesh_module, "_current_cpu", lambda: 0)
    worker = step_worker(make_geodesic_sphere(np.pi / 3, 4), 2)
    try:
        assert len(forks) == 1
        assert worker.cpu == 1
        assert [part[0] for part in worker.parts[:2]] == [slice(0, 1281), slice(1281, 2562)]
    finally:
        worker.close()


# two step workers open at once, in a process of its own: exit 3 where no
# worker starts
TWO_WORKERS = """
import os, sys
import numpy as np
from s3flow.mesh import make_geodesic_sphere, step_worker
os.sched_getaffinity = lambda pid: {0, 1}
m = make_geodesic_sphere(np.pi / 3, 3)
first, second = step_worker(m, 2), step_worker(m, 2)
if first is None or second is None:
    sys.exit(3)
first.close()
second.close()
"""


def test_first_of_two_open_workers_closes():
    # the second worker, forked while the first is open, must not hold the
    # first one's command end: the first close() would wait for ever on a
    # worker whose command pipe never ends
    src = os.path.dirname(os.path.dirname(mesh_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", TWO_WORKERS], env=env, timeout=30)
    if proc.returncode == 3:
        pytest.skip("step_worker started no worker")
    assert proc.returncode == 0


def test_fit_stays_serial_while_another_thread_runs(two_cpus):
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert step_worker(make_geodesic_sphere(np.pi / 3, 4), 2) is None
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
