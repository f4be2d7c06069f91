"""Immersed triangle meshes in S3 and discrete curvature estimation.

A :class:`SurfaceMesh` is a closed orientable triangle mesh whose vertices
lie on the unit 3-sphere and whose per-vertex unit normals are tangent to
S3.  Connectivity is immutable; flows replace vertex positions through
:meth:`SurfaceMesh.with_vertices`, which shares the cached topology.

Curvature is estimated per vertex by mapping the two-ring neighbourhood
into the tangent space T_x S3 with the spherical log map and fitting the
height along the normal as a quadratic form; the negated Hessian of that
fit is the shape operator.  With this sign convention a geodesic sphere of
radius r carries kappa = cot(r) with respect to its outward normal.
"""

from __future__ import annotations

import mmap
import os
import select
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# log_map is not called here; it stays bound because perfbench/layers.py
# wraps mesh.log_map by name
from .s3core import (  # noqa: F401
    chord_arc,
    cross4,
    geodesic_step,
    log_map,
    log_scale,
    normalize,
    quat_conj,
    quat_mul,
    row_norms,
    tangent_project,
    unit_deviation,
    QUAT_I,
    QUAT_J,
    QUAT_K,
    QUAT_ONE,
)


class MeshError(ValueError):
    """Raised when mesh data violates a structural invariant."""


class MeshDegenerateError(RuntimeError):
    """The evolving mesh collapsed below the quality thresholds."""


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------


def validate_topology(triangles, n_vertices):
    """Check that triangles form a closed orientable 2-manifold.

    No triangle may repeat a vertex, and every undirected edge must be
    shared by exactly two triangles with opposite orientations.  Raises
    :class:`MeshError` with a diagnostic naming an offending triangle or
    the smallest offending edge.  Returns the keys a * n_vertices + b of the
    directed edges (a, b) of the triangles, ascending, and the triangle of
    each.
    """
    tris = np.asarray(triangles, dtype=np.int64)
    if tris.ndim != 2 or tris.shape[1] != 3:
        raise MeshError("triangles must be an (m, 3) index array")
    if tris.size and (tris.min() < 0 or tris.max() >= n_vertices):
        raise MeshError("triangle index out of range")
    a, b, c = tris.T
    repeats = np.flatnonzero((a == b) | (b == c) | (c == a))
    if repeats.size:
        raise MeshError(f"triangle {repeats[0]} {tris[repeats[0]].tolist()} repeats a vertex")
    n = np.int64(n_vertices)
    # the directed edge i is a side of triangle i mod m
    keys = np.concatenate([a * n + b, b * n + c, c * n + a])
    order = np.argsort(keys)
    keys = keys[order]
    repeated = keys[1:][keys[1:] == keys[:-1]]
    if repeated.size:
        k = repeated[0]
        raise MeshError(
            f"inconsistent winding: directed edge ({k // n}, {k % n}) "
            "appears in more than one triangle"
        )
    rev = keys % n * n + keys // n
    # the keys ascend without repeats: every edge has its reverse iff rev sorts to keys
    if not np.array_equal(np.sort(rev), keys):
        missing = keys[keys[np.minimum(np.searchsorted(keys, rev), len(keys) - 1)] != rev]
        k = missing[0]
        raise MeshError(
            f"boundary edge ({k // n}, {k % n}): "
            "every edge must be shared by exactly 2 triangles"
        )
    return keys, order % len(tris)


def padded(x):
    """``x`` with a zero row appended, for indexing with padded index arrays."""
    return np.concatenate([x, np.zeros((1,) + x.shape[1:])])


class _Topology:
    """Connectivity caches shared between meshes with identical triangles.

    ``one_ring_padded`` and ``two_ring_padded`` list the neighbours of each
    vertex, and of its neighbours, without the vertex itself; rows are
    ascending and padded with the index n_vertices, which points at the zero
    row that :func:`padded` appends: a zero neighbour has zero tangent
    coordinates, so it adds nothing to the fit or to the smoothing.
    ``one_ring_counts`` and ``ring_counts`` give the row lengths.
    ``vertex_faces`` lists the triangles around each vertex, ascending and
    padded with the index m of a zero row.  ``edges`` lists each undirected
    edge (a, b) once, with a < b, in lexicographic order, for
    :meth:`SurfaceMesh.validate` and the Euler characteristic; the shape of
    the mesh is measured per triangle (see :func:`_triangle_shape`).
    """

    def __init__(self, triangles, n_vertices):
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.n_vertices = n = int(n_vertices)
        keys, faces = validate_topology(self.triangles, n)
        a, b = np.divmod(keys, n)
        # on a closed orientable mesh the edges leaving a vertex name each of
        # its neighbours once and each of its triangles once; sorted by
        # (a, b), they fill the one-ring rows in ascending order
        counts = self.one_ring_counts = np.bincount(a, minlength=n)
        rank = np.arange(len(keys)) - (np.cumsum(counts) - counts)[a]
        width = int(counts.max(initial=0))
        one = self.one_ring_padded = np.full((n, width), n, dtype=np.int64)
        one[a, rank] = b
        self.vertex_faces = np.full((n, width), len(self.triangles), dtype=np.int64)
        self.vertex_faces[a, rank] = faces
        # ascending, so that the face normals of a vertex sum in a fixed order
        self.vertex_faces.sort(axis=1)
        self.edges = np.stack([a, b], axis=1)[a < b]

        # the two-ring: the one-rings of v's neighbours, with v and repeats
        # padded out, sorted to the front of each row.  Each neighbour u of v
        # is in the one-ring of the third corner of a triangle on the edge
        # (v, u), which is a neighbour of v too.
        cand = np.take(np.concatenate([one, np.full((1, width), n)]), one, axis=0).reshape(n, -1)
        cand[cand == np.arange(n)[:, None]] = n
        cand.sort(axis=1)
        cand[:, 1:][cand[:, 1:] == cand[:, :-1]] = n
        cand.sort(axis=1)
        self.ring_counts = np.count_nonzero(cand < n, axis=1)
        self.two_ring_padded = cand[:, :self.ring_counts.max(initial=0)].copy()

    def euler_characteristic(self):
        return self.n_vertices - len(self.edges) + len(self.triangles)


# ---------------------------------------------------------------------------
# per-row kernels
# ---------------------------------------------------------------------------

# Each kernel computes the rows ``rows`` of its output from the same rows of
# its inputs, gathering neighbours from whole arrays, so a range of rows has
# the same bits as in a pass over the whole mesh.  ``ALL`` is that pass.
ALL = slice(None)


def _corners(x, tri, rows):
    """The corners a, b, c of the triangles ``tri[rows]`` of the vertices ``x``."""
    t = tri[rows]
    return [np.take(x, t[:, k], axis=0) for k in range(3)]


def _face_normals(a, b, c):
    """Normals of the triangles with corners ``a``, ``b``, ``c``, orthogonal
    to all three corners up to round-off, not normalised."""
    return cross4(a, b - a, c - a)


def _vertex_normals(x, face_normals, vertex_faces, rows):
    """Unit normals at the vertices ``rows``: the sum of the normals of their
    triangles (``face_normals`` padded with a zero row), made tangent to S3."""
    acc = np.einsum("nkd->nd", np.take(face_normals, vertex_faces[rows], axis=0))
    x = x[rows]
    acc = acc - np.einsum("nd,nd->n", acc, x)[:, None] * x
    return normalize(acc)


def _triangle_shape(a, b, c):
    """Cosines of the Euclidean corner angles and geodesic side lengths of
    the triangles with corners ``a``, ``b``, ``c``: two (m, 3) tables whose
    column k belongs to corner k, the side being the one opposite it.  Both
    come from the three chord norms; a side is ``chord_arc`` of its chord,
    as in geodesic_distance."""
    ab, bc, ca = b - a, c - b, a - c
    lab, lbc, lca = row_norms(ab), row_norms(bc), row_norms(ca)
    cosines = np.stack([
        -np.einsum("nd,nd->n", ab, ca) / (lab * lca),
        -np.einsum("nd,nd->n", bc, ab) / (lbc * lab),
        -np.einsum("nd,nd->n", ca, bc) / (lca * lbc),
    ], axis=1)
    chords = np.stack([lbc, lca, lab], axis=1)
    return cosines, chord_arc(chords)


COS_MIN_ANGLE = float(np.cos(np.radians(1.0)))  # cosine of the smallest allowed corner


def _check_shape(cosines, sides):
    """Raise MeshDegenerateError for a side below 1e-6 rad or a corner below
    1 deg, among the triangles whose tables of :func:`_triangle_shape` are
    ``cosines`` and ``sides``; the message names the worst of them."""
    if float(sides.min()) < 1e-6:
        raise MeshDegenerateError(f"edge collapsed to {sides.min():.3e} rad")
    cos_max = float(cosines.max())
    if cos_max > COS_MIN_ANGLE:
        worst = float(np.degrees(np.arccos(min(cos_max, 1.0))))
        raise MeshDegenerateError(f"minimum triangle angle {worst:.3f} deg < 1 deg")


# ---------------------------------------------------------------------------
# the mesh
# ---------------------------------------------------------------------------


DIAMETER_SAMPLES = 64  # vertices, evenly spaced by index, that diameter_proxy compares


class SurfaceMesh:
    """Closed orientable triangle mesh immersed in S3 with unit normals.

    Parameters
    ----------
    vertices : (n, 4) array
        Unit quaternions (norm 1 within 1e-10).
    triangles : (m, 3) int array
        Consistently wound, each edge shared by exactly two triangles.
    normals : (n, 4) array, optional
        Unit vectors orthogonal to their vertices within 1e-8.  Computed
        from the winding if omitted.
    grid_shape : tuple, optional
        (rows, cols) layout for grid-generated tori; row-major vertex order.

    A mesh caches the side lengths of its triangles, not their corner angles.
    """

    def __init__(self, vertices, triangles, normals=None, validate=True,
                 grid_shape=None, _topology=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 4:
            raise MeshError("vertices must be an (n, 4) array")
        if _topology is not None:
            self.topology = _topology
        else:
            self.topology = _Topology(triangles, len(self.vertices))
        self.grid_shape = grid_shape
        if normals is None:  # from the winding
            face_normals = padded(_face_normals(*_corners(self.vertices, self.triangles, ALL)))
            normals = _vertex_normals(self.vertices, face_normals, self.topology.vertex_faces, ALL)
        self.normals = np.ascontiguousarray(normals, dtype=float)
        if validate:
            self.validate()

    @property
    def triangles(self):
        return self.topology.triangles

    @property
    def n_vertices(self):
        return len(self.vertices)

    def with_vertices(self, vertices, normals=None):
        """New mesh with the same topology (caches shared) and new geometry."""
        return SurfaceMesh(vertices, None, normals=normals, validate=False,
                           grid_shape=self.grid_shape, _topology=self.topology)

    def validate(self):
        # each check is written so that a NaN fails it
        dev = unit_deviation(self.vertices)
        if not dev <= 1e-10:
            raise MeshError(f"vertex off S3 by {dev:.3e}")
        ndev = unit_deviation(self.normals)
        if not ndev <= 1e-8:
            raise MeshError(f"normal not unit by {ndev:.3e}")
        ortho = np.max(np.abs(np.sum(self.normals * self.vertices, axis=1)))
        if not ortho <= 1e-8:
            raise MeshError(f"normal not tangent to S3 by {ortho:.3e}")
        e = self.topology.edges
        dots = np.einsum("nd,nd->n", np.take(self.normals, e[:, 0], axis=0),
                         np.take(self.normals, e[:, 1], axis=0))
        if not np.all(dots > 0.0):
            raise MeshError("normal field flips across an edge")

    # -- aggregates ---------------------------------------------------------

    @cached_property
    def _sides(self):
        """The sides of :func:`_triangle_shape` over every triangle; geometry
        is immutable, and a step, or the check of a run's start mesh, sets
        the table it computed."""
        return _triangle_shape(*_corners(self.vertices, self.triangles, ALL))[1]

    def side_lengths(self):
        """(m, 3) geodesic lengths in radians of the side of each triangle
        opposite each corner."""
        return self._sides

    def area(self):
        """Total area as a sum of spherical triangle areas (l'Huilier), from
        the side lengths: a, b and c are the sides opposite corners 0, 1
        and 2."""
        a, b, c = self.side_lengths().T
        s = 0.5 * (a + b + c)
        t = (
            np.tan(0.5 * s)
            * np.tan(0.5 * (s - a))
            * np.tan(0.5 * (s - b))
            * np.tan(0.5 * (s - c))
        )
        return float(np.sum(4.0 * np.arctan(np.sqrt(np.maximum(t, 0.0)))))

    def diameter_proxy(self):
        """Max pairwise geodesic distance among up to DIAMETER_SAMPLES
        vertices: the arccos of their smallest dot product, one arccos since
        arccos is decreasing."""
        n = self.n_vertices
        idx = np.linspace(0, n - 1, min(DIAMETER_SAMPLES, n)).astype(np.int64)
        pts = self.vertices[idx]
        return float(np.arccos(np.clip(np.min(pts @ pts.T), -1.0, 1.0)))


@dataclass
class MeshQualityReport:
    n_vertices: int
    n_triangles: int
    euler_characteristic: int
    min_edge: float
    max_edge: float
    min_angle_deg: float


def mesh_quality(mesh: SurfaceMesh) -> MeshQualityReport:
    """Counts, side lengths and the smallest corner of ``mesh``; the corner
    cosines come from :func:`_triangle_shape` at each call, a mesh keeps none."""
    cosines, sides = _triangle_shape(*_corners(mesh.vertices, mesh.triangles, ALL))
    return MeshQualityReport(
        n_vertices=mesh.n_vertices,
        n_triangles=len(mesh.triangles),
        euler_characteristic=mesh.topology.euler_characteristic(),
        min_edge=float(sides.min()),
        max_edge=float(sides.max()),
        min_angle_deg=float(np.degrees(np.arccos(np.clip(cosines, -1.0, 1.0)).min())),
    )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _icosphere(level):
    """Subdivided icosahedron projected to the unit 2-sphere.

    Returns (dirs, tris) with 10 * 4**level + 2 vertices.  Each level splits
    triangle (i, j, k) into (i, a, c), (j, b, a), (k, c, b), (a, b, c), with
    a, b, c the normalised midpoints of edges ij, jk, ki; the midpoints are
    numbered after the old vertices in the order the edges first occur,
    triangle by triangle and ij, jk, ki within a triangle.
    """
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    verts = normalize(verts)
    tris = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    for _ in range(level):
        n = len(verts)
        e = tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        keys = e.min(axis=1) * n + e.max(axis=1)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        number = np.empty_like(order)
        number[order] = np.arange(n, n + len(order))
        ends = e[first[order]]
        m = verts[ends[:, 0]] + verts[ends[:, 1]]
        # the norm through matmul rounds as numpy's norm of one vector
        # does; einsum and (m * m).sum(1) differ from it in the last bit
        m = m / np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]
        verts = np.concatenate([verts, m])
        i, j, k = tris.T
        a, b, c = number[inverse.reshape(-1, 3)].T
        tris = np.stack([i, a, c, j, b, a, k, c, b, a, b, c], axis=1).reshape(-1, 3)
    return normalize(verts), tris


def _oriented(vertices, triangles, normals):
    """Flip the winding if it disagrees with the given normal field."""
    face_normals = _face_normals(*_corners(vertices, triangles, ALL))
    s = np.sum(face_normals * normals[triangles[:, 0]], axis=1)
    if np.all(s < 0):
        return triangles[:, [0, 2, 1]]
    if np.all(s > 0):
        return triangles
    raise MeshError("generator produced mixed triangle orientations")


def _sphere(r, level, center, bump=lambda dirs: 0.0):
    """Vertices, triangles and unit normals of the icosphere at ``level``
    carried into S3: its direction u goes to the unit tangent c u at the
    center c (u read as an imaginary quaternion, so the frame is c i, c j,
    c k), and on to the point at geodesic distance r + bump(u) from the
    center, where the normal points away from the center along the great
    circle.  So the sphere about c is c times the sphere about 1, whose
    frame is exactly i, j, k.  The triangles are wound to agree with the
    normals."""
    if not (0.0 < r < np.pi):
        raise ValueError(f"geodesic radius must lie in (0, pi), got {r}")
    if level < 0:
        raise ValueError("subdivision level must be >= 0")
    center = normalize(np.asarray(QUAT_ONE if center is None else center, dtype=float))
    dirs, tris = _icosphere(level)
    radius = np.reshape(r + bump(dirs), (-1, 1))
    if radius.min() <= 0.0 or radius.max() >= np.pi:
        raise ValueError("perturbation pushes the radius outside (0, pi)")
    u = dirs @ quat_mul(center, np.stack([QUAT_I, QUAT_J, QUAT_K]))  # (n, 4) unit tangents at c
    verts = normalize(np.cos(radius) * center + np.sin(radius) * u)
    nrm = normalize(tangent_project(verts, -np.sin(radius) * center + np.cos(radius) * u))
    return verts, _oriented(verts, tris, nrm), nrm


def make_geodesic_sphere(r, level, center=None):
    """Geodesic sphere of radius r (0 < r < pi) about ``center`` in S3.

    Icosahedral subdivision at the given level; normals point outward,
    away from the center along great circles.  r = pi/2 gives a great
    (totally geodesic) sphere.
    """
    verts, tris, nrm = _sphere(r, level, center)
    return SurfaceMesh(verts, tris, normals=nrm)


def make_perturbed_sphere(r, level, amplitude, seed):
    """Geodesic sphere about 1 with a smooth seeded radial perturbation.

    The radius field is r + amplitude * g(u) where g is a random low-order
    polynomial (linear plus quadratic form) in the unit direction u,
    normalized to max |g| = 1.  Normals are recomputed from the winding.
    Deterministic for a given seed.
    """
    if amplitude < 0.0:
        raise ValueError("amplitude must be non-negative")
    rng = np.random.default_rng(seed)
    quad = rng.standard_normal((3, 3))
    quad = 0.5 * (quad + quad.T)
    lin = rng.standard_normal(3)

    def bump(dirs):
        g = np.einsum("ni,ij,nj->n", dirs, quad, dirs) + dirs @ lin
        peak = np.max(np.abs(g))
        return amplitude * (g / peak if peak > 0.0 else g)

    verts, tris, _ = _sphere(r, level, None, bump)
    return SurfaceMesh(verts, tris)


def _grid_torus_triangles(nu, nv):
    idx = np.arange(nu * nv, dtype=np.int64).reshape(nu, nv)
    right = np.roll(idx, -1, axis=0)
    down = np.roll(idx, -1, axis=1)
    diag = np.roll(right, -1, axis=1)
    t1 = np.stack([idx, right, diag], axis=-1).reshape(-1, 3)
    t2 = np.stack([idx, diag, down], axis=-1).reshape(-1, 3)
    return np.concatenate([t1, t2])


def make_clifford_torus(nu, nv):
    """The minimal Clifford torus {(cos u, sin u, cos v, sin v)/sqrt(2)}.

    Flat (G = 0) with principal curvatures +1 and -1; Euler characteristic 0.
    """
    if nu < 8 or nv < 8:
        raise ValueError("need nu, nv >= 8")
    uu = 2.0 * np.pi * np.arange(nu) / nu
    vv = 2.0 * np.pi * np.arange(nv) / nv
    U, V = np.meshgrid(uu, vv, indexing="ij")
    r = 1.0 / np.sqrt(2.0)
    verts = np.stack(
        [r * np.cos(U), r * np.sin(U), r * np.cos(V), r * np.sin(V)], axis=-1
    ).reshape(-1, 4)
    nrm = np.stack(
        [-r * np.cos(U), -r * np.sin(U), r * np.cos(V), r * np.sin(V)], axis=-1
    ).reshape(-1, 4)
    tris = _oriented(verts, _grid_torus_triangles(nu, nv), nrm)
    return SurfaceMesh(verts, tris, normals=nrm, grid_shape=(nu, nv))


def _turns(a, b):
    """The conjugates of the unit quaternions that turn each row of a (unit
    3-vectors) into the row of b about a x b, so that q times one lifts b
    where q lifts a (under hopf_project).  The turn in half-angle form is
    normalize(1 + a.b, a x b), accurate at every angle, and its conjugate
    normalize(1 + a.b, b x a); where b = -a, the turn by pi about j, which
    carries i into -i."""
    h = np.concatenate([1.0 + np.sum(a * b, axis=1, keepdims=True), np.cross(b, a)], axis=1)
    h[row_norms(h) == 0.0] = QUAT_J
    return normalize(h)


def _fiber_turns(phase):
    """cos(phase) + i sin(phase), which move a point along its Hopf fiber."""
    zero = np.zeros_like(phase)
    return np.stack([np.cos(phase), np.sin(phase), zero, zero], axis=-1)


def make_hopf_torus(curve, n_fiber):
    """Hopf-fiber torus over the closed :class:`S2Curve` ``curve``.

    For each curve sample the full Hopf fiber circle is sampled ``n_fiber``
    times.  The lift is chosen continuously along the curve, one half-angle
    turn per segment (the first from i to the first sample), and the fiber
    phase is sheared to absorb the lift holonomy so the seam closes.  The
    normal at a vertex x over the sample p is x T, with T the unit tangent
    of the curve at p (the central difference of its neighbours, projected
    off p): x T is orthogonal to x, to the fiber direction i x = x p and
    to the horizontal lift of the curve.  The preimage of any curve is
    intrinsically flat (G = 0).
    """
    if n_fiber < 8:
        raise ValueError("need n_fiber >= 8")
    samples = curve.samples
    n_curve = len(samples)

    # the turns from i to sample 0 and along each segment, multiplied up in
    # place: lifts[k] lifts sample k, and lifts[n_curve] sample 0 again
    lifts = _turns(np.concatenate([QUAT_I[None, 1:], samples]),
                   np.concatenate([samples, samples[:1]]))
    for k in range(n_curve):
        lifts[k + 1] = quat_mul(lifts[k], lifts[k + 1])

    h = quat_mul(lifts[n_curve], quat_conj(lifts[0]))
    off_fiber = float(np.hypot(h[2], h[3]))
    if off_fiber > 1e-6:
        raise MeshError(
            f"continuous Hopf lift failed to close: holonomy defect {off_fiber:.3e} "
            "off the fiber direction"
        )
    holonomy = float(np.arctan2(h[1], h[0]))

    frac = np.concatenate([[0.0], np.cumsum(curve.gaps)]) / np.sum(curve.gaps)
    q = quat_mul(_fiber_turns(-holonomy * frac[:n_curve]), lifts[:n_curve])  # seam closes

    theta = 2.0 * np.pi * np.arange(n_fiber) / n_fiber
    verts = normalize(quat_mul(_fiber_turns(theta)[None, :, :], q[:, None, :]))

    d = np.roll(samples, -1, axis=0) - np.roll(samples, 1, axis=0)
    tangent = np.zeros((n_curve, 4))
    tangent[:, 1:] = normalize(d - np.sum(d * samples, axis=1, keepdims=True) * samples)
    nrm = quat_mul(verts, tangent[:, None, :]).reshape(-1, 4)
    verts = verts.reshape(-1, 4)

    tris = _oriented(verts, _grid_torus_triangles(n_curve, n_fiber), nrm)
    return SurfaceMesh(verts, tris, normals=nrm, grid_shape=(n_curve, n_fiber))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


@dataclass
class CurvatureData:
    """Per-vertex principal curvatures and curvature scalars.

    kappa1 >= kappa2 are the principal curvatures (units 1/radian);
    H = kappa1 + kappa2, normA2 = kappa1**2 + kappa2**2 and
    G = 1 + kappa1 * kappa2 is the intrinsic curvature from the Gauss
    equation, identically equal to 1 + H**2/2 - normA2/2.
    ``flagged`` marks vertices whose fit was ill-conditioned or starved of
    neighbours; their scalars are inherited from one-ring averages (NaN
    where no neighbour is unflagged).  The principal directions are not
    kept: the flow reads curvature values only.
    """

    kappa1: np.ndarray
    kappa2: np.ndarray
    H: np.ndarray = field(init=False)
    normA2: np.ndarray = field(init=False)
    G: np.ndarray = field(init=False)
    flagged: np.ndarray

    def __post_init__(self):
        self.H = self.kappa1 + self.kappa2
        self.normA2 = self.kappa1 ** 2 + self.kappa2 ** 2
        self.G = 1.0 + self.kappa1 * self.kappa2

    @property
    def n_flagged(self):
        return int(np.count_nonzero(self.flagged))


N_HIGH_COLUMNS = 9  # cubic and quartic correction columns of the order-4 fit


def _design(us, vs, ws, order):
    """Design matrix of the height fit at each vertex, bordered by the heights.

    Returns (n, m + 1, K): the m columns of the design, transposed, are the
    cubic and quartic monomials (order 4 only), then u, v, and the quadric
    u^2/2, uv, v^2/2 last, so that the quadric coefficients are the last
    three unknowns; row m holds the heights w.
    """
    n, k = us.shape
    m = 5 + (N_HIGH_COLUMNS if order >= 4 else 0)
    cols = np.empty((n, m + 1, k))
    u2 = us * us
    v2 = vs * vs
    uv = us * vs
    if order >= 4:
        high = ((u2, us), (u2, vs), (us, v2), (v2, vs),
                (u2, u2), (u2, uv), (u2, v2), (uv, v2), (v2, v2))
        for j, (p, q) in enumerate(high):
            np.multiply(p, q, out=cols[:, j])
    cols[:, m - 5] = us
    cols[:, m - 4] = vs
    np.multiply(u2, 0.5, out=cols[:, m - 3])
    cols[:, m - 2] = uv
    np.multiply(v2, 0.5, out=cols[:, m - 1])
    cols[:, m] = ws
    return cols


def _cholesky_screened(M):
    """Lower Cholesky factors of a batch of symmetric matrices.

    Returns (L, notspd).  ``np.linalg.cholesky`` refuses the whole batch if
    one matrix is not positive definite; then every matrix is factored on
    its own, and each refused one is marked in ``notspd`` and gets the
    identity as its factor.
    """
    notspd = np.zeros(len(M), dtype=bool)
    try:
        return np.linalg.cholesky(M), notspd
    except np.linalg.LinAlgError:
        pass
    L = np.empty_like(M)
    for i, Mi in enumerate(M):
        try:
            L[i] = np.linalg.cholesky(Mi)
        except np.linalg.LinAlgError:
            L[i] = np.eye(M.shape[1])
            notspd[i] = True
    return L, notspd


# Bytes of the design matrix of one block of the fit's vertices: 128 rows of
# 15 columns at order 4 on two-rings padded to 18.  Small blocks keep the
# fit's arrays small: with the whole level-4 sphere in one block, each fit
# took some 3,700 fresh pages from the operating system, a quarter of its
# time.  A budget in bytes rather than rows gives the order-2 fit, with 6
# columns, blocks of 320 rows, so each numpy call carries as many bytes.
FIT_BLOCK_BYTES = 128 * 15 * 18 * 8


def fit_block_rows(order, k):
    """Vertices fitted together at ``order`` with two-rings padded to ``k``."""
    columns = 6 + (N_HIGH_COLUMNS if order >= 4 else 0)  # the design and the heights
    return max(1, FIT_BLOCK_BYTES // (8 * columns * k))


def _fit_block(frame, y, counts, order):
    """Height fit at a block of vertices.

    ``frame`` (B, 4, 4) holds the rows x, e1, e2, nu of each vertex and
    ``y`` (B, K, 4) its two-ring, with zero rows at the padding.  Returns
    the Hessian coefficients (a, b, c) of the fitted height (B, 3), the
    condition proxies and the not-positive-definite marks.

    With A the design and w the heights, the bordered matrix
    [[A^T A, A^T w], [w^T A, w^T w + 1]] has the Cholesky factor
    [[L, 0], [z^T, d]], where L L^T = A^T A and L z = A^T w: the forward
    substitution comes out of the factorisation.  d^2 = 1 + |w - A c|^2 is
    at least 1, so the bordered matrix is positive definite exactly when
    A^T A is.  Back substitution L^T c = z then runs over the last three
    unknowns only, the quadric coefficients.
    """
    # log-map coordinates from one contraction against (x, e1, e2, nu):
    # <log_x y, e> = (theta / sin theta) <y, e> for e orthogonal to x
    proj = frame @ np.swapaxes(y, 1, 2)  # (B, 4, K)
    ratio = log_scale(proj[:, 0])
    u = ratio * proj[:, 1]
    v = ratio * proj[:, 2]
    w = ratio * proj[:, 3]

    rho2 = u * u + v * v
    denom = np.maximum(counts.astype(float), 1.0)
    scale = np.sqrt(np.sum(rho2, axis=1) / denom)
    scale = np.maximum(scale, 1e-300)
    us = u / scale[:, None]
    vs = v / scale[:, None]
    ws = w / scale[:, None]

    cols = _design(us, vs, ws, order)
    m = cols.shape[1] - 1
    # rings too small for the high-order fit fall back to the quadric: zero
    # those columns and put an identity in their block
    low = np.flatnonzero(counts < m + 1) if order >= 4 else ()
    if len(low):
        cols[low, :N_HIGH_COLUMNS] = 0.0
    # a contiguous right operand: numpy's product of an array with its own
    # transposed view is slower at these sizes
    M = cols @ np.ascontiguousarray(np.swapaxes(cols, 1, 2))
    M[:, m, m] += 1.0
    if len(low):
        diag = np.arange(N_HIGH_COLUMNS)
        M[low[:, None], diag, diag] = 1.0

    L, notspd = _cholesky_screened(M)
    pivots = np.einsum("nii->ni", L[:, :m, :m])
    cond = (pivots.max(axis=1) / np.maximum(pivots.min(axis=1), 1e-300)) ** 2
    T = L[:, m - 3:m, m - 3:m]
    z = L[:, m, m - 3:m]
    c = np.empty((len(counts), 3))
    c[:, 2] = z[:, 2] / T[:, 2, 2]
    c[:, 1] = (z[:, 1] - T[:, 2, 1] * c[:, 2]) / T[:, 1, 1]
    c[:, 0] = (z[:, 0] - T[:, 1, 0] * c[:, 1] - T[:, 2, 0] * c[:, 2]) / T[:, 0, 0]
    return c / scale[:, None], cond, notspd


def _fit_blocks(xz, normals, topology, order, out, rows, block):
    """Fit the vertices ``rows`` (a slice) of ``xz`` (padded, see :func:`padded`)
    with normals ``normals`` into ``out`` = (hessian, cond, notspd), in
    round(len / block) blocks, at least one, of equal lengths to a row.

    :func:`_fit_block` treats each vertex on its own, so the results do not
    depend on where the blocks start or how long they are.
    """
    ring = topology.two_ring_padded
    # the frames of all rows in one call: one call per block took 1.6 ms
    # against 0.6 ms in an order-4 fit of a level-4 sphere on one CPU
    frames = _frames(xz[rows], normals[rows], np.take(xz, ring[rows, 0], axis=0))
    r = rows.stop - rows.start
    count = max(1, round(r / block))
    for i in range(count):
        b = slice(rows.start + r * i // count, rows.start + r * (i + 1) // count)
        fitted = _fit_block(frames[b.start - rows.start:b.stop - rows.start],
                            np.take(xz, ring[b], axis=0), topology.ring_counts[b], order)
        for dst, src in zip(out, fitted):
            dst[b] = src


def _frames(x, nu, y):
    """Fit frames, (B, 4, 4) with rows x, e1, e2, nu, at the vertices ``x``
    with normals ``nu``.  e1 points at ``y``, the first two-ring neighbour of
    each, projected off x and nu (the theta / sin theta of log_x y would
    cancel in the normalisation), or where that vanishes, at (1, 0, 0, 0)."""
    def off_x_and_nu(y):
        return (y - np.einsum("nd,nd->n", y, x)[:, None] * x
                - np.einsum("nd,nd->n", y, nu)[:, None] * nu)

    seed = off_x_and_nu(y)
    sn = row_norms(seed, keepdims=True)
    bad_seed = sn[:, 0] < 1e-14
    if np.any(bad_seed):
        seed = np.where(bad_seed[:, None], off_x_and_nu(np.tile(QUAT_ONE, (len(x), 1))), seed)
        sn = row_norms(seed, keepdims=True)
    e1 = seed / sn
    e2 = normalize(cross4(x, nu, e1))
    return np.stack([x, e1, e2, nu], axis=1)


def _tangential_smooth(xz, normals, topo, strength, rows):
    """The vertices ``rows`` of ``xz`` (the vertices with a zero row
    appended, see :func:`padded`) with normals ``normals`` moved toward
    their one-ring log-mean on the topology ``topo``, within the surface
    tangent plane only (parametrisation changes, geometry does not)."""
    x = xz[rows]
    nrm = normals[rows]
    # zero rows at the padding add nothing
    y = np.take(xz, topo.one_ring_padded[rows], axis=0)
    # log_x y = (theta / sin theta)(y - <x, y> x); the x parts are projected
    # out below, so the one-ring sum needs only the weighted sum of the y
    ratio = log_scale(np.einsum("nkd,nd->nk", y, x))
    mean = np.einsum("nk,nkd->nd", ratio, y) / topo.one_ring_counts[rows, None]
    tang = mean - np.einsum("nd,nd->n", mean, nrm)[:, None] * nrm
    tang = tang - np.einsum("nd,nd->n", tang, x)[:, None] * x
    s = strength * row_norms(tang)
    move = s > 1e-14
    d = np.where(move[:, None], tang, np.array([1.0, 0.0, 0.0, 0.0]))
    d = d / row_norms(d, keepdims=True)
    s = np.where(move, s, 0.0)
    return normalize(np.cos(s)[:, None] * x + np.sin(s)[:, None] * d)


COND_LIMIT = 1e8  # condition proxy above which a vertex's fit is flagged


def _curvature(topology, hessian, cond, notspd):
    """CurvatureData from the fit at every vertex (see estimate_curvature)."""
    flagged = (topology.ring_counts < 5) | notspd | ~np.isfinite(cond) | (cond > COND_LIMIT)
    flagged |= ~np.all(np.isfinite(hessian), axis=1)
    a, b, c = hessian.T

    s11, s12, s22 = -a, -b, -c
    mean = 0.5 * (s11 + s22)
    delta = np.hypot(0.5 * (s11 - s22), s12)
    kappa1 = mean + delta
    kappa2 = mean - delta

    if np.any(flagged):
        # the mean over the unflagged one-ring, NaN with none to inherit
        # from; np.where keeps a NaN at a flagged neighbour out of the sum
        idx = np.flatnonzero(flagged)
        ring = topology.one_ring_padded[idx]
        ok = np.append(~flagged, False)[ring]
        count = np.count_nonzero(ok, axis=1)[:, None]
        kk = padded(np.stack([kappa1, kappa2], axis=1))[ring]
        total = np.where(ok[:, :, None], kk, 0.0).sum(axis=1)
        inherited = np.divide(total, count, out=np.full(total.shape, np.nan), where=count > 0)
        kappa1[idx], kappa2[idx] = inherited.T

    return CurvatureData(kappa1=kappa1, kappa2=kappa2, flagged=flagged)


# ---------------------------------------------------------------------------
# the explicit step, phase by phase
# ---------------------------------------------------------------------------

# The phases of a step; each is one byte on the worker's command pipe.
MOVE, MOVED_FACES, SMOOTH, GEOMETRY, NORMALS, FIT = range(6)
WHOLE = 2  # the part that is every row; parts 0 and 1 are the two halves


class Stepper:
    """One explicit flow step on the topology of ``mesh``, run phase by phase
    in this process.

    The buffers hold the inputs and outputs of every phase, one copy of
    each table; the vertex buffers carry a zero row at index n for the
    padded ring gathers.  A phase is a method that takes a part: 0 and 1 are
    fixed halves of the vertices and the triangles, WHOLE all of them.
    Each phase is built from the per-row kernels, so what it writes does not
    depend on how the rows are shared out: :class:`StepWorker` runs
    the same phases in two processes with bit-identical results.  What a
    phase writes depends only on tables it does not write, so a phase run
    again over all rows, after one half of it failed, is exact too.

    The geometry phase checks the shape of the triangles it measures
    (:func:`_check_shape`); their corner cosines are a temporary of it.
    """

    peak_rss_mb = None  # of a forked worker, once it has ended

    def __init__(self, mesh, order, alloc=np.zeros):
        topo = self.topology = mesh.topology
        self.mesh = mesh
        self.order = order
        n, m = topo.n_vertices, len(topo.triangles)
        self.block = fit_block_rows(order, topo.two_ring_padded.shape[1])
        # vertex and triangle rows of each part
        self.parts = [(slice(n * i // 2, n * j // 2), slice(m * i // 2, m * j // 2))
                      for i, j in ((0, 1), (1, 2), (0, 2))]
        # the mesh that a step moves or a fit reads, and then the new mesh
        self.new, self.normals = alloc((n + 1, 4)), alloc((n, 4))
        # the arclength each vertex moves along its normal, the smoothing strength
        self.offsets, self.strength = alloc(n), alloc(1)
        self.moved = alloc((n + 1, 4))
        self.face_normals = alloc((m + 1, 4))
        self.sides = alloc((m, 3))
        self.out = (alloc((n, 3)), alloc(n), alloc(n, bool))  # hessian, cond, notspd

    def run(self, phase):
        self._phases[phase](self, WHOLE)

    def close(self):
        pass

    def _load(self, mesh, order):
        """Copy ``mesh`` into ``new`` and ``normals``, which the move and the fit read."""
        if mesh.topology is not self.topology or order != self.order:
            raise ValueError("stepper was made for another topology or fit order")
        self.new[:mesh.n_vertices] = mesh.vertices
        self.normals[...] = mesh.normals

    def step(self, mesh, offsets, smoothing):
        """The mesh after one step, with its normals and side lengths.

        Each vertex of ``mesh`` moves by arclength ``offsets`` along the
        great circle through its normal; with ``smoothing`` > 0 it then
        moves toward its one-ring log-mean by that strength, and every
        vertex is renormalised, moved or not.  The geometry phase raises
        MeshDegenerateError where the new mesh fails the quality check, and
        the new mesh keeps the side table that phase measured.
        """
        self._load(mesh, self.order)
        n = mesh.n_vertices
        self.offsets[...] = offsets
        self.strength[0] = smoothing
        self.run(MOVE)
        if smoothing > 0.0:
            self.run(MOVED_FACES)
            self.run(SMOOTH)
        else:
            self.new[:n] = self.moved[:n]
        self.run(GEOMETRY)
        self.run(NORMALS)
        new = mesh.with_vertices(self.new[:n].copy(), normals=self.normals.copy())
        new._sides = self.sides.copy()
        return new

    def check(self, mesh):
        """Raise MeshDegenerateError where ``mesh`` fails the quality check
        of :meth:`step`; otherwise ``mesh`` keeps the side table measured
        for the check."""
        self._load(mesh, self.order)
        self.run(GEOMETRY)
        mesh._sides = self.sides.copy()

    def fit(self, mesh, order):
        """(hessian, cond, notspd) of the height fit at every vertex of
        ``mesh``: views of the buffers, which the next step or fit
        overwrites."""
        self._load(mesh, order)
        self.run(FIT)
        return self.out

    def _move(self, part):
        v = self.parts[part][0]
        self.moved[v] = geodesic_step(self.new[v], self.normals[v], self.offsets[v])

    def _moved_faces(self, part):
        f = self.parts[part][1]
        self.face_normals[f] = _face_normals(*_corners(self.moved, self.topology.triangles, f))

    def _smooth(self, part):
        v = self.parts[part][0]
        # the moved mesh's normals, which the normals phase overwrites with
        # the new mesh's; each part reads only its own rows
        self.normals[v] = _vertex_normals(self.moved, self.face_normals,
                                          self.topology.vertex_faces, v)
        # the smoothing reads the buffers; this mesh is made only because
        # perfbench counts the moved mesh's normals as a with_vertices call
        self.mesh.with_vertices(self.moved[:-1], normals=self.normals)
        self.new[v] = _tangential_smooth(self.moved, self.normals, self.topology,
                                         self.strength[0], v)

    def _geometry(self, part):
        f = self.parts[part][1]
        corners = _corners(self.new, self.topology.triangles, f)
        self.face_normals[f] = _face_normals(*corners)
        cosines, self.sides[f] = _triangle_shape(*corners)
        _check_shape(cosines, self.sides[f])

    def _normals(self, part):
        v = self.parts[part][0]
        self.normals[v] = _vertex_normals(self.new, self.face_normals,
                                          self.topology.vertex_faces, v)

    def _fit(self, part):
        _fit_blocks(self.new, self.normals, self.topology, self.order, self.out,
                    self.parts[part][0], self.block)

    # in the order of the phase numbers; functions, not bound methods, which
    # would hold the stepper in a reference cycle
    _phases = (_move, _moved_faces, _smooth, _geometry, _normals, _fit)


# Meshes below this size are stepped in one process.  Starting and ending
# the worker costs about 5.5 ms per run on a 2-CPU virtual machine; there,
# the flows of the bundled scenarios on level-3 spheres (n = 642) ran about
# 10% faster with it.  Smaller meshes were not measured.
PARALLEL_MIN_VERTICES = 512

# How long the side that waits for the other reads its pipe without blocking
# before it blocks.  A blocking read lets an idle virtual CPU halt, and the
# wake-up is paid at each of the twelve handoffs of a smoothed step: on a
# 2-CPU virtual machine a one-byte round trip took 30-130 us when the
# other side blocked, 6-15 us when it polled.  2 ms is longer than the
# parent's work between two steps of a level-4 sphere (about 1.2 ms), so the
# worker seldom blocks during a run.
HANDOFF_POLL_S = 2e-3


def _receive(fd):
    """One byte from the non-blocking pipe ``fd``, b"" at its end: polled for
    HANDOFF_POLL_S, then waited for."""
    deadline = time.perf_counter() + HANDOFF_POLL_S
    while True:
        try:
            return os.read(fd, 1)
        except BlockingIOError:
            if time.perf_counter() > deadline:
                select.select([fd], [], [])


class StepWorker(Stepper):
    """A :class:`Stepper` whose phases run in two processes: a forked worker
    takes part 1 of each, the parent part 0.

    The buffers live in anonymous shared mappings made before the fork, so
    nothing is pickled; one byte on a pipe starts the worker's part of a
    phase, and one byte back reports it done (b"d") or failed (b"e").  A
    phase that fails in either process runs again over all rows in the
    parent, which raises the error the serial step raises.  When the
    command pipe ends, the worker leaves; :meth:`close` reaps it with
    ``os.wait4`` and keeps the ``ru_maxrss`` of its resource usage as
    ``peak_rss_mb``.  The worker is pinned to ``cpu``: where the kernel does
    not balance load between CPUs, a forked process stays on its parent's
    CPU and the two share it.

    The split is fixed rather than balanced (a process that finishes early
    taking rows left over): with a share that changed from step to step,
    the parent's heap ended each flow in a different layout, and the peak
    RSS of a run of the bundled scenarios varied by 4 MB from run to run.

    ``fork`` rather than ``spawn``: a spawned worker imports ``__main__``
    again, and a script that calls ``run_flow`` at module level would then
    fork without end.  Forking a process that runs other threads may
    deadlock the child, so :func:`step_worker` starts none while Python runs
    a second thread; a BLAS thread pool is still there, and from Python
    3.12 ``os.fork`` warns (DeprecationWarning) about it.  The worker
    leaves through ``os._exit``.
    """

    _open = set()  # the parent's pipe ends of every open worker

    def __init__(self, mesh, order, cpu):
        super().__init__(mesh, order, alloc=_shared)
        self.cpu = cpu
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = os.fork()
        except BaseException:
            for fd in fds:
                os.close(fd)
            raise
        cmd_r, self.command, self.reply, rep_w = fds
        if self.pid == 0:
            self._serve(cmd_r, rep_w)
        os.close(cmd_r)
        os.close(rep_w)
        os.set_blocking(self.reply, False)
        self._open.update((self.command, self.reply))

    def _serve(self, commands, replies):
        """The worker: its part of one phase per byte, until the pipe ends."""
        status = 1
        try:
            # a command end of another worker held here would keep that
            # worker's pipe from ending, and its close waiting for ever
            for fd in self._open | {self.command, self.reply}:
                os.close(fd)
            try:
                os.sched_setaffinity(0, {self.cpu})
            except OSError:  # a CPU the mask names but this process may not use
                pass
            os.set_blocking(commands, False)
            while command := _receive(commands):
                try:
                    self._phases[command[0]](self, 1)
                    reply = b"d"
                except Exception:  # raised again in the parent, see run
                    reply = b"e"
                os.write(replies, reply)
            status = 0
        except Exception:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)

    def run(self, phase):
        """Part 1 of ``phase`` in the worker, part 0 here.  Raises
        RuntimeError naming the worker if it died."""
        try:
            os.write(self.command, bytes((phase,)))
        except BrokenPipeError:
            self._died()
        failed = False
        try:
            self._phases[phase](self, 0)
        except Exception:  # raised again below, over all rows
            failed = True
        finally:
            reply = _receive(self.reply)
        if not reply:
            self._died()
        if failed or reply != b"d":
            self._phases[phase](self, WHOLE)

    def _died(self):
        pid, self.pid = self.pid, None
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        how = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise RuntimeError(f"curvature fit worker {pid} {how}")

    def close(self):
        """End the worker, keep its peak RSS and reap it.  Safe to call more
        than once."""
        if self.command is None:
            return
        os.close(self.command)
        if self.pid is not None:
            self.peak_rss_mb = os.wait4(self.pid, 0)[2].ru_maxrss / 1024.0
        os.close(self.reply)
        self._open.difference_update((self.command, self.reply))
        self.pid = self.command = self.reply = None


def _shared(shape, dtype=float):
    """A zeroed array in an anonymous shared mapping: processes forked after
    it is made see each other's writes."""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return np.frombuffer(mmap.mmap(-1, size), dtype).reshape(shape)


def _current_cpu():
    """The CPU this process last ran on, from /proc, or None."""
    try:
        with open("/proc/self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])  # field 39, processor
    except (OSError, IndexError, ValueError):
        return None


def step_worker(mesh, order):
    """The step worker for a flow from ``mesh`` with the fit at ``order``,
    pinned to the lowest CPU of this process's affinity mask other than the
    one this process runs on.  None where the step stays in one process:
    one CPU, no ``os.fork``, fewer than PARALLEL_MIN_VERTICES vertices, a
    second Python thread running, or a worker that could not be started
    (``os.fork`` or a pipe or mapping refused).  The caller closes it."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return None
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2 or mesh.n_vertices < PARALLEL_MIN_VERTICES:
        return None
    if threading.active_count() > 1:
        return None
    try:
        return StepWorker(mesh, order, min(cpus - {_current_cpu()}))
    except OSError:
        return None


def estimate_curvature(mesh: SurfaceMesh, order=4, worker: Stepper = None) -> CurvatureData:
    """Estimate the shape operator at every vertex by local quadric fitting.

    One- and two-ring neighbours are mapped into T_x S3 by the spherical
    log map and the height w along the normal is fitted by least squares
    in an orthonormal tangent frame (e1, e2); the shape operator is the
    negated Hessian -[[a, b], [b, c]] of the fitted w, with eigenvalues
    sorted kappa1 >= kappa2.  By default the fit carries cubic and quartic
    correction columns (order=4), which remove the aliasing of higher
    height terms into the Hessian; vertices whose two-ring is too small
    for that fall back to the plain quadric.

    The normal equations are solved by a batched Cholesky factorisation
    M = L L^T.  Its condition proxy is the squared ratio of the extreme
    Cholesky pivots, max(diag L)^2 / min(diag L)^2: an adequate stand-in
    for the condition number of M when flagging fits.  A vertex whose M is
    not positive definite (Cholesky refuses it) is flagged on its own; the
    other vertices of the batch are solved as usual.  Vertices with fewer
    than 5 usable neighbours, a matrix that is not positive definite, a
    condition proxy above COND_LIMIT or a non-finite solution are
    flagged and inherit the average curvature of their unflagged one-ring
    neighbours; with none to inherit from, their curvature is NaN.

    ``worker``, a :class:`Stepper` or :func:`step_worker` for this mesh's
    topology and ``order``, runs the fit; a worker's result is
    bit-identical to the serial fit.
    """
    if worker is None:
        worker = Stepper(mesh, order)
    return _curvature(mesh.topology, *worker.fit(mesh, order))
