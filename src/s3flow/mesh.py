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

from dataclasses import dataclass, field

import numpy as np

from .s3core import (
    cross4,
    geodesic_distance,
    log_map,
    log_scale,
    normalize,
    orthonormal_tangent_basis,
    quat_conj,
    quat_mul,
    unit_deviation,
    QUAT_I,
    QUAT_ONE,
)


class MeshError(ValueError):
    """Raised when mesh data violates a structural invariant."""


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------


def validate_topology(triangles, n_vertices):
    """Check that triangles form a closed orientable 2-manifold.

    No triangle may repeat a vertex, and every undirected edge must be
    shared by exactly two triangles with opposite orientations.  Raises
    :class:`MeshError` with a diagnostic naming an offending triangle or
    the smallest offending edge.
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
    directed = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    keys = np.sort(directed[:, 0] * np.int64(n_vertices) + directed[:, 1])
    repeated = keys[1:][keys[1:] == keys[:-1]]
    if repeated.size:
        k = repeated[0]
        raise MeshError(
            f"inconsistent winding: directed edge ({k // n_vertices}, {k % n_vertices}) "
            "appears in more than one triangle"
        )
    rev = np.sort(directed[:, 1] * np.int64(n_vertices) + directed[:, 0])
    missing = keys[rev[np.minimum(np.searchsorted(rev, keys), len(rev) - 1)] != keys]
    if missing.size:
        k = missing[0]
        raise MeshError(
            f"boundary edge ({k // n_vertices}, {k % n_vertices}): "
            "every edge must be shared by exactly 2 triangles"
        )


def padded(x):
    """``x`` with a zero row appended, for indexing with padded index arrays."""
    return np.concatenate([x, np.zeros((1,) + x.shape[1:])])


def group(keys, values, n, pad):
    """Table whose row k lists, ascending, the values paired with key k.

    ``keys`` lie in 0..n-1 and ``values`` in 0..pad-1; rows are padded with
    ``pad`` to the longest.  Returns (table, counts), counts[k] being the
    length of row k.
    """
    keys, values = np.divmod(np.sort(keys * np.int64(pad) + values), pad)
    counts = np.bincount(keys, minlength=n)
    rank = np.arange(len(keys)) - (np.cumsum(counts) - counts)[keys]
    table = np.full((n, int(counts.max(initial=0))), pad, dtype=np.int64)
    table[keys, rank] = values
    return table, counts


class _Topology:
    """Connectivity caches shared between meshes with identical triangles.

    ``one_ring_padded`` and ``two_ring_padded`` list the neighbours of each
    vertex, and of its neighbours, without the vertex itself; rows are
    ascending and padded with the index n_vertices, which points at the zero
    row that :func:`padded` appends: a zero neighbour has zero tangent
    coordinates, so it adds nothing to the fit or to the smoothing.
    ``one_ring_counts`` and ``ring_counts`` give the row lengths.
    ``vertex_faces`` lists the triangles around each vertex, padded with the
    index m of a zero row.  ``edges`` lists each undirected edge (a, b) once,
    with a < b, in lexicographic order.
    """

    def __init__(self, triangles, n_vertices):
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.n_vertices = n = int(n_vertices)
        validate_topology(self.triangles, n)
        tri = self.triangles
        a, b = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]).T
        # on a closed orientable mesh each edge runs once in each direction,
        # so the edges leaving a vertex name each of its neighbours once
        one, self.one_ring_counts = group(a, b, n, n)
        self.one_ring_padded = one
        v = np.repeat(np.arange(n), self.one_ring_counts)
        u = one[one < n]  # row by row: the directed edges v -> u, sorted
        self.edges = np.stack([v, u], axis=1)[v < u]

        # the two-ring: the one-rings of v and of its neighbours, with v and
        # repeats padded out, sorted to the front of each row
        pad_row = np.full((1, one.shape[1]), n)
        cand = np.concatenate([one, np.concatenate([one, pad_row])[one].reshape(n, -1)], axis=1)
        cand[cand == np.arange(n)[:, None]] = n
        cand.sort(axis=1)
        cand[:, 1:][cand[:, 1:] == cand[:, :-1]] = n
        cand.sort(axis=1)
        self.ring_counts = np.count_nonzero(cand < n, axis=1)
        self.two_ring_padded = cand[:, :self.ring_counts.max(initial=0)].copy()

        corners = tri.ravel()
        self.vertex_faces, _ = group(corners, np.arange(len(corners)) // 3, n, len(tri))

    def euler_characteristic(self):
        return self.n_vertices - len(self.edges) + len(self.triangles)


# ---------------------------------------------------------------------------
# the mesh
# ---------------------------------------------------------------------------


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
        if normals is None:
            self.normals = self._geometric_normals()
        else:
            self.normals = np.ascontiguousarray(normals, dtype=float)
        self._edge_lengths = None
        self._triangle_cosines = None
        if validate:
            self.validate()

    @property
    def triangles(self):
        return self.topology.triangles

    @property
    def n_vertices(self):
        return len(self.vertices)

    def _geometric_normals(self):
        x = self.vertices
        tri = self.triangles
        a, b, c = x[tri[:, 0]], x[tri[:, 1]], x[tri[:, 2]]
        # the face normal, orthogonal to all three corners up to round-off;
        # the projection below makes each vertex normal tangent to S3
        face_normals = padded(cross4(a, b - a, c - a))
        acc = np.einsum("nkd->nd", face_normals[self.topology.vertex_faces])
        acc = acc - np.einsum("nd,nd->n", acc, x)[:, None] * x
        return normalize(acc)

    def with_vertices(self, vertices, normals=None):
        """New mesh with the same topology (caches shared) and new geometry."""
        return SurfaceMesh(vertices, None, normals=normals, validate=False,
                           grid_shape=self.grid_shape, _topology=self.topology)

    def validate(self):
        dev = unit_deviation(self.vertices)
        if dev > 1e-10:
            raise MeshError(f"vertex off S3 by {dev:.3e}")
        ndev = unit_deviation(self.normals)
        if ndev > 1e-8:
            raise MeshError(f"normal not unit by {ndev:.3e}")
        ortho = np.max(np.abs(np.sum(self.normals * self.vertices, axis=1)))
        if ortho > 1e-8:
            raise MeshError(f"normal not tangent to S3 by {ortho:.3e}")
        e = self.topology.edges
        dots = np.sum(self.normals[e[:, 0]] * self.normals[e[:, 1]], axis=1)
        if np.any(dots <= 0.0):
            raise MeshError("normal field flips across an edge")

    # -- aggregates ---------------------------------------------------------

    def edge_lengths(self):
        """Geodesic edge lengths in radians (cached; geometry is immutable)."""
        if self._edge_lengths is None:
            e = self.topology.edges
            self._edge_lengths = geodesic_distance(
                self.vertices[e[:, 0]], self.vertices[e[:, 1]]
            )
        return self._edge_lengths

    def triangle_cosines(self):
        """Cosines of the Euclidean corner angles of each triangle in R4 (cached)."""
        if self._triangle_cosines is None:
            x = self.vertices
            tri = self.triangles
            a, b, c = x[tri[:, 0]], x[tri[:, 1]], x[tri[:, 2]]
            ab, bc, ca = b - a, c - b, a - c
            lab, lbc, lca = (np.sqrt(np.einsum("nd,nd->n", e, e)) for e in (ab, bc, ca))
            self._triangle_cosines = np.stack([
                -np.einsum("nd,nd->n", ab, ca) / (lab * lca),
                -np.einsum("nd,nd->n", bc, ab) / (lbc * lab),
                -np.einsum("nd,nd->n", ca, bc) / (lca * lbc),
            ], axis=1)
        return self._triangle_cosines

    def triangle_angles(self):
        """Euclidean corner angles (radians) of each triangle in R4."""
        return np.arccos(np.clip(self.triangle_cosines(), -1.0, 1.0))

    def area(self):
        """Total area as a sum of spherical triangle areas (l'Huilier)."""
        tri = self.triangles
        x = self.vertices
        a = geodesic_distance(x[tri[:, 1]], x[tri[:, 2]])
        b = geodesic_distance(x[tri[:, 0]], x[tri[:, 2]])
        c = geodesic_distance(x[tri[:, 0]], x[tri[:, 1]])
        s = 0.5 * (a + b + c)
        t = (
            np.tan(0.5 * s)
            * np.tan(0.5 * (s - a))
            * np.tan(0.5 * (s - b))
            * np.tan(0.5 * (s - c))
        )
        return float(np.sum(4.0 * np.arctan(np.sqrt(np.maximum(t, 0.0)))))

    def diameter_proxy(self, n_samples=64):
        """Max pairwise geodesic distance among up to n_samples vertices."""
        n = self.n_vertices
        idx = np.linspace(0, n - 1, min(n_samples, n)).astype(np.int64)
        pts = self.vertices[idx]
        g = np.clip(pts @ pts.T, -1.0, 1.0)
        return float(np.max(np.arccos(g)))


@dataclass
class MeshQualityReport:
    n_vertices: int
    n_triangles: int
    euler_characteristic: int
    min_edge: float
    max_edge: float
    min_angle_deg: float


def mesh_quality(mesh: SurfaceMesh) -> MeshQualityReport:
    el = mesh.edge_lengths()
    ang = mesh.triangle_angles()
    return MeshQualityReport(
        n_vertices=mesh.n_vertices,
        n_triangles=len(mesh.triangles),
        euler_characteristic=mesh.topology.euler_characteristic(),
        min_edge=float(el.min()),
        max_edge=float(el.max()),
        min_angle_deg=float(np.degrees(ang.min())),
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
        # the norm through matmul rounds as np.linalg.norm does on one
        # vector; einsum and (m * m).sum(1) differ from it in the last bit
        m = m / np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]
        verts = np.concatenate([verts, m])
        i, j, k = tris.T
        a, b, c = number[inverse.reshape(-1, 3)].T
        tris = np.stack([i, a, c, j, b, a, k, c, b, a, b, c], axis=1).reshape(-1, 3)
    return normalize(verts), tris


def _oriented(vertices, triangles, normals):
    """Flip the winding if it disagrees with the given normal field."""
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    s = np.sum(cross4(a, b - a, c - a) * normals[triangles[:, 0]], axis=1)
    if np.all(s < 0):
        return triangles[:, [0, 2, 1]]
    if np.all(s > 0):
        return triangles
    raise MeshError("generator produced mixed triangle orientations")


def make_geodesic_sphere(r, level, center=None):
    """Geodesic sphere of radius r (0 < r < pi) about ``center`` in S3.

    Icosahedral subdivision at the given level; normals point outward,
    away from the center along great circles.  r = pi/2 gives a great
    (totally geodesic) sphere.
    """
    if not (0.0 < r < np.pi):
        raise ValueError(f"geodesic radius must lie in (0, pi), got {r}")
    if level < 0:
        raise ValueError("subdivision level must be >= 0")
    if center is None:
        center = QUAT_ONE
    center = normalize(np.asarray(center, dtype=float))
    dirs, tris = _icosphere(level)
    basis = orthonormal_tangent_basis(center)  # (3, 4)
    u = dirs @ basis  # (n, 4) unit tangents at center
    verts = normalize(np.cos(r) * center + np.sin(r) * u)
    nrm = -np.sin(r) * center + np.cos(r) * u
    nrm = normalize(nrm - np.sum(nrm * verts, axis=1, keepdims=True) * verts)
    tris = _oriented(verts, tris, nrm)
    return SurfaceMesh(verts, tris, normals=nrm)


def make_perturbed_sphere(r, level, amplitude, seed, center=None):
    """Geodesic sphere with a smooth seeded radial perturbation.

    The radius field is r + amplitude * g(u) where g is a random low-order
    polynomial (linear plus quadratic form) in the unit direction u,
    normalized to max |g| = 1.  Normals are recomputed from the winding.
    Deterministic for a given seed.
    """
    if not (0.0 < r < np.pi):
        raise ValueError(f"geodesic radius must lie in (0, pi), got {r}")
    if amplitude < 0.0:
        raise ValueError("amplitude must be non-negative")
    if center is None:
        center = QUAT_ONE
    center = normalize(np.asarray(center, dtype=float))
    dirs, tris = _icosphere(level)
    rng = np.random.default_rng(seed)
    quad = rng.standard_normal((3, 3))
    quad = 0.5 * (quad + quad.T)
    lin = rng.standard_normal(3)
    g = np.einsum("ni,ij,nj->n", dirs, quad, dirs) + dirs @ lin
    peak = np.max(np.abs(g))
    if peak > 0.0:
        g = g / peak
    radii = r + amplitude * g
    if radii.min() <= 0.0 or radii.max() >= np.pi:
        raise ValueError("perturbation pushes the radius outside (0, pi)")
    basis = orthonormal_tangent_basis(center)
    u = dirs @ basis
    verts = normalize(np.cos(radii)[:, None] * center + np.sin(radii)[:, None] * u)
    approx_nrm = -np.sin(radii)[:, None] * center + np.cos(radii)[:, None] * u
    tris = _oriented(verts, tris, approx_nrm)
    return SurfaceMesh(verts, tris, normals=None)


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


def _lift_to_fiber(c):
    """One quaternion q with hopf_project(q) = c (c a unit 3-vector)."""
    c = np.asarray(c, dtype=float)
    i_axis = np.array([1.0, 0.0, 0.0])
    d = float(np.dot(i_axis, c))
    if d > 1.0 - 1e-14:
        return QUAT_ONE.copy()
    if d < -1.0 + 1e-14:
        return np.array([0.0, 0.0, 1.0, 0.0])  # rotate about j by pi
    axis = np.cross(i_axis, c)
    axis = axis / np.linalg.norm(axis)
    t = np.arccos(np.clip(d, -1.0, 1.0))
    a = np.concatenate([[np.cos(0.5 * t)], np.sin(0.5 * t) * axis])
    return quat_conj(a)


def make_hopf_torus(curve, n_fiber):
    """Hopf-fiber torus over a closed curve on S2.

    For each curve sample the full Hopf fiber circle is sampled ``n_fiber``
    times; the lift is chosen continuously along the curve and the fiber
    phase is sheared to absorb the lift holonomy so the seam closes.
    The preimage of any curve is intrinsically flat (G = 0).
    """
    samples = np.asarray(getattr(curve, "samples", curve), dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 3 or len(samples) < 8:
        raise ValueError("curve must provide >= 8 unit 3-vector samples")
    if n_fiber < 8:
        raise ValueError("need n_fiber >= 8")
    n_curve = len(samples)

    lifts = np.empty((n_curve + 1, 4))
    lifts[0] = _lift_to_fiber(samples[0])
    for k in range(n_curve):
        c0 = samples[k]
        c1 = samples[(k + 1) % n_curve]
        axis = np.cross(c0, c1)
        an = np.linalg.norm(axis)
        t = np.arccos(np.clip(float(np.dot(c0, c1)), -1.0, 1.0))
        if an < 1e-15 or t < 1e-15:
            step = QUAT_ONE
        else:
            axis = axis / an
            a = np.concatenate([[np.cos(0.5 * t)], np.sin(0.5 * t) * axis])
            step = quat_conj(a)
        lifts[k + 1] = quat_mul(lifts[k], step)

    h = quat_mul(lifts[n_curve], quat_conj(lifts[0]))
    off_fiber = float(np.hypot(h[2], h[3]))
    if off_fiber > 1e-6:
        raise MeshError(
            f"continuous Hopf lift failed to close: holonomy defect {off_fiber:.3e} "
            "off the fiber direction"
        )
    holonomy = float(np.arctan2(h[1], h[0]))

    seg = geodesic_distance(samples, np.roll(samples, -1, axis=0))
    frac = np.concatenate([[0.0], np.cumsum(seg)]) / np.sum(seg)
    phase = -holonomy * frac[:n_curve]
    tw = np.stack(
        [np.cos(phase), np.sin(phase), np.zeros(n_curve), np.zeros(n_curve)], axis=-1
    )
    q = quat_mul(tw, lifts[:n_curve])  # (n_curve, 4), seam now closes

    theta = 2.0 * np.pi * np.arange(n_fiber) / n_fiber
    rot = np.stack(
        [np.cos(theta), np.sin(theta), np.zeros(n_fiber), np.zeros(n_fiber)], axis=-1
    )
    verts = quat_mul(rot[None, :, :], q[:, None, :]).reshape(-1, 4)
    verts = normalize(verts)

    grid = verts.reshape(n_curve, n_fiber, 4)
    t_fib = quat_mul(QUAT_I, grid)
    t_base = np.roll(grid, -1, axis=0) - np.roll(grid, 1, axis=0)
    t_base = t_base - np.sum(t_base * grid, axis=-1, keepdims=True) * grid
    t_base = t_base - np.sum(t_base * t_fib, axis=-1, keepdims=True) * t_fib
    t_base = normalize(t_base)
    nrm = normalize(cross4(grid, t_fib, t_base)).reshape(-1, 4)

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
    neighbours; their scalars are inherited from one-ring averages.  The
    principal directions are not kept: the flow reads curvature values only.
    """

    kappa1: np.ndarray
    kappa2: np.ndarray
    H: np.ndarray = field(init=False)
    normA2: np.ndarray = field(init=False)
    G: np.ndarray = field(init=False)
    flagged: np.ndarray = None

    def __post_init__(self):
        self.H = self.kappa1 + self.kappa2
        self.normA2 = self.kappa1 ** 2 + self.kappa2 ** 2
        self.G = 1.0 + self.kappa1 * self.kappa2
        if self.flagged is None:
            self.flagged = np.zeros(len(self.kappa1), dtype=bool)

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


# Vertices fitted together.  Small blocks keep the fit's arrays small: with
# the whole level-4 sphere in one block, each fit took some 3,700 fresh
# pages from the operating system, a quarter of its time.
FIT_BLOCK = 128


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


def estimate_curvature(mesh: SurfaceMesh, cond_limit=1e8, order=4) -> CurvatureData:
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
    condition proxy above ``cond_limit`` or a non-finite solution are
    flagged and inherit the average curvature of their unflagged one-ring
    neighbours.
    """
    x = mesh.vertices
    nu = mesh.normals
    n = mesh.n_vertices
    topo = mesh.topology
    counts = topo.ring_counts
    nbr = topo.two_ring_padded
    xz = padded(x)

    # deterministic tangent frame: seed from the first two-ring neighbour
    seed = log_map(x, xz[nbr[:, 0]])
    seed = seed - np.sum(seed * nu, axis=1, keepdims=True) * nu
    sn = np.linalg.norm(seed, axis=1, keepdims=True)
    bad_seed = sn[:, 0] < 1e-14
    if np.any(bad_seed):
        # fall back to an arbitrary coordinate direction in the tangent plane
        alt = np.zeros((n, 4))
        alt[:, 0] = 1.0
        alt = alt - np.sum(alt * x, axis=1, keepdims=True) * x
        alt = alt - np.sum(alt * nu, axis=1, keepdims=True) * nu
        seed = np.where(bad_seed[:, None], alt, seed)
        sn = np.linalg.norm(seed, axis=1, keepdims=True)
    e1 = seed / sn
    e2 = normalize(cross4(x, nu, e1))

    frame = np.stack([x, e1, e2, nu], axis=1)
    blocks = []
    for i in range(0, n, FIT_BLOCK):
        rows = slice(i, i + FIT_BLOCK)
        blocks.append(_fit_block(frame[rows], xz[nbr[rows]], counts[rows], order))
    hessian, cond, notspd = (np.concatenate(part) for part in zip(*blocks))
    flagged = (counts < 5) | notspd | ~np.isfinite(cond) | (cond > cond_limit)
    flagged |= ~np.all(np.isfinite(hessian), axis=1)
    a, b, c = hessian.T

    s11, s12, s22 = -a, -b, -c
    mean = 0.5 * (s11 + s22)
    delta = np.hypot(0.5 * (s11 - s22), s12)
    kappa1 = mean + delta
    kappa2 = mean - delta

    if np.any(flagged):
        k1f = kappa1.copy()
        k2f = kappa2.copy()
        good = ~flagged
        for i in np.flatnonzero(flagged):
            ring = topo.one_ring_padded[i, :topo.one_ring_counts[i]]
            ok = ring[good[ring]]
            if len(ok):
                k1f[i] = float(np.mean(kappa1[ok]))
                k2f[i] = float(np.mean(kappa2[ok]))
            else:
                k1f[i] = 0.0
                k2f[i] = 0.0
        kappa1, kappa2 = k1f, k2f

    return CurvatureData(kappa1=kappa1, kappa2=kappa2, flagged=flagged)
