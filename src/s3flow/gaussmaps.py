"""Left- and right-translation Gauss maps into S2, and degeneracy detection.

For a surface point x with unit normal nu (both unit quaternions, nu
tangent to S3 at x), the two translation Gauss maps are

    left(x)  = Im(conj(x) * nu),
    right(x) = Im(nu * conj(x)).

Because nu is orthogonal to x both products are purely imaginary unit
quaternions, so each map lands on S2.  Intrinsically flat surfaces are
exactly the ones whose two images degenerate to curves; the covariance
eigenvalue ratio below quantifies that.  Swapping the left/right
convention permutes the two images, so tests treat them as an unordered
pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import SurfaceMesh
from .s2curves import S2Curve
from .s3core import normalize, quat_conj, quat_mul, row_norms

REAL_TOL = 1e-6  # largest real part of a Gauss map product


@dataclass
class GaussImage:
    left: np.ndarray   # (n, 3) unit vectors
    right: np.ndarray  # (n, 3) unit vectors


def gauss_maps(mesh: SurfaceMesh) -> GaussImage:
    """Both translation Gauss maps of every vertex.

    Fails if any product has real part above ``REAL_TOL``, which signals a
    normal that is not orthogonal to its vertex.
    """
    x = mesh.vertices
    nu = mesh.normals
    xbar = quat_conj(x)
    left = quat_mul(xbar, nu)
    right = quat_mul(nu, xbar)
    worst = max(float(np.max(np.abs(left[:, 0]))), float(np.max(np.abs(right[:, 0]))))
    if worst > REAL_TOL:
        raise ValueError(
            f"Gauss map real part {worst:.3e} exceeds {REAL_TOL:.1e}: corrupted normals"
        )
    return GaussImage(left=normalize(left[:, 1:]), right=normalize(right[:, 1:]))


def degeneracy_measure(points) -> float:
    """How two-dimensional a point cloud on S2 is, in [0, 1].

    Sort the eigenvalues l1 >= l2 >= l3 of the covariance about the
    centroid and return l3 / max(l2, 1e-15) clipped to [0, 1].  A curve
    has l3 ~ 0 with l2 > 0; a single point returns 0 by convention; an
    isotropic cloud returns about 1.
    """
    p = np.asarray(points, dtype=float)
    if p.ndim != 2 or p.shape[1] != 3:
        raise ValueError("points must be an (n, 3) array")
    if len(p) < 10:
        raise ValueError("need at least 10 points")
    centered = p - p.mean(axis=0)
    cov = centered.T @ centered / len(p)
    lam = np.linalg.eigvalsh(cov)  # ascending
    return float(np.clip(lam[0] / max(lam[1], 1e-15), 0.0, 1.0))


def fiber_average_curve(points, grid_shape) -> S2Curve:
    """Collapse a fiber-invariant Gauss image of a grid torus to its curve.

    ``points`` is the (rows * cols, 3) image in row-major grid order, a
    fiber to each row; averaging over the fibers removes the discretization
    scatter of an image that is constant along fibers, and renormalizes.
    """
    nu, nv = grid_shape
    p = np.asarray(points, dtype=float).reshape(nu, nv, 3)
    mean = p.mean(axis=1)
    norms = row_norms(mean)
    if norms.min() < 0.5:
        raise ValueError(
            "image is not fiber-invariant (fiber mean collapsed toward zero)"
        )
    return S2Curve(mean / norms[:, None])
