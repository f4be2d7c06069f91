"""Quaternion algebra and Riemannian primitives of the unit 3-sphere.

Points of S3 are unit quaternions stored as length-4 float arrays in
(w, x, y, z) order; S2 points are unit 3-vectors identified with the
imaginary quaternions (i, j, k).  All functions broadcast over leading
axes, so an (n, 4) array is "n points".

Conventions, fixed once and used everywhere:

* Hamilton product with i*j = k.
* The Hopf projection is q -> Im(conj(q) * i * q), whose fibers are the
  left translates {(cos t + i sin t) * q}.
* Renormalisations are explicit; no function silently rescales its input.
"""

from __future__ import annotations

import numpy as np

QUAT_ONE = np.array([1.0, 0.0, 0.0, 0.0])
QUAT_I = np.array([0.0, 1.0, 0.0, 0.0])
QUAT_J = np.array([0.0, 0.0, 1.0, 0.0])
QUAT_K = np.array([0.0, 0.0, 0.0, 1.0])


def quat_mul(a, b):
    """Hamilton product of quaternions (broadcasts over leading axes)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_conj(q):
    q = np.asarray(q, dtype=float)
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def row_norms(v, keepdims=False):
    """Euclidean norms along the last axis of ``v``.

    On two or more axes with rows of 2 to 4 entries, the squared columns
    are summed in order, which is how ``np.linalg.norm(v, axis=-1)`` sums
    them there: the same bits, some 4x faster on an (n, 4) array.  Other
    arrays go to ``np.linalg.norm``, since numpy sums 8 or more entries
    pairwise and a 1-D vector in yet another order.
    """
    if v.ndim < 2 or not 2 <= v.shape[-1] <= 4:
        return np.linalg.norm(v, axis=-1, keepdims=keepdims)
    sq = v * v
    total = sq[..., 0] + sq[..., 1]
    for k in range(2, v.shape[-1]):
        total += sq[..., k]
    np.sqrt(total, out=total)
    return total[..., None] if keepdims else total


def normalize(v):
    """Explicitly rescale to unit Euclidean norm along the last axis."""
    v = np.asarray(v, dtype=float)
    n = row_norms(v, keepdims=True)
    if np.any(n == 0.0):
        raise ValueError("cannot normalize a zero vector")
    return v / n


def unit_deviation(v):
    """Largest deviation of the norms of the last axis from 1 (used by
    invariant checks)."""
    v = np.asarray(v, dtype=float)
    return float(np.max(np.abs(row_norms(v) - 1.0)))


def tangent_project(x, w):
    """Project a 4-vector w onto the tangent space of S3 at x.

    Returns w - <w, x> x, which is orthogonal to x up to round-off.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    return w - np.sum(w * x, axis=-1, keepdims=True) * x


def geodesic_step(x, d, s):
    """Move from x along the great circle with initial unit direction d.

    Parameters
    ----------
    x : array (..., 4)
        Starting points on S3.
    d : array (..., 4)
        Unit tangent directions at x (rejected if not unit to 1e-8).
    s : float or array (...)
        Signed arclength in radians.

    Returns the arrival point cos(s) x + sin(s) d, explicitly renormalized.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    dn = row_norms(d)
    if np.any(np.abs(dn - 1.0) > 1e-8):
        raise ValueError(
            "geodesic_step requires unit directions; worst |d| deviation "
            f"{np.max(np.abs(dn - 1.0)):.3e}"
        )
    s = np.asarray(s, dtype=float)[..., None]
    out = np.cos(s) * x + np.sin(s) * d
    return normalize(out)


def geodesic_distance(a, b):
    """Geodesic distance on the unit sphere (any dimension, well-conditioned)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    chord = row_norms(a - b)
    return 2.0 * np.arcsin(np.clip(0.5 * chord, -1.0, 1.0))


def log_map(x, y):
    """Inverse exponential on S3 (or S2): tangent vectors at x pointing to y.

    Returns theta * unit(y - cos(theta) x) with theta the geodesic distance;
    zero vector where y coincides with x.  theta = atan2(|y - <x, y> x|,
    <x, y>) is accurate at every angle; arccos(<x, y>) loses half the
    digits at small ones (5e-10 absolute error at theta = 1e-7).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c = np.sum(x * y, axis=-1, keepdims=True)
    d = y - c * x
    dn = row_norms(d, keepdims=True)
    theta = np.arctan2(dn, c)
    small = dn < 1e-300
    safe = np.where(small, 1.0, dn)
    return np.where(small, 0.0, theta * d / safe)


def log_scale(c):
    """theta / sin(theta) for cos(theta) = c, elementwise.

    log_map(x, y) = log_scale(<x, y>) * (y - <x, y> x), so for any e
    orthogonal to x, <log_map(x, y), e> = log_scale(<x, y>) * <y, e>: the
    tangent coordinates of y come from one dot product per axis.  Zero where
    c rounds to 1 (y coincides with x), as log_map is there.
    """
    c = np.clip(c, -1.0, 1.0)
    s = np.sqrt((1.0 - c) * (1.0 + c))  # sin(theta), exact factors near c = 1
    return np.arccos(c) / np.where(s > 0.0, s, 1.0)


def hopf_project(q):
    """Hopf projection S3 -> S2, q -> Im(conj(q) * i * q).

    Constant on the fibers {(cos t + i sin t) * q : t in [0, 2 pi)}; the
    image of a unit quaternion is a unit 3-vector.
    """
    q = np.asarray(q, dtype=float)
    p = quat_mul(quat_mul(quat_conj(q), QUAT_I), q)
    return p[..., 1:].copy()


def cross4(a, b, c):
    """Generalized cross product in R4.

    The unique vector d with <d, w> = det[rows a, b, c, w] for every w;
    d is orthogonal to a, b, c.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    c0, c1, c2, c3 = c[..., 0], c[..., 1], c[..., 2], c[..., 3]
    # 2x2 minors of the (b, c) rows
    m01 = b0 * c1 - b1 * c0
    m02 = b0 * c2 - b2 * c0
    m03 = b0 * c3 - b3 * c0
    m12 = b1 * c2 - b2 * c1
    m13 = b1 * c3 - b3 * c1
    m23 = b2 * c3 - b3 * c2
    d0 = -(a1 * m23 - a2 * m13 + a3 * m12)
    d1 = a0 * m23 - a2 * m03 + a3 * m02
    d2 = -(a0 * m13 - a1 * m03 + a3 * m01)
    d3 = a0 * m12 - a1 * m02 + a2 * m01
    return np.stack([d0, d1, d2, d3], axis=-1)


def orthonormal_tangent_basis(c):
    """Deterministic orthonormal basis (e1, e2, e3) of the tangent space at c."""
    c = np.asarray(c, dtype=float)
    basis = []
    for k in range(4):
        seed = np.zeros(4)
        seed[k] = 1.0
        v = seed - np.dot(seed, c) * c
        for e in basis:
            v = v - np.dot(v, e) * e
        n = np.linalg.norm(v)
        if n > 1e-8:
            basis.append(v / n)
        if len(basis) == 3:
            break
    return np.array(basis)
