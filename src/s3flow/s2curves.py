"""Closed curves on the 2-sphere: geodesic curvature, curve shortening,
and the zero-total-curvature / subinterval conditions for Gauss images of
flat tori.

Discrete geodesic curvature is the turning angle between consecutive
geodesic segments divided by the local arclength, signed by the outward
orientation of S2.  Turning angles make the discrete Gauss-Bonnet theorem
exact on geodesic polygons: the angles of a simple positively oriented
polygon sum to 2 pi minus the enclosed spherical area.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import MAX_STEPS, StopReason
from .s3core import normalize

CSF_LENGTH_TOL = 0.05  # the length below which run_csf stops as Extinct
WEINER_TOTAL_TOL = 0.05  # largest |total geodesic curvature| that weiner_check passes
HAUSDORFF_SAMPLES = 512  # samples of each curve in hausdorff_distance


class CurveCollapseError(ValueError):
    """A segment of the curve shrank to nothing: the curve is vanishing."""


class S2Curve:
    """A closed polyline on S2 (cyclic samples, piecewise-geodesic).

    Samples must be unit 3-vectors with consecutive geodesic gaps between
    1e-8 and 0.5 radians; at least 8 samples.  ``gaps[i]`` is the geodesic
    length of the segment from sample i to sample i + 1 (cyclically).
    """

    def __init__(self, samples):
        s = np.ascontiguousarray(samples, dtype=float)
        if s.ndim != 2 or s.shape[1] != 3:
            raise ValueError("samples must be an (n, 3) array")
        if len(s) < 8:
            raise ValueError(f"need at least 8 samples, got {len(s)}")
        dev = np.max(np.abs(np.sqrt(np.einsum("ij,ij->i", s, s)) - 1.0))
        if not dev <= 1e-10:  # written so that NaN fails, as below
            raise ValueError(f"sample off S2 by {dev:.3e}")
        # the geodesic gap 2 arcsin(|chord| / 2), well conditioned at every angle
        chord = np.diff(s, axis=0, append=s[:1])
        half = 0.5 * np.sqrt(np.einsum("ij,ij->i", chord, chord))
        gaps = 2.0 * np.arcsin(np.minimum(half, 1.0, out=half), out=half)
        if not gaps.min() >= 1e-8:
            raise CurveCollapseError(f"degenerate segment of length {gaps.min():.3e}")
        if not gaps.max() <= 0.5:
            raise ValueError(f"segment too long ({gaps.max():.3f} rad > 0.5)")
        self.samples = s
        self.gaps = gaps

    def __len__(self):
        return len(self.samples)

    def length(self):
        return float(np.sum(self.gaps))


WRITE_CHUNK = 1024  # rows formatted into one string per write


def write_rows(fh, fmt, rows):
    """Write ``fmt % tuple(row)`` and a newline for each row of ``rows`` (a
    1-D array is one column), the text ``np.savetxt`` writes; savetxt
    defines a class per call and leaves a reference cycle holding the file
    until the garbage collector runs.  The rows are formatted as Python
    numbers, which print as numpy's do, a chunk of rows per write: one
    write per row costs a call each, one string for the whole file the
    memory of its text."""
    rows = np.asarray(rows)
    if rows.ndim == 1:
        rows = rows[:, None]
    line = fmt + "\n"
    for start in range(0, len(rows), WRITE_CHUNK):
        fh.write("".join([line % tuple(r) for r in rows[start:start + WRITE_CHUNK].tolist()]))


def save_curve_csv(curve: S2Curve, path):
    """Write the samples as CSV, one unit 3-vector per row (17 digits)."""
    with open(path, "w") as fh:
        write_rows(fh, "%.17g,%.17g,%.17g", curve.samples)


def read_rows(path):
    """The comma-separated fields of each line of ``path`` but blanks and comments."""
    with open(path) as fh:
        return [line.split(",") for line in map(str.strip, fh) if line and line[0] != "#"]


def load_curve_csv(path) -> S2Curve:
    """Read a curve written by :func:`save_curve_csv` (or any 3-column CSV)."""
    # numpy parses each field as float() does, with its message
    return S2Curve(np.array(read_rows(path), dtype=float))


def make_latitude_circle(theta, n):
    """Uniformly sampled circle at colatitude theta from the pole (0, 0, 1)."""
    if not (0.0 < theta < np.pi):
        raise ValueError("colatitude must lie in (0, pi)")
    phi = 2.0 * np.pi * np.arange(n) / n
    st, ct = np.sin(theta), np.cos(theta)
    return S2Curve(np.stack([st * np.cos(phi), st * np.sin(phi), np.full(n, ct)], axis=-1))


def make_great_circle(axis=(0.0, 0.0, 1.0), n=128):
    """Uniformly sampled great circle in the plane orthogonal to ``axis``."""
    a = normalize(np.asarray(axis, dtype=float))
    seed = np.array([1.0, 0.0, 0.0]) if abs(a[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = normalize(seed - np.dot(seed, a) * a)
    e2 = np.cross(a, e1)
    phi = 2.0 * np.pi * np.arange(n) / n
    return S2Curve(np.outer(np.cos(phi), e1) + np.outer(np.sin(phi), e2))


def _cross(a, b):
    """Row-wise a x b of (n, 3) arrays: the products np.cross takes, without
    its handling of axes."""
    return a[:, _NEXT] * b[:, _AFTER] - a[:, _AFTER] * b[:, _NEXT]


_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])


def _turning(p):
    """Turning angles at the samples p of a closed polyline on S2.

    Returns (psi, ds, t_in, t_out): the signed turning angle at each sample,
    the mean of the two adjacent segment lengths, and the unit tangents of
    the incoming and outgoing segments.

    The log map of each neighbour y of x is theta (y - <x, y> x) / |...|,
    with theta = atan2(|y - <x, y> x|, <x, y>) its length, so the lengths
    and the unit tangents of both neighbours come from one pass over the
    two stacked.
    """
    y = np.empty((2,) + p.shape)
    y[0, :-1], y[0, -1] = p[1:], p[0]  # the next sample
    y[1, 1:], y[1, 0] = p[:-1], p[-1]  # the previous sample
    c = np.einsum("kij,ij->ki", y, p)
    d = y - c[:, :, None] * p
    dn = np.sqrt(np.einsum("kij,kij->ki", d, d))
    theta = np.arctan2(dn, c)
    if theta.min() < 1e-12:
        raise CurveCollapseError("degenerate segment in curve")
    d /= dn[:, :, None]
    t_out = d[0]
    t_in = np.negative(d[1], out=d[1])
    psi = np.arctan2(np.einsum("ij,ij->i", p, _cross(t_in, t_out)),
                     np.einsum("ij,ij->i", t_in, t_out))
    return psi, 0.5 * (theta[0] + theta[1]), t_in, t_out


def geodesic_curvature(curve: S2Curve):
    """Signed discrete geodesic curvature and arclength weights.

    Returns (kappa_g, ds): the turning angle at each sample between the
    incoming and outgoing geodesic segments (positive for a curve turning
    left as seen from outside the sphere) divided by the mean of the two
    adjacent segment lengths, and that mean itself.  The total turning
    sum(kappa_g * ds) is exactly the polygon angle defect.
    """
    psi, ds, _, _ = _turning(curve.samples)
    return psi / ds, ds


def resample_uniform(curve: S2Curve, n=None) -> S2Curve:
    """Resample to n points uniformly spaced in arclength (spherical lerp)."""
    p = curve.samples
    if n is None:
        n = len(p)
    cum = np.concatenate([[0.0], np.cumsum(curve.gaps)])
    total = cum[-1]
    targets = total * np.arange(n) / n
    idx = np.searchsorted(cum, targets, side="right") - 1
    idx = np.clip(idx, 0, len(p) - 1)
    # the angle of each segment, from the gaps, which are accurate at every
    # angle and at least 1e-8
    omega = curve.gaps[idx]
    frac = (targets - cum[idx]) / omega
    a = np.take(p, idx, axis=0)
    b = np.take(p, idx + 1, axis=0, mode="wrap")
    # the weights sin((1 - frac) omega) and sin(frac omega) of the spherical
    # lerp, without their common divisor sin(omega): the sum is normalised
    w1 = np.sin((1.0 - frac) * omega)
    w2 = np.sin(frac * omega)
    out = w1[:, None] * a
    out += w2[:, None] * b
    out /= np.sqrt(np.einsum("ij,ij->i", out, out))[:, None]
    return S2Curve(out)


def csf_step(curve: S2Curve, dt) -> S2Curve:
    """One curve-shortening step: each sample moves along the curvature
    vector direction by arclength kappa_g * dt (not resampled)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    p = curve.samples
    psi, ds, t_in, t_out = _turning(p)
    # the unit normal along the bisector of the two tangents, so that
    # kappa_g times it is the discrete curvature vector
    t_mid = np.add(t_in, t_out, out=t_in)
    norm = np.sqrt(np.einsum("ij,ij->i", t_mid, t_mid))
    small = norm < 1e-12
    if small.any():
        t_mid[small] = t_out[small]
        norm[small] = 1.0  # t_out is a unit vector
    t_mid /= norm[:, None]
    s = psi / ds * dt
    moved = np.cos(s)[:, None] * p
    moved += np.sin(s)[:, None] * _cross(p, t_mid)
    moved /= np.sqrt(np.einsum("ij,ij->i", moved, moved))[:, None]
    return S2Curve(moved)


@dataclass
class CsfResult:
    times: np.ndarray
    lengths: np.ndarray
    curves: list           # sampled at the cadence, plus the final curve
    curve_times: np.ndarray
    final: S2Curve
    reason: StopReason     # TimeExhausted, Extinct or NumericalFailure
    detail: str = None     # why a NumericalFailure run stopped


def run_csf(curve: S2Curve, t_end, sigma=0.25, cadence=10) -> CsfResult:
    """Run curve shortening until t_end, MAX_STEPS steps or a length below CSF_LENGTH_TOL.

    Each step obeys the parabolic bound dt <= sigma * (min ds)^2, and then
    the curve is resampled.  A collapse stops the run as Extinct; any other
    invalid curve, such as a NaN sample, as NumericalFailure, with ``detail``.
    Raises ValueError, as FlowConfig does, for sigma outside (0, 1] or
    cadence below 1.
    """
    if not (0.0 < sigma <= 1.0):
        raise ValueError("sigma must lie in (0, 1]")
    if cadence < 1:
        raise ValueError("cadence must be at least 1")
    t = 0.0
    cur = curve
    times = [0.0]
    lengths = [cur.length()]
    curves = [cur]
    curve_times = [0.0]
    reason, detail = StopReason.TIME_EXHAUSTED, None
    step = 0
    while t < t_end - 1e-14 and step < MAX_STEPS:
        if lengths[-1] < CSF_LENGTH_TOL:
            reason = StopReason.EXTINCT
            break
        step_dt = min(sigma * float(cur.gaps.min()) ** 2, t_end - t)
        try:
            cur = resample_uniform(csf_step(cur, step_dt))
        except CurveCollapseError:
            reason = StopReason.EXTINCT
            break
        except ValueError as exc:
            reason, detail = StopReason.NUMERICAL_FAILURE, f"{exc} at step {step + 1}"
            break
        t += step_dt
        step += 1
        times.append(t)
        lengths.append(cur.length())
        if step % cadence == 0:
            curves.append(cur)
            curve_times.append(t)
    if curve_times[-1] != t:
        curves.append(cur)
        curve_times.append(t)
    return CsfResult(
        times=np.array(times),
        lengths=np.array(lengths),
        curves=curves,
        curve_times=np.array(curve_times),
        final=cur,
        reason=reason,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# Weiner conditions
# ---------------------------------------------------------------------------


def sup_subinterval_cyclic(values):
    """sup over contiguous cyclic subintervals of |sum of values|.

    With prefix sums P (P_0 = 0) and total T, a subinterval that does not
    wrap sums to P_j - P_i, and one that wraps to T - P_j + P_i with i <= j;
    the largest |sum| is therefore the larger of the prefix-sum span
    max P - min P and the extremes of T - P_j + (running max or min of P up
    to j).  O(n), and equal to the brute-force maximum over all O(n^2)
    subintervals up to round-off.
    """
    p = np.concatenate([[0.0], np.cumsum(np.asarray(values, dtype=float))])
    wrap = p[-1] - p
    return float(max(p.max() - p.min(),
                     np.max(wrap + np.maximum.accumulate(p)),
                     -np.min(wrap + np.minimum.accumulate(p))))


@dataclass
class WeinerReport:
    """Zero-total-curvature and subinterval verdict for a curve pair.

    A pair (gamma1, gamma2) can only arise as the two Gauss images of a
    flat torus if both total curvatures vanish and the subinterval sums
    obey sup |int_I1 kappa ds| + sup |int_I2 kappa ds| < pi.  The tolerance
    on the totals absorbs discretization of the turning angles.
    """

    total_curvature: tuple
    sup1: float
    sup2: float
    sup_pair: float
    verdict: bool


def weiner_check(gamma1: S2Curve, gamma2: S2Curve) -> WeinerReport:
    k1, ds1 = geodesic_curvature(gamma1)
    k2, ds2 = geodesic_curvature(gamma2)
    tot1 = float(np.sum(k1 * ds1))
    tot2 = float(np.sum(k2 * ds2))
    sup1 = sup_subinterval_cyclic(k1 * ds1)
    sup2 = sup_subinterval_cyclic(k2 * ds2)
    verdict = (abs(tot1) <= WEINER_TOTAL_TOL and abs(tot2) <= WEINER_TOTAL_TOL
               and sup1 + sup2 < np.pi)
    return WeinerReport(
        total_curvature=(tot1, tot2),
        sup1=sup1,
        sup2=sup2,
        sup_pair=sup1 + sup2,
        verdict=bool(verdict),
    )


def hausdorff_distance(c1: S2Curve, c2: S2Curve):
    """Symmetric geodesic Hausdorff distance between two closed curves,
    measured after uniform arclength resampling of both."""
    a = resample_uniform(c1, HAUSDORFF_SAMPLES).samples
    b = resample_uniform(c2, HAUSDORFF_SAMPLES).samples
    d = np.arccos(np.clip(a @ b.T, -1.0, 1.0))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))
