import io

import numpy as np
import pytest

from s3flow.flow import StopReason
from s3flow.s2curves import (
    CSF_LENGTH_TOL,
    S2Curve,
    _turning,
    csf_step,
    geodesic_curvature,
    hausdorff_distance,
    make_great_circle,
    make_latitude_circle,
    resample_uniform,
    run_csf,
    sup_subinterval_cyclic,
    weiner_check,
    write_rows,
)
from s3flow.s3core import geodesic_distance, log_map, normalize


def cap_area(theta):
    return 2.0 * np.pi * (1.0 - np.cos(theta))


def colatitude(curve):
    return float(np.mean(np.arccos(np.clip(curve.samples[:, 2], -1, 1))))


# -- fixtures -------------------------------------------------------------


def test_latitude_circle_construction():
    c = make_latitude_circle(np.pi / 4, 64)
    pole = np.array([0.0, 0.0, 1.0])
    d = np.arccos(np.clip(c.samples @ pole, -1, 1))
    np.testing.assert_allclose(d, np.pi / 4, atol=1e-12)


def test_latitude_at_pi_over_2_is_great_circle():
    c = make_latitude_circle(np.pi / 2, 64)
    assert np.max(np.abs(c.samples[:, 2])) < 1e-12


def test_sample_count_minimum():
    # 8 samples are accepted wherever the 0.5 rad segment cap allows
    make_latitude_circle(0.5, 8)
    with pytest.raises(ValueError):
        make_latitude_circle(0.5, 7)
    with pytest.raises(ValueError):
        make_great_circle(n=7)


def test_curve_validation():
    with pytest.raises(ValueError, match="off S2"):
        S2Curve(np.ones((16, 3)))
    pts = make_great_circle(n=16).samples.copy()
    pts[3] = pts[2]  # degenerate gap
    with pytest.raises(ValueError, match="degenerate"):
        S2Curve(pts)
    # 8 samples around a full great circle exceed the segment cap
    with pytest.raises(ValueError, match="too long"):
        make_great_circle(n=8)
    pts = make_latitude_circle(1.0, 16).samples.copy()
    pts[5] = np.nan
    with pytest.raises(ValueError, match="off S2"):
        S2Curve(pts)


# -- geodesic curvature ----------------------------------------------------


def test_great_circle_zero_curvature():
    k, _ = geodesic_curvature(make_great_circle(n=128))
    assert np.max(np.abs(k)) <= 1e-3


def test_latitude_curvature_closed_form():
    k, _ = geodesic_curvature(make_latitude_circle(np.pi / 4, 256))
    np.testing.assert_allclose(k, 1.0, atol=1e-2)  # cot(pi/4)


def test_total_turning_gauss_bonnet():
    for theta in (0.4, np.pi / 4, 1.2):
        k, ds = geodesic_curvature(make_latitude_circle(theta, 256))
        np.testing.assert_allclose(
            np.sum(k * ds), 2.0 * np.pi - cap_area(theta), atol=2e-2
        )


def test_curvature_sign_flips_with_orientation():
    c = make_latitude_circle(np.pi / 3, 64)
    rev = S2Curve(c.samples[::-1].copy())
    k1, _ = geodesic_curvature(c)
    k2, _ = geodesic_curvature(rev)
    np.testing.assert_allclose(k1, -k2[::-1], atol=1e-12)


# -- curve shortening ------------------------------------------------------


def test_great_circle_csf_stationary():
    g = make_great_circle(n=128)
    res = run_csf(g, 1.0, sigma=0.25)
    disp = np.max(np.linalg.norm(res.final.samples - g.samples, axis=1))
    assert disp <= 1e-6


def test_latitude_matches_ode_oracle():
    # latitude circles stay latitude circles; colatitude obeys
    # dtheta/dt = -cot(theta)
    res = run_csf(make_latitude_circle(np.pi / 3, 256), 0.6, sigma=0.25, cadence=25)

    def rk4(th0, t_end, dt=1e-5):
        ts, ths = [0.0], [th0]
        th, t = th0, 0.0
        while t < t_end - 1e-12 and th > 0.02:
            f = lambda x: -np.cos(x) / np.sin(x)
            k1 = f(th)
            k2 = f(th + 0.5 * dt * k1)
            k3 = f(th + 0.5 * dt * k2)
            k4 = f(th + dt * k3)
            th += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            t += dt
            ts.append(t)
            ths.append(th)
        return np.array(ts), np.array(ths)

    ts, ths = rk4(np.pi / 3, 0.6)
    for t, cur in zip(res.curve_times, res.curves):
        th_o = float(np.interp(t, ts, ths))
        if th_o > 0.15:
            assert abs(colatitude(cur) - th_o) < 2e-2


def test_csf_shrinks_toward_nearer_pole():
    res = run_csf(make_latitude_circle(np.pi / 2 + 0.2, 128), 0.1, sigma=0.25)
    assert colatitude(res.final) > np.pi / 2 + 0.2  # moves toward theta = pi


def test_csf_length_monotone():
    res = run_csf(make_latitude_circle(1.1, 128), 0.3, sigma=0.25)
    assert np.all(np.diff(res.lengths) <= 1e-9)


def test_csf_extinction_in_finite_time():
    res = run_csf(make_latitude_circle(np.pi / 3, 128), 2.0, sigma=0.25)
    assert res.reason is StopReason.EXTINCT
    assert res.detail is None
    assert res.times[-1] < 0.8  # exact circle extinction is ln 2 ~ 0.693
    # the run stops at the first length below CSF_LENGTH_TOL
    assert res.lengths[-1] < CSF_LENGTH_TOL <= res.lengths[-2]


def test_nan_curve_stops_as_numerical_failure(nan_on_third_curve_step):
    # a broken curve is no collapse: the run must not read it as Extinct
    curve = make_latitude_circle(1.0, 64)
    with np.errstate(invalid="ignore"):
        res = run_csf(curve, 0.5)
    assert res.reason is StopReason.NUMERICAL_FAILURE
    assert res.detail == "sample off S2 by nan at step 3"
    assert len(res.times) == 3  # t = 0 and the two good steps
    assert np.all(np.isfinite(res.final.samples))
    assert res.lengths[-1] == pytest.approx(curve.length(), rel=1e-2)


def test_csf_step_requires_positive_dt():
    with pytest.raises(ValueError):
        csf_step(make_great_circle(n=16), 0.0)


def test_resample_preserves_geometry():
    c = make_latitude_circle(0.8, 100)
    r = resample_uniform(c, 140)
    assert len(r) == 140
    # interpolation runs along geodesic chords, so points sit inside the
    # circle by at most the sagitta ~ gap^2 / 8
    np.testing.assert_allclose(
        np.arccos(np.clip(r.samples[:, 2], -1, 1)), 0.8, atol=1e-3
    )
    seg = np.linalg.norm(np.roll(r.samples, -1, axis=0) - r.samples, axis=1)
    assert seg.std() / seg.mean() < 1e-3


def test_resample_across_a_gap_arccos_reads_as_zero():
    # a gap of 1.02e-8 passes the 1e-8 check, but the cosine of its end
    # points rounds to 1, so arccos would give omega = 0: the first target
    # lies on it, and the angle must come from the gap
    phi = np.concatenate([[0.0, 1.02e-8], 2.0 * np.pi * np.arange(1, 32) / 32])
    c = S2Curve(np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=-1))
    r = resample_uniform(c)
    assert np.all(np.isfinite(r.samples))
    assert np.array_equal(r.samples[0], [1.0, 0.0, 0.0])
    assert np.max(np.abs(r.samples[:, 2])) == 0.0


# -- the curve step against the log_map formulation it replaced ------------


def _turning_reference(p):
    """_turning from two log maps and np.cross."""
    log_n = log_map(p, np.roll(p, -1, axis=0))
    log_p = log_map(p, np.roll(p, 1, axis=0))
    l_n = np.linalg.norm(log_n, axis=1)
    l_p = np.linalg.norm(log_p, axis=1)
    t_out = log_n / l_n[:, None]
    t_in = -log_p / l_p[:, None]
    cross = np.cross(t_in, t_out)
    psi = np.arctan2(np.einsum("ij,ij->i", p, cross), np.einsum("ij,ij->i", t_in, t_out))
    return psi, 0.5 * (l_n + l_p), t_in, t_out


def _resample_reference(p):
    """resample_uniform to as many samples, with weights divided by sin(omega)."""
    n = len(p)
    seg = geodesic_distance(p, np.roll(p, -1, axis=0))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = cum[-1] * np.arange(n) / n
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, n - 1)
    frac = ((targets - cum[idx]) / np.maximum(seg[idx], 1e-300))[:, None]
    a, b = p[idx], p[(idx + 1) % n]
    omega = np.arccos(np.clip(np.einsum("ij,ij->i", a, b), -1.0, 1.0))[:, None]
    small = omega < 1e-9
    sin = np.where(small, 1.0, np.sin(omega))
    w1 = np.where(small, 1.0 - frac, np.sin((1.0 - frac) * omega) / sin)
    w2 = np.where(small, frac, np.sin(frac * omega) / sin)
    return normalize(w1 * a + w2 * b)


def _csf_step_reference(p, dt, resample):
    psi, ds, t_in, t_out = _turning_reference(p)
    t_mid = t_in + t_out
    small = np.linalg.norm(t_mid, axis=1) < 1e-12
    t_mid[small] = t_out[small]
    n_hat = np.cross(p, normalize(t_mid))
    s = (psi / ds * dt)[:, None]
    moved = normalize(np.cos(s) * p + np.sin(s) * n_hat)
    return _resample_reference(moved) if resample else moved


def _wobbly_curve():
    rng = np.random.default_rng(11)
    phi = 2.0 * np.pi * np.arange(200) / 200
    theta = 1.0 + 0.2 * np.sin(3.0 * phi) + 0.01 * rng.standard_normal(200)
    return S2Curve(np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                             np.cos(theta)], axis=-1))


REFERENCE_CURVES = {
    "latitude": lambda: make_latitude_circle(np.pi / 3, 256),
    "great": lambda: make_great_circle(axis=(1.0, 2.0, 3.0), n=128),
    "wobbly": _wobbly_curve,
}


def assert_close(got, want):
    # the absolute part, a few rounding units of the unit-size terms, holds
    # where the value vanishes: vector components, psi on a great circle
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("name", REFERENCE_CURVES)
def test_turning_matches_log_map_reference(name):
    p = REFERENCE_CURVES[name]().samples
    for got, want in zip(_turning(p), _turning_reference(p)):
        assert_close(got, want)


@pytest.mark.parametrize("resample", [True, False], ids=["resampled", "not-resampled"])
@pytest.mark.parametrize("name", REFERENCE_CURVES)
def test_csf_step_matches_reference(name, resample):
    # the raw step, and the step composed with resampling as run_csf takes it
    c = REFERENCE_CURVES[name]()
    dt = 0.25 * float(c.gaps.min()) ** 2
    got = resample_uniform(csf_step(c, dt)) if resample else csf_step(c, dt)
    assert_close(got.samples, _csf_step_reference(c.samples, dt, resample))


# -- the row writer --------------------------------------------------------


def _with_special_values(rows):
    rows.flat[:5] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
    return rows


@pytest.mark.parametrize("fmt, rows", [
    ("%.17g", _with_special_values(np.random.default_rng(1).standard_normal(300))),
    ("v,%.17g,%.9g,%.17g",
     _with_special_values(np.random.default_rng(2).standard_normal((2500, 3)) * [1e-7, 1.0, 1e9])),
    ("t,%d,%d,%d", np.arange(-3750, 3750).reshape(2500, 3)),
], ids=["1d-float", "2d-float-2500", "int"])
def test_write_rows_matches_row_by_row_format(fmt, rows):
    fh = io.StringIO()
    write_rows(fh, fmt, rows)
    each = rows[:, None] if rows.ndim == 1 else rows
    assert fh.getvalue() == "".join(fmt % tuple(r) + "\n" for r in each)


# -- Weiner conditions -----------------------------------------------------


def test_weiner_great_circle_pair_passes():
    rep = weiner_check(make_great_circle(n=256), make_great_circle(axis=(0, 1, 0), n=256))
    assert rep.verdict
    assert abs(rep.total_curvature[0]) < 1e-9
    assert rep.sup_pair < 1e-6


def test_weiner_latitude_pair_fails():
    c = make_latitude_circle(np.pi / 4, 256)
    rep = weiner_check(c, c)
    assert not rep.verdict
    np.testing.assert_allclose(
        rep.total_curvature[0], 2 * np.pi * np.cos(np.pi / 4), atol=2e-2
    )


def brute_force_sup(values):
    n = len(values)
    best = 0.0
    for start in range(n):
        acc = 0.0
        for length in range(1, n + 1):
            acc += values[(start + length - 1) % n]
            best = max(best, abs(acc))
    return best


def test_sup_subinterval_equals_brute_force():
    rng = np.random.default_rng(99)
    for trial in range(50):
        n = int(rng.integers(10, 200))
        vals = rng.standard_normal(n) * rng.uniform(0.01, 1.0)
        assert abs(sup_subinterval_cyclic(vals) - brute_force_sup(vals)) <= 1e-12


def test_hausdorff_distance_basics():
    a = make_great_circle(n=64)
    b = make_great_circle(n=97)
    assert hausdorff_distance(a, b) < 1e-3
    c = make_latitude_circle(np.pi / 2 - 0.3, 64)
    d = hausdorff_distance(a, c)
    np.testing.assert_allclose(d, 0.3, atol=1e-2)


def test_curve_csv_round_trip(tmp_path):
    from s3flow.s2curves import load_curve_csv, save_curve_csv

    c = make_latitude_circle(0.9, 48)
    path = tmp_path / "c.csv"
    save_curve_csv(c, str(path))
    back = load_curve_csv(str(path))
    assert np.array_equal(back.samples, c.samples)


def test_curve_csv_malformed_line_named(tmp_path):
    from s3flow.s2curves import load_curve_csv, save_curve_csv

    path = tmp_path / "c.csv"
    save_curve_csv(make_latitude_circle(0.9, 48), str(path))
    lines = path.read_text().splitlines()
    lines[5] = "0.5,abc,0.1"
    path.write_text("# a comment\n\n" + "\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"^could not convert string to float: 'abc'$"):
        load_curve_csv(str(path))
