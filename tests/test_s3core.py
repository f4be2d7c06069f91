import numpy as np
import pytest

from s3flow.s3core import (
    QUAT_I,
    QUAT_J,
    QUAT_K,
    QUAT_ONE,
    cross4,
    geodesic_distance,
    geodesic_step,
    hopf_project,
    log_map,
    log_scale,
    normalize,
    quat_mul,
    row_norms,
    tangent_project,
    unit_deviation,
)


def random_unit(rng, n, d=4):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_quat_identity():
    rng = np.random.default_rng(0)
    q = random_unit(rng, 20)
    np.testing.assert_allclose(quat_mul(QUAT_ONE, q), q, atol=1e-15)
    np.testing.assert_allclose(quat_mul(q, QUAT_ONE), q, atol=1e-15)


def test_quat_table():
    np.testing.assert_allclose(quat_mul(QUAT_I, QUAT_J), QUAT_K, atol=1e-15)
    np.testing.assert_allclose(quat_mul(QUAT_J, QUAT_K), QUAT_I, atol=1e-15)
    np.testing.assert_allclose(quat_mul(QUAT_K, QUAT_I), QUAT_J, atol=1e-15)
    np.testing.assert_allclose(quat_mul(QUAT_I, QUAT_I), -QUAT_ONE, atol=1e-15)


def test_quat_norm_multiplicative():
    rng = np.random.default_rng(1)
    a = random_unit(rng, 1000)
    b = random_unit(rng, 1000)
    assert unit_deviation(quat_mul(a, b)) < 1e-12


def test_quat_associative():
    rng = np.random.default_rng(2)
    a, b, c = (rng.standard_normal(4) for _ in range(3))
    np.testing.assert_allclose(
        quat_mul(quat_mul(a, b), c), quat_mul(a, quat_mul(b, c)), atol=1e-12
    )


def test_geodesic_step_basics():
    x = QUAT_ONE
    d = QUAT_I
    np.testing.assert_allclose(geodesic_step(x, d, 0.0), x, atol=1e-15)
    np.testing.assert_allclose(geodesic_step(x, d, np.pi / 2), QUAT_I, atol=1e-15)
    np.testing.assert_allclose(geodesic_step(x, d, 2 * np.pi), x, atol=1e-10)


def test_geodesic_step_rejects_non_unit():
    with pytest.raises(ValueError):
        geodesic_step(QUAT_ONE, 1.1 * QUAT_I, 0.3)


def test_geodesic_step_stays_on_sphere():
    rng = np.random.default_rng(3)
    x = random_unit(rng, 200)
    d = normalize(tangent_project(x, rng.standard_normal((200, 4))))
    for s in (-10.0, -1.3, 0.2, 7.7, 10.0):
        assert unit_deviation(geodesic_step(x, d, s)) < 1e-12


def test_geodesic_step_composition_with_transport():
    rng = np.random.default_rng(4)
    x = random_unit(rng, 50)
    d = normalize(tangent_project(x, rng.standard_normal((50, 4))))
    s1, s2 = 0.37, 1.21
    direct = geodesic_step(x, d, s1 + s2)
    mid = geodesic_step(x, d, s1)
    d_mid = -np.sin(s1) * x + np.cos(s1) * d  # d transported along its great circle
    two = geodesic_step(mid, d_mid, s2)
    assert np.max(np.linalg.norm(direct - two, axis=1)) < 1e-10


def test_tangent_project():
    rng = np.random.default_rng(5)
    x = random_unit(rng, 100)
    np.testing.assert_allclose(tangent_project(x, x), 0.0, atol=1e-14)
    w = rng.standard_normal((100, 4))
    t = tangent_project(x, w)
    assert np.max(np.abs(np.sum(t * x, axis=1))) < 1e-14
    np.testing.assert_allclose(tangent_project(x, t), t, atol=1e-14)


def test_hopf_project_identity_point():
    np.testing.assert_allclose(hopf_project(QUAT_ONE), [1.0, 0.0, 0.0], atol=1e-15)


def test_hopf_project_unit_norm():
    rng = np.random.default_rng(6)
    q = random_unit(rng, 1000)
    assert unit_deviation(hopf_project(q)) < 1e-12


def test_hopf_fiber_invariance():
    # the defining property: left multiplication by cos t + i sin t fixes the image
    rng = np.random.default_rng(7)
    q = random_unit(rng, 200)
    for theta in (0.7, 2.1, -1.3):
        a = np.array([np.cos(theta), np.sin(theta), 0.0, 0.0])
        moved = hopf_project(quat_mul(a, q))
        assert np.max(np.linalg.norm(moved - hopf_project(q), axis=1)) < 1e-12


def test_cross4_orthogonality():
    rng = np.random.default_rng(8)
    a, b, c = rng.standard_normal((3, 4))
    d = cross4(a, b, c)
    for v in (a, b, c):
        assert abs(np.dot(d, v)) < 1e-12
    # orientation: det[a; b; c; d] > 0 when d = cross4(a, b, c) is nonzero
    assert np.linalg.det(np.stack([a, b, c, d])) > 0


def test_log_map_inverts_geodesic_step():
    rng = np.random.default_rng(9)
    x = random_unit(rng, 50)
    d = normalize(tangent_project(x, rng.standard_normal((50, 4))))
    y = geodesic_step(x, d, 0.4)
    logs = log_map(x, y)
    np.testing.assert_allclose(np.linalg.norm(logs, axis=1), 0.4, atol=1e-12)
    np.testing.assert_allclose(logs / 0.4, d, atol=1e-10)


@pytest.mark.parametrize("dim", [3, 4])
def test_log_map_at_a_small_angle(dim):
    # at theta = 1e-7 an angle from arccos(<x, y>) is off by about 5e-10
    rng = np.random.default_rng(12)
    x = random_unit(rng, 50, dim)
    d = normalize(tangent_project(x, rng.standard_normal((50, dim))))
    y = geodesic_step(x, d, 1e-7)
    np.testing.assert_allclose(log_map(x, y), 1e-7 * d, rtol=0, atol=1e-12)


def test_log_scale_rescales_the_chord_to_the_log_map():
    rng = np.random.default_rng(11)
    x = random_unit(rng, 60)
    d = normalize(tangent_project(x, rng.standard_normal((60, 4))))
    t = np.geomspace(1e-7, 3.0, 60)
    y = geodesic_step(x, d, t)
    c = np.sum(x * y, axis=1, keepdims=True)
    np.testing.assert_allclose(log_scale(c) * (y - c * x), t[:, None] * d, rtol=0, atol=1e-12)
    assert np.all(log_scale(np.array([1.0, np.nextafter(1.0, 2.0)])) == 0.0)


def test_geodesic_distance_matches_arccos():
    rng = np.random.default_rng(10)
    a = random_unit(rng, 100)
    b = random_unit(rng, 100)
    np.testing.assert_allclose(
        geodesic_distance(a, b),
        np.arccos(np.clip(np.sum(a * b, axis=1), -1, 1)),
        atol=1e-9,
    )


@pytest.mark.parametrize("shape", [(1000, 4), (1000, 3), (64, 18, 4)])
def test_row_norms_bit_identical_to_linalg_norm(shape):
    rng = np.random.default_rng(12)
    v = rng.standard_normal(shape)
    rows = v.reshape(-1, shape[-1])
    rows[:10] = 0.0
    rows[10:20] *= 1e-150
    rows[20:30] *= 1e150
    rows[30:40] *= np.exp(rng.uniform(-30.0, 30.0, (10, 1)))
    want = np.linalg.norm(v, axis=-1)
    assert np.array_equal(row_norms(v), want)
    assert np.array_equal(row_norms(v, keepdims=True), want[..., None])
