import numpy as np
import pytest

from s3flow.speeds import (
    Candidate1D,
    admissibility_bounds,
    affine_arctan,
    arctan_speed,
    candidate_affine_arctan,
    check_admissible,
    custom_fH,
    hg_from_fH,
    make_speed,
    mcf,
    phi_constant,
    phi_pinch,
    speed_huisken_monitor,
    z_term,
)

F_ARCTAN_HG = hg_from_fH(
    lambda h: 2.0 * np.arctan(0.5 * h), lambda h: 4.0 / (4.0 + h * h), "2 arctan(H/2)"
)


# -- plain speeds --------------------------------------------------------


def test_mcf_values():
    speed = mcf()
    assert speed(0.0, 0.0) == 0.0
    assert speed(1.0, -1.0) == 0.0  # the Clifford torus is minimal
    r = np.pi / 4
    np.testing.assert_allclose(speed(1 / np.tan(r), 1 / np.tan(r)), 2 / np.tan(r))


def test_arctan_values():
    speed = arctan_speed()
    assert speed(0.0, 0.0) == 0.0
    np.testing.assert_allclose(speed(1.0, 1.0), np.pi / 2, atol=1e-15)
    np.testing.assert_allclose(speed(2.0, 1.0), 3 * np.pi / 4, atol=1e-15)
    np.testing.assert_allclose(speed(1.0, -1.0), 0.0, atol=1e-15)


def test_arctan_branch_continuity():
    # both branches agree along kappa1 kappa2 = 1 (positive and, with the
    # odd reflection, negative): sampled jump below 1e-9
    t = np.concatenate([np.linspace(0.05, 20, 500), -np.linspace(0.05, 20, 500)])
    atan_side = np.arctan(t) + np.arctan(1.0 / t)
    prod_side = np.sign(t + 1.0 / t) * (np.pi / 4) * 2.0
    assert np.max(np.abs(atan_side - prod_side)) < 1e-9


def test_arctan_odd():
    rng = np.random.default_rng(11)
    k1 = rng.uniform(-5, 5, 2000)
    k2 = rng.uniform(-5, 5, 2000)
    sp = arctan_speed()
    np.testing.assert_allclose(sp.eval(-k1, -k2), -sp.eval(k1, k2), atol=1e-14)


@pytest.mark.parametrize("speed", [mcf(), arctan_speed(), affine_arctan(0.3, 2.5)])
def test_speed_symmetry_and_monotonicity(speed):
    rng = np.random.default_rng(12)
    k1 = rng.uniform(-4, 4, 10000)
    k2 = rng.uniform(-4, 4, 10000)
    np.testing.assert_allclose(speed.eval(k1, k2), speed.eval(k2, k1), atol=1e-12)
    d1, d2 = speed.partials(k1, k2)
    assert np.min(d1) >= -1e-12
    assert np.min(d2) >= -1e-12


def test_partials_match_finite_differences():
    rng = np.random.default_rng(13)
    k1 = rng.uniform(-3, 3, 500)
    k2 = rng.uniform(-3, 3, 500)
    # keep away from the arctan branch seam where F is only Lipschitz
    seam = np.abs(k1 * k2 - 1.0) < 0.05
    k1, k2 = k1[~seam], k2[~seam]
    for speed in (mcf(), arctan_speed(), affine_arctan(1.0, 2.0)):
        d1, d2 = speed.partials(k1, k2)
        h1 = 1e-6 * np.maximum(1, np.abs(k1))
        h2 = 1e-6 * np.maximum(1, np.abs(k2))
        f1 = (speed.eval(k1 + h1, k2) - speed.eval(k1 - h1, k2)) / (2 * h1)
        f2 = (speed.eval(k1, k2 + h2) - speed.eval(k1, k2 - h2)) / (2 * h2)
        assert np.max(np.abs(d1 - f1)) < np.maximum(1e-6, 1e-4 * np.abs(d1)).max()
        assert np.max(np.abs(d2 - f2)) < np.maximum(1e-6, 1e-4 * np.abs(d2)).max()


def test_huisken_monitor():
    f = speed_huisken_monitor(0.0, 0.0)
    assert bool(f.simons) and bool(f.huisken2d) and bool(f.okumura)
    f = speed_huisken_monitor(1.0, -1.0)  # |A|^2 = 2, G = 0: all boundaries
    assert not bool(f.simons)
    assert not bool(f.okumura)
    f = speed_huisken_monitor(1.2, 0.5)  # |A|^2 = 1.69, H = 1.7, G = 1.6
    assert bool(f.simons) and bool(f.huisken2d) and bool(f.okumura)


def test_make_speed_registry():
    assert make_speed("mcf").name == "mcf"
    assert make_speed("arctan").name == "arctan"
    s = make_speed("affine_arctan(0.3, 2.5)")
    np.testing.assert_allclose(s.eval(1.0, 1.0), 0.3 + 2.5 * np.arctan(1.0))
    c = make_speed("custom_fH(H**3 + H)")
    np.testing.assert_allclose(c.eval(1.0, 1.0), 2.0 ** 3 + 2.0)
    with pytest.raises(ValueError):
        make_speed("nope")


def test_custom_fH_finite_difference_partials():
    c = custom_fH("H**2")
    d1, d2 = c.partials(np.array([1.0]), np.array([0.5]))
    np.testing.assert_allclose(d1, 3.0, atol=1e-6)
    np.testing.assert_allclose(d2, 3.0, atol=1e-6)


@pytest.mark.parametrize("expr", ["H**3 + H", "arctan(H/2)"])
def test_custom_fH_matches_eval_bit_for_bit(expr):
    # the reference is the namespace eval that custom_fH used to run
    ns = {
        "arctan": np.arctan, "atan": np.arctan, "tanh": np.tanh, "exp": np.exp,
        "sin": np.sin, "cos": np.cos, "tan": np.tan, "sqrt": np.sqrt,
        "log": np.log, "abs": np.abs, "pi": np.pi,
    }
    rng = np.random.default_rng(3)
    k1, k2 = 3.0 * rng.standard_normal((2, 1000))
    want = np.asarray(eval(expr, {"__builtins__": {}}, {**ns, "H": k1 + k2}), dtype=float)
    assert np.array_equal(custom_fH(expr).eval(k1, k2), want)


@pytest.mark.parametrize("expr", [
    "H.__class__.__name__", "__import__('os')", "(lambda: H)()", "H[0]",
    "arctan(H, H)", "'H'", "H <",
])
def test_custom_fH_rejects_text_outside_its_grammar(expr):
    with pytest.raises(ValueError, match="^custom_fH: "):
        custom_fH(expr)


# -- Z term --------------------------------------------------------------


def test_z_vanishes_on_zero_intrinsic_curvature():
    kk = np.concatenate([np.linspace(0.3, 3, 500), -np.linspace(0.3, 3, 500)])
    za, zb = z_term(F_ARCTAN_HG, phi_pinch(), kk, -1.0 / kk)
    assert np.max(np.abs(za)) < 1e-10
    assert np.max(np.abs(zb)) < 1e-10


def test_z_at_clifford_point():
    za, zb = z_term(F_ARCTAN_HG, phi_pinch(), np.array([1.0]), np.array([-1.0]))
    assert abs(za[0]) < 1e-10 and abs(zb[0]) < 1e-10


def test_z_umbilic_value():
    # at (1, 1) with f = 2 arctan(H/2): G1 = G2 = -2 phi phi' = -4, so
    # Z = f * (G1 + G2) * (1 + 1) = (pi/2) * (-16) = -8 pi; the second
    # summand vanishes because kappa2 - kappa1 = 0
    za, zb = z_term(F_ARCTAN_HG, phi_pinch(), np.array([1.0]), np.array([1.0]))
    np.testing.assert_allclose(za, -8 * np.pi, atol=1e-10)
    np.testing.assert_allclose(zb, -8 * np.pi, atol=1e-10)


def test_z_umbilic_second_summand_vanishes():
    k = np.array([0.7])
    za, _ = z_term(F_ARCTAN_HG, phi_pinch(), k, k)
    h = 2 * k
    phi = phi_pinch()
    g1 = -2.0 * phi.phi(h) * phi.dphi(h)
    first_only = F_ARCTAN_HG.value(h, None) * g1 * (2.0 + 2.0 * k * k)
    np.testing.assert_allclose(za, first_only, atol=1e-12)


def test_z_forms_agree_on_positive_curvature():
    rng = np.random.default_rng(20)
    k1 = rng.uniform(-3, 3, 40000)
    k2 = rng.uniform(-3, 3, 40000)
    keep = 1.0 + k1 * k2 > 1e-6
    k1, k2 = k1[keep][:10000], k2[keep][:10000]
    za, zb = z_term(F_ARCTAN_HG, phi_pinch(), k1, k2)
    rel = np.abs(za - zb) / np.maximum(np.abs(za), 1e-30)
    assert np.max(rel) < 1e-8


def test_z_form_a_is_insensitive_to_f_G():
    # the dG-derivative contributions cancel inside form A identically
    rng = np.random.default_rng(21)
    k1 = rng.uniform(0.2, 2, 200)
    k2 = rng.uniform(0.2, 2, 200)
    from s3flow.speeds import HGSpeed

    with_fg = HGSpeed(
        value=lambda h, g: 2 * np.arctan(0.5 * h),
        dH=lambda h, g: 4.0 / (4.0 + h * h),
        dG=lambda h, g: 0.37 * np.ones_like(h),
    )
    za1, _ = z_term(F_ARCTAN_HG, phi_pinch(), k1, k2)
    za2, _ = z_term(with_fg, phi_pinch(), k1, k2)
    np.testing.assert_allclose(za1, za2, atol=1e-10)


def test_z_singular_chart_rejected():
    with pytest.raises(ValueError, match="singular"):
        z_term(F_ARCTAN_HG, phi_pinch(), 0.0, 0.0)


# -- admissibility -------------------------------------------------------


def test_pinch_bounds_coincide():
    h = np.linspace(-50, 50, 10001)
    lo, up = admissibility_bounds(phi_pinch(), h)
    target = -2.0 * h / (4.0 + h * h)
    assert np.max(np.abs(lo - target)) < 1e-12
    assert np.max(np.abs(up - target)) < 1e-12


def test_pinch_bounds_point_values():
    lo, up = admissibility_bounds(phi_pinch(), np.array([0.0, 2.0]))
    np.testing.assert_allclose([lo[0], up[0]], 0.0, atol=1e-15)
    np.testing.assert_allclose([lo[1], up[1]], -0.5, atol=1e-14)


def test_constant_phi_bounds():
    # phi' = phi'' = 0 leaves lower = +1/c and upper = -1/c: an empty band,
    # so no monotone speed preserves a constant-width curvature strip
    lo, up = admissibility_bounds(phi_constant(2.0), np.array([0.0, 3.0]))
    np.testing.assert_allclose(lo, 0.5, atol=1e-15)
    np.testing.assert_allclose(up, -0.5, atol=1e-15)


def test_affine_arctan_family_admissible():
    rng = np.random.default_rng(22)
    h = np.linspace(-10, 10, 2001)
    for _ in range(5):
        c1 = rng.uniform(0.05, 3.0)
        c2 = rng.uniform(0.05, 3.0)
        rep = check_admissible(candidate_affine_arctan(c1, c2), phi_pinch(), h)
        assert rep.verdict
        assert rep.matches_pinched_family


@pytest.mark.parametrize(
    "cand",
    [
        Candidate1D(lambda h: h, lambda h: np.ones_like(h), lambda h: np.zeros_like(h), "H"),
        Candidate1D(lambda h: h ** 3 + h, lambda h: 3 * h * h + 1, lambda h: 6 * h, "H^3+H"),
        Candidate1D(np.exp, np.exp, np.exp, "e^H"),
    ],
)
def test_non_arctan_speeds_fail(cand):
    h = np.linspace(-10, 10, 2001)
    rep = check_admissible(cand, phi_pinch(), h)
    assert not rep.verdict
    assert not rep.matches_pinched_family


def test_mcf_fails_at_H_2():
    # ratio 0 sits above the bound -0.5 at H = 2
    cand = Candidate1D(lambda h: h, lambda h: np.ones_like(h), lambda h: np.zeros_like(h), "H")
    rep = check_admissible(cand, phi_pinch(), np.array([2.0]))
    assert not rep.verdict
    np.testing.assert_allclose(rep.upper, -0.5, atol=1e-14)
    np.testing.assert_allclose(rep.worst_margin, -0.5, atol=1e-14)


def test_candidate_from_callable_finite_differences():
    cand = Candidate1D.from_callable(lambda h: 2 * np.arctan(0.5 * h), "fd")
    rep = check_admissible(cand, phi_pinch(), np.linspace(-5, 5, 101), tol=1e-4)
    assert rep.verdict


def test_non_monotone_candidate_rejected():
    cand = Candidate1D(
        lambda h: -h, lambda h: -np.ones_like(h), lambda h: np.zeros_like(h), "-H"
    )
    with pytest.raises(ValueError, match="monotone"):
        check_admissible(cand, phi_pinch(), np.array([0.0]))


def test_phi_degenerate_warning():
    from s3flow.speeds import PhiDegenerateWarning, PhiProfile

    steep = PhiProfile(
        phi=lambda h: np.ones_like(np.asarray(h, dtype=float)),
        dphi=lambda h: np.ones_like(np.asarray(h, dtype=float)),
        d2phi=lambda h: np.ones_like(np.asarray(h, dtype=float)),
        name="|phi'|=1",
    )
    with pytest.warns(PhiDegenerateWarning):
        lo, up = admissibility_bounds(steep, np.array([0.0]))
    assert np.isinf(lo[0])
