import math
import random
from fractions import Fraction

import numpy as np
import pytest

from equiloc.bumps import Bump
from equiloc.localization import (EquivariantForm, NoFixedPointsError,
                                  RegularityError, asymptotic_l, bv_sum,
                                  bv_term, calibrate, dh_measure,
                                  euler_inverse, jk_residue, kirwan_integral,
                                  l_alpha, l_alpha_batch, pairing_constant,
                                  smeared_limit, u_f_symbolic)
from equiloc.models import CotangentCircle, FixedComponent, Sphere, \
    _fold, make_model
from equiloc.mpoly import LinForm
from equiloc.oracles import (cotangent_l_alpha, mc_pushforward_sphere,
                             sphere_bv_oracle)
from equiloc.scalars import CRat, two_pi_float


RHO1 = EquivariantForm()


def test_euler_inverse_examples():
    s = Sphere(1)
    north = next(f for f in s.fixed_components()
                 if f.j_value.coeffs == (Fraction(1),))
    assert euler_inverse(north, [Fraction(2)]) == Fraction(-1, 2)
    fc = FixedComponent(points=(0,), j_value=LinForm([0]),
                        weights=((LinForm([1]), 1), (LinForm([-1]), 1)))
    assert fc.rank_nf == 4
    assert euler_inverse(fc, [Fraction(3)]) == Fraction(-1, 9)
    with pytest.raises(RegularityError):
        euler_inverse(fc, [Fraction(0)])


def test_bv_sum_matches_oracle():
    s = Sphere(1)
    for y in (0.5, 1.0, 2.0, 5.0):
        assert abs(bv_sum(s, RHO1, y) - sphere_bv_oracle(1.0, y)) <= 1e-8


def test_bv_sum_large_y_bound():
    s = Sphere(1)
    for y in (10.0, 40.0):
        assert abs(bv_sum(s, RHO1, y)) <= 4 * math.pi / abs(y) + 1e-12


def test_bv_no_fixed_points_message():
    with pytest.raises(NoFixedPointsError,
                       match="no fixed points: localization sum not "
                             "applicable"):
        bv_sum(CotangentCircle(), RHO1, 1.0)


def test_u_f_symbolic_matches_bv_term():
    s = Sphere(1)
    for fc in s.fixed_components():
        u = u_f_symbolic(s, fc, RHO1)
        for y in (1.0, 2.0, 3.0):
            assert u.eval_complex((y,)) == pytest.approx(
                bv_term(s, fc, RHO1, y), abs=1e-12)


def test_u_f_scaling_by_rational():
    s = Sphere(1)
    fc = s.fixed_components()[0]
    u1 = u_f_symbolic(s, fc, RHO1)
    u3 = u_f_symbolic(s, fc, EquivariantForm(scale=Fraction(3, 7)))
    for y in (0.7, 2.2):
        assert u3.eval_complex((y,)) == pytest.approx(
            Fraction(3, 7) * u1.eval_complex((y,)), abs=1e-13)


def test_dh_measure_sphere():
    s = Sphere(1)
    U = dh_measure(s, RHO1)
    cells = U.canonical()
    assert len(cells) == 1
    # constant 2 pi
    assert (U.value_at((Fraction(0),)), U.two_pi_power) == (CRat(1), 1)
    assert two_pi_float(U.mass(), U.two_pi_power) == pytest.approx(
        4 * math.pi, rel=1e-14)
    assert U.value_at((Fraction(3, 2),)).is_zero()
    # radius 2: support [-2, 2]
    U2 = dh_measure(Sphere(2), RHO1)
    assert not U2.value_at((Fraction(3, 2),)).is_zero()
    assert U2.value_at((Fraction(5, 2),)).is_zero()
    assert two_pi_float(U2.mass(), U2.two_pi_power) == pytest.approx(
        16 * math.pi, rel=1e-14)


def test_dh_measure_cone_flip_identity():
    s = Sphere(1)
    up = dh_measure(s, RHO1, side=1)
    dn = dh_measure(s, RHO1, side=-1)
    assert up.piecewise_equal(dn)


def test_dh_against_monte_carlo_bins():
    U = dh_measure(Sphere(1), RHO1)
    masses, edges = mc_pushforward_sphere(1.0, 1_000_000, seed=1, bins=10)
    area = 4 * math.pi
    for i, m in enumerate(masses):
        mid = Fraction(float(0.5 * (edges[i] + edges[i + 1]))
                       ).limit_denominator(10 ** 6)
        width = float(edges[i + 1] - edges[i])
        pred = U.value_float((mid,)) * width
        assert abs(pred - m) <= 0.01 * (area / 10)


def test_dh_polynomial_pairings_vs_monte_carlo():
    # int f dU vs Monte Carlo expectation for random polynomial test
    # functions, 1% with 1e6 samples
    U = dh_measure(Sphere(1), RHO1)
    rng = np.random.default_rng(8)
    g = rng.normal(size=(1_000_000, 3))
    g /= np.linalg.norm(g, axis=1)[:, None]
    z = g[:, 2]
    area = 4 * math.pi
    random.seed(17)
    xs, ws = np.polynomial.legendre.leggauss(64)
    for _ in range(10):
        coeffs = [random.randint(-3, 3) for _ in range(4)]

        def f(x):
            return sum(c * x ** k for k, c in enumerate(coeffs))

        mc = float(np.mean(f(z))) * area
        dens = U.value_float((Fraction(0),))
        exact = dens * float(np.dot(f(xs), ws))
        scale = max(abs(mc), 4 * math.pi * max(abs(c) for c in coeffs))
        assert abs(exact - mc) <= 0.01 * scale


def test_jk_residue_direction_and_wall():
    s = Sphere(1)
    plus = jk_residue(s, RHO1, (1,))
    minus = jk_residue(s, RHO1, (-1,))
    assert plus == minus            # exact chamber equality
    assert plus == (CRat(1), 1)
    assert two_pi_float(*plus) == pytest.approx(2 * math.pi, rel=1e-14)


def test_rank_two_is_refused_before_any_algebra():
    # T^2 on T*R^4: the transform and its residues are rank 1 only
    m = make_model("linrot4")
    for call in (lambda: dh_measure(m, RHO1),
                 lambda: jk_residue(m, RHO1, (1, 0))):
        with pytest.raises(NotImplementedError, match="rank 1 only"):
            call()


@pytest.mark.parametrize("radius", [1, 2])
def test_pairing_residue_smeared_kirwan_sphere(radius):
    # vol G = 2 pi R, so at R = 2 the pairing constant (2 pi)^d is not
    # vol G: the residue must still pair to the smeared limit
    s = Sphere(radius)
    sm = smeared_limit(s, RHO1)
    kw = kirwan_integral(s, RHO1)
    assert kw == pytest.approx(4 * math.pi ** 2 * radius, rel=1e-12)
    assert sm.extrapolated == pytest.approx(kw, rel=1e-4)
    res = two_pi_float(*jk_residue(s, RHO1, (1,)))
    assert res * pairing_constant(s) == pytest.approx(sm.extrapolated,
                                                      rel=1e-4)


def test_smeared_limit_refuses_a_ladder_that_does_not_halve():
    # the Richardson steps assume eps halves along the ladder
    for eps in ([0.3, 0.2, 0.1, 0.05], [0.1, 0.2], [0.8]):
        with pytest.raises(ValueError, match="eps ladder"):
            smeared_limit(Sphere(1), RHO1, eps_list=eps)


def test_pairing_cotangent_circle():
    c = CotangentCircle()
    pb = Bump(radius=1.0, order=6, kind="poly")
    rho = EquivariantForm(density=lambda pts: np.cos(pts[0]) ** 2 *
                          pb(pts[1]))
    kw = kirwan_integral(c, rho)
    assert kw == pytest.approx(2 * math.pi ** 2, rel=1e-10)
    sm = smeared_limit(c, rho)
    assert sm.extrapolated == pytest.approx(kw, rel=1e-2)


def test_exact_form_vanishing():
    s = Sphere(1)
    beta_scale = 1.0
    rho = EquivariantForm(exact_beta=lambda z: beta_scale * (1 - z ** 2) *
                          np.exp(-z ** 2))
    sm = smeared_limit(s, rho)
    assert abs(sm.extrapolated) <= 1e-6 * beta_scale
    c = CotangentCircle()
    pb = Bump(radius=1.5, order=8, kind="poly")
    rho_c = EquivariantForm(exact_beta=lambda pts: np.cos(pts[0]) *
                            pb(pts[1]))
    sm_c = smeared_limit(c, rho_c)
    assert abs(sm_c.extrapolated) <= 1e-6
    # cos(theta) b(p) averages to zero over theta, so its profile is zero
    # whatever the code does with it; beta = b(p) is not.  The smeared
    # limit sees only Re L, which vanishes by the symmetry of the nodes for
    # an even profile whatever the sign of the d_s beta term, so the
    # complex L(5) is checked as well
    rho_b = EquivariantForm(exact_beta=lambda pts: pb(pts[1]))
    assert abs(smeared_limit(c, rho_b).extrapolated) <= 1e-6
    assert abs(l_alpha(c, rho_b, 5.0)) <= 1e-8
    assert abs(l_alpha(s, rho, 5.0)) <= 1e-8


def _shifted_sphere_beta(r):
    # vanishes at the poles z = +-r, where dtheta is singular
    return EquivariantForm(exact_beta=lambda z: (r * r - z ** 2) *
                           np.exp(-(z - 0.3) ** 2))


@pytest.mark.parametrize("model,rho", [
    # b(p - 0.3) is not even in p, so Re L does not vanish by symmetry:
    # the profile grids must resolve every X the smeared limit integrates
    (CotangentCircle(), EquivariantForm(
        exact_beta=lambda pts: _PB(pts[1] - 0.3))),
    (Sphere(2), _shifted_sphere_beta(2.0)),
    (Sphere(3), _shifted_sphere_beta(3.0)),
], ids=["cotangent-circle", "sphere-2", "sphere-3"])
def test_exact_form_off_the_momentum_symmetry_vanishes(model, rho):
    sm = smeared_limit(model, rho)
    assert abs(sm.extrapolated) <= 1e-6
    assert sm.converged


def test_smeared_limit_radius_ten_sphere():
    # the profile's node count grows with R: 4 pi^2 R for the area form
    sm = smeared_limit(Sphere(10), RHO1)
    assert sm.extrapolated == pytest.approx(4 * math.pi ** 2 * 10, rel=1e-6)


def test_calibration_ratio_is_two_pi():
    stamp = calibrate()
    assert stamp.measured == pytest.approx(4 * math.pi ** 2, rel=1e-4)
    assert stamp.ratio == pytest.approx(2 * math.pi, rel=1e-4)
    assert stamp.pairing_constant == pytest.approx(2 * math.pi, rel=1e-15)


def test_crit_jx_clean_at_poles():
    # Hessian of J_Y on the sphere at the poles is nondegenerate on the
    # full tangent space (finite differences in an orthographic chart)
    r = 1.0
    h = 1e-5
    for sgn in (1.0, -1.0):
        def jy(u, v):
            return sgn * math.sqrt(r * r - u * u - v * v)
        hess = np.array([
            [(jy(h, 0) - 2 * jy(0, 0) + jy(-h, 0)) / h ** 2,
             (jy(h, h) - jy(h, -h) - jy(-h, h) + jy(-h, -h)) / (4 * h ** 2)],
            [(jy(h, h) - jy(h, -h) - jy(-h, h) + jy(-h, -h)) / (4 * h ** 2),
             (jy(0, h) - 2 * jy(0, 0) + jy(0, -h)) / h ** 2]])
        assert abs(np.linalg.det(hess)) > 0.5


def test_asymptotic_l_leading_reproduces_bv():
    s = Sphere(1)
    # constant form: each fixed-point term is a single rational term, so
    # the leading stationary-phase assembly reproduces bv exactly
    asym = asymptotic_l(s, RHO1, order=1)
    for y in (8.0, 32.0, 128.0):
        assert abs(asym.total(y) - bv_sum(s, RHO1, y)) <= 1e-12
    # curved amplitude: the difference obeys the O(|Y|^-2) envelope (the
    # two pole terms interfere, so a pointwise power fit oscillates; the
    # envelope constant is what the remainder bound controls)
    rho = EquivariantForm(density=lambda pts: pts[2] ** 2)
    lead = asymptotic_l(s, rho, order=1)
    for y in (8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0):
        diff = abs(complex(l_alpha(s, rho, y)) - lead.total(y))
        assert diff <= 30.0 / y ** 2
    # while bv itself only decays like 1/Y (checked off the sin-zeros)
    assert max(abs(bv_sum(s, rho, y)) * y
               for y in (500.0, 512.0, 525.0)) > 1.0


def test_asymptotic_l_vanishing_amplitude_routes_to_decay():
    s = Sphere(1)
    cut = Bump(radius=0.7, order=6, kind="plateau", flat=0.4)
    rho = EquivariantForm(density=lambda pts: cut(pts[2]))
    asym = asymptotic_l(s, rho, order=1)
    # amplitude vanishes near both poles: all expansion terms are zero
    assert all(abs(c) < 1e-12 for e in asym.terms for c in e)
    from equiloc.oscillatory import decay_check
    res = decay_check(lambda t: l_alpha(s, rho, t))
    assert res.slope is not None and res.slope <= -3.0


def test_asymptotic_l_next_coefficient_vs_oracle():
    # polynomial amplitude z . area: the subleading term against an oracle
    # fit of L(Y) - leading(Y), within 5%
    s = Sphere(1)
    rho = EquivariantForm(density=lambda pts: pts[2])
    lead = asymptotic_l(s, rho, order=1)
    two = asymptotic_l(s, rho, order=2)
    for y in (96.0, 128.0, 192.0):
        l_true = complex(l_alpha(s, rho, y))
        meas = abs(l_true - lead.total(y))
        pred = abs(two.total(y) - lead.total(y))
        assert meas == pytest.approx(pred, rel=0.05)


@pytest.mark.parametrize("radius", [1, 2])
def test_l_alpha_sphere_against_oracles(radius):
    # the area form of the radius-R sphere is R dz dtheta
    s = Sphere(radius)
    for x in (0.5, 2.0, 7.0):
        val = l_alpha(s, RHO1, x)
        assert abs(val - sphere_bv_oracle(radius, x)) <= 1e-9
        assert abs(val - bv_sum(s, RHO1, x)) <= 1e-9


def test_l_alpha_cotangent_against_oracle():
    c = CotangentCircle()
    pb = Bump(radius=1.5, order=8, kind="poly")

    def dens(pts):
        # supported in -1.2 <= p <= 1.8, inside the profile's |p| < 2
        return (1 + np.cos(pts[0]) ** 2) * pb(pts[1] - 0.3)

    rho = EquivariantForm(scale=Fraction(3, 2), density=dens)
    xs = np.array([0.5, 2.0, 7.0, 30.0])
    vals = l_alpha(c, rho, xs)
    for x, v in zip(xs, vals):
        orc = 1.5 * cotangent_l_alpha(
            lambda t, p: dens(np.stack([t, p])), x, -2.0, 2.0)
        assert abs(v - orc) <= 1e-10 * max(1.0, abs(orc))
        assert l_alpha(c, rho, x) == pytest.approx(v, abs=1e-12)
    assert np.allclose(l_alpha_batch(c, rho, xs), vals.real, rtol=0,
                       atol=1e-12)


def test_l_alpha_batch_consistency():
    s = Sphere(1)
    xs = np.array([0.5, 2.0, 7.0])
    batch = l_alpha_batch(s, RHO1, xs)
    for x, b in zip(xs, batch):
        assert b == pytest.approx(float(np.real(l_alpha(s, RHO1, x))),
                                  abs=1e-9)


def test_pairing_linear_cotangent():
    # kappa = d also holds for the planar rotation; the smeared limit and
    # the stratum integral agree there too (2 pi^3 for the Gaussian form)
    m = make_model("linrot2")
    rho = EquivariantForm()
    kw = kirwan_integral(m, rho)
    assert kw == pytest.approx(2 * math.pi ** 3, rel=1e-6)
    sm = smeared_limit(m, rho)
    assert sm.extrapolated == pytest.approx(kw, rel=1e-2)


def test_kirwan_integral_honours_scale_on_linear_cotangent():
    m = make_model("linrot2")
    kw = kirwan_integral(m, EquivariantForm(scale=Fraction(2)))
    assert kw == pytest.approx(4 * math.pi ** 3, rel=1e-6)


# ---------------------------------------------------------------------------
# the folded cosine and sine sums of l_alpha and l_alpha_batch

_PB = Bump(radius=1.5, order=8, kind="poly")
FOLD_CASES = [
    (Sphere(1), RHO1),
    (Sphere(2), EquivariantForm(density=lambda pts: 1.0 + pts[2]
                                + pts[0] ** 2)),
    (Sphere(10), RHO1),
    (Sphere(1), EquivariantForm(exact_beta=lambda z: (1 - z ** 2) *
                                np.exp(-z ** 2))),
    (CotangentCircle(), EquivariantForm(
        scale=Fraction(3, 2),
        density=lambda pts: (1 + np.cos(pts[0]) ** 2) * _PB(pts[1] - 0.3))),
    (CotangentCircle(), EquivariantForm(exact_beta=lambda pts: _PB(pts[1]))),
    # not even in p, so the odd parts of both weights carry the sine sums
    (CotangentCircle(), EquivariantForm(
        exact_beta=lambda pts: _PB(pts[1] - 0.3))),
]


@pytest.mark.parametrize("case", range(len(FOLD_CASES)))
def test_profile_nodes_are_exactly_antisymmetric(case):
    model, rho = FOLD_CASES[case]
    s = model.profile(rho).s
    assert np.array_equal(s[::-1], -s)


@pytest.mark.parametrize("case", range(len(FOLD_CASES)))
def test_folded_sums_match_unfolded_products(case):
    model, rho = FOLD_CASES[case]
    prof = model.profile(rho)
    s, a = prof.s, prof.a
    b = np.zeros_like(a) if prof.b is None else prof.b
    xs = np.array([0.0, 0.5, 7.0, 61.0, 300.0, 599.0])
    phase = np.exp(1j * np.outer(xs, s))
    unfolded = float(rho.scale) * (phase @ a + 1j * xs * (phase @ b))
    tol = 1e-13 * float(rho.scale) * (np.abs(a).sum()
                                      + xs * np.abs(b).sum())
    assert np.all(np.abs(l_alpha(model, rho, xs) - unfolded) <= tol)
    for x, u, t in zip(xs, unfolded, tol):
        assert abs(l_alpha(model, rho, x) - u) <= t
    assert np.all(np.abs(l_alpha_batch(model, rho, xs) - unfolded.real)
                  <= tol)
    if case == len(FOLD_CASES) - 1:
        # the shifted beta: at X = 0.5 and 7 the sine sum of a alone is far
        # above the tolerance, so a fold that dropped odd parts fails here
        sine = np.abs(np.sin(np.outer(xs[1:3], s)) @ a)
        assert np.all(sine > 1e6 * tol[1:3])


def test_fold_refuses_nodes_that_are_not_antisymmetric():
    with pytest.raises(ValueError):
        _fold(np.array([-1.0, 0.5, 1.0]), np.ones(3))
