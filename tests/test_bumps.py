import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gamma, jv

from equiloc.bumps import BASE_PANELS, PHI_SEAM, Bump, BumpHat, SmearingKernel
from equiloc.quadrature import composite_gl


def _poly_hat(w, radius, order):
    """hat b of (1 - (x/R)^2)^m: R sqrt(pi) Gamma(m+1) (2/(wR))^(m+1/2)
    J_(m+1/2)(wR), with the limit R sqrt(pi) Gamma(m+1) / Gamma(m+3/2)
    at w = 0."""
    scale = radius * math.sqrt(math.pi) * gamma(order + 1)
    if w == 0.0:
        return scale / gamma(order + 1.5)
    z = abs(w) * radius
    return scale * (2.0 / z) ** (order + 0.5) * jv(order + 0.5, z)


@pytest.mark.parametrize("order", [4, 6])
@pytest.mark.parametrize("radius", [1.0, 1.6, 20.0])
def test_hat_against_closed_form(radius, order):
    bhat = BumpHat(Bump(radius=radius, order=order, kind="poly"))
    scale = _poly_hat(0.0, radius, order)
    ws = np.concatenate([[0.0], np.geomspace(1e-3, 2000.0, 30),
                         -np.linspace(50.0, 2000.0, 10)])
    # a few w per call: at R = 20, w = 2,000 the rule has 160,256 nodes
    for part in np.array_split(ws, 8):
        exact = np.array([_poly_hat(w, radius, order) for w in part])
        assert np.max(np.abs(bhat(part) - exact)) <= 5e-14 * scale


def _direct_hat(bump, w):
    """2 int_0^R b(x) cos(w x) dx as one cosine product over the composite
    Gauss nodes, max(BASE_PANELS, int(max|w| R / 4) + 16) panels."""
    panels = max(BASE_PANELS, int(np.max(w) * bump.radius / 4.0) + 16)
    x, dx = composite_gl(0.0, bump.radius, panels)
    return np.einsum("ij,j->i", np.cos(np.multiply.outer(w, x)),
                     2.0 * bump(x) * dx)


@pytest.mark.parametrize("bump", [
    Bump(radius=r, order=m, kind="poly")
    for r in (0.25, 1.0, 1.6, 20.0) for m in (1, 2, 6, 40)] + [
    Bump(radius=r, order=m, kind="plateau")
    for r, m in ((0.25, 8), (2.5, 6))],
    ids=lambda b: f"{b.kind}-R{b.radius:g}-m{b.order}")
def test_hat_by_angle_addition_against_the_direct_cosine_sum(bump):
    # the panel angle-addition sum against the cosine of every node, on
    # the base table (max|w| R < 196) and on tables built per call up to
    # w = 2,000.  Both carry the round-off of the phases w x, up to
    # max|w| R, which sums to about eps sqrt(max|w| R) of the mass over
    # the ~4 max|w| R nodes: 1.0e-14 is measured at R = 1, w = 2,000 and
    # 5.6e-14 at R = 20, w = 2,000
    eps = np.finfo(float).eps
    mass = bump.mass()
    bhat = BumpHat(bump)
    edge = 4.0 * (BASE_PANELS - 16) / bump.radius     # the switch in |w|
    for ws in (np.linspace(0.0, 0.99 * edge, 41),
               np.linspace(-1.01 * edge, 0.0, 41),
               np.geomspace(1e-3, 2000.0, 13),
               np.linspace(1990.0, 2000.0, 3)):
        w = np.abs(ws)
        tol = mass * max(2e-15, 2.0 * eps * math.sqrt(w.max() *
                                                       bump.radius))
        assert np.max(np.abs(bhat(ws) - _direct_hat(bump, w))) <= tol


@pytest.mark.parametrize("order", [4, 6])
@pytest.mark.parametrize("radius", [1.0, 1.6])
def test_mass_against_closed_form(radius, order):
    # int (1 - (x/R)^2)^m dx = R sqrt(pi) Gamma(m+1) / Gamma(m+3/2)
    mass = Bump(radius=radius, order=order, kind="poly").mass()
    assert mass == pytest.approx(_poly_hat(0.0, radius, order), rel=1e-15)


def test_phi_hat_closed_form_against_bump_hat():
    # 945 j_4(w) / w^4 against the quadrature transform of the kernel's
    # bump, densely across the series / elementary seam at |w| = 4
    kernel = SmearingKernel()
    ws = np.concatenate([np.linspace(0.0, 8.0, 4001),
                         PHI_SEAM + np.linspace(-1e-3, 1e-3, 201),
                         np.linspace(8.0, 2000.0, 4000)])
    mass = kernel.bump.mass()
    bhat = BumpHat(kernel.bump)
    for part in np.array_split(ws, 8):
        assert np.max(np.abs(kernel.phi_hat(part) - bhat(part) / mass)) \
            <= 1e-14
    assert kernel.phi_hat(0.0) == 1.0
    assert np.array_equal(kernel.phi_hat(-ws), kernel.phi_hat(ws))


def _smoothstep_exact(t: Fraction, order: int) -> Fraction:
    """int_0^t s^m (1-s)^m ds / B(m+1, m+1) in exact arithmetic."""
    num = sum(Fraction((-1) ** k * math.comb(order, k), order + k + 1)
              * t ** (order + k + 1) for k in range(order + 1))
    return num * Fraction(math.factorial(2 * order + 1),
                          math.factorial(order) ** 2)


@pytest.mark.parametrize("order", [4, 6, 8, 10])
def test_plateau_against_exact_smoothstep(order):
    # dyadic x in the band (0.5, 1) of a radius-1 bump with flat 0.5, so
    # t = (1 - x) / 0.5 is exact; the float coefficient sum, normalized by
    # a float total, once lost 1.1e-13, 5.2e-12 and 2.9e-10 here.  Horner
    # on the monomial coefficients loses 3.1e-14 at order 8 and 2.1e-13
    # at order 10, the largest order a plateau bump accepts
    bump = Bump(radius=1.0, order=order, kind="plateau", flat=0.5)
    x = 0.5 + np.arange(1, 2048) / 4096.0
    vals = bump(x)
    exact = [_smoothstep_exact(2 * (1 - Fraction(xi)), order) for xi in x]
    err = max(abs(Fraction(float(v)) - e) for v, e in zip(vals, exact))
    assert err <= (3e-13 if order == 10 else 1e-13)
    assert np.array_equal(bump(-x), vals)


def test_plateau_refuses_an_order_its_horner_sum_cannot_carry():
    # past order 10 the monomial coefficients cancel: 7.6e-11 lost at
    # order 16, and order 40 returned 20.9 at x = 0.75
    with pytest.raises(ValueError, match="order 10"):
        Bump(radius=1.0, order=11, kind="plateau")
    assert Bump(radius=1.0, order=11, kind="poly")(0.5) > 0.0


@pytest.mark.parametrize("order", [4, 6, 8])
def test_plateau_band_edges_and_scalars(order):
    bump = Bump(radius=2.0, order=order, kind="plateau", flat=0.5)
    tiny = np.finfo(float).eps
    x = np.array([0.0, 1.0, 1.0 + 2 * tiny, 2.0 - 4 * tiny, 2.0, 2.5, 1e300])
    vals = bump(x)
    assert vals[0] == vals[1] == 1.0
    assert 1.0 - 1e-15 < vals[2] <= 1.0
    assert 0.0 <= vals[3] < 1e-15
    assert vals[4] == vals[5] == vals[6] == 0.0
    # a 0-d input gives a 0-d float array, as on every other branch
    for xi, vi in zip(x, vals):
        out = bump(xi)
        assert isinstance(out, np.ndarray) and out.shape == ()
        assert out == vi
    assert bump(1.5).dtype == float
    assert bump(np.empty((0, 3))).shape == (0, 3)
