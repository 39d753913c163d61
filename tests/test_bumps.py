import math

import numpy as np
import pytest
from scipy.special import gamma, jv

from equiloc.bumps import PHI_SEAM, Bump, BumpHat, SmearingKernel


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
