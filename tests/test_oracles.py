import math

import numpy as np
import pytest
from scipy.integrate import quad

from equiloc.bumps import Bump
from equiloc.oracles import linrot2_oracle


def _hankel_closed_form(g_bump: Bump, mu: float) -> float:
    """I(mu) = 8 pi^2 mu^2 int_0^R b(x) / (x^2 + 4 mu^2) dx.

    The angular factor is G(c) = 4 pi int_0^R b(x) J_0(c x) dx, and
    int_0^inf J_0(a v) K_0(b v) v dv = 1 / (a^2 + b^2) does the radial
    integral.  x = 2 mu tan(t) takes out the peak of width mu at x = 0.
    """
    top = math.atan(g_bump.radius / (2.0 * mu))
    val = quad(lambda t: float(g_bump(2.0 * mu * math.tan(t))), 0.0, top,
               limit=200, epsabs=0.0, epsrel=1e-13)[0]
    return 4.0 * math.pi ** 2 * mu * val


@pytest.mark.parametrize("mu", list(np.geomspace(1e-2, 1e-4, 5)))
def test_linrot2_oracle_against_hankel_closed_form(mu):
    # the sweep of `singular --model linrot2`; the error is 2e-8 to 1.4e-7
    g_bump = Bump(radius=1.0, order=6, kind="poly")
    exact = _hankel_closed_form(g_bump, mu)
    assert abs(linrot2_oracle(g_bump).integral(mu) - exact) <= 5e-7 * exact
