"""`smeared_limit` runs no quadrature transform of its own.

phi-hat of the smearing kernel has a closed form, and the linrot2
pushforward density is tabulated in one vectorised Gauss pass.  A
`BumpHat` call on the smeared-limit path redoes, per eps, work whose
answer is already known: phi-hat as one cosine product per eps.  Each
such call is counted here.  An adaptive quadrature per table node, once a
scipy `quad` call, cannot come back: the package imports no scipy
(tests/test_registry.py).
"""

import numpy as np
import pytest

from equiloc import oracles
from equiloc.bumps import Bump, BumpHat
from equiloc.localization import (EquivariantForm, kirwan_integral,
                                  smeared_limit)
from equiloc.models import CotangentCircle, Sphere, make_model

PB = Bump(radius=1.0, order=6, kind="poly")
CASES = {
    "sphere": (Sphere(1), EquivariantForm()),
    "cotangent-circle": (CotangentCircle(), EquivariantForm(
        density=lambda pts: np.cos(pts[0]) ** 2 * PB(pts[1]))),
    "linrot2": (make_model("linrot2"), EquivariantForm()),
}


@pytest.fixture
def counts(monkeypatch):
    """Calls of BumpHat.__call__.  The linrot2 oracle is built afresh
    before counting starts, so its pushforward table is built inside the
    counted call."""
    monkeypatch.setattr(oracles, "_LINROT2_CACHE", {})
    oracles.linrot2_oracle(PB)
    seen = {"BumpHat": 0}
    call = BumpHat.__call__

    def counted(*args, **kwargs):
        seen["BumpHat"] += 1
        return call(*args, **kwargs)

    monkeypatch.setattr(BumpHat, "__call__", counted)
    return seen


@pytest.mark.parametrize("name", sorted(CASES))
def test_smeared_limit_calls_no_transform_quadrature(name, counts):
    model, rho = CASES[name]
    sm = smeared_limit(model, rho)
    assert counts == {"BumpHat": 0}
    # the limit is still the reduced-space integral
    kw = kirwan_integral(model, rho)
    assert abs(sm.extrapolated - kw) <= 1e-2 * abs(kw)


def test_the_counters_see_each_binding(counts):
    # the bhat table of G(c) at c >= 2U, then a direct call
    oracles.Linrot2Oracle(PB).angular(1e4)
    BumpHat(PB)(np.array([0.0, 1.0]))
    assert counts == {"BumpHat": 2}
