"""`smeared_limit` runs no quadrature transform of its own.

phi-hat of the smearing kernel has a closed form, and the linrot2
pushforward density is tabulated in one vectorised Gauss pass.  A
`BumpHat` call or a scipy `quad` call on the smeared-limit path redoes, per
eps or per table node, work whose answer is already known: phi-hat as one
cosine product per eps, rho as one adaptive quadrature per node.  Each
such call is counted here, through every binding the package holds.
"""

import sys

import numpy as np
import pytest
import scipy.integrate

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
    """Calls of BumpHat.__call__ and of scipy's quad, by any binding in the
    package.  The linrot2 oracle is built afresh before counting starts
    (its angular bhat table is no part of the smeared limit), so its
    pushforward table is built inside the counted call."""
    monkeypatch.setattr(oracles, "_LINROT2_CACHE", {})
    oracles.linrot2_oracle(PB)
    seen = {"BumpHat": 0, "quad": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(BumpHat, "__call__",
                        counted("BumpHat", BumpHat.__call__))
    quad = scipy.integrate.quad
    wrapped = counted("quad", quad)
    monkeypatch.setattr(scipy.integrate, "quad", wrapped)
    for name, module in list(sys.modules.items()):
        if name == "equiloc" or name.startswith("equiloc."):
            for key, value in list(vars(module).items()):
                if value is quad:
                    monkeypatch.setattr(module, key, wrapped)
    return seen


@pytest.mark.parametrize("name", sorted(CASES))
def test_smeared_limit_calls_no_transform_quadrature(name, counts):
    model, rho = CASES[name]
    sm = smeared_limit(model, rho)
    assert counts == {"BumpHat": 0, "quad": 0}
    # the limit is still the reduced-space integral
    kw = kirwan_integral(model, rho)
    assert abs(sm.extrapolated - kw) <= 1e-2 * abs(kw)


def test_the_counters_see_each_binding(counts):
    # three quad calls through the oracles module's own binding
    oracles.linrot2_oracle(PB).integral(1e-2)
    BumpHat(PB)(np.array([0.0, 1.0]))
    assert counts == {"BumpHat": 1, "quad": 3}
