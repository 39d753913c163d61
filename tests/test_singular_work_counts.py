"""The singular workload's array passes stay array passes.

The certificate calls each chart's psi_wk twice, once for the
factorization check and once for the gradients of the crit scan; the
Hessians of `transversal_hessian` and of `resolved_leading`'s probe grid
read the chart's `equations`, where each probe once made a psi_wk call
of its own (125 per chart).  The T*S^1 sweep evaluates bhat once,
on the positive half of its mirrored w rule.  Each such call is counted
here, so a per-point loop or a second bhat pass cannot come back unseen.
"""

import numpy as np
import pytest

from equiloc import resolution
from equiloc.bumps import BumpHat
from equiloc.cli import main


@pytest.fixture
def psi_wk_calls(monkeypatch):
    """Calls of every chart's psi_wk, wrapped on the charts that
    build_charts returns, as the benchmark tracer wraps them."""
    seen = {"psi_wk": 0}
    build = resolution.build_charts

    def counted_charts(*args, **kwargs):
        charts = build(*args, **kwargs)
        for chart in charts:
            def counted(pt, _f=chart.psi_wk):
                seen["psi_wk"] += 1
                return _f(pt)
            chart.psi_wk = counted
        return charts

    monkeypatch.setattr(resolution, "build_charts", counted_charts)
    return seen


@pytest.fixture
def bumphat_calls(monkeypatch):
    """Points of each BumpHat.__call__."""
    seen = []
    call = BumpHat.__call__

    def counted(self, w):
        seen.append(int(np.size(w)))
        return call(self, w)

    monkeypatch.setattr(BumpHat, "__call__", counted)
    return seen


def test_resolve_verify_linrot2_psi_wk_calls(psi_wk_calls, tmp_path):
    # per chart: the factorization check and the crit scan; the Hessians
    # on Crit take their gradients from `equations` (28 when the 11
    # adapted-frame Hessians and the probe-grid pass each differenced
    # psi_wk, 276 when each of the 125 probes made its own call)
    assert main(["resolve-verify", "--model", "linrot2", "--out",
                 str(tmp_path)]) == 0
    assert psi_wk_calls == {"psi_wk": 2 * (1 + 1)}


@pytest.mark.parametrize("command", ["singular", "spexpand"])
def test_cotangent_sweep_calls_bhat_once_on_half_the_rule(
        command, bumphat_calls, tmp_path):
    assert main([command, "--model", "cotangent-circle", "--out",
                 str(tmp_path)]) == 0
    assert len(bumphat_calls) == 1 and bumphat_calls[0] <= 600
