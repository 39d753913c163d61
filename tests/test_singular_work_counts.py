"""The singular workload's array passes stay array passes.

The certificate calls each chart's psi_wk once for the factorization
check and once per block of the crit scan's gradients; the Hessians of
`transversal_hessian` and of `resolved_leading`'s probe grid read the
chart's `equations`, where each probe once made a psi_wk call of its
own (125 per chart).  The T*S^1 sweep evaluates bhat once,
on the positive half of its mirrored w rule, and its amplitude as two
1-D factors, with the full amplitude only on the sample that checks them.
Each such call is counted here, so a per-point loop, a second bhat pass
or a 2-D (theta, w) grid cannot come back unseen.
"""

import numpy as np
import pytest

from equiloc import resolution
from equiloc.bumps import BumpHat
from equiloc.cli import main
from equiloc.models import Amplitude, CotangentCircle


@pytest.fixture
def psi_wk_calls(monkeypatch):
    """Calls of every chart's psi_wk, wrapped on the charts that
    build_charts returns, as the benchmark tracer wraps them, and the
    points each call sees: all but the last axis, so a complex-step
    array (m, n, n) is m n points."""
    seen = {"psi_wk": 0, "points": []}
    build = resolution.build_charts

    def counted_charts(*args, **kwargs):
        charts = build(*args, **kwargs)
        for chart in charts:
            def counted(pt, _f=chart.psi_wk):
                seen["psi_wk"] += 1
                seen["points"].append(int(np.prod(np.shape(pt)[:-1])))
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
    # per chart: the factorization check on 500 points and the crit scan's
    # 5,000 gradients in blocks of 655 points (5 x 5 complex-step entries
    # each, BLOCK_POINTS at most), 1 + 8 calls; the Hessians on Crit take
    # their gradients from `equations`.  The call count was 28 when the 11
    # adapted-frame Hessians and the probe-grid pass each differenced
    # psi_wk, 276 when each of the 125 probes made its own call, and 4
    # when the scan was one call, which saw the same 2 x 25,500 points
    assert main(["resolve-verify", "--model", "linrot2", "--out",
                 str(tmp_path)]) == 0
    per_chart = [500] + [655 * 5] * 7 + [(5000 - 7 * 655) * 5]
    assert psi_wk_calls == {"psi_wk": 2 * (1 + 8),
                            "points": 2 * per_chart}
    assert sum(psi_wk_calls["points"]) == 2 * (500 + 5000 * 5)


@pytest.mark.parametrize("command", ["singular", "spexpand"])
def test_cotangent_sweep_calls_bhat_once_on_half_the_rule(
        command, bumphat_calls, tmp_path):
    assert main([command, "--model", "cotangent-circle", "--out",
                 str(tmp_path)]) == 0
    assert len(bumphat_calls) == 1 and bumphat_calls[0] <= 600


@pytest.fixture
def cotangent_points(monkeypatch):
    """Points of each call of the declared T*S^1 factors, wrapped where
    the sweep oracle reads them (`Amplitude.factors`; the density calls
    its own), and of each `Amplitude.eta_factor` call."""
    seen = {"theta": [], "p": [], "eta": []}
    amplitude = CotangentCircle.amplitude
    eta_factor = Amplitude.eta_factor

    def counted(f, key):
        def call(x):
            seen[key].append(int(np.size(x)))
            return f(x)
        return call

    def counted_amplitude(self, bump_cfg, sigma):
        amp = amplitude(self, bump_cfg, sigma)
        amp.factors = (counted(amp.factors[0], "theta"),
                       counted(amp.factors[1], "p"))
        return amp

    def counted_eta(self, coords):
        seen["eta"].append(int(np.size(coords[0])))
        return eta_factor(self, coords)

    monkeypatch.setattr(CotangentCircle, "amplitude", counted_amplitude)
    monkeypatch.setattr(Amplitude, "eta_factor", counted_eta)
    return seen


@pytest.mark.parametrize("command", ["singular", "spexpand"])
def test_cotangent_sweep_reads_the_amplitude_as_two_factors(
        command, cotangent_points, tmp_path):
    # the oracle: theta factor once on the 256 midpoints, p factor once per
    # mu on the 1,200 w-nodes, eta_factor on the check sample of 16 theta
    # midpoints x 75 w-nodes x 5 mu; the direct side then reads eta_factor
    # on reduced_rule's 2,048 level midpoints.  The oracle once evaluated
    # the amplitude on all 307,200 (theta, w) points of each mu.
    assert main([command, "--model", "cotangent-circle", "--out",
                 str(tmp_path)]) == 0
    assert cotangent_points == {"theta": [256], "p": [1200] * 5,
                                "eta": [16 * 75 * 5, 2048]}
