import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0, k0

from equiloc import (EquivariantForm, Sphere, l_alpha, make_model, oracles,
                     quadrature, smeared_limit)
from equiloc.bumps import Bump, BumpHat
from equiloc.localization import default_kernel
from equiloc.models import Amplitude, CotangentCircle, ModelError
from equiloc.oracles import bessel_j0, bessel_k0, linrot2_oracle
from equiloc.quadrature import composite_gl

G_BUMP = Bump(radius=1.0, order=6, kind="poly")
# the sweep of `singular` on linrot2 and on T*S^1
MUS = list(np.geomspace(1e-2, 1e-4, 5))


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


@pytest.mark.parametrize("mu", MUS)
def test_linrot2_oracle_against_hankel_closed_form(mu):
    # the sweep of `singular --model linrot2`; the graded Gauss panels over
    # c = v / mu leave 7.8e-14 to 8.8e-13, most of it on the x1.5 panels
    # past c = 64
    exact = _hankel_closed_form(G_BUMP, mu)
    assert abs(linrot2_oracle(G_BUMP).integral(mu) - exact) <= 1e-10 * exact


def test_linrot2_sweep_against_hankel_closed_form_in_one_call():
    exact = [_hankel_closed_form(G_BUMP, mu) for mu in MUS]
    got = linrot2_oracle(G_BUMP).integral(MUS)
    assert max(abs(g - e) / e for g, e in zip(got, exact)) <= 1e-10


@pytest.mark.parametrize("mus", [MUS,
                                 [1e-3, 0.5, 2.0, 1e-4, 30.0, 59.9, 1e-5]])
def test_linrot2_sweep_equals_one_call_per_mu(mus):
    # each mu reads the shared panels below V_MAX / mu and its own last
    # panel, so the sweep changes no bit of any entry
    orc = linrot2_oracle(G_BUMP)
    alone = [orc.integral(mu) for mu in mus]
    assert all(isinstance(v, float) for v in alone)
    assert orc.integral(mus) == alone


def test_the_linrot2_sweep_evaluates_few_j0_points(monkeypatch):
    # the five-mu sweep of `singular --model linrot2` sent 1,804,448 points
    # to a J_0 in 1,411 calls when G(c) took BumpHat's rule of 16 nodes per
    # 4 radians, at least 1,024, for each c on its own, and 233,550 points
    # in 20 calls when each mu built G on its own 3,392-node v panels;
    # the panels in c = v / mu share all but each mu's last, 832 nodes
    seen = []
    angular = []

    def counted(x):
        seen.append(np.size(x))
        return bessel_j0(x)

    def counted_angular(self, c, _f=oracles.Linrot2Oracle.angular):
        angular.append(np.size(c))
        return _f(self, c)

    monkeypatch.setattr(oracles, "_LINROT2_CACHE", {})
    monkeypatch.setattr(oracles, "bessel_j0", counted)
    monkeypatch.setattr(oracles.Linrot2Oracle, "angular", counted_angular)
    model = make_model("linrot2")
    model.sweep_oracle(model.amplitude(None, 0.0), MUS, 0.0)
    assert (len(seen), sum(seen)) == (4, 46_710)
    assert angular == [832]


def test_bessel_k0_integrates_to_pi_over_2():
    # int_0^inf K_0 = pi / 2, with x = e^t taking out the log at 0
    t, w = composite_gl(-40.0, math.log(80.0), 96)
    x = np.exp(t)
    assert abs(float(np.dot(bessel_k0(x) * x, w)) - math.pi / 2) <= 1e-14


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_bessel_j0_laplace_transform(a):
    # int_0^inf e^{-a x} J_0(x) dx = (1 + a^2)^(-1/2); the tail past
    # 80 / a is below e^{-80}
    x, w = composite_gl(0.0, 80.0 / a, 160)
    val = float(np.dot(np.exp(-a * x) * bessel_j0(x), w))
    assert abs(val - 1.0 / math.sqrt(1.0 + a * a)) <= 1e-14


@pytest.mark.parametrize("x", [1e-300, 1e-100, 1e-12, 1e-6, 1e-3])
def test_bessel_k0_log_behaviour_at_zero(x):
    # K_0(x) = -ln(x/2) - gamma + (x^2/4)(1 - ln(x/2) - gamma) + O(x^4 ln x),
    # up to round-off on the size of K_0 (690 at x = 1e-300)
    rest = bessel_k0(x) + math.log(0.5 * x) + np.euler_gamma
    bound = 0.25 * x * x * (1.0 - math.log(0.5 * x))
    assert abs(rest) <= bound + 1e-15 * abs(math.log(x))


def test_bessel_rules_against_scipy():
    x = np.linspace(0.0, 800.0, 400_001)
    assert np.abs(bessel_j0(x) - j0(x)).max() <= 1e-13
    x = np.geomspace(1e-12, 700.0, 200_001)
    assert np.abs(bessel_k0(x) / k0(x) - 1.0).max() <= 2e-15
    assert bessel_j0(-3.0) == bessel_j0(3.0) == float(bessel_j0([3.0])[0])
    assert bessel_k0(3.0) == float(bessel_k0(np.array([0.1, 3.0]))[1])


def test_bessel_k0_against_40_digit_values():
    # the docstring's bound, across the hand-over from the log series to
    # the trapezoid rule at x = 1.5
    mpmath = pytest.importorskip("mpmath")
    x = np.concatenate([np.geomspace(1e-300, 700.0, 500),
                        np.linspace(1.0, 3.0, 201)])
    with mpmath.workdps(40):
        exact = [mpmath.besselk(0, mpmath.mpf(v)) for v in x]
        rel = [abs(mpmath.mpf(v) / e - 1) for v, e in zip(bessel_k0(x),
                                                            exact)]
    assert float(max(rel)) <= 1e-15


def test_bessel_k0_is_continuous_across_its_rule_change():
    # the log series and the trapezoid rule meet at x = 1.5; K_0' = -K_1
    # moves K_0 by 3e-16 relative an ulp there, so a jump between the
    # rules would stand out
    x = 1.5 + np.arange(-8, 9) * np.spacing(1.5)
    k = bessel_k0(x)
    assert np.abs(np.diff(k)).max() <= 1e-15 * k[8]
    assert abs(k[8] / k0(1.5) - 1.0) <= 1e-15


def _angular_reference(c: float, g_bump: Bump = G_BUMP) -> float:
    """G(c) = 4 pi int_0^R b(x) J_0(c x) dx on max(64, c R + 64) panels,
    summed 20,000 panels at a time."""
    r = g_bump.radius
    panels = max(64, int(c * r) + 64)
    total = 0.0
    for lo in range(0, panels, 20_000):
        hi = min(panels, lo + 20_000)
        x, w = composite_gl(lo * r / panels, hi * r / panels, hi - lo)
        total += float(np.dot(g_bump(x) * j0(c * x), w))
    return 4.0 * math.pi * total


@pytest.mark.parametrize("order", [6, 8])
@pytest.mark.parametrize("c", [801.0, 2000.0, 20000.0])
def test_linrot2_angular_past_the_bhat_cut_for_accepted_orders(order, c):
    # past 2U the bhat table stops at U = 400 / R: against this reference
    # order 6 leaves 9.0e-14 and order 8 7.5e-14, within the class
    # docstring's 1e-13
    g_bump = Bump(radius=1.0, order=order, kind="poly")
    exact = _angular_reference(c, g_bump)
    assert abs(linrot2_oracle(g_bump).angular(c) - exact) <= 1e-13 * exact


@pytest.mark.parametrize("g_bump", [Bump(radius=1.0, order=5, kind="poly"),
                                    Bump(radius=2.0, order=2, kind="poly"),
                                    Bump(radius=1.0, order=8)])
def test_linrot2_oracle_refuses_a_bump_its_cut_cannot_serve(g_bump):
    # past 2U order 5 is off by 5.2e-13 and order 2 by 2.2e-7; a plateau
    # bump's hat was never measured against the cut
    from equiloc.models import ModelError
    with pytest.raises(ModelError, match="order 6"):
        oracles.Linrot2Oracle(g_bump)


@pytest.mark.parametrize("c", [0.0, 1.0, 59.9, 60.0, 61.0, 799.0, 800.0,
                               801.0, 5000.0, 6e5])
def test_linrot2_angular_at_its_regime_edges(c):
    # c = 800 = 2 * 400 / R is where the J_0 rule hands over to the bhat
    # table
    exact = _angular_reference(c)
    orc = linrot2_oracle(G_BUMP)
    assert abs(orc.angular(c) - exact) <= 1e-12 * exact
    assert orc.angular(-c) == orc.angular(c)


@pytest.mark.parametrize("v", [0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_linrot2_pushforward_closed_form(v):
    # int_0^inf K_0(2 sqrt(v^2 + x^2)) dx = (pi / 4) e^{-2 |v|}
    exact = math.pi ** 2 * math.exp(-2.0 * v)
    orc = linrot2_oracle(G_BUMP)
    assert abs(orc.pushforward_density(v) - exact) <= 1e-10 * exact
    assert orc.pushforward_density(-v) == orc.pushforward_density(v)


@pytest.mark.parametrize("v", [1e-12, 1e-8, 25.0])
def test_linrot2_pushforward_near_zero_and_far_out(v):
    # t = ln x takes over from the sinh map as v -> 0, where the sinh map's
    # range [0, asinh(40 / v)] grows without bound
    exact = math.pi ** 2 * math.exp(-2.0 * v)
    orc = linrot2_oracle(G_BUMP)
    assert abs(orc.pushforward_density(v) - exact) <= 1e-12 * exact


def test_linrot2_pushforward_within_its_docstring_bound():
    # 1e-14 relative on [0, 25], with the numpy K_0 as with scipy's
    v = np.concatenate([[1e-12, 1e-8, 1e-4], np.linspace(0.0, 25.0, 5001)])
    exact = math.pi ** 2 * np.exp(-2.0 * v)
    rel = linrot2_oracle(G_BUMP).pushforward_density(v) / exact - 1.0
    assert np.abs(rel).max() <= 1e-14


def test_linrot2_pushforward_array_equals_scalar_calls():
    vs = np.array([[0.0, 1e-12, 1e-8, 1e-3], [0.5, 2.0, -10.0, 25.0]])
    orc = linrot2_oracle(G_BUMP)
    table = orc.pushforward_density(vs)
    assert table.shape == vs.shape
    assert [orc.pushforward_density(float(v)) for v in vs.ravel()] == list(
        table.ravel())


@pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 3.0, 10.0, 30.0, 50.0,
                               100.0, 300.0, 600.0])
def test_linrot2_l_alpha_closed_form(x):
    # 2 int_0^inf pi^2 e^{-2v} cos(X v) dv = 4 pi^2 / (4 + X^2).  X runs
    # to 600, the end of the smeared limit's X range, so each 16-point
    # panel of the pushforward table must span only a couple of periods of
    # cos(X v) there; panels spanning 8 periods are off by 0.016
    exact = 4.0 * math.pi ** 2 / (4.0 + x * x)
    val = l_alpha(make_model("linrot2"), EquivariantForm(), x)
    assert abs(val - exact) <= 1e-12


def test_sphere_bv_oracle_refuses_past_its_node_cap():
    # capped at 4096 height nodes it returned a value off by 22.7 here
    from equiloc.models import ModelError
    from equiloc.oracles import sphere_bv_oracle
    with pytest.raises(ModelError, match="4096"):
        sphere_bv_oracle(10.0, 1024.0)
    # |y| R = 324, the most its rule covers, against 4 pi R sin(yR)/y
    r, y = 10.0, 32.4
    closed = 4 * math.pi * r * math.sin(y * r) / y
    assert abs(sphere_bv_oracle(r, y) - closed) <= 1e-11


def test_linrot2_l_alpha_batch_closed_form():
    # the whole smeared-limit X grid in one call, through the table's
    # panel and node sums: 2 int_0^inf pi^2 e^{-2v} cos(X v) dv
    xs = np.linspace(0.0, 600.0, 3056)
    vals = linrot2_oracle(G_BUMP).l_alpha_batch(xs)
    assert np.max(np.abs(vals - 4.0 * math.pi ** 2 / (4.0 + xs * xs))) \
        <= 1e-13


def _panel_rule():
    """The T*S^1 oracle's w rule: 75 16-point Gauss panels of |w| <= 400,
    exactly mirrored about 0."""
    return composite_gl(-400.0, 400.0, 75)


def _cotangent_full_grid(f_theta_p, bhat, sigma, mus, rule):
    """The T*S^1 sweep with f evaluated on the whole grid of 256 theta
    midpoints times the w rule, and bhat on every w node."""
    th = 2 * math.pi * (np.arange(256) + 0.5) / 256
    w, wts = rule
    tt, ww = np.meshgrid(th, w, indexing="ij")
    bw = bhat(w)
    return [mu * float(np.dot((f_theta_p(tt, sigma + mu * ww) * bw).sum(
        axis=0) * (2 * math.pi / 256), wts)) for mu in mus]


def _cotangent_oracle(amp, sigma, mus=MUS):
    return oracles.cotangent_regular_integral(
        amp.factors, lambda t, p: amp.eta_factor(np.stack([t, p])),
        BumpHat(amp.g_profile), sigma, mus)


@pytest.mark.parametrize("sigma", [0.0, 0.7])
def test_separable_cotangent_oracle_against_the_full_grid(sigma):
    # one theta sum times one w sum per mu, against the amplitude on all
    # 307,200 (theta, w) points of the same rule (5.6e-16 measured)
    amp = CotangentCircle().amplitude(None, sigma)
    got = _cotangent_oracle(amp, sigma)
    want = _cotangent_full_grid(
        lambda t, p: amp.eta_factor(np.stack([t, p])),
        BumpHat(amp.g_profile), sigma, MUS, _panel_rule())
    assert np.max(np.abs(np.subtract(got, want)) / np.abs(want)) <= 1e-14


@pytest.mark.parametrize("sigma", [0.0, 0.7])
def test_cotangent_w_rules_against_a_fine_reference(sigma):
    # the oracle's 75 panels and the single 1,200-node rule it replaced,
    # both on |w| <= 400, against 1,200 16-point panels on |w| <= 800
    # (8.5e-15 and 1.1e-14 measured)
    amp = CotangentCircle().amplitude(None, sigma)
    theta_factor, p_factor = amp.factors
    bhat = BumpHat(amp.g_profile)
    th = 2 * math.pi * (np.arange(256) + 0.5) / 256
    theta_sum = 2 * math.pi / 256 * float(np.sum(theta_factor(th)))

    def sweep(w, wts):
        bw = bhat(w) * wts
        return np.array([mu * theta_sum * float(np.dot(
            p_factor(sigma + mu * w), bw)) for mu in MUS])

    fine = sweep(*composite_gl(-800.0, 800.0, 1200))
    for got in (np.array(_cotangent_oracle(amp, sigma)),
                sweep(*composite_gl(-400.0, 400.0, 1, 1200))):
        assert np.max(np.abs(got - fine) / np.abs(fine)) <= 5e-14


@pytest.mark.parametrize("sigma", [0.0, 0.7])
@pytest.mark.parametrize("miss", [
    lambda t, p: 1e-9 * np.sin(t) * p,
    lambda t, p: np.where(p > 1.0, np.nan, 0.0)], ids=["1e-9", "nan"])
def test_cotangent_sweep_refuses_factors_that_miss_the_amplitude(
        sigma, miss):
    # the declaration is checked, not trusted: a density 1e-9 sin(theta) p
    # off the product of the declared factors, or NaN past p = 1
    model = CotangentCircle()
    amp = model.amplitude(None, sigma)
    theta_factor, p_factor = amp.factors
    off = Amplitude(amp.g_profile, factors=amp.factors,
                    density=lambda c: theta_factor(c[0]) * p_factor(c[1])
                    + miss(c[0], c[1]))
    with pytest.raises(ModelError, match="factors miss"):
        model.sweep_oracle(off, MUS, sigma)


def test_cotangent_sweep_refuses_an_amplitude_without_factors():
    model = CotangentCircle()
    amp = Amplitude(model.amplitude(None, 0.7).g_profile,
                    density=model.amplitude(None, 0.7).density)
    with pytest.raises(ModelError, match="declared factors"):
        model.sweep_oracle(amp, MUS, 0.7)


def test_mc_pushforward_normalises_the_height_column_to_the_same_bits():
    # the whole (n, 3) sample was once divided by its row norms; it is
    # now drawn in blocks of rows, the last one short
    for n in (1_000_000, 3 * 5461 + 1):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(n, 3))
        g /= np.linalg.norm(g, axis=1)[:, None]
        hist, edges = np.histogram(g[:, 2] * 2.0, bins=20,
                                   range=(-2.0, 2.0))
        masses, got_edges = oracles.mc_pushforward_sphere(2.0, n, 3)
        assert np.array_equal(masses, hist / n * (16 * math.pi))
        assert np.array_equal(got_edges, edges)


def _one_block(monkeypatch):
    """Every row_blocks loop takes its whole array in one block."""
    monkeypatch.setattr(quadrature, "BLOCK_POINTS", 1 << 40)


def test_blocked_l_alpha_batch_and_pushforward_are_one_pass(monkeypatch):
    profile = Sphere(1).profile(EquivariantForm())
    rows = quadrature.BLOCK_POINTS // (len(profile.s) // 2)
    xs = [np.linspace(0.0, 600.0, 5 * rows + 3),
          np.linspace(0.0, 600.0, 3 * rows + 1)]
    # panel counts of 2 to 18 per v, 1024 / count v a block
    vs = [np.concatenate([np.geomspace(1e-17, 1e-1, 3001),
                          np.linspace(0.0, 25.0, 19_999)]).reshape(23, -1),
          np.float64(0.3)]
    orc = linrot2_oracle(G_BUMP)
    batch = [profile.l_alpha_batch(x) for x in xs]
    rho = [orc.pushforward_density(v) for v in vs]
    _one_block(monkeypatch)
    for x, want in zip(xs, batch):
        assert np.array_equal(profile.l_alpha_batch(x), want)
    for v, want in zip(vs, rho):
        got = orc.pushforward_density(v)
        assert np.array_equal(got, want) and np.shape(got) == np.shape(v)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_smeared_limits_and_monte_carlo_hold_no_full_grid(monkeypatch):
    """Each held one array an entry per point: the linrot2 pushforward
    table's (15,360, up to 288) node grid, 48 MB; the sphere profile's
    (3,056, 1,024) cosines, 25 MB; the 10^6 x 3 samples, 41 MB."""
    default_kernel()        # built once per process, by either limit
    monkeypatch.setattr(oracles, "_LINROT2_CACHE", {})
    assert _traced_peak(lambda: smeared_limit(
        make_model("linrot2"), EquivariantForm())) < 8e6
    assert _traced_peak(lambda: smeared_limit(
        Sphere(1), EquivariantForm())) < 4e6
    assert _traced_peak(
        lambda: oracles.mc_pushforward_sphere(1, 10 ** 6, 1)) < 4e6
