import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf

from equiloc import quadrature
from equiloc.bumps import Bump
from equiloc.quadrature import (composite_gl, gauss_legendre,
                                oscillatory_quad_1d, pairwise_sum,
                                panel_gauss)


def _hand_built(a, b, panels, n):
    """The composite rule as each caller used to build it, with the panel
    edges of a symmetric interval made antisymmetric (the T*S^1 oracle
    and the large-sphere profile used to mirror the rule afterwards)."""
    x, w = gauss_legendre(n)
    edges = np.linspace(a, b, panels + 1)
    if a == -b:
        edges = 0.5 * (edges - edges[::-1])
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * x[None, :]).ravel(),
            (half[:, None] * w[None, :]).ravel(), half)


def test_gauss_legendre_is_cached_and_read_only():
    x, w = gauss_legendre(16)
    assert gauss_legendre(16)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0


@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 400, 1024, 1200, 2048,
                               4096])
def test_gauss_legendre_against_closed_forms(n):
    x, w = gauss_legendre(n)
    assert len(x) == len(w) == n
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(w > 0)
    assert abs(math.fsum(w) - 2.0) <= 1e-15
    if n <= 17:
        # exact for every monomial of degree <= 2n - 1
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(float(np.dot(x ** k, w)) - exact) <= 1e-15
    if n >= 16:
        # int_{-1}^{1} cos(a x) dx = 2 sin(a)/a for a up to 0.8 n; the 16-
        # and 17-point rules resolve cos(a x) to round-off only to a = n/2
        a = np.linspace(0.0, 0.8 * n if n >= 400 else 0.5 * n, 201)[1:]
        gap = np.cos(np.outer(a, x)) @ w - 2.0 * np.sin(a) / a
        assert np.max(np.abs(gap)) <= 1e-14
    if n <= 2048:
        # numpy's eigensolver rule, the less accurate of the two
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - ref_x)) <= 2e-16
        assert np.max(np.abs(w - ref_w)) <= 2e-13


@pytest.mark.parametrize("n,passes", [
    (1, 1), (16, 3), (54, 3), (96, 3), (216, 3), (400, 2), (432, 2),
    (1200, 2), (2048, 2), (4096, 2)])
def test_gauss_legendre_recurrence_passes(n, passes, monkeypatch):
    # one third-order series-reversion step from Tricomi's guess reaches
    # round-off from n = 400 on; Newton took 4 passes there and 5 at
    # n = 54 and 96, the weights' pass included
    runs = []
    recurrence = quadrature._legendre_and_derivative

    def counted(n, x):
        runs.append(n)
        return recurrence(n, x)

    monkeypatch.setattr(quadrature, "_legendre_and_derivative", counted)
    gauss_legendre.__wrapped__(n)
    assert len(runs) == passes


def test_gauss_legendre_raises_at_the_newton_cap(monkeypatch):
    # the first Newton step at n = 2048 is 2e-9, far from round-off
    monkeypatch.setattr(quadrature, "GL_NEWTON_STEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        gauss_legendre.__wrapped__(2048)


@pytest.mark.parametrize("a,b,panels,n", [
    (0.0, 600.0, 191, 16),      # smeared_limit
    (0.0, 30.0, 360, 16),       # Linrot2Oracle.l_alpha_batch
    (-1.0, 1.0, 16, 16),
    (0.0, 1.0, 141, 16),        # BumpHat.rule at max|w| R = 500
    (-2.5, 2.5, 7, 8),          # tensor_oscillatory axis
    (-0.3, 1.7, 5, 12),
])
def test_composite_gl_equals_hand_built_rule(a, b, panels, n):
    nodes, weights = composite_gl(a, b, panels, n)
    ref_nodes, ref_weights, _ = _hand_built(a, b, panels, n)
    assert np.array_equal(nodes, ref_nodes)
    assert np.array_equal(weights, ref_weights)


@pytest.mark.parametrize("a,panels,n", [(400.0, 75, 16), (6.5, 7, 16),
                                       (2.5, 7, 8), (3.0, 1, 16),
                                       (400.0, 1, 1200)])
def test_composite_gl_on_a_symmetric_interval_is_exactly_mirrored(a, panels,
                                                                  n):
    # linspace's edges alone left nodes[::-1] + nodes up to 1.1e-13 at
    # a = 400 with 75 panels, so callers that fold a rule mirrored it
    nodes, weights = composite_gl(-a, a, panels, n)
    assert np.array_equal(nodes[::-1], -nodes)
    assert np.array_equal(weights[::-1], weights)


@pytest.mark.parametrize("lo,hi,n", [(-1.0, 1.0, 400), (-2.0, 2.0, 1024),
                                     (-400.0, 400.0, 1200),
                                     (-math.pi / 2, math.pi / 2, 40)])
def test_one_panel_equals_affine_map(lo, hi, n):
    # the single-interval rules the oracles and resolution scans used
    x, w = gauss_legendre(n)
    nodes, weights = composite_gl(lo, hi, 1, n)
    assert np.array_equal(nodes, 0.5 * (lo + hi) + 0.5 * (hi - lo) * x)
    assert np.array_equal(weights, 0.5 * (hi - lo) * w)


@pytest.mark.parametrize("n", [2, 5, 16])
def test_composite_gl_exact_to_degree_2n_minus_1(n):
    rng = np.random.default_rng(n)
    poly = np.polynomial.Polynomial(rng.normal(size=2 * n))
    a, b = -1.3, 2.1
    nodes, weights = composite_gl(a, b, 7, n)
    anti = poly.integ()
    exact = anti(b) - anti(a)
    assert abs(float(np.dot(poly(nodes), weights)) - exact) <= \
        1e-12 * max(1.0, abs(exact))


def test_panel_gauss_keeps_its_per_cell_reduction():
    f = lambda s: np.exp(3j * s) / (1.0 + s * s)
    a, b, panels = -2.0, 5.0, 9
    pts, _, half = _hand_built(a, b, panels, 16)
    w = gauss_legendre(16)[1]
    cell = (f(pts).reshape(panels, 16) * w[None, :]).sum(axis=1) * half
    assert panel_gauss(f, a, b, panels) == pairwise_sum(list(cell))


# the mu of the spexpand-fresnel benchmark job, 1e-1 down to 3.16e-4
FRESNEL_MUS = list(np.geomspace(1e-1, 3.1622776601683795e-4, 6))


def _fresnel_exact(mu, r=20.0):
    """int_{-r}^{r} e^{i s^2/2mu} (1 - s^2/r^2)^4 ds in closed form from the
    moments M_k = int s^{2k} e^{a s^2} ds, a = i/2mu (M_0 by the complex
    error function, M_k by parts)."""
    a = 1j / (2.0 * mu)
    m = [np.sqrt(math.pi / -a) * erf(np.sqrt(-a) * r)]
    for k in range(1, 5):
        m.append(r ** (2 * k - 1) * np.exp(a * r * r) / a -
                 (2 * k - 1) / (2 * a) * m[-1])
    return sum(math.comb(4, k) * (-1) ** k * m[k] / r ** (2 * k)
               for k in range(5))


@pytest.mark.parametrize("mu", FRESNEL_MUS)
def test_fresnel_against_closed_form(mu):
    res = oscillatory_quad_1d(lambda s: (1.0 - np.asarray(s) ** 2 / 400.0)
                              ** 4, lambda s: 0.5 * np.asarray(s) ** 2,
                              -20.0, 20.0, mu)
    gap = abs(res.value - _fresnel_exact(mu))
    assert gap <= 5e-8
    # error is the coarse pass's deviation, so it bounds the returned value
    assert res.error >= gap


ZONE_PHASES = {
    "fresnel": (lambda s: 0.5 * s ** 2, lambda s: s, (-20.0, 20.0)),
    "cubic": (lambda s: 0.5 * s ** 2 + s ** 3, lambda s: s + 3 * s ** 2,
              (-0.25, 0.25)),
    "sin3": (lambda s: np.sin(3 * s), lambda s: 3 * np.cos(3 * s),
             (-3.0, 5.0)),
}


@pytest.mark.parametrize("name", sorted(ZONE_PHASES))
@pytest.mark.parametrize("mu", [1e-1, 1e-2, 1e-3, 1e-4])
def test_zones_tile_the_table(name, mu, monkeypatch):
    phase, dphase, (a, b) = ZONE_PHASES[name]
    table = quadrature._zone_table(phase, a, b, mu)
    psi, zones = table[2], table[4]
    s = np.linspace(a, b, len(psi))
    assert zones[0][0] == 0 and zones[-1][1] == len(s) - 1
    assert all(z[1] > z[0] for z in zones)
    assert all(z0[1] == z1[0] for z0, z1 in zip(zones, zones[1:]))
    # overlapping guards are merged, so the kinds alternate
    assert all(z0[2] != z1[2] for z0, z1 in zip(zones, zones[1:]))
    # sign changes of the exact psi' between table points i and i + 1
    flips = np.nonzero(np.diff(np.sign(dphase(s))) != 0)[0]
    assert len(flips) > 0
    for i in flips:
        home = [z[2] for z in zones if z[0] <= i and i + 1 <= z[1]]
        assert home == ["gl"]
    again = quadrature._zone_table(phase, a, b, mu)
    assert again[:2] == table[:2] and again[4] == zones
    for x, y in zip(again[2:4], table[2:4]):
        assert np.array_equal(x, y)
    # psi' by the table's scalar spacing gives the zones of the
    # non-uniform-spacing gradient np.gradient(psi, s); at mu = 1e-3 the
    # Fresnel flip at s = 0 moves by one table cell and the zones do not
    grad = np.gradient(psi, s)
    monkeypatch.setattr(quadrature, "_dpsi", lambda psi, h, k: grad[k])
    assert quadrature._zone_table(phase, a, b, mu)[4] == zones


# (phase, [a, b], mu) whose tables span several BLOCK_POINTS blocks and
# end in a partial one; the Fresnel one is at the 2,000,000-point cap
STREAMED = [(lambda s: 0.5 * s ** 2, (-20.0, 20.0), 3.1622776601683795e-4),
            (lambda s: np.sin(3 * s), (-3.0, 5.0), 1e-4),
            (lambda s: -0.5 * s ** 2 - s ** 3, (-0.25, 0.25), 3e-6)]


def _one_pass_zones(psi, h, mu):
    """The zones as the table held psi', cum and the points whole."""
    last, guard = len(psi) - 1, quadrature._GUARD
    flips = np.flatnonzero(np.diff(np.sign(np.gradient(psi, h))))
    cum = np.concatenate([[0.0], np.abs(psi[1:] - psi[:-1])]).cumsum() / mu
    stat = cum[flips + 1]
    ends = [(0, None)]
    for lo, hi in np.searchsorted(cum, [stat - guard, stat + guard]
                                  ).T.tolist():
        end = ends[-1][0]
        if ends[-1][1] == "gl" and lo <= end:
            ends[-1] = (max(end, min(hi, last)), "gl")
            continue
        if lo > end:
            ends.append((lo, "mono"))
        ends.append((min(hi, last), "gl"))
    if ends[-1][0] < last:
        ends.append((last, "mono"))
    return [(i0, i1, kind, float(cum[i1] - cum[i0]))
            for (i0, _), (i1, kind) in zip(ends, ends[1:]) if i1 > i0]


@pytest.mark.parametrize("phase,ab,mu", STREAMED)
def test_the_streamed_table_is_the_one_pass_table(phase, ab, mu):
    """psi on blocks equals psi on one linspace, the block carries equal
    np.cumsum of |diff psi| at each block's end, and the zones are those
    of the whole psi', cum and np.searchsorted."""
    a, b = ab
    _, _, psi, carries, zones = quadrature._zone_table(phase, a, b, mu)
    n, block = len(psi), quadrature.BLOCK_POINTS
    assert n > 2 * block and n % block
    assert np.array_equal(psi, phase(np.linspace(a, b, n)))
    cum = np.empty(n)
    cum[0] = 0.0
    cum[1:] = np.abs(psi[1:] - psi[:-1])
    np.cumsum(cum, out=cum)
    assert np.array_equal(carries, [0.0] + cum[block - 1::block].tolist()
                          + [cum[-1]])
    assert zones == _one_pass_zones(psi, (b - a) / (n - 1), mu)


def _walk(n, seed):
    """A random psi with flat stretches, so its variation has ties."""
    rng = np.random.default_rng(seed)
    psi = np.cumsum(rng.normal(size=n))
    psi[100:400] = psi[99]
    psi[-300:] = psi[-301]
    return psi


def test_dpsi_is_np_gradient_at_every_index():
    psi, h = _walk(3 * quadrature.BLOCK_POINTS + 7, 1), 0.37
    k = np.arange(len(psi))
    assert np.array_equal(quadrature._dpsi(psi, h, k), np.gradient(psi, h))
    assert quadrature._dpsi(psi, h, 0) == np.gradient(psi, h)[0]


def test_block_variation_and_its_search_are_cumsum_and_searchsorted():
    block, mu = quadrature.BLOCK_POINTS, 1e-3
    psi = _walk(3 * block + 11, 2)
    cum = np.empty(len(psi))
    cum[0] = 0.0
    cum[1:] = np.abs(psi[1:] - psi[:-1])
    np.cumsum(cum, out=cum)
    parts, carry = [], 0.0
    for j in range(4):
        parts.append(quadrature._cum(psi, j, carry))
        carry = parts[-1][-1]
    assert np.array_equal(np.concatenate(parts), cum)
    cum /= mu
    blocks = [p / mu for p in parts]
    x = np.concatenate([cum[::97], cum[[0, 99, 100, 399, block - 1, block,
                                        len(cum) - 1]],
                        [-1.0, cum[-1] + 1.0], 0.5 * (cum[1:] + cum[:-1])
                        [::89]])
    got = [quadrature._cum_search(blocks.__getitem__,
                                  [b[-1] for b in blocks], len(cum), v)
           for v in x.tolist()]
    assert got == np.searchsorted(cum, x).tolist()


@pytest.mark.parametrize("lo,hi", [(0, 2000), (37, 38), (500, 1999)])
def test_grid_cells_and_interpolation_are_np_interp(lo, hi):
    a, b, n = -1.3, 2.9, 2001
    s = np.linspace(a, b, n)
    psi = _walk(n, 3)
    grid = lambda k: quadrature._grid(a, b, n, k)
    assert np.array_equal(grid(np.arange(n)), s)
    rng = np.random.default_rng(4)
    # nodes, cell midpoints, points just off the nodes and outside the zone
    x = np.concatenate([s, 0.5 * (s[1:] + s[:-1]), np.nextafter(s, 9.0),
                        np.nextafter(s, -9.0), [a - 1.0, b + 1.0, np.inf,
                                                -np.inf, np.nan],
                        rng.uniform(a - 0.5, b + 0.5, 3000)])
    cell = quadrature._grid_cell(a, b, n, lo, hi, x)
    assert np.array_equal(cell, lo - 1 + np.searchsorted(
        s[lo:hi + 1], x, "right"))
    dpsi = np.gradient(psi, s[1] - s[0])
    for f, fp in ((psi, psi.__getitem__),
                  (dpsi, lambda k: quadrature._dpsi(psi, s[1] - s[0], k))):
        want = np.interp(x, s[lo:hi + 1], f[lo:hi + 1])
        assert np.array_equal(
            quadrature._interp(x, cell, lo, hi, grid, fp), want,
            equal_nan=True)
    # a decreasing table, read reversed as a Filon zone reads its psi
    decreasing = np.sort(psi)[::-1]
    tt = decreasing[::-1]
    t = np.concatenate([tt, 0.5 * (tt[1:] + tt[:-1]), [tt[0] - 1.0,
                                                       tt[-1] + 1.0]])
    j = np.searchsorted(tt, t, "right") - 1
    assert np.array_equal(
        quadrature._interp(t, j, 0, n - 1, tt.__getitem__,
                           lambda r: grid(n - 1 - r)),
        np.interp(t, tt, s[::-1]))


def _one_pass_filon(amp, s, psi, dpsi, i0, i1, mu, refine):
    """The Filon zone as it read whole s, psi and psi' by np.interp."""
    ss, pp, dd = s[i0:i1 + 1], psi[i0:i1 + 1], dpsi[i0:i1 + 1]
    rev = slice(None, None, -1 if pp[0] > pp[-1] else 1)
    tt, st = pp[rev], ss[rev]
    nchunk, nodes = quadrature._filon_plan(len(ss), tt[-1] - tt[0], mu,
                                           refine)
    if len(ss) < 4:
        return panel_gauss(lambda x: amp(x) * np.exp(
            1j * np.interp(x, s, psi) / mu), ss[0], ss[-1], nchunk)
    edges = np.linspace(tt[0], tt[-1], nchunk + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (tt[-1] - tt[0]) / nchunk
    xc = np.cos(math.pi * np.arange(nodes) / (nodes - 1))[::-1]
    w = np.linalg.solve(np.vander(xc, increasing=True).T,
                        quadrature._osc_moments(half / mu, nodes - 1))
    tn = (mid[:, None] + half * xc[None, :]).ravel()
    sn = np.interp(tn, tt, st)
    sn = sn - (np.interp(sn, ss, pp) - tn) / np.interp(sn, ss, dd)
    g = amp(sn) / np.abs(np.interp(sn, ss, dd))
    return pairwise_sum(list(np.exp(1j * mid / mu) * half * np.einsum(
        "ij,j->i", g.reshape(nchunk, -1), w)))


@pytest.mark.parametrize("refine", [1, 2])
def test_filon_zones_are_the_one_pass_rule(refine):
    amp = lambda s: np.exp(-s * s / 50.0) * (1.0 + 0.3j * s)
    phase, a, b, mu = lambda s: 0.5 * s ** 2, -20.0, 20.0, 1e-3
    _, _, psi, _, zones = quadrature._zone_table(phase, a, b, mu)
    s = np.linspace(a, b, len(psi))
    dpsi = np.gradient(psi, (b - a) / (len(psi) - 1))
    mono = [z[:2] for z in zones if z[2] == "mono"]
    assert psi[mono[0][0]] > psi[mono[0][1]]        # one zone decreasing
    for i0, i1 in mono + [(5, 7), (len(psi) - 3, len(psi) - 1)]:
        assert quadrature._filon_zone(amp, a, b, psi, i0, i1, mu, refine) \
            == _one_pass_filon(amp, s, psi, dpsi, i0, i1, mu, refine)


def test_cosine_sum_in_blocks_is_one_pass(monkeypatch):
    table = quadrature.cosine_panels(lambda x: np.exp(-x * x), 0.0, 6.0, 700)
    rows = quadrature.BLOCK_POINTS // 700
    for count in (3 * rows + 5, 2 * rows + 1):
        xs = np.linspace(0.0, 300.0, count)
        blocked = quadrature.cosine_sum(table, xs)
        monkeypatch.setattr(quadrature, "BLOCK_POINTS", 1 << 40)
        assert np.array_equal(quadrature.cosine_sum(table, xs), blocked)
        monkeypatch.undo()
    assert quadrature.cosine_sum(table, np.empty(0)).shape == (0,)


def test_one_table_per_integral_and_one_solve_per_filon_zone(monkeypatch):
    calls = {"table": 0, "zone": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(quadrature, "_phase_table",
                        counted("table", quadrature._phase_table))
    monkeypatch.setattr(quadrature, "_filon_zone",
                        counted("zone", quadrature._filon_zone))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    oscillatory_quad_1d(lambda s: np.exp(-np.asarray(s) ** 2),
                        lambda s: np.sin(3 * np.asarray(s)), -3.0, 5.0, 1e-3)
    assert calls["table"] == 1
    assert calls["zone"] > 0 and calls["solve"] == calls["zone"]


def test_filon_zones_count_against_the_budget(monkeypatch):
    """The Fresnel phase at mu = 1e-6 takes its points almost all in Filon
    zones; the budget stops it before they are evaluated.  The zone work
    is stubbed out, so the test only counts."""
    bump = Bump(radius=20.0, order=4, kind="poly")
    monkeypatch.setattr(quadrature, "_filon_zone", lambda *args: 0j)
    with pytest.raises(quadrature.BudgetExceeded):
        oscillatory_quad_1d(bump, lambda s: 0.5 * np.asarray(s) ** 2,
                            -20.0, 20.0, 1e-6)
    # the smallest benchmark mu stays far inside the budget
    res = oscillatory_quad_1d(bump, lambda s: 0.5 * np.asarray(s) ** 2,
                              -20.0, 20.0, 3.1622776601683795e-4)
    assert 0 < res.points <= quadrature.MAX_POINTS


def test_points_charged_are_the_points_evaluated(monkeypatch):
    """Each refine pass charges exactly the amp points it evaluates, Filon
    zones included: at refine 2 they take chunks half as wide and two
    more nodes per chunk."""
    bump = Bump(radius=20.0, order=4, kind="poly")
    evaluated = []

    def amp(s):
        evaluated[-1] += np.size(s)
        return bump(s)

    charged = []
    osc_pass = quadrature._osc_pass

    def counted(amp, phase, mu, table, refine, budget):
        evaluated.append(0)
        value, npts = osc_pass(amp, phase, mu, table, refine, budget)
        charged.append(npts)
        return value, npts

    monkeypatch.setattr(quadrature, "_osc_pass", counted)
    res = oscillatory_quad_1d(amp, lambda s: 0.5 * np.asarray(s) ** 2,
                              -20.0, 20.0, 3.1622776601683795e-4)
    assert charged == evaluated
    assert res.points == sum(evaluated)
    # 18,354 then 42,978: the fine pass halves every cell and has 13 Filon
    # nodes per chunk against 11
    assert evaluated[1] > 2 * evaluated[0]


# separable factors a_i(x_i) e^{i p_i(x_i)/mu} of the tensor-rule tests
SEPARABLE = [(lambda x: 1.0 / (1.0 + x * x), lambda x: 3.0 * x),
             (lambda y: np.cos(y) + 2.0, lambda y: 0.5 * y * y),
             (lambda z: np.exp(-z * z), lambda z: np.sin(2.0 * z))]


@pytest.mark.parametrize("domain,mu", [
    ([(-1.0, 1.3), (-2.0, 2.0)], 0.05),
    ([(-1.0, 1.3), (-2.0, 2.0), (-1.5, 0.5)], 0.2),
])
def test_tensor_rule_of_a_separable_integrand_is_the_product(domain, mu,
                                                             monkeypatch):
    """On a separable integrand the tensor rule is the product of the 1-D
    sums on its own axes, block boundaries and all."""
    axes = []

    def recorded(*args):
        axes.append(composite_gl(*args))
        return axes[-1]

    monkeypatch.setattr(quadrature, "composite_gl", recorded)
    factors = SEPARABLE[:len(domain)]
    res = quadrature.tensor_oscillatory(
        lambda p: math.prod(a(x) for (a, _), x in zip(factors, p)),
        lambda p: sum(ph(x) for (_, ph), x in zip(factors, p)),
        domain, mu)
    sizes = [len(x) for x, _ in axes]
    assert len(sizes) == len(domain)
    # the rows along the last axis end in a partial block
    rows, per_block = math.prod(sizes[:-1]), \
        quadrature.BLOCK_POINTS // sizes[-1]
    assert rows > per_block and rows % per_block != 0
    assert res.points == math.prod(sizes)
    assert all(n % 8 == 0 for n in sizes)     # counts x 8 Gauss nodes
    product = math.prod(complex(np.sum(w * a(x) * np.exp(1j * ph(x) / mu)))
                        for (x, w), (a, ph) in zip(axes, factors))
    assert abs(res.value - product) <= 1e-12 * abs(product)


def _saddle():
    """amp and phase of `spexpand --model saddle`."""
    bump = Bump(radius=2.5, order=4, kind="poly")
    return (lambda s: bump(np.sqrt(s[0] ** 2 + s[1] ** 2)),
            lambda s: 0.5 * (s[0] ** 2 - s[1] ** 2))


def _traced_peak(fn):
    """(fn(), peak bytes that tracemalloc saw allocated during it)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tensor_budget_raises_before_any_grid_is_built(monkeypatch):
    # 2,534,464 points at mu = 0.02; the grid alone would take 20 MB
    amp, phase = _saddle()
    called = []
    monkeypatch.setattr(quadrature, "MAX_POINTS", 10_000)
    info, peak = _traced_peak(lambda: pytest.raises(
        quadrature.BudgetExceeded, quadrature.tensor_oscillatory,
        lambda s: called.append(s) or amp(s), phase,
        [(-2.5, 2.5), (-2.5, 2.5)], 0.02))
    info.match("2534464 points")
    assert called == []
    assert peak < 256 * 1024


def test_tensor_rule_streams_the_saddle_grid():
    """The saddle at mu = 0.02 is 2,534,464 points; holding one float per
    point would take 20 MB, the grid's points and values together 81 MB."""
    amp, phase = _saddle()
    res, peak = _traced_peak(lambda: quadrature.tensor_oscillatory(
        amp, phase, [(-2.5, 2.5), (-2.5, 2.5)], 0.02))
    assert res.points == 2_534_464
    assert peak < 16e6
    # the value the full-grid rule gave, to round-off
    assert abs(res.value - 0.12563282460636874) <= 1e-14


def test_fresnel_table_memory_and_value_at_the_smallest_benchmark_mu():
    """The Fresnel phase table at mu = 10^-3.5 has 2 million points; the
    engine holds psi (16 MB) and one block of the rest.  The
    value is pinned to round-off against the one the rule gave with psi'
    from the non-uniform-spacing gradient (its true error, 1e-9 to 1e-8,
    is too large to pin round-off)."""
    bump = Bump(radius=20.0, order=4, kind="poly")
    res, peak = _traced_peak(lambda: oscillatory_quad_1d(
        bump, lambda s: 0.5 * np.asarray(s) ** 2, -20.0, 20.0,
        3.1622776601683795e-4))
    assert peak < 24e6
    recorded = 0.03151928076980441 + 0.03151908284092822j
    assert abs(res.value - recorded) <= 1e-12 * abs(recorded)
    assert res.points == 61_332
