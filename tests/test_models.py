import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from equiloc.models import (LEVEL_NODES, PLANAR_EXTENT, Amplitude,
                            CotangentCircle, LinearCotangent, ModelError,
                            Sphere, make_model, reduced_integral,
                            rotation_generator)
from equiloc.mpoly import LinForm
from equiloc.symmat import ldlt


def test_momentum_examples():
    m = make_model("linrot2")
    assert m.momentum([1, 0, 0, 1], [1]) == pytest.approx(1.0)
    s = Sphere(1)
    assert s.momentum([0.0, math.sqrt(0.75), 0.5], 1.0) == pytest.approx(0.5)
    c = CotangentCircle()
    assert c.momentum([0.0, 2.0], 1.0) == pytest.approx(2.0)


def test_momentum_linear_in_x():
    m = make_model("linrot4")
    rng = np.random.default_rng(2)
    for _ in range(10):
        eta = rng.normal(size=8)
        x1 = rng.normal(size=2)
        x2 = rng.normal(size=2)
        a, b = rng.normal(size=2)
        lhs = m.momentum(eta, a * x1 + b * x2)
        rhs = a * m.momentum(eta, x1) + b * m.momentum(eta, x2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_equivariance_over_torus():
    m = make_model("linrot2")
    rng = np.random.default_rng(3)
    for _ in range(8):
        eta = rng.normal(size=4)
        x = rng.normal(size=1)
        t = rng.uniform(0, 2 * math.pi)
        geta = m.flow(eta, [1.0], -t)       # g^{-1} eta
        # abelian: Ad(g) X = X
        assert m.momentum(geta, x) == pytest.approx(
            m.momentum(eta, x), abs=1e-10)


def _omega(u, v, n):
    """omega = sum dp_i ^ dq_i on R^{2n}: omega(u, v) = <u_p, v_q> - <v_p, u_q>."""
    return float(np.dot(u[n:], v[:n]) - np.dot(v[n:], u[:n]))


def test_hamiltonian_identity_finite_differences():
    # dJ_X + iota_{X~} omega = 0 at random points
    m = make_model("linrot2")
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(10):
        eta = rng.normal(size=4)
        x = [rng.normal()]
        v = rng.normal(size=4)
        dj = (m.momentum(eta + h * v, x) - m.momentum(eta - h * v, x)) / (
            2 * h)
        xf = m.fundamental_field(eta, x)
        assert dj + _omega(xf, v, 2) == pytest.approx(0.0, abs=1e-7)


def test_circle_flows_keep_the_momentum():
    # the sphere and T*S^1 circles: J is invariant under the flow, and the
    # flow's velocity at t = 0 is the fundamental field
    rng = np.random.default_rng(6)
    h = 1e-6
    for model, dim in ((Sphere(2), 3), (CotangentCircle(), 2)):
        for _ in range(6):
            eta = rng.normal(size=dim)
            if dim == 3:
                eta *= 2 / np.linalg.norm(eta)
            else:
                eta[0] = rng.uniform(1.0, 5.0)     # off the wrap at 2 pi
            t = rng.uniform(0, 2 * math.pi)
            assert model.momentum(model.flow(eta, 1.0, t)) == \
                pytest.approx(model.momentum(eta), abs=1e-12)
            vel = (model.flow(eta, 1.0, h) - model.flow(eta, 1.0, -h)) / (
                2 * h)
            assert np.abs(vel - model.fundamental_field(eta)).max() <= 1e-8


def test_fixed_components_catalog():
    s = Sphere(1)
    comps = s.fixed_components()
    assert len(comps) == 2
    north = next(f for f in comps if f.j_value.coeffs == (Fraction(1),))
    south = next(f for f in comps if f.j_value.coeffs == (Fraction(-1),))
    assert north.weights[0][0].coeffs == (Fraction(-1),)
    assert south.weights[0][0].coeffs == (Fraction(1),)
    assert north.rank_nf == 2
    assert CotangentCircle().fixed_components() == []
    m = make_model("linrot2")
    (fc,) = m.fixed_components()
    assert fc.rank_nf == 4
    assert sorted(w.coeffs[0] for w, _ in fc.weights) == [-1, 1]


def test_fixed_set_exhausts_vanishing_field():
    # for regular Y, the vanishing locus of Y~ on a dense sample is F^T
    m = make_model("linrot2")
    rng = np.random.default_rng(5)
    for _ in range(200):
        eta = rng.normal(size=4)
        assert np.linalg.norm(m.fundamental_field(eta, [1.0])) > 1e-8
    assert np.linalg.norm(m.fundamental_field(np.zeros(4), [1.0])) == 0.0


def test_orbit_volume_and_isotropy():
    m = make_model("linrot2")
    assert m.orbit_volume([1, 0, 2, 0]) == pytest.approx(
        2 * math.pi * math.sqrt(5), rel=1e-12)
    assert m.isotropy_dim([1, 0, 2, 0]) == 0
    assert m.orbit_volume([0, 0, 0, 0]) == 0.0
    assert m.isotropy_dim([0, 0, 0, 0]) == 1
    s = Sphere(1)
    assert s.orbit_volume([1, 0, 0]) == pytest.approx(2 * math.pi)
    assert s.isotropy_dim([1, 0, 0]) == 0


def test_xi_map_examples_and_scaling():
    m = make_model("linrot2")
    assert m.xi_map([1, 0, 2, 0]).entries == ((Fraction(5),),)
    assert Sphere(1).xi_map([1, 0, 0]).entries == ((Fraction(1),),)
    assert CotangentCircle().xi_map([1.0, 0.3]).entries == ((Fraction(1),),)
    base = m.xi_map([1, 0, 2, 0]).entries[0][0]
    scaled = m.xi_map([3, 0, 6, 0]).entries[0][0]
    assert scaled == 9 * base


def test_xi_det_identity_random_points():
    # |det Xi|^{1/2} = vol(G.eta) |G_eta| / vol G, relative 1e-10
    rng = np.random.default_rng(6)
    m = make_model("linrot2")
    for _ in range(10):
        eta = [Fraction(rng.integers(-6, 7), int(rng.integers(1, 5)))
               for _ in range(4)]
        if all(v == 0 for v in eta):
            continue
        lhs = math.sqrt(float(ldlt(m.xi_map(eta)).det))
        rhs = m.orbit_volume([float(v) for v in eta]) / m.group.vol_g
        assert lhs == pytest.approx(rhs, rel=1e-10)
    m4 = make_model("linrot4")
    for _ in range(6):
        eta = [Fraction(rng.integers(-5, 6), int(rng.integers(1, 4)))
               for _ in range(8)]
        try:
            xi = m4.xi_map(eta)
        except ModelError:
            continue
        if xi.dim < 2:
            continue
        lhs = math.sqrt(abs(float(ldlt(xi).det)))
        rhs = m4.orbit_volume([float(v) for v in eta]) / m4.group.vol_g
        assert lhs == pytest.approx(rhs, rel=1e-10)


def _sum_generators(n, terms):
    """sum of speed * rotation_generator(n, plane) over (plane, speed)."""
    g = [[Fraction(0)] * n for _ in range(n)]
    for plane, speed in terms:
        r = rotation_generator(n, plane, speed)
        g = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(g, r)]
    return g


@pytest.mark.parametrize("model", [
    make_model("linrot2"), make_model("linrot4"),
    LinearCotangent(4, [_sum_generators(4, [((0, 2), 2), ((1, 3), -1)]),
                        _sum_generators(4, [((0, 2), 1), ((1, 3), 3)])]),
], ids=["linrot2", "linrot4", "mixed-speeds"])
def test_flow_is_the_exponential_of_the_generator(model):
    # the closed-form block rotation against scipy's matrix exponential
    from scipy.linalg import expm
    rng = np.random.default_rng(5)
    for _ in range(6):
        eta = rng.normal(size=2 * model.n)
        x = rng.normal(size=model.k)
        t = rng.uniform(-4.0, 4.0)
        g = expm(t * model.generator_matrix(x))
        want = np.concatenate([g @ eta[:model.n], g @ eta[model.n:]])
        assert np.abs(model.flow(eta, x, t) - want).max() <= 1e-12


def test_reduced_rule_level_circles():
    # one block of the whole circle: w * vol O_eta sums to the length of
    # the level circle, and every point lies on the level with principal
    # isotropy
    for model, sigma, length in ((Sphere(1), 0.0, 2 * math.pi),
                                 (Sphere(2), 1.0, 2 * math.pi * math.sqrt(3)),
                                 (CotangentCircle(), 0.7, 2 * math.pi)):
        (pts, w), = model.reduced_rule(sigma)
        assert w.size == LEVEL_NODES
        vols = np.array([model.orbit_volume(pts[:, i])
                         for i in range(w.size)])
        assert float(w @ vols) == pytest.approx(length, rel=1e-12)
        for i in range(0, w.size, 97):
            assert abs(model.momentum(pts[:, i]) - sigma) < 1e-12
            assert model.isotropy_dim(pts[:, i]) == 0


def test_sphere_stratum_empty():
    with pytest.raises(ModelError):
        Sphere(1).reduced_rule(1.5)


def test_config_validation_names_bad_generator():
    cfg = {"kind": "linear-cotangent", "n": 2,
           "generators": [[[0, 1], [1, 0]]]}
    with pytest.raises(ModelError, match=r"\(0,1\)|antisymmetric"):
        make_model(**cfg)
    ok = make_model(**{"kind": "linear-cotangent", "n": 2,
                       "generators": [[[0, -1], [1, 0]]]})
    assert ok.group.kappa == 1


def test_noncommuting_generators_rejected():
    g1 = rotation_generator(3, (0, 1))
    g2 = rotation_generator(3, (1, 2))
    with pytest.raises(ModelError, match="commute"):
        LinearCotangent(3, [g1, g2])


def test_amplitude_factors():
    from equiloc.bumps import Bump
    amp = Amplitude(gaussian=True,
                    g_profile=Bump(radius=1.0, order=6, kind="poly"))
    coords = np.array([[1.0], [0.0], [0.0], [0.0]])
    assert amp.eta_factor(coords)[0] == pytest.approx(math.exp(-1.0))
    assert amp.g_factor(0.0) == pytest.approx(1.0)
    assert amp.g_factor(2.0) == pytest.approx(0.0)


def test_reduced_rule_planar_rotation():
    m = make_model("linrot2")
    blocks = list(m.reduced_rule(0.0))
    # one block of 96 x 96 (r, s) points per phi midpoint, all with the
    # same weights; vol O_eta does not depend on phi, so w * vol O_eta
    # sums to 64 times its sum over one phi slice
    assert len(blocks) == 64
    assert all(pts.shape == (4, 96 * 96) for pts, _ in blocks)
    (pts0, w0) = blocks[0]
    vols = np.array([m.orbit_volume(pts0[:, i]) for i in range(w0.size)])
    assert all(np.array_equal(w, w0) for _, w in blocks)
    # every 4999th point of the rule read phi slowest, as when it was one
    # (4, 589,824) array
    for j in range(0, 64 * w0.size, 4999):
        k, i = divmod(j, w0.size)
        pts = blocks[k][0]
        assert m.orbit_volume(pts[:, i]) == pytest.approx(vols[i],
                                                          rel=1e-12)
        assert abs(m.momentum(pts[:, i], [1.0])) < 1e-12
        assert m.isotropy_dim(pts[:, i]) == m.group.d - m.group.kappa
    # the stratum measure pi * int int sqrt(r^2 + s^2) dr ds over the box
    # [-a, a]^2, in closed form
    a = PLANAR_EXTENT
    measure = math.pi * 4 * a ** 3 / 3 * (math.sqrt(2) + math.asinh(1))
    assert 64 * float(w0 @ vols) == pytest.approx(measure, rel=2e-6)


def test_direct_leading_on_linrot2_builds_no_grid_sized_temporary():
    # the planar rule is read one phi slice at a time: 1.1 MB traced peak,
    # where the whole (4, 589,824) rule and its tiled weights took 24 MB
    from equiloc.resolution import direct_leading
    m = make_model("linrot2")
    amp = m.amplitude(None, 0.0)
    tracemalloc.start()
    try:
        direct_leading(m, amp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_reduced_rule_planar_rotation_rejects():
    with pytest.raises(ModelError, match="sigma = 0"):
        make_model("linrot2").reduced_rule(0.5)
    with pytest.raises(ModelError, match="planar rotation"):
        make_model("linrot4").reduced_rule(0.0)
    with pytest.raises(ModelError, match="speed"):
        LinearCotangent(2, [rotation_generator(2, (0, 1), 2)]).reduced_rule(
            0.0)


def test_registry_builds_every_kind():
    from equiloc.models import MODELS
    params = {"linear-cotangent": {"n": 2,
                                   "generators": [[[0, -1], [1, 0]]]}}
    for kind in MODELS:
        g = make_model(kind, **params.get(kind, {})).group
        assert 1 <= g.kappa <= g.d and g.vol_g == (2 * math.pi) ** g.d
    assert make_model("linrot4").k == 2
    with pytest.raises(ModelError, match="'n'"):
        make_model("linear-cotangent")
    with pytest.raises(ModelError, match="unknown model kind"):
        make_model("donut")


def test_planar_rotation_profile_refuses_what_its_oracle_does_not_cover():
    from equiloc.localization import EquivariantForm
    m = make_model("linrot2")
    for rho in (EquivariantForm(density=lambda pts: pts[0] ** 2),
                EquivariantForm(exact_beta=lambda pts: pts[0])):
        with pytest.raises(ModelError, match="Gaussian rotation"):
            m.profile(rho)
    with pytest.raises(ModelError, match="Gaussian rotation"):
        make_model("linrot4").profile(EquivariantForm())
    with pytest.raises(ModelError, match="speed"):
        LinearCotangent(2, [rotation_generator(2, (0, 1), 2)]).profile(
            EquivariantForm())


def test_the_sphere_has_no_sweep_oracle():
    from equiloc.resolution import singular_sweep
    s = Sphere(1)
    with pytest.raises(ModelError, match="shipped catalog"):
        singular_sweep(s, s.amplitude(None, 0.0), [1e-2, 1e-3], sigma=0.0)


@pytest.mark.parametrize("radius", [2.5, 10])
def test_large_sphere_profiles_use_panels_of_cached_rules(radius,
                                                          monkeypatch):
    # ceil(R) panels of the 2048-node rule (400 for an exact form) instead
    # of one rule of 2048 ceil(R) nodes, whose build costs O(n^2)
    from equiloc import quadrature
    from equiloc.localization import EquivariantForm
    sizes = []
    rule = quadrature.gauss_legendre

    def spy(n):
        sizes.append(n)
        return rule(n)

    monkeypatch.setattr(quadrature, "gauss_legendre", spy)
    s = Sphere(radius)
    closed = s.profile(EquivariantForm())
    exact = s.profile(EquivariantForm(
        exact_beta=lambda z: (radius ** 2 - z ** 2) * np.exp(-z ** 2)))
    assert sizes and max(sizes) <= 2048
    assert closed.s.size == 2048 * math.ceil(radius)
    assert exact.s.size == 400 * math.ceil(radius)
    x = np.array([0.5, 3.0, 77.7, 600.0])
    ref = 4 * math.pi * radius * np.sin(x * radius) / x
    assert np.max(np.abs(closed.l_alpha(x) - ref)) <= 1e-11
    assert np.max(np.abs(exact.l_alpha(x))) <= 1e-7


def test_reduced_integral_of_the_gaussian_on_linrot2():
    # the blocked weighted sum of reduced_integral is pi^2: the rule's
    # cutoff leaves the Gaussian a tail below round-off (3.4e-15 measured;
    # at the resolved side's 4.2 it read pi^2 (1 - 5.7e-9))
    val = reduced_integral(make_model("linrot2"),
                           lambda pts: np.exp(-(pts ** 2).sum(axis=0)))
    assert val == pytest.approx(math.pi ** 2, rel=1e-13, abs=0)
