import dataclasses
import math

import numpy as np
import pytest

from equiloc.bumps import Bump
from equiloc.models import (Amplitude, CotangentCircle, ModelError, Sphere,
                            make_model)
from equiloc.resolution import (ALPHA_DOMAIN, alpha_grad_norm,
                                build_charts, crit_conditions,
                                crit_equivalence_scan,
                                direct_leading, factorization_check,
                                resolution_certificate, resolved_leading,
                                singular_sweep, stratify,
                                transversal_hessian)


GAUSS_AMP = Amplitude(gaussian=True,
                      g_profile=Bump(radius=1.0, order=6, kind="poly"))


def test_stratify_examples():
    st = stratify(make_model("linrot2"))
    assert st.lam == 2
    chain = st.chains[0]
    assert chain.depth == 1
    assert chain.levels[0].c == 2
    assert chain.levels[0].d == 0
    assert chain.levels[0].e == 1
    st4 = stratify(make_model("linrot4"))
    assert st4.lam == 3
    assert any(c.depth == 2 for c in st4.chains)
    deep = next(c for c in st4.chains if c.depth == 2)
    assert deep.levels[0].c == 4 and deep.levels[0].e == 2
    assert deep.levels[1].c == 2 and deep.levels[1].d == 1
    # trivial/free action: single type, no blow-ups needed
    st_triv = stratify(CotangentCircle())
    assert st_triv.lam == 1 and not st_triv.chains
    with pytest.raises(ModelError):
        stratify(Sphere(1))


def test_jacobian_exponent_inequality():
    for kind in ("linrot2", "linrot4"):
        m = make_model(kind)
        st = stratify(m)
        for chain in st.chains:
            assert chain.check_kappa(m.group.kappa)


def test_factorization_identity():
    rng = np.random.default_rng(1)
    m = make_model("linrot2")
    charts = build_charts(m, stratify(m).chains[0])
    for chart in charts:
        assert factorization_check(chart, m, rng, n=1000) <= 1e-12
    m4 = make_model("linrot4")
    charts4 = build_charts(m4, stratify(m4).chains[0])
    for chart in charts4:
        assert factorization_check(chart, m4, rng, n=1000) <= 1e-12


def test_weak_transform_survives_divisor():
    # at tau = 0 the weak transform is generically nonzero
    m = make_model("linrot2")
    (c0, _) = build_charts(m, stratify(m).chains[0])
    pt = np.array([0.0, 0.3, 0.7, 1.0, 2.0])
    assert abs(c0.psi_wk(pt)) > 1e-3


def test_crit_conditions_examples():
    m = make_model("linrot2")
    (c0, _) = build_charts(m, stratify(m).chains[0])
    # beta = 0 and p perpendicular to lambda(g)v: all conditions hold
    good = np.array([0.7, 0.0, 0.0, 2.0, 0.0])
    w = crit_conditions(c0, good)
    assert w.all_conditions and w.grad_norm < 1e-12
    # beta != 0 breaks (I) and the p-gradient
    bad1 = np.array([0.7, 0.0, 0.5, 2.0, 0.0])
    w1 = crit_conditions(c0, bad1)
    assert not w1.cond_i and w1.grad_norm > 1e-3
    # p along lambda(g)v breaks (III) and the beta-gradient
    bad2 = np.array([0.7, 0.0, 0.0, 0.0, 2.0])
    w2 = crit_conditions(c0, bad2)
    assert not w2.cond_iii and w2.grad_norm > 1e-3


def test_transversal_hessian_chart_example():
    m = make_model("linrot2")
    (c0, _) = build_charts(m, stratify(m).chains[0])
    pt = np.array([0.7, 0.0, 0.0, 2.0, 0.0])
    th = transversal_hessian(c0, pt, frame="adapted")
    assert abs(abs(th.det) - 4.0) <= 1e-6       # [[0, c], [c, 0]], c = 2
    assert th.signature == 0
    assert th.min_abs_eig == pytest.approx(2.0, rel=1e-6)
    full = transversal_hessian(c0, pt, frame="orthonormal")
    assert full.rank == 2 * m.group.kappa
    assert abs(full.det) == pytest.approx(5.0, rel=1e-6)


def test_transversal_uniformity_in_sigma():
    m = make_model("linrot2")
    (c0, _) = build_charts(m, stratify(m).chains[0])
    rng = np.random.default_rng(5)
    eigs = {}
    for tau in (0.0, 0.5):
        pt = c0.crit_sampler(rng, 1)[0]
        pt[0] = tau
        eigs[tau] = transversal_hessian(c0, pt, frame="adapted").min_abs_eig
    ratio = eigs[0.0] / eigs[0.5]
    assert 0.5 <= ratio <= 2.0


def test_full_space_hessian_matches_xi():
    # 20 random regular critical points: |det Hess_trans psi| = |det Xi|
    m = make_model("linrot2")
    rng = np.random.default_rng(7)
    from equiloc.symmat import ldlt
    h = 1e-5
    for _ in range(20):
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        r, s = rng.uniform(0.3, 2.0), rng.uniform(-2.0, 2.0)
        eta = np.concatenate([r * u, s * u])      # p parallel to q: J = 0

        def psi(pt):
            return m.momentum(pt[:4], [pt[4]])

        point = np.concatenate([eta, [0.0]])
        n = 5
        hess = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                ei = np.zeros(n)
                ej = np.zeros(n)
                ei[i] = h
                ej[j] = h
                hess[i, j] = (psi(point + ei + ej) - psi(point + ei - ej)
                              - psi(point - ei + ej) +
                              psi(point - ei - ej)) / (4 * h * h)
        eigs = np.linalg.eigvalsh(hess)
        nonzero = eigs[np.abs(eigs) > 1e-6 * np.abs(eigs).max()]
        assert len(nonzero) == 2
        det_fd = float(np.prod(nonzero))
        det_xi = float(ldlt(m.xi_map([float(v) for v in eta])).det)
        assert abs(det_fd) == pytest.approx(det_xi, rel=1e-8)


def test_resolved_vs_direct_leading():
    m = make_model("linrot2")
    charts = build_charts(m, stratify(m).chains[0])
    l_res = resolved_leading(m, charts, GAUSS_AMP)
    l_dir = direct_leading(m, GAUSS_AMP)
    assert l_dir == pytest.approx(math.pi ** 2, rel=1e-6)
    assert l_res == pytest.approx(l_dir, rel=0.01)


def test_resolved_leading_zero_amplitude():
    m = make_model("linrot2")
    charts = build_charts(m, stratify(m).chains[0])
    zero = Amplitude(gaussian=True, density=lambda c: 0.0 * c[0],
                     g_profile=Bump(radius=1.0, order=6, kind="poly"))
    assert resolved_leading(m, charts, zero, n_tau=8, n_ang=8,
                            n_s=8) == 0.0


def test_resolved_leading_rejects_a_varying_ratio():
    # psi_wk scaled by 1 + tau^2 scales |det Hess_perp| along Crit(psi_wk),
    # so dCrit / |det Hess_perp|^(1/2) varies over the probe grid
    m = make_model("linrot2")
    charts = [dataclasses.replace(c, psi_wk=lambda pt, _f=c.psi_wk: _f(pt) *
                                  (1 + np.asarray(pt)[..., 0] ** 2))
              for c in build_charts(m, stratify(m).chains[0])]
    with pytest.raises(ModelError, match="not constant"):
        resolved_leading(m, charts, GAUSS_AMP, n_tau=8, n_ang=8, n_s=8)


def test_amplitude_off_divisor_reduces_to_regular_stratum():
    # amplitude vanishing near q = 0: the resolved integral equals the
    # direct stratum integral restricted to the same support
    m = make_model("linrot2")
    charts = build_charts(m, stratify(m).chains[0])
    gate = Bump(radius=1.0, order=6, kind="plateau", flat=0.5)

    def off_divisor(coords):
        q = np.sqrt(coords[0] ** 2 + coords[1] ** 2)
        return 1.0 - gate(q)

    amp = Amplitude(gaussian=True, density=off_divisor,
                    g_profile=Bump(radius=1.0, order=6, kind="poly"))
    l_res = resolved_leading(m, charts, amp)
    l_dir = direct_leading(m, amp)
    assert l_res == pytest.approx(l_dir, rel=0.01)


def test_direct_leading_cotangent_regular():
    c = CotangentCircle()
    from equiloc.cli import _cot_amp
    amp = _cot_amp(0.7)
    val = direct_leading(c, amp, sigma=0.7)
    th = 2 * math.pi * (np.arange(4096) + 0.5) / 4096
    ref = float(np.mean(1.0 + np.cos(th) ** 2)) * 2 * math.pi
    assert val == pytest.approx(ref, rel=1e-10)


def test_singular_sweep_linrot2():
    m = make_model("linrot2")
    rep = singular_sweep(m, GAUSS_AMP, list(np.geomspace(1e-2, 1e-4, 5)))
    assert rep.kappa == 1 and rep.lam == 2
    assert rep.leading == pytest.approx(math.pi ** 2, rel=1e-6)
    row = next(r for r in rep.rows if abs(r.mu - 1e-3) < 1e-12)
    assert abs(row.scaled - rep.leading) <= 0.01 * rep.leading
    assert abs(rep.fit.exponent - 2.0) <= 0.2
    assert rep.fit.log_power <= 1.0 + 0.2


def test_singular_sweep_cotangent_regular():
    c = CotangentCircle()
    from equiloc.cli import _cot_amp
    rep = singular_sweep(c, _cot_amp(0.7),
                         list(np.geomspace(1e-2, 1e-4, 5)), sigma=0.7)
    row = next(r for r in rep.rows if abs(r.mu - 1e-3) < 1e-12)
    assert abs(row.scaled - rep.leading) <= 1e-3 * rep.leading
    assert abs(rep.fit_scaled.exponent - 2.0) <= 0.15
    assert abs(rep.fit_scaled.log_power) <= 0.2


def test_alpha_grad_norm_nonvanishing():
    m4 = make_model("linrot4")
    grad_norm = alpha_grad_norm(m4, stratify(m4).chains[0])
    rng = np.random.default_rng(11)
    vals = []
    for _ in range(500):
        pt = np.array([rng.uniform(lo, hi) for lo, hi in ALPHA_DOMAIN])
        vals.append(grad_norm(pt))
    assert min(vals) > 0.3


def test_depth2_crit_and_hessian():
    m4 = make_model("linrot4")
    charts = build_charts(m4, stratify(m4).chains[0])
    chart = charts[0]
    rng = np.random.default_rng(13)
    for pt in chart.crit_sampler(rng, 6):
        w = crit_conditions(chart, pt)
        assert w.all_conditions and w.grad_norm < 1e-10
        th = transversal_hessian(chart, pt, frame="adapted")
        assert th.min_abs_eig > 1e-3
        full = transversal_hessian(chart, pt, frame="orthonormal")
        assert full.rank == 2 * m4.group.kappa
    # sigma = 0 included in the uniformity probe
    pt = chart.crit_sampler(rng, 1)[0]
    pt[0] = 0.0
    th0 = transversal_hessian(chart, pt, frame="adapted")
    assert th0.min_abs_eig > 1e-3


def test_resolution_certificate():
    m = make_model("linrot2")
    cert = resolution_certificate(m, GAUSS_AMP, seed=7)
    assert cert.factorization_max_err <= 1e-12
    assert cert.crit_mismatches == 0
    assert cert.crit_witness_count >= 10_000
    assert cert.min_transversal_eig > 0
    assert cert.codim == 2 * m.group.kappa
    assert cert.rel_gap <= 0.01


def test_sweep_remainder_order():
    # the measured remainder is O(mu^{kappa+1})
    m = make_model("linrot2")
    rep = singular_sweep(m, GAUSS_AMP, list(np.geomspace(1e-2, 1e-4, 4)))
    for r in rep.rows:
        assert r.remainder <= 500.0 * r.mu ** (rep.kappa + 1)


def _all_charts():
    m2, m4 = make_model("linrot2"), make_model("linrot4")
    return (build_charts(m2, stratify(m2).chains[0]) +
            build_charts(m4, stratify(m4).chains[0]))


def _loop_gradient(chart, pt, h=1e-6):
    g = np.zeros(len(pt))
    for i in range(len(pt)):
        e = np.zeros(len(pt))
        e[i] = h
        g[i] = (chart.psi_wk(pt + e) - chart.psi_wk(pt - e)) / (2 * h)
    return g


def _loop_hessian(chart, pt, h=1e-4):
    n = len(pt)
    out = np.zeros((n, n))
    f0 = chart.psi_wk(pt)
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = h
            ej[j] = h
            if i == j:
                v = (chart.psi_wk(pt + ei) - 2 * f0 +
                     chart.psi_wk(pt - ei)) / h ** 2
            else:
                v = (chart.psi_wk(pt + ei + ej) - chart.psi_wk(pt + ei - ej)
                     - chart.psi_wk(pt - ei + ej) +
                     chart.psi_wk(pt - ei - ej)) / (4 * h ** 2)
            out[i, j] = out[j, i] = v
    return out


def _assert_floats_equal(batch, singles):
    assert all(type(v) is float for v in singles)
    assert np.array_equal(batch, singles)


def test_psi_wk_broadcasts_over_points():
    # every chart callable broadcasts: stacked points give exactly the
    # per-point values, and one point gives floats
    rng = np.random.default_rng(17)
    models = {1: make_model("linrot2"), 2: make_model("linrot4")}
    for chart in _all_charts():
        pts = np.array([[rng.uniform(lo, hi) for lo, hi in chart.domain]
                        for _ in range(12)])
        _assert_floats_equal(chart.psi_wk(pts),
                             [chart.psi_wk(pt) for pt in pts])
        assert chart.psi_wk(pts.reshape(3, 4, -1)).shape == (3, 4)
        _assert_floats_equal(chart.psi_tot(pts),
                             [chart.psi_tot(pt) for pt in pts])
        res = chart.conditions(pts)
        singles = [chart.conditions(pt) for pt in pts]
        assert sorted(res) == ["I", "II", "III"]
        for key in res:
            _assert_floats_equal(res[key], [one[key] for one in singles])
        eta, x = chart.ambient_map(pts)
        singles = [chart.ambient_map(pt) for pt in pts]
        assert np.array_equal(eta, [e for e, _ in singles])
        assert np.array_equal(x, [xv for _, xv in singles])
        model = models[chart.chain.depth]
        _assert_floats_equal(model.momentum(eta, x),
                             [model.momentum(e, xv) for e, xv in singles])
        if chart.crit_param is not None:
            tau, theta, s = pts[:, 0], pts[:, 1], pts[:, 3]
            assert np.array_equal(chart.crit_param(tau, theta, s), [
                chart.crit_param(*args) for args in zip(tau, theta, s)])
    grad_norm = alpha_grad_norm(models[2], stratify(models[2]).chains[0])
    pts = np.array([[rng.uniform(lo, hi) for lo, hi in ALPHA_DOMAIN]
                    for _ in range(12)])
    _assert_floats_equal(grad_norm(pts), [grad_norm(pt) for pt in pts])


def test_batched_stencils_match_per_point_loops():
    rng = np.random.default_rng(19)
    for chart in _all_charts():
        pts = [np.array([rng.uniform(lo, hi) for lo, hi in chart.domain])
               for _ in range(6)]
        pts += list(chart.crit_sampler(rng, 3))
        grads = chart.gradient(np.array(pts))
        for pt, g in zip(pts, grads):
            assert np.max(np.abs(g - _loop_gradient(chart, pt))) <= 1e-12
            assert np.array_equal(chart.gradient(pt), g)
            assert np.max(np.abs(chart.hessian(pt) -
                                 _loop_hessian(chart, pt))) <= 1e-12


def test_crit_scan_matches_per_point_loop():
    for seed in (1, 7):
        for chart in _all_charts():
            rng_a = np.random.default_rng(seed)
            rng_b = np.random.default_rng(seed)
            got = crit_equivalence_scan(chart, rng_a, n=400)
            crit_pts = list(chart.crit_sampler(rng_b, 100))
            pts = crit_pts + [np.array([rng_b.uniform(lo, hi)
                                        for lo, hi in chart.domain])
                              for _ in range(300)]
            mism = 0
            for pt in pts:
                w = crit_conditions(chart, pt)
                mism += w.all_conditions != (w.grad_norm <= 1e-6)
            assert got == (len(pts), mism) == (400, 0)
            assert rng_a.uniform() == rng_b.uniform()
