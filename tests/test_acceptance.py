"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them on success)."""

import math

import numpy as np
import pytest

from equiloc.bumps import Bump
from equiloc.localization import (EquivariantForm, bv_sum, dh_measure,
                                  jk_residue, kirwan_integral, l_alpha,
                                  smeared_limit)
from equiloc.models import Amplitude, CotangentCircle, Sphere, make_model
from equiloc.mpoly import MPoly
from equiloc.oracles import (fresnel_leading, mc_pushforward_sphere,
                             sphere_bv_oracle)
from equiloc.oscillatory import (BaseNode, CleanPhase, order_fit,
                                 oscillatory_integral, sp_coefficients,
                                 selection_rule_terms)
from equiloc.resolution import resolution_certificate, singular_sweep
from equiloc.scalars import two_pi_float
from fractions import Fraction


def _report(num, name, passed, detail):
    line = f"ACCEPTANCE {num:2d} [{'PASS' if passed else 'FAIL'}] " \
           f"{name}: {detail}"
    print(line)
    assert passed, line


def test_acceptance_01_fresnel():
    bump = Bump(radius=20.0, order=4, kind="poly")
    samples = []
    worst = 0.0
    for mu in (1e-1, 1e-2, 1e-3):
        res = oscillatory_integral(lambda s: 0.5 * np.asarray(s) ** 2,
                                   lambda s: bump(s), mu,
                                   [(-20.0, 20.0)])
        err = abs(res.value - fresnel_leading(mu))
        worst = max(worst, err / (0.05 * mu ** 1.5))
        samples.append((mu, err))
    samples += [(10 ** -1.5, None), (10 ** -2.5, None)]
    full = []
    for mu, e in samples:
        if e is None:
            res = oscillatory_integral(
                lambda s: 0.5 * np.asarray(s) ** 2, lambda s: bump(s),
                mu, [(-20.0, 20.0)])
            e = abs(res.value - fresnel_leading(mu))
        full.append((mu, e))
    fit = order_fit(full)
    ok = worst <= 1.0 and abs(fit.exponent - 1.5) <= 0.1
    _report(1, "Fresnel check", ok,
            f"max err/bound = {worst:.3f}, exponent = {fit.exponent:.3f}")


def test_acceptance_02_berline_vergne_sphere():
    s = Sphere(1)
    rho = EquivariantForm()
    worst = 0.0
    for y in (0.5, 1.0, 2.0, 5.0):
        err = abs(bv_sum(s, rho, y) - sphere_bv_oracle(1.0, y))
        worst = max(worst, err)
    _report(2, "Berline-Vergne on the sphere", worst <= 1e-8,
            f"max |bv - oracle| = {worst:.2e} (tol 1e-8)")


def test_acceptance_03_dh_measure_sphere():
    s = Sphere(1)
    U = dh_measure(s, EquivariantForm())
    cells = U.canonical()
    structure_ok = (len(cells) == 1 and
                    U.value_float((Fraction(0),)) == pytest.approx(
                        2 * math.pi, rel=1e-14) and
                    U.value_at((Fraction(3, 2),)).is_zero() and
                    U.value_at((Fraction(-3, 2),)).is_zero())
    mass_ok = two_pi_float(U.mass(), U.two_pi_power) == pytest.approx(
        4 * math.pi, rel=1e-12)
    bins = 10
    masses, edges = mc_pushforward_sphere(1.0, 1_000_000, seed=1,
                                          bins=bins)
    area = 4 * math.pi
    worst = 0.0
    for i, m in enumerate(masses):
        mid = Fraction(float(0.5 * (edges[i] + edges[i + 1]))
                       ).limit_denominator(10 ** 6)
        pred = U.value_float((mid,)) * float(edges[i + 1] - edges[i])
        worst = max(worst, abs(pred - m) / (area / bins))
    ok = structure_ok and mass_ok and worst <= 0.01
    _report(3, "DH measure of the unit sphere", ok,
            f"constant 2pi on [-1,1], mass 4pi, worst MC bin "
            f"{worst:.2%} (tol 1%)")


def test_acceptance_04_residue_consistency():
    s = Sphere(1)
    rho = EquivariantForm()
    plus = jk_residue(s, rho, (1,))
    minus = jk_residue(s, rho, (-1,))
    eq_ok = plus == minus
    sm_s = smeared_limit(s, rho)
    kw_s = kirwan_integral(s, rho)
    sphere_ok = (abs(sm_s.extrapolated - kw_s) <= 0.01 * abs(kw_s) and
                 kw_s == pytest.approx(4 * math.pi ** 2, rel=1e-10))
    c = CotangentCircle()
    pb = Bump(radius=1.0, order=6, kind="poly")
    rho_c = EquivariantForm(density=lambda pts: np.cos(pts[0]) ** 2 *
                            pb(pts[1]))
    sm_c = smeared_limit(c, rho_c)
    kw_c = kirwan_integral(c, rho_c)
    cot_ok = (abs(sm_c.extrapolated - kw_c) <= 0.01 * abs(kw_c) and
              kw_c == pytest.approx(2 * math.pi ** 2, rel=1e-10))
    ok = eq_ok and sphere_ok and cot_ok
    _report(4, "Residue consistency + pairing", ok,
            f"jk(+1) == jk(-1) exactly; sphere {sm_s.extrapolated:.6f} "
            f"vs 4pi^2, cotangent {sm_c.extrapolated:.6f} vs 2pi^2")


def test_acceptance_05_exact_form_vanishing():
    s = Sphere(1)
    beta_sup = 1.0
    rho = EquivariantForm(exact_beta=lambda z: beta_sup * (1 - z ** 2) *
                          np.exp(-(z ** 2)))
    v1 = abs(smeared_limit(s, rho).extrapolated)
    c = CotangentCircle()
    pb = Bump(radius=1.5, order=8, kind="poly")
    rho_c = EquivariantForm(exact_beta=lambda pts: np.cos(pts[0]) *
                            pb(pts[1]))
    v2 = abs(smeared_limit(c, rho_c).extrapolated)
    # theta-independent beta: its profile is not zero by symmetry, and the
    # complex L(5) moves under a sign error that Re L of an even profile
    # cannot show
    rho_b = EquivariantForm(exact_beta=lambda pts: pb(pts[1]))
    v3 = abs(smeared_limit(c, rho_b).extrapolated)
    l5 = max(abs(l_alpha(s, rho, 5.0)), abs(l_alpha(c, rho_b, 5.0)))
    ok = v1 <= 1e-6 * beta_sup and max(v2, v3) <= 1e-6 and l5 <= 1e-8
    _report(5, "Exact-form vanishing", ok,
            f"sphere {v1:.2e}, cotangent {v2:.2e} and {v3:.2e} "
            f"(tol 1e-6 ||beta||), max |L(5)| {l5:.2e} (tol 1e-8)")


def test_acceptance_06_regular_value_asymptotics():
    c = CotangentCircle()
    amp = c.amplitude(None, 0.7)
    rep = singular_sweep(c, amp, list(np.geomspace(1e-2, 1e-4, 5)),
                         sigma=0.7)
    row = next(r for r in rep.rows if abs(r.mu - 1e-3) < 1e-12)
    rel = abs(row.scaled - rep.leading) / abs(rep.leading)
    fit = rep.fit_scaled
    ok = (rel <= 1e-3 and abs(fit.exponent - 2.0) <= 0.15 and
          abs(fit.log_power) <= 0.2)
    _report(6, "Regular-value asymptotics (cotangent circle)", ok,
            f"rel err {rel:.2e} at mu=1e-3; exponent "
            f"{fit.exponent:.3f}, log power {fit.log_power:.3f}")


def test_acceptance_07_singular_main_theorem():
    m = make_model("linrot2")
    amp = Amplitude(gaussian=True,
                    g_profile=Bump(radius=1.0, order=6, kind="poly"))
    rep = singular_sweep(m, amp, list(np.geomspace(1e-2, 1e-4, 5)))
    row = next(r for r in rep.rows if abs(r.mu - 1e-3) < 1e-12)
    rel = abs(row.scaled - rep.leading) / abs(rep.leading)
    ok = (rel <= 0.01 and abs(rep.fit.exponent - 2.0) <= 0.2 and
          rep.fit.log_power <= (rep.lam - 1) + 0.2)
    _report(7, "Singular main theorem (planar rotation)", ok,
            f"rel err {rel:.2e} at mu=1e-3 vs L0 = {rep.leading:.6f}; "
            f"exponent {rep.fit.exponent:.3f}, log power "
            f"{rep.fit.log_power:.3f} <= Lambda-1 = {rep.lam - 1}")


def test_acceptance_08_resolution_certificate():
    m = make_model("linrot2")
    amp = Amplitude(gaussian=True,
                    g_profile=Bump(radius=1.0, order=6, kind="poly"))
    cert = resolution_certificate(m, amp, seed=7)
    ok = (cert.factorization_max_err <= 1e-12 and
          cert.crit_witness_count >= 10_000 and
          cert.crit_mismatches == 0 and
          cert.min_transversal_eig > 0 and
          cert.codim == 2 * m.group.kappa and
          cert.rel_gap <= 0.01)
    _report(8, "Resolution certificate", ok,
            f"factorization {cert.factorization_max_err:.1e}, "
            f"{cert.crit_witness_count} witnesses / "
            f"{cert.crit_mismatches} mismatches, min eig "
            f"{cert.min_transversal_eig:.3f}, codim {cert.codim}, "
            f"L gap {cert.rel_gap:.2e}")


def test_acceptance_09_hessian_lemma():
    m = make_model("linrot2")
    rng = np.random.default_rng(7)
    from equiloc.symmat import ldlt
    h = 1e-5
    worst = 0.0
    for _ in range(20):
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        r, s = rng.uniform(0.3, 2.0), rng.uniform(-2.0, 2.0)
        eta = np.concatenate([r * u, s * u])
        point = np.concatenate([eta, [0.0]])

        def psi(pt):
            return m.momentum(pt[:4], [pt[4]])

        hess = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                ei, ej = np.zeros(5), np.zeros(5)
                ei[i] = h
                ej[j] = h
                hess[i, j] = (psi(point + ei + ej) - psi(point + ei - ej)
                              - psi(point - ei + ej) +
                              psi(point - ei - ej)) / (4 * h * h)
        eigs = np.linalg.eigvalsh(hess)
        nz = eigs[np.abs(eigs) > 1e-6 * np.abs(eigs).max()]
        det_fd = abs(float(np.prod(nz)))
        det_xi = abs(float(ldlt(m.xi_map([float(v) for v in eta])).det))
        worst = max(worst, abs(det_fd - det_xi) / det_xi)
    _report(9, "Transversal Hessian lemma", worst <= 1e-8,
            f"worst relative |det Hess| vs |det Xi| gap {worst:.2e} "
            f"(tol 1e-8) over 20 points")


def test_acceptance_10_coefficient_engine():
    # symbolic vs finite-difference coefficients on cubic-perturbed
    # quadratic phases; exact zeros from the 3k > 2r selection rule
    worst = 0.0
    cases = [
        MPoly(1, {(2,): Fraction(1, 2), (3,): Fraction(1)}),
        MPoly(1, {(2,): Fraction(1, 2), (3,): Fraction(-1, 2)}),
        MPoly(2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2),
                  (3, 0): Fraction(1, 3), (1, 2): Fraction(1, 4)}),
    ]
    for psi in cases:
        dim = psi.dim
        amp = MPoly.constant(dim, Fraction(1))
        sym = sp_coefficients(CleanPhase(
            rank=dim, psi0=0.0,
            nodes=[BaseNode(weight=1.0, psi_poly=psi, amp_poly=amp)]), 2,
            method="symbolic")
        node = BaseNode(
            weight=1.0,
            psi_num=lambda s, _p=psi: float(_p.eval_float(
                list(np.atleast_1d(s))).real),
            amp_num=lambda s: 1.0)
        fd = sp_coefficients(CleanPhase(rank=dim, psi0=0.0, nodes=[node]),
                             2, method="fd")
        for a, b in zip(sym.coefficients, fd.coefficients):
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    zeros = selection_rule_terms(cases[0], MPoly.constant(1, Fraction(1)),
                                 2)
    zeros_ok = bool(zeros) and all(v.is_zero() for _, v in zeros)
    ok = worst <= 1e-6 and zeros_ok
    _report(10, "Coefficient engine", ok,
            f"symbolic vs FD worst rel {worst:.2e} (tol 1e-6); "
            f"{len(zeros)} selection-rule terms exactly zero")
