import math
import random
from fractions import Fraction

import numpy as np
import pytest

from equiloc.bumps import Bump
from equiloc.mpoly import MPoly
from equiloc.oscillatory import (BaseNode, CleanPhase, PhaseError,
                                 decay_check, order_fit,
                                 oscillatory_integral, sp_coefficients,
                                 selection_rule_terms, node_hessian)
from equiloc.symmat import ldlt


def point_phase(psi, amp=None):
    dim = psi.dim
    amp = amp or MPoly.constant(dim, Fraction(1))
    return CleanPhase(rank=dim, psi0=0.0,
                      nodes=[BaseNode(weight=1.0, psi_poly=psi,
                                      amp_poly=amp)])


def test_fresnel_q0():
    psi = MPoly(1, {(2,): Fraction(1, 2)})
    exp = sp_coefficients(point_phase(psi).validate(), 1)
    assert exp.coefficients[0] == pytest.approx(1.0)
    assert exp.signature == 1
    lead = exp.evaluate(0.01)
    ref = math.sqrt(2 * math.pi * 0.01) * complex(
        math.cos(math.pi / 4), math.sin(math.pi / 4))
    assert lead == pytest.approx(ref)


def test_saddle_signature_zero():
    psi = MPoly(2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(-1, 2)})
    exp = sp_coefficients(point_phase(psi).validate(), 1)
    assert exp.coefficients[0] == pytest.approx(1.0)
    assert exp.signature == 0


def test_cubic_q1_and_fd_agreement():
    psi = MPoly(1, {(2,): Fraction(1, 2), (3,): Fraction(1)})
    exp = sp_coefficients(point_phase(psi).validate(), 2)
    assert exp.coefficients[1] == pytest.approx(7.5j)
    b = Bump(radius=0.45, order=8, kind="plateau", flat=0.55)
    node = BaseNode(
        weight=1.0,
        psi_num=lambda s: 0.5 * float(np.atleast_1d(s)[0]) ** 2 +
        float(np.atleast_1d(s)[0]) ** 3,
        amp_num=lambda s: float(b(np.atleast_1d(s)[0])))
    fd = sp_coefficients(CleanPhase(rank=1, psi0=0.0, nodes=[node]), 2,
                         method="fd")
    for a, c in zip(fd.coefficients, exp.coefficients):
        assert abs(a - c) <= 1e-6 * max(1.0, abs(c))


def test_symbolic_vs_fd_random_quartic_phases():
    rng = random.Random(12)
    for _ in range(5):
        c3 = Fraction(rng.randint(-2, 2), 2)
        c4 = Fraction(rng.randint(-2, 2), 3)
        psi = MPoly(1, {(2,): Fraction(1, 2), (3,): c3, (4,): c4})
        amp = MPoly(1, {(0,): Fraction(1), (1,): Fraction(rng.randint(
            -2, 2), 3), (2,): Fraction(rng.randint(-1, 1), 2)})
        sym = sp_coefficients(point_phase(psi, amp), 2, method="symbolic")
        node = BaseNode(
            weight=1.0,
            psi_num=lambda s, _p=psi: float(_p.eval_float(
                [float(np.atleast_1d(s)[0])]).real),
            amp_num=lambda s, _a=amp: float(_a.eval_float(
                [float(np.atleast_1d(s)[0])]).real))
        fd = sp_coefficients(CleanPhase(rank=1, psi0=0.0, nodes=[node]), 2,
                             method="fd")
        for a, c in zip(fd.coefficients, sym.coefficients):
            assert abs(a - c) <= 1e-6 * max(1.0, abs(c))


def test_selection_rule_exact_zeros():
    psi = MPoly(1, {(2,): Fraction(1, 2), (3,): Fraction(1)})
    amp = MPoly(1, {(0,): Fraction(1), (2,): Fraction(1, 3)})
    terms = selection_rule_terms(psi, amp, 2)
    assert terms
    for (r, k), val in terms:
        assert 3 * k > 2 * r
        assert val.is_zero()


def test_signature_matches_numeric_eigenvalues():
    rng = random.Random(14)
    for _ in range(10):
        n = rng.choice([2, 3])
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(n)]
             for _ in range(n)]
        entries = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        from equiloc.symmat import SymMat
        m = SymMat(entries)
        res = ldlt(m)
        if res.singular:
            continue
        eigs = np.linalg.eigvalsh(np.array(
            [[float(x) for x in row] for row in entries]))
        assert res.signature == int((eigs > 0).sum() - (eigs < 0).sum())


def test_clean_phase_validation_rejects_linear_term():
    psi = MPoly(1, {(1,): Fraction(1), (2,): Fraction(1, 2)})
    with pytest.raises(PhaseError):
        point_phase(psi).validate()


def test_clean_phase_validation_rejects_singular_hessian():
    psi = MPoly(2, {(2, 0): Fraction(1, 2)})
    with pytest.raises(PhaseError):
        point_phase(psi).validate()


@pytest.mark.parametrize("c", [1, 50, 200])
def test_clean_phase_validation_passes_any_cubic_size(c):
    # psi = s^2/2 + c s^3 is clean; an absolute |H| <= 1e-10 at s = 1e-4
    # rejected c = 200 (H = 2e-10)
    psi = MPoly(1, {(2,): Fraction(1, 2), (3,): Fraction(c)})
    point_phase(psi).validate()
    CleanPhase(rank=1, psi0=0.0, nodes=[BaseNode(
        weight=1.0, psi_num=lambda s: 0.5 * s[0] ** 2 + c * s[0] ** 3,
        amp_num=lambda s: 1.0)]).validate()


@pytest.mark.parametrize("q", [0.25, 1e-3])
def test_clean_phase_validation_rejects_quadratic_remainder(q):
    # q s|s| is odd, so the finite-difference Hessian misses it and H keeps
    # it as a quadratic remainder, beside a cubic part 10 times larger at
    # s = 1e-4 when q = 1e-3
    node = BaseNode(weight=1.0, psi_num=lambda s: (
        0.5 * s[0] ** 2 + q * s[0] * abs(s[0]) + s[0] ** 3),
        amp_num=lambda s: 1.0)
    with pytest.raises(PhaseError, match="third order"):
        CleanPhase(rank=1, psi0=0.0, nodes=[node]).validate()


def test_oracle_fresnel_truncated():
    b = Bump(radius=5.0, order=8, kind="plateau", flat=0.6)
    res = oscillatory_integral(lambda s: 0.5 * np.asarray(s) ** 2,
                               lambda s: b(s), 0.01, [(-5.0, 5.0)])
    ref = math.sqrt(2 * math.pi * 0.01) * complex(
        math.cos(math.pi / 4), math.sin(math.pi / 4))
    assert abs(res.value - ref) <= 1e-6


def test_oracle_zero_amplitude():
    res = oscillatory_integral(lambda s: 0.5 * np.asarray(s) ** 2,
                               lambda s: np.zeros_like(np.asarray(s)),
                               0.01, [(-5.0, 5.0)])
    assert res.value == 0


def test_oracle_sphere_closed_form():
    # int_{S^2} e^{i Y z} dA = 2 pi (e^{iY} - e^{-iY})/(iY) at Y = 2
    from equiloc.oracles import sphere_bv_oracle
    y = 2.0
    val = sphere_bv_oracle(1.0, y)
    ref = 2 * math.pi * (np.exp(1j * y) - np.exp(-1j * y)) / (1j * y)
    assert abs(val - ref) <= 1e-8


def test_expansion_vs_oracle_order():
    # |I(mu) - expansion_N(mu)| decays like mu^{l/2+N}
    psi = MPoly(1, {(2,): Fraction(1, 2), (3,): Fraction(1)})
    exp = sp_coefficients(point_phase(psi).validate(), 1)
    b = Bump(radius=0.25, order=8, kind="plateau", flat=0.5)
    samples = []
    for mu in np.geomspace(10 ** -3.5, 10 ** -5.5, 5):
        res = oscillatory_integral(
            lambda s: 0.5 * np.asarray(s) ** 2 + np.asarray(s) ** 3,
            lambda s: b(s), mu, [(-0.25, 0.25)])
        samples.append((mu, abs(res.value - exp.evaluate(mu))))
    fit = order_fit(samples)
    assert abs(fit.exponent - 1.5) <= 0.15


def test_decay_check_routes():
    # sphere amplitude vanishing near the poles: superpolynomial decay
    from equiloc.localization import EquivariantForm, l_alpha
    from equiloc.models import Sphere
    s = Sphere(1)
    cut = Bump(radius=0.8, order=6, kind="plateau", flat=0.4)
    rho = EquivariantForm(density=lambda pts: cut(pts[2]))

    def l_eval(t):
        return l_alpha(s, rho, t)

    res = decay_check(l_eval)
    assert not res.zero_signal
    assert res.slope <= -3.0
    zero = decay_check(lambda t: 0.0)
    assert zero.zero_signal and zero.slope is None


def test_decay_check_cotangent_off_level():
    # amplitude supported on p in [1, 2] with the zero-level phase: the
    # transform decays superpolynomially in t (the fitted slope is steep
    # and |L| collapses by orders of magnitude across [4, 64])
    from equiloc.oracles import cotangent_l_alpha
    prof = Bump(radius=0.5, order=10, kind="plateau", flat=0.35)

    def l_eval(t):
        return cotangent_l_alpha(
            lambda th, p: np.ones_like(th) * prof(p - 1.5), t, 0.8, 2.2,
            n_p=3200)

    res = decay_check(l_eval, ts=np.geomspace(16.0, 256.0, 9))
    assert not res.zero_signal
    assert res.slope <= -3.0
    assert abs(l_eval(256.0)) <= 1e-8 * abs(l_eval(0.0))


def test_order_fit_examples():
    mus = np.geomspace(1e-1, 1e-4, 7)
    f = order_fit([(m, m ** 2) for m in mus])
    assert abs(f.exponent - 2.0) <= 0.05 and abs(f.log_power) <= 0.05
    f = order_fit([(m, m ** 2 * (-math.log(m))) for m in mus])
    assert abs(f.exponent - 2.0) <= 0.1 and abs(f.log_power - 1.0) <= 0.1
    assert order_fit([(m, 0.0) for m in mus]).exponent == math.inf


def test_order_fit_input_validation():
    with pytest.raises(ValueError):
        order_fit([(1e-1, 1.0), (1e-2, 0.1), (1e-3, 0.01)])
    with pytest.raises(ValueError):
        order_fit([(1e-1, 1.0), (8e-2, 0.9), (6e-2, 0.8), (5e-2, 0.7)])


def test_q0_base_integral_weighting():
    # two-node base: Q0 = sum w_i f_i(0)/|det psi''_i|^{1/2}
    psi_a = MPoly(1, {(2,): Fraction(1, 2)})    # det 1
    psi_b = MPoly(1, {(2,): Fraction(2)})       # det 4
    amp = MPoly.constant(1, Fraction(3))
    phase = CleanPhase(rank=1, psi0=0.0, nodes=[
        BaseNode(weight=0.5, psi_poly=psi_a, amp_poly=amp),
        BaseNode(weight=2.0, psi_poly=psi_b, amp_poly=amp)])
    exp = sp_coefficients(phase, 1)
    assert exp.coefficients[0] == pytest.approx(0.5 * 3 + 2.0 * 3 / 2.0)
    assert exp.coefficients[0].imag == 0.0


# closed forms of the coefficient formula, on the exact path and on the
# finite-difference path

def _both_paths(psi, amp, order):
    """(exact, finite-difference) expansions of one point node."""
    dim = psi.dim
    sym = sp_coefficients(point_phase(psi, amp), order, method="symbolic")
    node = BaseNode(
        weight=1.0,
        psi_num=lambda s: float(psi.eval_float(list(s)).real),
        amp_num=lambda s: float(amp.eval_float(list(s)).real))
    fd = sp_coefficients(CleanPhase(rank=dim, psi0=0.0, nodes=[node]),
                         order, method="fd")
    return sym, fd


@pytest.mark.parametrize("n,q_n", [(1, 1j), (2, -3), (3, -15j)])
def test_gaussian_moments_give_double_factorials(n, q_n):
    # psi = s^2/2, a = s^{2n}: Q_n = i^n (2n - 1)!! and Q_j = 0 otherwise
    psi = MPoly(1, {(2,): Fraction(1, 2)})
    amp = MPoly(1, {(2 * n,): Fraction(1)})
    sym, fd = _both_paths(psi, amp, n + 1)
    assert sym.coefficients == [0] * n + [q_n]
    for a, c in zip(fd.coefficients, sym.coefficients):
        assert abs(a - c) <= 1e-6


def test_hyperbolic_pair_has_signature_zero_and_q1_i():
    # psi = a = s1 s2: psi''^{-1} = [[0, 1], [1, 0]], so
    # Q_1 = <D, A^-1 D> a / (2 i) = -2 / (2 i) = i
    psi = MPoly(2, {(1, 1): Fraction(1)})
    sym, fd = _both_paths(psi, psi, 2)
    assert sym.signature == fd.signature == 0
    assert sym.coefficients == [0, 1j]
    assert abs(fd.coefficients[0]) <= 1e-6
    assert abs(fd.coefficients[1] - 1j) <= 1e-6


def test_coupled_quadratic_q1_closed_form():
    # psi'' = [[1, 1/4], [1/4, 2]] with det 31/16 and (psi''^{-1})_11 =
    # 32/31; a = s1^2 gives Q_1 = i (32/31) / sqrt(31/16) = 128 i/(31 sqrt 31)
    psi = MPoly(2, {(2, 0): Fraction(1, 2), (1, 1): Fraction(1, 4),
                    (0, 2): Fraction(1)})
    amp = MPoly(2, {(2, 0): Fraction(1)})
    sym, fd = _both_paths(psi, amp, 2)
    q1 = 128j / (31 * math.sqrt(31))
    assert sym.coefficients[0] == 0
    assert sym.coefficients[1] == pytest.approx(q1, rel=1e-15)
    assert abs(fd.coefficients[0]) <= 1e-6
    assert abs(fd.coefficients[1] - q1) <= 1e-6


def test_each_hessian_is_factored_once(monkeypatch):
    from equiloc import oscillatory
    calls = []

    def counting_ldlt(m):
        calls.append(m)
        return ldlt(m)

    monkeypatch.setattr(oscillatory, "ldlt", counting_ldlt)
    psi = MPoly(1, {(2,): Fraction(1, 2), (3,): Fraction(1)})
    amp = MPoly(1, {(0,): Fraction(1), (2,): Fraction(1, 3)})
    nodes = [BaseNode(weight=1.0, psi_poly=psi, amp_poly=amp),
             BaseNode(weight=0.5, psi_num=lambda s: psi.eval_float(
                 list(s)).real, amp_num=lambda s: 1.0)]
    for order in (1, 2, 3):
        calls.clear()
        sp_coefficients(CleanPhase(rank=1, psi0=0.0, nodes=nodes), order)
        assert len(calls) == len(nodes)
    calls.clear()
    assert selection_rule_terms(psi, amp, 2)
    assert len(calls) == 1


def test_phase_in_other_than_rank_variables_raises():
    # a 1-variable phase in a rank-2 CleanPhase once got the rank-2
    # prefactor (2 pi mu)^1 instead of (2 pi mu)^(1/2)
    phase = CleanPhase(rank=2, psi0=0.0, nodes=[BaseNode(
        weight=1.0, psi_poly=MPoly(1, {(2,): Fraction(1, 2)}),
        amp_poly=MPoly.constant(1, Fraction(1)))])
    with pytest.raises(PhaseError, match="variable"):
        sp_coefficients(phase, 1)
    with pytest.raises(PhaseError, match="variable"):
        phase.validate()
    with pytest.raises(PhaseError, match="variable"):
        node_hessian(phase.nodes[0], 2)
