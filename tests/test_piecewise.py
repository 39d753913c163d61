import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from equiloc.mpoly import LinForm, MPoly
from equiloc.piecewise import ft_shifted, Piece, PiecewisePoly
from equiloc.ratexp import RatExp, RatTerm
from equiloc.scalars import CRat, I, two_pi_float


def term(c, a, denoms):
    return RatTerm(c, LinForm(a), denoms)


def test_simple_pole_step():
    # e^{iY}/(iY) = -i e^{iY}/Y: step at xi = -1 with positive constant
    u = RatExp(1, [term(CRat(0, -1), [1], [(LinForm([1]), 1)])])
    U = ft_shifted(u, 1)
    assert U.cuts() == [-1]
    assert [(lo, hi) for lo, hi, _ in U.canonical()] == [(-1, None)]
    assert U.to_json_dict()["chambers"][0]["walls"] == [[["1"], "1"]]
    # constant density, real, positive
    assert U.value_at((Fraction(0),)).im == 0
    assert U.value_float((Fraction(0),)) > 0
    assert U.value_at((Fraction(-2),)).is_zero()
    assert U.support_kind() == "half-bounded"


def test_a_term_without_a_pole_is_refused():
    # its transform would be a point atom, which no fixed point makes
    u = RatExp(1, [term(CRat(1), [0], [])])
    with pytest.raises(ValueError, match="pole"):
        ft_shifted(u, 1)


def sphere_pair(radius=1):
    r = Fraction(radius)
    n = term(I, [r], [(LinForm([-Fraction(1) / r]), 1)])
    s = term(I, [-r], [(LinForm([Fraction(1) / r]), 1)])
    return RatExp(1, [n, s], 1)


def test_sphere_pair_indicator():
    u = sphere_pair()
    U = ft_shifted(u, 1)
    cells = U.canonical()
    assert len(cells) == 1
    assert U.value_at((Fraction(0),)) == CRat(1)
    assert U.value_float((Fraction(0),)) == pytest.approx(
        2 * math.pi, rel=1e-15)
    assert two_pi_float(U.mass(), U.two_pi_power) == pytest.approx(
        4 * math.pi, rel=1e-15)
    assert U.support_kind() == "bounded"
    # cone flip gives the identical measure
    U2 = ft_shifted(u, -1)
    assert U.piecewise_equal(U2)
    # a cone on the line is a sign
    for side in (0, 2):
        with pytest.raises(ValueError, match="side"):
            ft_shifted(u, side)


def test_numeric_inverse_transform_matches_u():
    # u(Y) = int U(xi) e^{-i xi Y} d xi at 20 sample points, 1e-6 relative
    u = sphere_pair()
    U = ft_shifted(u, 1)
    xs, ws = np.polynomial.legendre.leggauss(400)
    rng = random.Random(4)
    for _ in range(20):
        y = rng.uniform(0.3, 6.0)
        total = 0j
        for lo, hi, dens in U.canonical():
            lo, hi = float(lo), float(hi)
            xi = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xs
            vals = np.array([dens.eval_float((x,)) for x in xi])
            total += 0.5 * (hi - lo) * np.dot(
                vals * np.exp(-1j * xi * y), ws)
        total *= (2 * math.pi) ** U.two_pi_power
        direct = u.eval_complex((y,))
        assert abs(total - direct) <= 1e-6 * abs(direct)


def test_repeated_pole_ramp():
    # e^{iaY}/Y^2: density proportional to (xi + a) on the cone side
    u = RatExp(1, [term(CRat(-1), [Fraction(1, 2)], [(LinForm([1]), 2)])])
    U = ft_shifted(u, 1)
    v1 = U.value_float((Fraction(1, 2),))
    v2 = U.value_float((Fraction(3, 2),))
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)
    assert U.value_at((Fraction(-1),)).is_zero()


def test_residue_ray_examples():
    c = CRat(Fraction(7, 3))
    one = MPoly.constant(1, c)
    # the indicator of (-1, 1) as a step up at -1 and a step down at 1
    ind = PiecewisePoly([Piece(-1, 1, one), Piece(1, 1, -one)])
    assert ind.residue_ray((1,)) == c
    assert ind.residue_ray((5,)) == c      # scaling invariance
    step = PiecewisePoly([Piece(0, 1, one)])
    assert step.residue_ray((-1,)).is_zero()
    # the ray leaves 0 into the chamber whose wall passes through 0
    assert step.residue_ray((1,)) == c
    xi = MPoly(1, {(1,): CRat(1)})
    ramp = PiecewisePoly([Piece(0, 1, xi), Piece(2, 1, -xi)])
    assert ramp.residue_ray((1,)).is_zero()


def test_json_roundtrip_schema():
    U = ft_shifted(sphere_pair(), 1)
    doc = U.to_json_dict()
    assert doc["dim"] == 1
    assert doc["support"] == "bounded"
    ch = doc["chambers"][0]
    assert ch["two_pi_power"] == 1
    assert ch["density"] == {"0": [1, 1]}
    assert len(ch["walls"]) == 2


def test_a_sum_of_two_powers_of_two_pi_is_refused():
    # every fixed point of a connected M has the same dim M / 2
    flat = RatExp(1, [term(CRat(1), [0], [(LinForm([1]), 1)])])
    with pytest.raises(ValueError, match="power"):
        sphere_pair() + flat
    # pole orders may differ: four_chambers has orders 1, 2 and 3
    assert four_chambers().two_pi_power == 1


def test_ft_shifted_carries_the_power_of_its_input():
    for k in (-1, 0, 1, 3):
        u = RatExp(1, sphere_pair().terms, k)
        for side in (1, -1):
            U = ft_shifted(u, side)
            assert U.two_pi_power == k
            assert U.value_at((Fraction(0),)) == CRat(1)
            assert U.to_json_dict()["chambers"][0]["two_pi_power"] == k


def test_measures_of_different_powers_are_unequal():
    U = ft_shifted(sphere_pair(), 1)
    V = ft_shifted(RatExp(1, sphere_pair().terms, 2), 1)
    assert U.canonical() == V.canonical()
    assert not U.piecewise_equal(V) and not V.piecewise_equal(U)
    assert U.piecewise_equal(ft_shifted(sphere_pair(), -1))


def test_csv_export():
    # the (xi, density) rows that dh writes to density.csv
    U = ft_shifted(sphere_pair(), 1)
    rows = U.samples(-2.0, 2.0, 21)
    assert len(rows) == 21
    assert all(list(r) == ["xi", "density"] and type(r["xi"]) is float and
               type(r["density"]) is float for r in rows)
    assert rows[0]["xi"] == -2.0


# to_json() of three measures, pinned byte for byte by its sha256: the
# piecewise JSON of docs/formats.md, walls of both orientations included
def four_chambers():
    """Sphere pair at R = 3/2, -2 pi e^{iY/2}/Y^2 and 2 pi i
    e^{-iY/3}/(2Y)^3: cuts -3/2, -1/2, 1/3, 3/2."""
    return sphere_pair(Fraction(3, 2)) + RatExp(1, [
        term(CRat(-1), [Fraction(1, 2)], [(LinForm([1]), 2)]),
        term(I, [Fraction(-1, 3)], [(LinForm([2]), 3)])], 1)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_json_pin_sphere_radius_2():
    from equiloc.localization import EquivariantForm, dh_measure
    from equiloc.models import Sphere
    U = dh_measure(Sphere(2), EquivariantForm(scale=3))
    assert _sha(U.to_json()) == (
        "4e90653fcae665423653de813d968afaec366542267d74771b7121faea9f2768")


def test_json_pin_four_chambers():
    U = ft_shifted(four_chambers(), 1)
    assert len(U.to_json_dict()["chambers"]) == 4
    assert U.to_json_dict()["atoms"] == []
    assert _sha(U.to_json()) == (
        "7807efbc20e8a4e6145b23268001c5e3b9ffbf57405ae10ace0ca09be0d67efc")


def test_json_pin_side_minus_one_in_increasing_xi():
    # chambers in increasing xi for either side; the first lies below
    # every cut, so each of its walls points down
    U = ft_shifted(four_chambers(), -1)
    doc = U.to_json_dict()
    assert doc["chambers"][0]["walls"] == [
        [["-1"], "-3/2"], [["-1"], "3/2"], [["-1"], "-1/2"],
        [["-1"], "1/3"]]
    assert _sha(U.to_json()) == (
        "a1c4dc534be1a1da59e59c6249620493c2c8182210cd02a65cc9aeab94dacd33")
