import math
import random
from fractions import Fraction

import numpy as np
import pytest

from equiloc.mpoly import LinForm, MPoly
from equiloc.piecewise import (WallDirectionError, admissible_cone,
                               ft_shifted, make_wall, Piece, PiecewisePoly)
from equiloc.ratexp import RatExp, RatTerm
from equiloc.scalars import CRat, TwoPi, I

CONE_P = [LinForm([1])]
CONE_M = [LinForm([-1])]


def term(c, power, a, denoms, num=None, dim=1):
    return RatTerm(TwoPi.of(c, power), LinForm(a),
                   num or MPoly.constant(dim, Fraction(1)), denoms)


def test_simple_pole_step():
    # e^{iY}/(iY) = -i e^{iY}/Y: step at xi = -1 with positive constant
    u = RatExp(1, [term(CRat(0, -1), 0, [1], [(LinForm([1]), 1)])])
    U = ft_shifted(u, CONE_P)
    cells = U.canonical()
    assert len(cells) == 1
    walls, dens = cells[0]
    assert len(walls) == 1
    assert walls[0].normal == (Fraction(1),) and walls[0].offset == 1
    # constant density, real, positive
    val = U.value_at((Fraction(0),))
    assert val.is_real() and float(val) > 0
    assert U.value_at((Fraction(-2),)).is_zero()
    assert U.support_kind() == "half-bounded"


def test_polynomial_gives_atoms_only():
    u = RatExp(1, [term(CRat(1), 0, [0], [],
                        num=MPoly.constant(1, Fraction(1)))])
    U = ft_shifted(u, CONE_P)
    assert not U.pieces
    assert len(U.atoms) == 1
    assert U.atoms[0].kind == "point"
    assert U.atoms[0].location == (Fraction(0),)


def sphere_pair(radius=1):
    r = Fraction(radius)
    n = term(I, 1, [r], [(LinForm([-Fraction(1) / r]), 1)])
    s = term(I, 1, [-r], [(LinForm([Fraction(1) / r]), 1)])
    return RatExp(1, [n, s])


def test_sphere_pair_indicator():
    u = sphere_pair()
    U = ft_shifted(u, CONE_P)
    cells = U.canonical()
    assert len(cells) == 1
    assert float(U.value_at((Fraction(0),))) == pytest.approx(
        2 * math.pi, rel=1e-15)
    assert float(U.mass()) == pytest.approx(4 * math.pi, rel=1e-15)
    assert U.support_kind() == "bounded"
    # cone flip gives the identical measure
    U2 = ft_shifted(u, CONE_M)
    assert U.piecewise_equal(U2)


def test_numeric_inverse_transform_matches_u():
    # u(Y) = int U(xi) e^{-i xi Y} d xi at 20 sample points, 1e-6 relative
    u = sphere_pair()
    U = ft_shifted(u, CONE_P)
    xs, ws = np.polynomial.legendre.leggauss(400)
    rng = random.Random(4)
    for _ in range(20):
        y = rng.uniform(0.3, 6.0)
        total = 0j
        for walls, dens in U.canonical():
            lo = max(-float(w.offset) / float(w.normal[0])
                     for w in walls if w.normal[0] > 0)
            hi = min(-float(w.offset) / float(w.normal[0])
                     for w in walls if w.normal[0] < 0)
            xi = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xs
            vals = np.array([dens.eval_float((x,)) for x in xi])
            total += 0.5 * (hi - lo) * np.dot(
                vals * np.exp(-1j * xi * y), ws)
        direct = u.eval_complex((y,))
        assert abs(total - direct) <= 1e-6 * abs(direct)


def test_repeated_pole_ramp():
    # e^{iaY}/Y^2: density proportional to (xi + a) on the cone side
    u = RatExp(1, [term(CRat(-1), 0, [Fraction(1, 2)],
                        [(LinForm([1]), 2)])])
    U = ft_shifted(u, CONE_P)
    v1 = float(U.value_at((Fraction(1, 2),)))
    v2 = float(U.value_at((Fraction(3, 2),)))
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)
    assert U.value_at((Fraction(-1),)).is_zero()


def test_residue_ray_examples():
    c = TwoPi.of(Fraction(7, 3))
    ind = PiecewisePoly(1, [Piece(
        walls=(make_wall([1], 1), make_wall([-1], 1)),
        density=MPoly.constant(1, c))])
    assert ind.residue_ray((1,)) == c
    assert ind.residue_ray((5,)) == c      # scaling invariance
    step = PiecewisePoly(1, [Piece(walls=(make_wall([1], 0),),
                                   density=MPoly.constant(1, c))])
    assert step.residue_ray((-1,)).is_zero()
    ramp = PiecewisePoly(1, [Piece(
        walls=(make_wall([1], 0), make_wall([-1], 2)),
        density=MPoly(1, {(1,): TwoPi.of(1)}))])
    assert ramp.residue_ray((1,)).is_zero()


def test_residue_wall_direction_error():
    c = TwoPi.of(1)
    quad = PiecewisePoly(2, [Piece(
        walls=(make_wall([1, 0], 0), make_wall([0, 1], 0)),
        density=MPoly.constant(2, c))])
    with pytest.raises(WallDirectionError):
        quad.residue_ray((0, 1))
    assert quad.residue_ray((1, 1)) == c
    assert quad.residue_ray((-1, 1)).is_zero()


def test_dim2_flag_orders_agree_nonseparable():
    # 1/((Y1)(Y1+Y2)) and a repeated variant; ft_shifted cross-checks the
    # two flag orders internally and raises on mismatch
    cone = [LinForm([1, 0]), LinForm([0, 1])]
    u = RatExp(2, [RatTerm(TwoPi.of(1), LinForm([0, 0]),
                           MPoly.constant(2, Fraction(1)),
                           [(LinForm([1, 0]), 1), (LinForm([1, 1]), 1)])])
    U = ft_shifted(u, cone)
    cells = U.canonical()
    assert len(cells) == 1
    walls, dens = cells[0]
    assert dens == MPoly.constant(2, TwoPi.of(-1))
    u2 = RatExp(2, [RatTerm(TwoPi.of(1), LinForm([Fraction(1, 3), 0]),
                            MPoly(2, {(1, 0): Fraction(1)}),
                            [(LinForm([1, 0]), 2),
                             (LinForm([1, 2]), 1)])])
    ft_shifted(u2, cone)   # no flag mismatch


def test_dim2_separable_product():
    cone = [LinForm([1, 0]), LinForm([0, 1])]
    u = RatExp(2, [RatTerm(TwoPi.of(1), LinForm([0, 0]),
                           MPoly.constant(2, Fraction(1)),
                           [(LinForm([1, 0]), 2), (LinForm([0, 1]), 2)])])
    U = ft_shifted(u, cone)
    val = U.value_at((Fraction(2), Fraction(3)))
    assert val == TwoPi.of(Fraction(6))
    assert U.value_at((Fraction(-1), Fraction(3))).is_zero()


def test_admissible_cone_avoids_walls():
    forms = [LinForm([1, 0]), LinForm([1, 1]), LinForm([-1, 2])]
    cone = admissible_cone(forms, 2)
    from equiloc.piecewise import interior_point
    z = interior_point(cone, 2)
    assert all(f(z) != 0 for f in forms)


def test_json_roundtrip_schema():
    U = ft_shifted(sphere_pair(), CONE_P)
    doc = U.to_json_dict()
    assert doc["dim"] == 1
    assert doc["support"] == "bounded"
    ch = doc["chambers"][0]
    assert ch["two_pi_power"] == 1
    assert ch["density"] == {"0": [1, 1]}
    assert len(ch["walls"]) == 2


def test_csv_export():
    # the (xi, density) rows that dh writes to density.csv
    U = ft_shifted(sphere_pair(), CONE_P)
    rows = U.samples(-2.0, 2.0, 21)
    assert len(rows) == 21
    assert all(list(r) == ["xi", "density"] and type(r["xi"]) is float and
               type(r["density"]) is float for r in rows)
    assert rows[0]["xi"] == -2.0
