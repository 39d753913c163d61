import random
from fractions import Fraction

import pytest

from equiloc.mpoly import LinForm, MPoly


def rand_poly(rng, dim, deg=3, terms=4):
    tt = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in range(dim))
        tt[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return MPoly(dim, tt)


def test_ring_axioms_randomized():
    rng = random.Random(3)
    for _ in range(120):
        dim = rng.choice([1, 2])
        p, q, r = (rand_poly(rng, dim) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + MPoly.zero(dim) == p
        assert p * MPoly.constant(dim, 1) == p


def test_poly_ops_examples():
    y1sq = MPoly(1, {(2,): Fraction(1)})
    y1 = MPoly(1, {(1,): Fraction(1)})
    assert y1sq + y1 == MPoly(1, {(2,): Fraction(1), (1,): Fraction(1)})


def test_dim_mismatch_errors():
    p = MPoly(1, {(1,): Fraction(1)})
    q = MPoly(2, {(1, 0): Fraction(1)})
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(ValueError):
        p.eval([1, 2])


def test_eval_exact():
    rng = random.Random(9)
    for _ in range(50):
        p = rand_poly(rng, 2)
        pt = [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
              for _ in range(2)]
        direct = sum(c * pt[0] ** e[0] * pt[1] ** e[1]
                     for e, c in p.terms.items())
        assert p.eval(pt) == direct


def test_linform_algebra():
    a = LinForm([1, -2])
    b = LinForm([Fraction(1, 2), 3])
    assert (a + b).coeffs == (Fraction(3, 2), Fraction(1))
    assert (-a).coeffs == (Fraction(-1), Fraction(2))
    assert a([Fraction(2), Fraction(1)]) == 0
