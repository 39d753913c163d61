import math
import random
from fractions import Fraction

from equiloc.scalars import CRat, TwoPi, I, i_power


def rand_frac(rng, big=30):
    return Fraction(rng.randint(-big, big), rng.randint(1, big))


def rand_crat(rng):
    return CRat(rand_frac(rng), rand_frac(rng))


def test_crat_field_axioms_randomized():
    rng = random.Random(11)
    for _ in range(200):
        a, b, c = (rand_crat(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + CRat(0) == a
        assert a * CRat(1) == a
        if not a.is_zero():
            assert (a / a) == CRat(1)
            assert a * (CRat(1) / a) == CRat(1)


def test_crat_powers_and_i():
    assert I * I == CRat(-1)
    assert i_power(0) == CRat(1)
    assert i_power(1) == I
    assert i_power(2) == CRat(-1)
    assert i_power(3) == CRat(0, -1)
    assert i_power(-1) == CRat(0, -1)
    assert i_power(7) == i_power(-1)


def test_twopi_ring_and_eval():
    rng = random.Random(5)
    for _ in range(100):
        a = TwoPi({rng.randint(-2, 2): rand_crat(rng),
                   rng.randint(-2, 2): rand_crat(rng)})
        b = TwoPi({rng.randint(-2, 2): rand_crat(rng)})
        c = TwoPi({rng.randint(-2, 2): rand_crat(rng)})
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        za = complex(a)
        zb = complex(b)
        assert abs(complex(a * b) - za * zb) < 1e-9 * (1 + abs(za * zb))


def test_twopi_shift_and_float():
    one = TwoPi.of(1, 1)
    assert abs(float(one) - 2 * math.pi) < 1e-15
    assert one.shift(-1) == TwoPi.of(1)
    assert one.monomial() == (CRat(1), 1)
    try:
        float(TwoPi.of(I))
        assert False, "imaginary TwoPi should not cast to float"
    except ValueError:
        pass

