import math
import random
from fractions import Fraction

from equiloc.scalars import CRat, I, i_power, two_pi_float


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


def test_two_pi_float():
    assert two_pi_float(CRat(1), 1) == 2 * math.pi
    assert two_pi_float(Fraction(3, 2), 0) == 1.5
    assert two_pi_float(I * I, 2) == -(2 * math.pi) ** 2
    # i (2 pi)^1 has no real value
    try:
        two_pi_float(I, 1)
        assert False, "imaginary value should not cast to float"
    except ValueError:
        pass
