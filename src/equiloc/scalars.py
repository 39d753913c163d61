"""Exact complex rationals, and the one conversion of c * (2*pi)**k to a
float.

Every quantity in the symbolic pipeline is a complex rational times
(2*pi)**R, with R = dim M / 2 the same for every fixed point of a
connected M.  The exact layer carries the rational; the power is one
integer on the RatExp or PiecewisePoly that holds it, so chamber
densities and residues compare exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class CRat:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, *a):
        raise AttributeError("CRat is immutable")

    @staticmethod
    def coerce(x) -> "CRat":
        if isinstance(x, CRat):
            return x
        return CRat(_frac(x))

    def __add__(self, other):
        other = CRat.coerce(other)
        return CRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return CRat(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-CRat.coerce(other))

    def __rsub__(self, other):
        return CRat.coerce(other) + (-self)

    def __mul__(self, other):
        other = CRat.coerce(other)
        return CRat(self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = CRat.coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero CRat")
        return CRat((self.re * other.re + self.im * other.im) / d,
                    (self.im * other.re - self.re * other.im) / d)

    def __rtruediv__(self, other):
        return CRat.coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return CRat(1) / self ** (-n)
        out = CRat(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CRat)):
            other = CRat.coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"CRat({self.re})"
        return f"CRat({self.re}, {self.im})"


I = CRat(0, 1)


def i_power(k: int) -> CRat:
    """i**k for any integer k."""
    return (I ** (k % 4))


def two_pi_float(c, k: int) -> float:
    """The real number c * (2*pi)**k, for an exact c; a value whose
    imaginary part is not negligible is refused."""
    z = complex(c) * (2.0 * math.pi) ** k
    if abs(z.imag) > 1e-12 * (1 + abs(z.real)):
        raise ValueError(f"c * (2pi)^{k} not real: {z}")
    return z.real
