"""Exact scalar types: complex rationals and Laurent scalars in 2*pi.

Every quantity in the symbolic pipeline is a complex rational times integer
powers of 2*pi; keeping the 2*pi grading symbolic is what lets chamber
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


class TwoPi:
    """Laurent polynomial in 2*pi with CRat coefficients.

    Exact carrier for constants like (2*pi*i)^{rk/2} and for chamber
    densities in the calibrated Fourier transform.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        tt = {}
        if terms:
            for k, c in terms.items():
                c = CRat.coerce(c)
                if not c.is_zero():
                    tt[int(k)] = c
        object.__setattr__(self, "terms", tt)

    def __setattr__(self, *a):
        raise AttributeError("TwoPi is immutable")

    @staticmethod
    def of(c, power: int = 0) -> "TwoPi":
        return TwoPi({power: CRat.coerce(c)})

    @staticmethod
    def coerce(x) -> "TwoPi":
        if isinstance(x, TwoPi):
            return x
        if isinstance(x, (int, Fraction, CRat)):
            return TwoPi.of(x)
        raise TypeError(f"cannot coerce {x!r} to TwoPi")

    def __add__(self, other):
        other = TwoPi.coerce(other)
        tt = dict(self.terms)
        for k, c in other.terms.items():
            s = tt.get(k, CRat(0)) + c
            if s.is_zero():
                tt.pop(k, None)
            else:
                tt[k] = s
        return TwoPi(tt)

    __radd__ = __add__

    def __neg__(self):
        return TwoPi({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-TwoPi.coerce(other))

    def __rsub__(self, other):
        return TwoPi.coerce(other) + (-self)

    def __mul__(self, other):
        other = TwoPi.coerce(other)
        tt = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                s = tt.get(k, CRat(0)) + c1 * c2
                if s.is_zero():
                    tt.pop(k, None)
                else:
                    tt[k] = s
        return TwoPi(tt)

    __rmul__ = __mul__

    def shift(self, dk: int) -> "TwoPi":
        """Multiply by (2*pi)**dk."""
        return TwoPi({k + dk: c for k, c in self.terms.items()})

    def scale(self, c) -> "TwoPi":
        c = CRat.coerce(c)
        return TwoPi({k: v * c for k, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def is_real(self) -> bool:
        return all(c.im == 0 for c in self.terms.values())

    def monomial(self):
        """(coefficient, power) if a single 2*pi power, else None."""
        if len(self.terms) == 1:
            (k, c), = self.terms.items()
            return c, k
        return None

    def __eq__(self, other):
        try:
            other = TwoPi.coerce(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __complex__(self):
        tau = 2.0 * math.pi
        return sum((complex(c) * tau ** k for k, c in self.terms.items()),
                   complex(0))

    def __float__(self):
        z = complex(self)
        if abs(z.imag) > 1e-12 * (1 + abs(z.real)):
            raise ValueError(f"TwoPi value not real: {z}")
        return z.real

    def __repr__(self):
        if not self.terms:
            return "TwoPi(0)"
        bits = []
        for k in sorted(self.terms):
            bits.append(f"({self.terms[k]!r})*(2pi)^{k}")
        return " + ".join(bits)
