"""Exponential-rational expressions: sums of c * e^{i a(Y)} / prod
l_j(Y)^{r_j}, one pure pole per isolated fixed point (its Euler form
below, numerator 1); the shifted Fourier transform in piecewise.py
consumes them.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .mpoly import LinForm
from .scalars import TwoPi


class RatTerm:
    __slots__ = ("coeff", "phase", "denoms")

    def __init__(self, coeff: TwoPi, phase: LinForm,
                 denoms: Sequence[Tuple[LinForm, int]]):
        dd = []
        for form, mult in denoms:
            mult = int(mult)
            if mult <= 0:
                raise ValueError("denominator multiplicity must be positive")
            if form.is_zero():
                raise ValueError("zero linear form in denominator")
            if form.dim != phase.dim:
                raise ValueError("dimension mismatch in RatTerm")
            dd.append((form, mult))
        object.__setattr__(self, "coeff", TwoPi.coerce(coeff))
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "denoms", tuple(dd))

    def __setattr__(self, *a):
        raise AttributeError("RatTerm is immutable")

    @property
    def dim(self) -> int:
        return self.phase.dim

    def eval_complex(self, point) -> complex:
        """Numerical value at a real point off every denominator hyperplane."""
        import cmath
        z = complex(self.coeff)
        z *= cmath.exp(1j * float(self.phase(point)))
        for form, mult in self.denoms:
            v = float(form(point))
            if v == 0.0:
                raise ZeroDivisionError("evaluation on a denominator wall")
            z /= v ** mult
        return z


class RatExp:
    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Sequence[RatTerm] = ()):
        for t in terms:
            if t.dim != dim:
                raise ValueError("RatTerm dimension mismatch")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, *a):
        raise AttributeError("RatExp is immutable")

    def __add__(self, other: "RatExp") -> "RatExp":
        if self.dim != other.dim:
            raise ValueError("RatExp dimension mismatch")
        return RatExp(self.dim, self.terms + other.terms)

    def eval_complex(self, point) -> complex:
        return sum((t.eval_complex(point) for t in self.terms), complex(0))
