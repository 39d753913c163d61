"""Exponential-rational expressions: (2*pi)^k times sums of
c * e^{i a(Y)} / prod l_j(Y)^{r_j}, one pure pole per isolated fixed point
(its Euler form below, numerator 1) with a CRat c; the shifted Fourier
transform in piecewise.py consumes them.  Every fixed point of a connected
M has the same k = dim M / 2, so the power is one integer of the sum, not
of each term.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from .mpoly import LinForm
from .scalars import CRat


class RatTerm:
    __slots__ = ("coeff", "phase", "denoms")

    def __init__(self, coeff: CRat, phase: LinForm,
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
        object.__setattr__(self, "coeff", CRat.coerce(coeff))
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "denoms", tuple(dd))

    def __setattr__(self, *a):
        raise AttributeError("RatTerm is immutable")

    @property
    def dim(self) -> int:
        return self.phase.dim

    def eval_complex(self, point) -> complex:
        """Numerical value, without the sum's (2*pi)^k, at a real point
        off every denominator hyperplane."""
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
    """(2*pi)^two_pi_power times the sum of the terms."""

    __slots__ = ("dim", "terms", "two_pi_power")

    def __init__(self, dim: int, terms: Sequence[RatTerm] = (),
                 two_pi_power: int = 0):
        for t in terms:
            if t.dim != dim:
                raise ValueError("RatTerm dimension mismatch")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "two_pi_power", int(two_pi_power))

    def __setattr__(self, *a):
        raise AttributeError("RatExp is immutable")

    def __add__(self, other: "RatExp") -> "RatExp":
        if self.dim != other.dim:
            raise ValueError("RatExp dimension mismatch")
        if self.two_pi_power != other.two_pi_power:
            raise ValueError(
                f"RatExp 2pi power mismatch: {self.two_pi_power} vs "
                f"{other.two_pi_power}")
        return RatExp(self.dim, self.terms + other.terms, self.two_pi_power)

    def eval_complex(self, point) -> complex:
        return sum((t.eval_complex(point) for t in self.terms),
                   complex(0)) * (2.0 * math.pi) ** self.two_pi_power
