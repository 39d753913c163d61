"""Exact multivariate polynomials and linear forms over the rationals.

Coefficients are Fractions by default but any ring with +, -, *, and a
zero test works (CRat); the piecewise-transform code relies on that.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .scalars import CRat


def _is_zero(c) -> bool:
    if isinstance(c, CRat):
        return c.is_zero()
    return c == 0


class LinForm:
    """Linear functional sum_i coeffs[i] * Y_i with exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        object.__setattr__(self, "coeffs",
                           tuple(Fraction(c) for c in coeffs))

    def __setattr__(self, *a):
        raise AttributeError("LinForm is immutable")

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def __call__(self, point: Sequence):
        if len(point) != self.dim:
            raise ValueError("dimension mismatch in LinForm evaluation")
        return sum(c * x for c, x in zip(self.coeffs, point))

    def __add__(self, other: "LinForm") -> "LinForm":
        return LinForm([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "LinForm":
        return LinForm([-c for c in self.coeffs])

    def __sub__(self, other: "LinForm") -> "LinForm":
        return self + (-other)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        return isinstance(other, LinForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"LinForm({list(self.coeffs)})"


class MPoly:
    """Sparse polynomial: map exponent tuple -> coefficient, no zeros kept."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        tt = {}
        if terms:
            for e, c in terms.items():
                e = tuple(int(x) for x in e)
                if len(e) != dim:
                    raise ValueError("exponent length does not match dim")
                if any(x < 0 for x in e):
                    raise ValueError("negative exponent in MPoly")
                if not _is_zero(c):
                    tt[e] = c
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "terms", tt)

    def __setattr__(self, *a):
        raise AttributeError("MPoly is immutable")

    @staticmethod
    def constant(dim: int, c) -> "MPoly":
        return MPoly(dim, {tuple([0] * dim): c})

    @staticmethod
    def zero(dim: int) -> "MPoly":
        return MPoly(dim, {})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "MPoly"):
        if self.dim != other.dim:
            raise ValueError(
                f"dim mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.constant(self.dim, other)
        self._check(other)
        tt = dict(self.terms)
        for e, c in other.terms.items():
            s = tt.get(e, 0) + c
            if _is_zero(s):
                tt.pop(e, None)
            else:
                tt[e] = s
        return MPoly(self.dim, tt)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return MPoly.constant(self.dim, other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            return self.scale(other)
        self._check(other)
        tt = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = tt.get(e, 0) + c1 * c2
                if _is_zero(s):
                    tt.pop(e, None)
                else:
                    tt[e] = s
        return MPoly(self.dim, tt)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "MPoly":
        if _is_zero(c):
            return MPoly.zero(self.dim)
        return MPoly(self.dim, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of MPoly")
        out = MPoly.constant(self.dim, Fraction(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def eval(self, point: Sequence):
        """Exact evaluation at a rational point."""
        point = [Fraction(x) for x in point]
        if len(point) != self.dim:
            raise ValueError("dimension mismatch in MPoly evaluation")
        out = None
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                for _ in range(k):
                    v = v * x
            out = v if out is None else out + v
        if out is None:
            return Fraction(0)
        return out

    def eval_float(self, point: Sequence) -> complex:
        out = 0.0 + 0.0j
        for e, c in self.terms.items():
            v = complex(c)
            for x, k in zip(point, e):
                v *= float(x) ** k
            out += v
        return out

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            mono = "*".join(f"Y{i}^{k}" for i, k in enumerate(e) if k) or "1"
            bits.append(f"({self.terms[e]})*{mono}")
        return " + ".join(bits)

