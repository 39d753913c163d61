"""Piecewise-polynomial measures on the line and the cone-shifted Fourier
transform of rank-1 rational-exponential sums, in closed form.

A measure is (2*pi)^two_pi_power times densities over CRat: the power is
one integer of the measure, taken from the transformed sum, and `value_at`,
`residue_ray` and `mass` return the exact coefficient of that power.

Convention (pinned by the calibration oracle, see localization.py):

    F(u)(xi) = (2*pi)^{-1} * integral u(Y) e^{+i xi Y} dY,

with the contour pushed so every denominator of u is nonvanishing on the
open cone Lambda, a half-line, which is a sign: side = +1 for Y > 0, -1 for
Y < 0.  A nonzero rank-1 form never vanishes there.  A simple-pole term
e^{i a Y}/Y then transforms to a step at the cut xi = -a, supported on the
side of the cut that the cone's sign selects.  A pole of order R follows
by differentiating the simple-pole transform in the phase offset: one
half-line step of degree R - 1.  Every fixed-point term is such a pole,
so the measure has no point atoms.

Only rank 1 (a circle torus) is implemented: a rank-2 transform would
need its own oracle, and no catalog command makes one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, List, Sequence

from .mpoly import MPoly
from .ratexp import RatExp
from .scalars import CRat, i_power, two_pi_float


def _require_rank_one(dim: int):
    if dim != 1:
        raise NotImplementedError(
            f"rank {dim}: DH measures and residues are implemented for "
            "rank 1 only")


# ---------------------------------------------------------------------------
# pieces and chambers


@dataclass(frozen=True)
class Piece:
    """A density on the open half-line side * (xi - cut) > 0."""
    cut: Fraction
    side: int             # +1 or -1
    density: MPoly        # CRat coefficients

    def covers(self, x: Fraction) -> bool:
        return self.side * (x - self.cut) > 0


def _cells(cuts):
    """(lo, hi, x) for each interval between the sorted distinct cuts, x a
    rational point inside it; None marks an open end."""
    edges = [None] + sorted(set(cuts)) + [None]
    for lo, hi in zip(edges, edges[1:]):
        if lo is None and hi is None:
            x = Fraction(0)
        elif lo is None or hi is None:
            x = hi - 1 if lo is None else lo + 1
        else:
            x = (lo + hi) / 2
        yield lo, hi, x


class PiecewisePoly:
    """Sum of half-line polynomial densities on the line.

    Pieces overlap (they add); canonical() resolves them into the chambers
    between the cuts.  Every density is a coefficient of
    (2*pi)^two_pi_power.
    """

    def __init__(self, pieces: Sequence[Piece] = (), two_pi_power: int = 0):
        self.pieces = [p for p in pieces if not p.density.is_zero()]
        self.two_pi_power = int(two_pi_power)

    # -- evaluation -------------------------------------------------------

    def density_at(self, point) -> MPoly:
        """Exact density polynomial valid near a rational point off the
        cuts."""
        x = Fraction(point[0])
        out = MPoly.zero(1)
        for p in self.pieces:
            if p.covers(x):
                out = out + p.density
        return out

    def value_at(self, point) -> CRat:
        return CRat.coerce(self.density_at(point).eval(point))

    def value_float(self, point) -> float:
        return two_pi_float(self.value_at(point), self.two_pi_power)

    # -- cuts / chambers ----------------------------------------------------

    def cuts(self) -> List[Fraction]:
        """The distinct cuts, in the order the pieces name them."""
        return list(dict.fromkeys(p.cut for p in self.pieces))

    def canonical(self):
        """(lo, hi, density) for each chamber of nonzero density, in
        increasing xi; None marks an open end."""
        out = []
        for lo, hi, x in _cells(self.cuts()):
            dens = self.density_at((x,))
            if not dens.is_zero():
                out.append((lo, hi, dens))
        return out

    def piecewise_equal(self, other: "PiecewisePoly") -> bool:
        """Exact equality as piecewise measures: the same power of 2*pi
        and the same densities."""
        return self.two_pi_power == other.two_pi_power and all(
            self.density_at((x,)) == other.density_at((x,))
            for _, _, x in _cells(self.cuts() + other.cuts()))

    # -- support ------------------------------------------------------------

    def support_kind(self) -> str:
        chambers = self.canonical()
        open_below = any(lo is None for lo, _, _ in chambers)
        open_above = any(hi is None for _, hi, _ in chambers)
        if open_below and open_above:
            return "unbounded"
        return "half-bounded" if open_below or open_above else "bounded"

    # -- residues -------------------------------------------------------------

    def residue_ray(self, direction) -> CRat:
        """Limit of the density along t*direction as t -> 0+.

        A piece whose cut is 0 counts when the ray leaves 0 into its side.
        """
        d = Fraction(direction[0])
        if d == 0:
            raise ValueError("zero direction")
        total = CRat(0)
        for p in self.pieces:
            if p.covers(Fraction(0)) or (p.cut == 0 and p.side * d > 0):
                total = total + p.density.eval((Fraction(0),))
        return total

    # -- integration ----------------------------------------------------------

    def mass(self) -> CRat:
        total = CRat(0)
        for lo, hi, dens in self.canonical():
            if lo is None or hi is None:
                raise ValueError("mass of unbounded support")
            total = total + _integrate_1d(dens, lo, hi)
        return total

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Each chamber with one wall [[n], -n*cut] per cut, in the pieces'
        order, oriented into the chamber (n = +1 when the chamber lies
        above the cut).  `atoms` is always empty: no fixed-point term
        makes one.  Each chamber repeats the measure's one two_pi_power."""
        chambers = []
        for lo, _, dens in self.canonical():
            density = {}
            for e, c in dens.terms.items():
                c = CRat.coerce(c)
                if c.im != 0:
                    raise ValueError(
                        "density not real; cannot serialize under the "
                        "rational schema")
                q = c.re
                key = ",".join(str(k) for k in e)
                density[key] = [q.numerator, q.denominator]
            walls = []
            for cut in self.cuts():
                n = 1 if lo is not None and lo >= cut else -1
                walls.append([[str(n)], str(-n * cut)])
            chambers.append({
                "walls": walls,
                "two_pi_power": self.two_pi_power,
                "density": density,
            })
        return {
            "dim": 1,
            "support": self.support_kind(),
            "chambers": chambers,
            "atoms": [],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def samples(self, lo: float, hi: float, n: int) -> List[Dict]:
        """Rows {xi, density} at n equispaced points of [lo, hi], a point
        on a cut moved off it by 1e-9, for plotting."""
        cuts = set(self.cuts())
        rows = []
        for k in range(n):
            x = Fraction(lo) + Fraction(k, n - 1) * (Fraction(hi) - Fraction(lo))
            if x in cuts:
                x += Fraction(1, 10 ** 9)
            rows.append({"xi": float(x), "density": self.value_float((x,))})
        return rows


def _integrate_1d(dens: MPoly, lo: Fraction, hi: Fraction) -> CRat:
    total = CRat(0)
    for (e,), c in dens.terms.items():
        total = total + c * Fraction(hi ** (e + 1) - lo ** (e + 1), e + 1)
    return total


# ---------------------------------------------------------------------------
# the transform


def ft_shifted(u: RatExp, side: int = 1) -> PiecewisePoly:
    """Cone-shifted Fourier transform of u as a PiecewisePoly, in closed
    form, for the cone side * Y > 0: each term e^{iaY} c / prod
    l_q(Y)^{m_q} is one step of degree sum m_q - 1 at xi = -a.  A term
    with no denominator would transform to a point atom; no fixed point
    makes one, so it is refused.  The measure carries u's power of 2*pi.
    """
    _require_rank_one(u.dim)
    if side not in (1, -1):
        raise ValueError(f"cone side must be +1 or -1, not {side!r}")
    pieces: List[Piece] = []
    for t in u.terms:
        if not t.denoms:
            raise ValueError("a term without a pole transforms to an atom")
        R = sum(m for _, m in t.denoms)
        unit = Fraction(1)
        for form, m in t.denoms:
            unit *= form.coeffs[0] ** m
        pieces.append(_step_piece(t.coeff / unit, t.phase.coeffs[0], R,
                                  side))
    return PiecewisePoly(pieces, u.two_pi_power)


def _step_piece(coeff: CRat, a: Fraction, k: int, side: int) -> Piece:
    # e^{iaY} Y^{-k}  ->  i^k * side * (xi+a)^{k-1}/(k-1)! on the
    # side-half-line of the cut xi = -a (the transform's 2 pi cancels the
    # convention's (2 pi)^{-1})
    c = coeff * i_power(k) * Fraction(side, factorial(k - 1))
    shifted = MPoly(1, {(1,): Fraction(1), (0,): a}) ** (k - 1)
    return Piece(-a, side, shifted.scale(c))
