"""Piecewise-polynomial measures on the line and the cone-shifted Fourier
transform of rank-1 rational-exponential sums, in closed form.

Convention (pinned by the calibration oracle, see localization.py):

    F(u)(xi) = (2*pi)^{-1} * integral u(Y) e^{+i xi Y} dY,

with the contour pushed so every denominator of u is nonvanishing on the
open cone Lambda, a half-line.  A simple-pole term e^{i a Y}/Y then
transforms to a step across the wall xi + a = 0, supported on the side
selected by the cone.  Repeated denominators follow by differentiating the
simple-pole transform in the phase offset, which is the polynomial ladder
below; a polynomial numerator of degree >= the pole order leaves point
atoms delta^{(j)}(xi + a).

Only rank 1 (a circle torus) is implemented: a rank-2 transform would
need its own oracle, and no catalog command makes one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, List, Sequence

from .mpoly import LinForm, MPoly
from .ratexp import RatExp
from .scalars import CRat, TwoPi, i_power


class ConeError(ValueError):
    pass


def _require_rank_one(dim: int):
    if dim != 1:
        raise NotImplementedError(
            f"rank {dim}: DH measures and residues are implemented for "
            "rank 1 only")


# ---------------------------------------------------------------------------
# pieces, atoms, chambers


@dataclass(frozen=True)
class Wall:
    """Closed half-line {n xi + c >= 0} (normal and offset exact)."""
    normal: tuple
    offset: Fraction

    def value(self, point):
        return sum(n * Fraction(x) for n, x in zip(self.normal, point)) \
            + self.offset

    def line_key(self):
        """Canonical key of the supporting point (sign-normalized)."""
        items = list(self.normal) + [self.offset]
        lead = next((x for x in items if x != 0), None)
        if lead is None:
            raise ValueError("degenerate wall")
        s = 1 if lead > 0 else -1
        return tuple(x * s for x in items)


def make_wall(normal, offset) -> Wall:
    return Wall(tuple(Fraction(n) for n in normal), Fraction(offset))


@dataclass(frozen=True)
class Piece:
    walls: tuple          # tuple[Wall]; region = intersection
    density: MPoly        # TwoPi coefficients

    def contains_interior(self, point) -> bool:
        return all(w.value(point) > 0 for w in self.walls)


@dataclass(frozen=True)
class Atom:
    """Point atom coeff * delta^{(order)}(xi - location), excluded from the
    absolutely continuous chambers and from residues."""
    location: tuple
    order: int
    coeff: TwoPi


class PiecewisePoly:
    """Sum of polynomial densities over intervals of the line, plus point
    atoms.

    Pieces may overlap (they add); canonical() resolves them into chambers
    with pairwise-disjoint interiors.
    """

    def __init__(self, pieces: Sequence[Piece] = (),
                 atoms: Sequence[Atom] = ()):
        self.pieces = [p for p in pieces if not p.density.is_zero()]
        self.atoms = list(atoms)

    # -- evaluation -------------------------------------------------------

    def density_at(self, point) -> MPoly:
        """Exact density polynomial valid near an interior rational point."""
        point = [Fraction(x) for x in point]
        out = MPoly.zero(1)
        for p in self.pieces:
            if p.contains_interior(point):
                out = out + p.density
        return out

    def value_at(self, point) -> TwoPi:
        return TwoPi.coerce(self.density_at(point).eval(point))

    def value_float(self, point) -> float:
        return float(self.value_at(point))

    # -- walls / chambers ---------------------------------------------------

    def wall_lines(self):
        seen = {}
        for p in self.pieces:
            for w in p.walls:
                seen.setdefault(w.line_key(), w)
        return list(seen.values())

    def _sample_points(self):
        """One rational point inside each cell of the wall arrangement."""
        cuts = sorted(set(-w.offset / w.normal[0] for w in self.wall_lines()))
        if not cuts:
            return [(Fraction(0),)]
        pts = {(cuts[0] - 1,), (cuts[-1] + 1,)}
        for a, b in zip(cuts, cuts[1:]):
            pts.add(((a + b) / 2,))
        return sorted(pts)

    def canonical(self):
        """List of (walls, density) chambers with disjoint interiors and
        nonzero density, derived from the wall arrangement."""
        walls = self.wall_lines()
        cells: Dict[tuple, tuple] = {}
        for p in self._sample_points():
            sig = tuple(1 if w.value(p) > 0 else -1 for w in walls)
            if sig not in cells:
                cells[sig] = p
        out = []
        for sig, p in sorted(cells.items()):
            dens = self.density_at(p)
            if dens.is_zero():
                continue
            cw = []
            for s, w in zip(sig, walls):
                if s > 0:
                    cw.append(w)
                else:
                    cw.append(make_wall([-n for n in w.normal], -w.offset))
            out.append((tuple(cw), dens))
        return out

    def piecewise_equal(self, other: "PiecewisePoly") -> bool:
        """Exact equality as piecewise densities (atoms not compared)."""
        merged = PiecewisePoly(self.pieces + other.pieces)
        for p in merged._sample_points():
            if self.density_at(p) != other.density_at(p):
                return False
        return True

    # -- support ------------------------------------------------------------

    def support_kind(self) -> str:
        ends = [_interval(walls) for walls, _ in self.canonical()]
        open_below = any(lo is None for lo, _ in ends)
        open_above = any(hi is None for _, hi in ends)
        if open_below and open_above:
            return "unbounded"
        return "half-bounded" if open_below or open_above else "bounded"

    # -- residues -------------------------------------------------------------

    def residue_ray(self, direction) -> TwoPi:
        """Limit of the density along t*direction as t -> 0+.

        Atoms are excluded.  Every wall normal is nonzero, so no nonzero
        ray lies in a wall.
        """
        d = Fraction(direction[0])
        if d == 0:
            raise ValueError("zero direction")
        total = TwoPi.of(0)
        for p in self.pieces:
            if all(w.offset > 0 or (w.offset == 0 and w.normal[0] * d > 0)
                   for w in p.walls):
                total = total + TwoPi.coerce(p.density.eval((Fraction(0),)))
        return total

    # -- integration ----------------------------------------------------------

    def mass(self) -> TwoPi:
        total = TwoPi.of(0)
        for walls, dens in self.canonical():
            lo, hi = _interval(walls)
            if lo is None or hi is None:
                raise ValueError("mass of unbounded support")
            total = total + _integrate_1d(dens, lo, hi)
        return total

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        chambers = []
        for walls, dens in self.canonical():
            coeff_pow = _common_two_pi_power(dens)
            density = {}
            for e, c in dens.terms.items():
                c = TwoPi.coerce(c)
                mono = c.shift(-coeff_pow).monomial()
                if mono is None or mono[0].im != 0:
                    raise ValueError(
                        "density not a single real 2pi grade; cannot "
                        "serialize under the rational schema")
                q = mono[0].re
                key = ",".join(str(k) for k in e)
                density[key] = [q.numerator, q.denominator]
            chambers.append({
                "walls": [[[str(n) for n in w.normal], str(w.offset)]
                          for w in walls],
                "two_pi_power": coeff_pow,
                "density": density,
            })
        return {
            "dim": 1,
            "support": self.support_kind(),
            "chambers": chambers,
            "atoms": [{"kind": "point", "order": a.order,
                       "location": [str(x) for x in a.location]}
                      for a in self.atoms],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def samples(self, lo: float, hi: float, n: int) -> List[Dict]:
        """Rows {xi, density} at n equispaced points of [lo, hi], a point
        on a wall moved off it by 1e-9, for plotting."""
        rows = []
        for k in range(n):
            x = Fraction(lo) + Fraction(k, n - 1) * (Fraction(hi) - Fraction(lo))
            if any(w.value((x,)) == 0 for w in self.wall_lines()):
                x += Fraction(1, 10 ** 9)
            rows.append({"xi": float(x), "density": self.value_float((x,))})
        return rows


def _common_two_pi_power(dens: MPoly) -> int:
    pows = set()
    for c in dens.terms.values():
        mono = TwoPi.coerce(c).monomial()
        if mono is None:
            return 0
        pows.add(mono[1])
    if len(pows) == 1:
        return pows.pop()
    return 0


def _interval(walls):
    """The chamber cut out by walls as (lo, hi); None marks an open end."""
    lo, hi = None, None
    for w in walls:
        cut = -w.offset / w.normal[0]
        if w.normal[0] > 0:
            lo = cut if lo is None else max(lo, cut)
        else:
            hi = cut if hi is None else min(hi, cut)
    return lo, hi


def _integrate_1d(dens: MPoly, lo: Fraction, hi: Fraction) -> TwoPi:
    total = TwoPi.of(0)
    for (e,), c in dens.terms.items():
        c = TwoPi.coerce(c)
        total = total + c.scale(Fraction(hi ** (e + 1) - lo ** (e + 1),
                                         e + 1))
    return total


# ---------------------------------------------------------------------------
# cone handling


def interior_point(cone: Sequence[LinForm]):
    if not cone:
        raise ConeError("empty cone description")
    for z in ((Fraction(1),), (Fraction(-1),)):
        if all(l(z) > 0 for l in cone):
            return z
    raise ConeError("cone has empty interior")


def admissible_cone(forms: Sequence[LinForm]) -> List[LinForm]:
    """An open cone on which every given form is nonvanishing: orient
    every form positively at Z = 1."""
    for f in forms:
        _require_rank_one(f.dim)
    if any(f.is_zero() for f in forms):
        raise ConeError("no admissible cone found")
    z = (Fraction(1),)
    return [f if f(z) > 0 else -f for f in forms]


# ---------------------------------------------------------------------------
# the transform


def ft_shifted(u: RatExp, cone: Sequence[LinForm]) -> PiecewisePoly:
    """Cone-shifted Fourier transform of u as a PiecewisePoly, in closed
    form: each term e^{iaY} c Y^e / prod l_q(Y)^{m_q} is a step of degree
    sum m_q - e - 1 at xi = -a, or a point atom there if that is negative.
    """
    _require_rank_one(u.dim)
    z = interior_point(cone)
    for form in u.denominator_forms():
        if form(z) == 0:
            raise ConeError(f"denominator {form} vanishes on the cone")
    pieces: List[Piece] = []
    atoms: List[Atom] = []
    sigma = 1 if z[0] > 0 else -1
    for t in u.terms:
        a = t.phase.coeffs[0]
        R = sum(m for _, m in t.denoms)
        unit = Fraction(1)
        for form, m in t.denoms:
            unit *= form.coeffs[0] ** m
        base = t.coeff.scale(CRat(1) / CRat(unit))
        for (e,), c in t.num.terms.items():
            k = R - e
            cc = base.scale(c)
            if k > 0:
                pieces.append(_step_piece(cc, a, k, sigma))
            else:
                # e^{iaY} Y^j -> (-i)^j delta^{(j)}(xi + a)
                j = -k
                atoms.append(Atom(location=(-a,), order=j,
                                  coeff=cc.scale(i_power(-j))))
    return PiecewisePoly(pieces, atoms)


def _step_piece(coeff: TwoPi, a: Fraction, k: int, sigma: int) -> Piece:
    # e^{iaY} Y^{-k}  ->  i^k * sigma * (xi+a)^{k-1}/(k-1)! on the
    # sigma-side of xi + a = 0 (the transform's 2 pi cancels the
    # convention's (2 pi)^{-1})
    c = coeff.scale(i_power(k) * CRat(Fraction(sigma, factorial(k - 1))))
    shifted = MPoly(1, {(1,): Fraction(1), (0,): a}) ** (k - 1)
    density = shifted.map_coeffs(lambda q: c.scale(q))
    wall = make_wall([sigma], Fraction(sigma) * a)
    return Piece(walls=(wall,), density=density)
