"""Piecewise-polynomial measures and the cone-shifted Fourier transform.

Convention (pinned by the calibration oracle, see localization.py):

    F(u)(xi) = (2*pi)^{-dim} * integral u(Y) e^{+i<xi,Y>} dY,

with the contour pushed so every denominator of u is nonvanishing on the
open cone Lambda.  A simple-pole term e^{i a Y}/l(Y) then transforms to a
step across the wall xi + a = 0, supported on the side selected by the
cone.  Repeated denominators follow by differentiating the simple-pole
transform in the phase offset, which is the polynomial ladder used below.
In dimension 2 the transform is iterated along a flag of variables and the
two flag orders are cross-checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional, Sequence

from .mpoly import LinForm, MPoly
from .ratexp import RatExp, RatTerm
from .scalars import CRat, TwoPi, i_power


class ConeError(ValueError):
    pass


class WallDirectionError(ValueError):
    def __init__(self, wall):
        self.wall = wall
        super().__init__(f"wall direction: ray lies on wall {wall}")


# ---------------------------------------------------------------------------
# pieces, atoms, chambers


@dataclass(frozen=True)
class Wall:
    """Closed half-space {n . xi + c >= 0} (normal and offset exact)."""
    normal: tuple
    offset: Fraction

    def value(self, point):
        return sum(n * Fraction(x) for n, x in zip(self.normal, point)) \
            + self.offset

    def line_key(self):
        """Canonical key of the supporting hyperplane (sign-normalized)."""
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
    """Singular (delta-type) part, excluded from the absolutely continuous
    chambers and from residues."""
    kind: str             # "point" or "line"
    location: tuple       # point coords, or (normal..., offset) for a line
    order: int
    coeff: TwoPi
    profile: Optional[MPoly] = None


class PiecewisePoly:
    """Sum of polynomial densities over polyhedral pieces, plus flagged atoms.

    Pieces may overlap (they add); canonical() resolves them into chambers
    with pairwise-disjoint interiors.
    """

    def __init__(self, dim: int, pieces: Sequence[Piece] = (),
                 atoms: Sequence[Atom] = ()):
        if dim not in (1, 2):
            raise ValueError("PiecewisePoly supports dim 1 or 2")
        self.dim = dim
        self.pieces = [p for p in pieces if not p.density.is_zero()]
        self.atoms = list(atoms)

    # -- evaluation -------------------------------------------------------

    def density_at(self, point) -> MPoly:
        """Exact density polynomial valid near an interior rational point."""
        point = [Fraction(x) for x in point]
        out = MPoly.zero(self.dim)
        for p in self.pieces:
            if p.contains_interior(point):
                out = out + p.density
        return out

    def value_at(self, point) -> TwoPi:
        d = self.density_at(point)
        v = d.eval(point)
        return v if isinstance(v, TwoPi) else TwoPi.coerce(v)

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
        walls = self.wall_lines()
        pts = set()
        if self.dim == 1:
            cuts = sorted(set(-w.offset / w.normal[0] for w in walls))
            if not cuts:
                return [(Fraction(0),)]
            lo = cuts[0] - 1
            pts.add((lo,))
            for a, b in zip(cuts, cuts[1:]):
                pts.add(((a + b) / 2,))
            pts.add((cuts[-1] + 1,))
            return sorted(pts)
        deltas = [Fraction(1, k) for k in (8, 64, 512)]
        dirs = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1)),
                (Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1)),
                (Fraction(-1), Fraction(1)), (Fraction(-1), Fraction(-1)),
                (Fraction(2), Fraction(1)), (Fraction(1), Fraction(2)),
                (Fraction(-2), Fraction(1)), (Fraction(1), Fraction(-2))]
        # vertices of the arrangement, perturbed into the adjacent cells
        for i in range(len(walls)):
            for j in range(i + 1, len(walls)):
                v = _line_intersection(walls[i], walls[j])
                if v is None:
                    continue
                for d in deltas:
                    for ux, uy in dirs:
                        pts.add((v[0] + d * ux, v[1] + d * uy))
        # points straddling each single line
        for w in walls:
            base = _point_on_line(w)
            n = w.normal
            t = (-n[1], n[0])
            for s in (Fraction(-3), Fraction(0), Fraction(3)):
                for d in deltas:
                    pts.add((base[0] + s * t[0] + d * n[0],
                             base[1] + s * t[1] + d * n[1]))
                    pts.add((base[0] + s * t[0] - d * n[0],
                             base[1] + s * t[1] - d * n[1]))
        # far samples for unbounded cells
        for r in (Fraction(47), Fraction(193)):
            for k in range(24):
                ang = Fraction(k, 24)
                x = r * _rat_cos(ang)
                y = r * _rat_sin(ang)
                pts.add((x, y))
        pts.add((Fraction(0), Fraction(0)))
        # drop points lying on any wall
        good = []
        for p in pts:
            if all(w.value(p) != 0 for w in walls):
                good.append(p)
        return good

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
        """Exact equality as piecewise densities (atoms compared by count)."""
        if self.dim != other.dim:
            return False
        merged = PiecewisePoly(self.dim, self.pieces + other.pieces)
        for p in merged._sample_points():
            if self.density_at(p) != other.density_at(p):
                return False
        return True

    # -- support ------------------------------------------------------------

    def support_kind(self) -> str:
        cells = self.canonical()
        if not cells:
            return "bounded"
        flags = [_cell_bounded(walls, self.dim) for walls, _ in cells]
        if all(flags):
            return "bounded"
        if self.dim == 1:
            rays = set()
            for (walls, _), b in zip(cells, flags):
                if not b:
                    for w in walls:
                        rays.add(1 if w.normal[0] > 0 else -1)
            if len(rays) == 1:
                return "half-bounded"
        return "unbounded"

    # -- residues -------------------------------------------------------------

    def residue_ray(self, direction) -> TwoPi:
        """Limit of the density along t*direction as t -> 0+.

        Atoms are excluded; a wall through 0 containing the ray raises
        WallDirectionError naming the wall.
        """
        direction = [Fraction(x) for x in direction]
        if all(x == 0 for x in direction):
            raise ValueError("zero direction")
        for w in self.wall_lines():
            n_dot = sum(n * x for n, x in zip(w.normal, direction))
            if w.offset == 0 and n_dot == 0:
                raise WallDirectionError(w)
        total = TwoPi.of(0)
        origin = [Fraction(0)] * self.dim
        for p in self.pieces:
            ok = True
            for w in p.walls:
                n_dot = sum(n * x for n, x in zip(w.normal, direction))
                if w.offset > 0 or (w.offset == 0 and n_dot > 0):
                    continue
                ok = False
                break
            if ok:
                v = p.density.eval(origin)
                total = total + (v if isinstance(v, TwoPi)
                                 else TwoPi.coerce(v))
        return total

    # -- integration (dim 1) ---------------------------------------------------

    def mass(self) -> TwoPi:
        if self.dim != 1:
            raise NotImplementedError("mass() implemented for dim 1")
        total = TwoPi.of(0)
        for walls, dens in self.canonical():
            lo, hi = None, None
            for w in walls:
                cut = -w.offset / w.normal[0]
                if w.normal[0] > 0:
                    lo = cut if lo is None else max(lo, cut)
                else:
                    hi = cut if hi is None else min(hi, cut)
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
            "dim": self.dim,
            "support": self.support_kind(),
            "chambers": chambers,
            "atoms": [{"kind": a.kind, "order": a.order,
                       "location": [str(x) for x in a.location]}
                      for a in self.atoms],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def sample_csv(self, lo: float, hi: float, n: int) -> str:
        """CSV of sampled densities for plotting (dim 1)."""
        if self.dim != 1:
            raise NotImplementedError
        rows = ["xi,density"]
        for k in range(n):
            x = Fraction(lo) + Fraction(k, n - 1) * (Fraction(hi) - Fraction(lo))
            if any(w.value((x,)) == 0 for w in self.wall_lines()):
                x += Fraction(1, 10 ** 9)
            rows.append(f"{float(x)},{self.value_float((x,))}")
        return "\n".join(rows) + "\n"


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


def _integrate_1d(dens: MPoly, lo: Fraction, hi: Fraction) -> TwoPi:
    total = TwoPi.of(0)
    for (e,), c in dens.terms.items():
        c = TwoPi.coerce(c)
        total = total + c.scale(Fraction(hi ** (e + 1) - lo ** (e + 1),
                                         e + 1))
    return total


def _line_intersection(w1: Wall, w2: Wall):
    a, b, c = w1.normal[0], w1.normal[1], -w1.offset
    d, e, f = w2.normal[0], w2.normal[1], -w2.offset
    det = a * e - b * d
    if det == 0:
        return None
    return ((c * e - b * f) / det, (a * f - c * d) / det)


def _point_on_line(w: Wall):
    if w.normal[0] != 0:
        return (-w.offset / w.normal[0], Fraction(0))
    return (Fraction(0), -w.offset / w.normal[1])


def _rat_cos(frac_turn: Fraction) -> Fraction:
    import math
    return Fraction(math.cos(2 * math.pi * float(frac_turn))).limit_denominator(997)


def _rat_sin(frac_turn: Fraction) -> Fraction:
    import math
    return Fraction(math.sin(2 * math.pi * float(frac_turn))).limit_denominator(997)


def _cell_bounded(walls, dim) -> bool:
    if dim == 1:
        has_up = any(w.normal[0] > 0 for w in walls)
        has_dn = any(w.normal[0] < 0 for w in walls)
        return has_up and has_dn
    # recession cone {n . d >= 0 for all walls} must be {0}
    cands = []
    for w in walls:
        n = w.normal
        cands.extend([(n[1], -n[0]), (-n[1], n[0]), n, (-n[0], -n[1])])
    for d in cands:
        if d == (0, 0):
            continue
        if all(w.normal[0] * d[0] + w.normal[1] * d[1] >= 0 for w in walls):
            return False
    return True


# ---------------------------------------------------------------------------
# cone handling


def interior_point(cone: Sequence[LinForm], dim: int):
    if not cone:
        raise ConeError("empty cone description")
    if dim == 1:
        for z in (Fraction(1), Fraction(-1)):
            if all(l((z,)) > 0 for l in cone):
                return (z,)
        raise ConeError("cone has empty interior")
    for px in range(-8, 9):
        for py in range(-8, 9):
            if px == 0 and py == 0:
                continue
            z = (Fraction(px), Fraction(py))
            if all(l(z) > 0 for l in cone):
                return z
    raise ConeError("cone has empty interior")


def admissible_cone(forms: Sequence[LinForm], dim: int) -> List[LinForm]:
    """An open cone on which every given form is nonvanishing: take a
    generic direction Z and orient every form positively at Z."""
    if dim == 1:
        cands = [(Fraction(1),), (Fraction(-1),)]
    else:
        cands = [(Fraction(a), Fraction(b))
                 for a in (1, 2, 3, -1, 5) for b in (1, 2, -3, 7, -1)]
    for z in cands:
        vals = [f(z) for f in forms]
        if all(v != 0 for v in vals):
            return [f if v > 0 else -f for f, v in zip(forms, vals)]
    raise ConeError("no admissible cone found")


# ---------------------------------------------------------------------------
# the transform


def ft_shifted(u: RatExp, cone: Sequence[LinForm]) -> PiecewisePoly:
    """Cone-shifted Fourier transform of u as a PiecewisePoly.

    dim 1 is closed-form; dim 2 iterates along both variable flags and
    verifies the results agree exactly.
    """
    dim = u.dim
    if dim > 2:
        raise NotImplementedError("ft_shifted supports dim <= 2")
    z = interior_point(cone, dim)
    for form in u.denominator_forms():
        if form(z) == 0:
            raise ConeError(f"denominator {form} vanishes on the cone")
    if dim == 1:
        return _ft_dim1(u, z)
    out = _ft_dim2(u, z, flag=(0, 1))
    if not out.piecewise_equal(_ft_dim2(u, z, flag=(1, 0))):
        raise AssertionError("flag orders disagree in ft_shifted")
    return out


def _ft_dim1(u: RatExp, z) -> PiecewisePoly:
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
                pieces.append(_step_piece_1d(cc, a, k, sigma))
            else:
                # e^{iaY} Y^j -> (-i)^j 2pi delta^{(j)}(xi + a)
                j = -k
                atoms.append(Atom(kind="point", location=(-a,), order=j,
                                  coeff=cc.scale(i_power(-j)).shift(1)))
    return _calibrated(PiecewisePoly(1, pieces, atoms), 1)


def _step_piece_1d(coeff: TwoPi, a: Fraction, k: int, sigma: int) -> Piece:
    # e^{iaY} Y^{-k}  ->  i^k * sigma * 2pi * (xi+a)^{k-1}/(k-1)! on the
    # sigma-side of xi + a = 0
    c = coeff.scale(i_power(k) * CRat(Fraction(sigma, factorial(k - 1))))
    c = c.shift(1)
    shifted = MPoly(1, {(1,): Fraction(1), (0,): a}) ** (k - 1)
    density = shifted.map_coeffs(lambda q: c.scale(q))
    wall = make_wall([sigma], Fraction(sigma) * a)
    return Piece(walls=(wall,), density=density)


def _calibrated(pw: PiecewisePoly, dim: int) -> PiecewisePoly:
    pieces = [Piece(p.walls, p.density.map_coeffs(
        lambda c: TwoPi.coerce(c).shift(-dim))) for p in pw.pieces]
    atoms = [Atom(a.kind, a.location, a.order, a.coeff.shift(-dim), a.profile)
             for a in pw.atoms]
    return PiecewisePoly(dim, pieces, atoms)


# -- dim 2: iterated transform along a flag ---------------------------------

# Laurent polynomials in one variable: dict exponent -> Fraction

def _lp_mul(l1, l2):
    out = {}
    for e1, v1 in l1.items():
        for e2, v2 in l2.items():
            e = e1 + e2
            s = out.get(e, Fraction(0)) + v1 * v2
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _lp_add(l1, l2):
    out = dict(l1)
    for e, v in l2.items():
        s = out.get(e, Fraction(0)) + v
        if s == 0:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _series_inv_linear(c: Fraction, m: int, order: int):
    """(T + c*Yo)^{-m} as series in T to given order; coeffs Laurent in Yo."""
    from math import comb
    out = []
    for j in range(order + 1):
        coeff = Fraction((-1) ** j * comb(m + j - 1, j))
        out.append({-m - j: coeff * Fraction(1, c ** (m + j))})
    return out


def _series_mul(s1, s2, order: int):
    out = [dict() for _ in range(order + 1)]
    for j1, l1 in enumerate(s1):
        if j1 > order:
            break
        for j2, l2 in enumerate(s2):
            if j1 + j2 > order:
                break
            out[j1 + j2] = _lp_add(out[j1 + j2], _lp_mul(l1, l2))
    return out


def _poly_divmod_in_var(p: MPoly, d: MPoly, var: int):
    """Division in the chosen variable; d must be monic in var."""
    degd = d.degree_in(var)
    lead = {e: c for e, c in d.terms.items() if e[var] == degd}
    if len(lead) != 1 or list(lead.values())[0] != 1:
        raise ValueError("divisor not monic in the flag variable")
    q = MPoly.zero(p.dim)
    r = p
    while not r.is_zero() and r.degree_in(var) >= degd:
        dr = r.degree_in(var)
        top = MPoly(p.dim, {
            tuple((dr - degd) if i == var else e[i] for i in range(p.dim)): c
            for e, c in r.terms.items() if e[var] == dr})
        q = q + top
        r = r - top * d
    return q, r


def _ft_dim2(u: RatExp, z, flag) -> PiecewisePoly:
    f, o = flag
    pieces: List[Piece] = []
    atoms: List[Atom] = []
    for t in u.terms:
        _ft_dim2_term(t, z, f, o, pieces, atoms)
    return _calibrated(PiecewisePoly(2, pieces, atoms), 2)


def _ft_dim2_term(t: RatTerm, z, f: int, o: int, pieces, atoms):
    a_f = t.phase.coeffs[f]
    a_o = t.phase.coeffs[o]
    poles: Dict[Fraction, int] = {}
    unit = Fraction(1)
    passive_pow = 0
    for form, m in t.denoms:
        uu, vv = form.coeffs[f], form.coeffs[o]
        if uu != 0:
            rho = -vv / uu
            poles[rho] = poles.get(rho, 0) + m
            unit *= uu ** m
        else:
            passive_pow += m
            unit *= vv ** m
    base = t.coeff.scale(CRat(1) / CRat(unit))

    if not poles:
        # no pole in the flag variable: the xi_f direction is atomic
        atoms.append(Atom(
            kind="point" if passive_pow == 0 else "line",
            location=tuple(_unit_frac(2, f) + [a_f]),
            order=t.num.degree_in(f), coeff=base.shift(2),
            profile=t.num))
        return

    # denominator in the flag variable, monic
    dpoly = MPoly.constant(2, Fraction(1))
    for rho, m in poles.items():
        lin = MPoly(2, {_unit_exp(2, f): Fraction(1),
                        _unit_exp(2, o): -rho})
        dpoly = dpoly * lin ** m
    quot, rem = _poly_divmod_in_var(t.num, dpoly, f)

    # polynomial part in Y_f: atomic along the line xi_f + a_f = 0
    if not quot.is_zero():
        atoms.append(Atom(
            kind="line",
            location=tuple(_unit_frac(2, f) + [a_f]),
            order=quot.degree_in(f), coeff=base.shift(1), profile=quot))

    if rem.is_zero():
        return

    for rho, m in poles.items():
        sigma1 = 1 if (z[f] - rho * z[o]) > 0 else -1
        # shift Y_f = T + rho*Y_o and expand about T = 0
        images = [None, None]
        images[f] = MPoly(2, {_unit_exp(2, f): Fraction(1),
                              _unit_exp(2, o): rho})
        images[o] = MPoly.variable(2, o)
        shifted = rem.substitute_vars(images)
        # series of prod_{rho' != rho} (T + (rho - rho') Yo)^{-m'}
        prod_series = [{0: Fraction(1)}] + [dict() for _ in range(m - 1)]
        for rho2, m2 in poles.items():
            if rho2 == rho:
                continue
            s2 = _series_inv_linear(rho - rho2, m2, m - 1)
            prod_series = _series_mul(prod_series, s2, m - 1)
        # multiply by shifted polynomial (series in T with poly-Yo coeffs)
        shifted_series = [dict() for _ in range(m)]
        for e, c in shifted.terms.items():
            j = e[f]
            if j <= m - 1:
                shifted_series[j] = _lp_add(shifted_series[j],
                                            {e[o]: Fraction(c)})
        full = _series_mul(shifted_series, prod_series, m - 1)
        for k in range(1, m + 1):
            ck = full[m - k]          # Laurent in Y_o
            if not ck:
                continue
            _emit_second_stage(base, a_f, a_o, rho, k, sigma1, ck,
                               passive_pow, z, f, o, pieces, atoms)


def _emit_second_stage(base: TwoPi, a_f, a_o, rho, k, sigma1, ck,
                       passive_pow, z, f, o, pieces, atoms):
    # first-stage factor: i^k sigma1 2pi (xi_f + a_f)^{k-1}/(k-1)! H(...)
    fac1 = base.scale(i_power(k) * CRat(Fraction(sigma1,
                                                 factorial(k - 1)))).shift(1)
    xi_f = MPoly.variable(2, f)
    xi_o = MPoly.variable(2, o)
    step1_poly = (xi_f + MPoly.constant(2, a_f)) ** (k - 1)
    wall1 = make_wall(_unit_frac(2, f, sigma1), Fraction(sigma1) * a_f)
    # second-stage phase:  A = a_o + rho (xi_f + a_f); affine form xi_o + A
    aff = xi_o + xi_f.scale(rho) + MPoly.constant(2, a_o + rho * a_f)
    sigma2 = 1 if z[o] > 0 else -1
    for e_o, c in ck.items():
        k2 = passive_pow - e_o
        cc = fac1.scale(c)
        if k2 > 0:
            fac2 = cc.scale(i_power(k2) * CRat(Fraction(sigma2,
                                                        factorial(k2 - 1))))
            fac2 = fac2.shift(1)
            dens = step1_poly * (aff ** (k2 - 1))
            dens = dens.map_coeffs(lambda q: fac2.scale(q))
            nrm = [Fraction(0), Fraction(0)]
            nrm[f] = Fraction(sigma2) * rho
            nrm[o] = Fraction(sigma2)
            wall2 = make_wall(nrm, Fraction(sigma2) * (a_o + rho * a_f))
            pieces.append(Piece(walls=(wall1, wall2), density=dens))
        else:
            nrm = [Fraction(0), Fraction(0)]
            nrm[f] = rho
            nrm[o] = Fraction(1)
            atoms.append(Atom(
                kind="line",
                location=tuple(nrm + [a_o + rho * a_f]),
                order=-k2, coeff=cc.shift(1),
                profile=step1_poly))


def _unit_exp(dim, i):
    e = [0] * dim
    e[i] = 1
    return tuple(e)


def _unit_frac(dim, i, s=1):
    v = [Fraction(0)] * dim
    v[i] = Fraction(s)
    return v

