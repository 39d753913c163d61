"""Catalog of Hamiltonian circle/torus actions with momentum maps.

Three families:

* Sphere(R): the radius-R sphere with its area form and the rotation about
  the z-axis generated by the Hamiltonian J = z (height).  Fixed points at
  the poles, weights -Y/R and +Y/R.
* CotangentCircle: T*S^1 with J = p; the action is free, so there are no
  fixed points and every level is regular.
* LinearCotangent(n, generators): T*R^n with commuting antisymmetric
  generators acting by g.(q, p) = (gq, gp) and J_X(q, p) = <Xq, p>.

Conventions: generators are declared orthonormal in the Lie algebra, so a
2*pi-periodic rotation circle has volume 2*pi; orbit volumes and the Gram
matrix of the fundamental fields are exact rationals at rational points.

The weighted sums over many points (the cosine and sine sums of L(X) in
MomentumProfile, the blocks of reduced_integral) are np.einsum
contractions, which run on the calling thread and never enter the BLAS
thread pool; BLAS products remain only for one point's generator
algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .bumps import Bump, BumpHat
from .mpoly import LinForm
from .quadrature import composite_gl, row_blocks
from .symmat import SymMat

LEVEL_NODES = 2048         # midpoints of a level circle in reduced_rule
PLANAR_EXTENT = 6.5        # r, s of reduced_rule: Gaussian tail < round-off
PROFILE_FD_STEP = 1e-6     # central-difference step of an exact form's f'


class ModelError(ValueError):
    pass


def _level_angles() -> np.ndarray:
    return 2 * math.pi * (np.arange(LEVEL_NODES) + 0.5) / LEVEL_NODES


@dataclass(frozen=True)
class GroupData:
    """Every catalog group is a torus T^d of volume vol_g, with principal
    orbits of dimension kappa.  A torus is abelian, with an empty root
    system, a trivial Weyl group and T = G, and the catalog's principal
    isotropy is trivial, so no Weyl factor, |W|, vol T, |H| or bracket
    is carried."""
    d: int
    vol_g: float
    kappa: int


@dataclass(frozen=True)
class FixedComponent:
    points: tuple                  # coordinates of the component (isolated)
    j_value: LinForm               # Y -> J_Y(F)
    weights: tuple                 # tuple[(LinForm, multiplicity)]

    @property
    def rank_nf(self) -> int:      # the normal bundle's rank
        return 2 * sum(m for _, m in self.weights)


@dataclass
class Amplitude:
    """a(eta, X) = eta-factor(eta) * g-profile(X): the eta-factor is the
    product of an optional Gaussian e^{-|eta|^2} (the singular catalog)
    and an optional free density on the phase-space coordinates, 1 when
    neither is given; the g-profile is 1 when absent.  `factors` = (F, P)
    declares a T*S^1 eta-factor F(theta) P(p); the sweep oracle checks it."""
    g_profile: Optional[Bump] = None
    gaussian: bool = False
    density: Optional[Callable] = None
    factors: Optional[Tuple[Callable, Callable]] = None

    def eta_factor(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        out = np.exp(-(coords ** 2).sum(axis=0)) if self.gaussian \
            else np.ones(coords.shape[1:])
        if self.density is not None:
            out = out * np.asarray(self.density(coords), dtype=float)
        return out

    def g_factor(self, x) -> np.ndarray:
        if self.g_profile is None:
            return np.ones_like(np.asarray(x, dtype=float))
        return self.g_profile(x)


def _fold(s, a):
    """The positive half of antisymmetric profile nodes (s[::-1] == -s, as
    the mirrored Gauss rules of the profiles are) with the even part
    a_k + a_-k of the weights, all a cosine sum sees, and the odd part
    a_k - a_-k, all a sine sum sees."""
    half = len(s) // 2
    if len(s) % 2 or np.any(s[::-1] != -s):
        raise ValueError("profile nodes are not antisymmetric")
    return (s[half:], a[half:] + a[half - 1::-1],
            a[half:] - a[half - 1::-1])


def _weigh(table, weights):
    """table . weights over the last axis of a C-order table, by einsum:
    one thread, never the BLAS pool."""
    return np.einsum("...j,j->...", table, weights)


@dataclass
class MomentumProfile:
    """Nodes s along J and weights (a, b) with L(X) / scale =
    sum_k e^{i X s_k} (a_k + i X b_k): a closed form's weighted pushforward
    J_* rho (b is None), or for an exact form Dbeta, beta = f dtheta, the
    total-derivative integrand d_s f + i X f, whose transform vanishes up
    to quadrature noise (f' by central differences)."""
    s: np.ndarray
    a: np.ndarray
    b: Optional[np.ndarray]

    def l_alpha(self, x):
        """L(X) / scale for a float X (a complex) or an array of X."""
        x = np.asarray(x, dtype=float)
        pos, a_even, a_odd = _fold(self.s, self.a)
        arg = np.multiply.outer(x, pos)
        sin = np.sin(arg)
        cos = np.cos(arg, out=arg)
        re, im = _weigh(cos, a_even), _weigh(sin, a_odd)
        if self.b is not None:
            _, b_even, b_odd = _fold(self.s, self.b)
            re = re - x * _weigh(sin, b_odd)
            im = im + x * _weigh(cos, b_even)
        return re + 1j * im

    def l_alpha_batch(self, xs: np.ndarray) -> np.ndarray:
        """A closed form's cosine transform over a 1-D array of X: half the
        cosines of l_alpha, X taken in `row_blocks`."""
        pos, a_even, _ = _fold(self.s, self.a)
        out = np.empty(len(xs))
        for blk in row_blocks(len(xs), len(pos)):
            block = np.multiply.outer(xs[blk], pos)
            out[blk] = _weigh(np.cos(block, out=block), a_even)
        return out


# ---------------------------------------------------------------------------


class CatalogModel:
    """What the pipelines ask of a catalog entry besides its geometry, with
    the defaults a class keeps unless it overrides them.  Each class also
    has `profile(rho)`, the momentum profile behind L(X)."""
    gaussian = False            # e^{-|eta|^2} in the default amplitude
    default_level = 0.0         # the swept level when a config gives 0
    residue_density = None      # of the residue command's form; None is 1

    def amplitude(self, bump_cfg: Optional[dict], sigma: float) -> Amplitude:
        """The catalog amplitude at the level sigma: a config's "bump"
        {"R", "order"} (default 1, 6) is its poly g-profile."""
        bump_cfg = bump_cfg or {}
        return Amplitude(
            g_profile=Bump(radius=bump_cfg.get("R", 1.0),
                           order=bump_cfg.get("order", 6), kind="poly"),
            gaussian=self.gaussian)

    def sweep_oracle(self, amplitude: Amplitude, mus: Sequence[float],
                     sigma: float) -> List[float]:
        """The brute-force I(mu) of a singular sweep."""
        raise ModelError("singular_sweep covers the shipped catalog")


class Sphere(CatalogModel):
    """Radius-R sphere, area form, rotation about z with J = z."""

    def __init__(self, radius=1):
        self.radius = Fraction(radius)
        if self.radius <= 0:
            raise ModelError("radius must be positive")
        r = float(self.radius)
        self.group = GroupData(d=1, vol_g=2 * math.pi * r, kappa=1)

    # points are (x, y, z) with |.| = R; the chart language below works in
    # cylindrical coordinates (z, theta) where the area form is R dz dtheta.

    def momentum(self, eta, x=1.0) -> float:
        return float(x) * float(eta[2])

    def fundamental_field(self, eta):
        r = float(self.radius)
        return np.array([-eta[1] / r, eta[0] / r, 0.0])

    def flow(self, eta, x, t):
        ang = t * float(x) / float(self.radius)
        c, s = math.cos(ang), math.sin(ang)
        return np.array([c * eta[0] - s * eta[1],
                         s * eta[0] + c * eta[1], eta[2]])

    def fixed_components(self) -> List[FixedComponent]:
        r = self.radius
        north = FixedComponent(
            points=(Fraction(0), Fraction(0), r),
            j_value=LinForm([r]),
            weights=((LinForm([Fraction(-1, 1) / r]), 1),))
        south = FixedComponent(
            points=(Fraction(0), Fraction(0), -r),
            j_value=LinForm([-r]),
            weights=((LinForm([Fraction(1, 1) / r]), 1),))
        return [north, south]

    def isotropy_dim(self, eta) -> int:
        return 1 if abs(eta[0]) < 1e-14 and abs(eta[1]) < 1e-14 else 0

    def orbit_volume(self, eta) -> float:
        return 2 * math.pi * math.hypot(eta[0], eta[1])

    def xi_map(self, eta) -> SymMat:
        x = Fraction(eta[0]) if not isinstance(eta[0], float) else \
            Fraction(eta[0]).limit_denominator(10 ** 12)
        y = Fraction(eta[1]) if not isinstance(eta[1], float) else \
            Fraction(eta[1]).limit_denominator(10 ** 12)
        val = (x * x + y * y) / self.radius ** 2
        if val == 0:
            raise ModelError("trivial orbit")
        return SymMat([[val]])

    def reduced_rule(self, sigma: float):
        """The level circle {z = sigma} at LEVEL_NODES midpoints, one
        (pts, w) block.  Each arc 2 pi rho / LEVEL_NODES over the orbit
        volume 2 pi rho leaves the weight 1 / LEVEL_NODES."""
        r = float(self.radius)
        if abs(sigma) >= r:
            raise ModelError("empty stratum")
        rho = math.sqrt(r * r - sigma * sigma)
        th = _level_angles()
        pts = np.stack([rho * np.cos(th), rho * np.sin(th),
                        np.full(th.size, sigma)])
        return [(pts, np.full(th.size, 1.0 / th.size))]

    def profile(self, rho) -> MomentumProfile:
        """In cylindrical (z, theta), where dA = R dz dtheta, on ceil(R)
        equal panels of the 2048-node rule (400 for an exact form),
        exactly mirrored about z = 0: |X| up to about 3,900 is resolved
        at every R (against 4 pi R sin(XR)/X: error <= 1e-11 for R <= 10
        and |X| <= 600, 9.3e-12 at R = 10; above 1e-9 first at X = 3,975
        for R = 1)."""
        f, h = rho.exact_beta, PROFILE_FD_STEP
        r = float(self.radius)
        z, w = composite_gl(-r, r, max(1, math.ceil(r)),
                            2048 if f is None else 400)
        if f is not None:
            fprime = (np.asarray(f(z + h)) - np.asarray(f(z - h))) / (2 * h)
            return MomentumProfile(z, 2 * math.pi * fprime * w,
                                   2 * math.pi * np.asarray(f(z)) * w)
        if rho.density is None:
            ring = 2 * math.pi * r * np.ones_like(z)
        else:
            th = 2 * math.pi * (np.arange(64) + 0.5) / 64
            zz, tt = np.meshgrid(z, th, indexing="ij")
            rr = np.sqrt(np.maximum(r * r - zz ** 2, 0.0))
            pts = np.stack([rr * np.cos(tt), rr * np.sin(tt), zz])
            ring = np.asarray(rho.density(pts), float).mean(axis=1) \
                * 2 * math.pi * r
        return MomentumProfile(z, ring * w, None)


class CotangentCircle(CatalogModel):
    """T*S^1 with coordinates (theta, p); J = p; the action is free."""

    default_level = 0.7

    def __init__(self):
        self.group = GroupData(d=1, vol_g=2 * math.pi, kappa=1)

    def momentum(self, eta, x=1.0) -> float:
        return float(x) * float(eta[1])

    def fundamental_field(self, eta):
        return np.array([1.0, 0.0])

    def flow(self, eta, x, t):
        return np.array([(eta[0] + t * float(x)) % (2 * math.pi), eta[1]])

    def fixed_components(self) -> List[FixedComponent]:
        return []

    def isotropy_dim(self, eta) -> int:
        return 0

    def orbit_volume(self, eta) -> float:
        return 2 * math.pi

    def xi_map(self, eta) -> SymMat:
        return SymMat([[1]])

    def reduced_rule(self, sigma: float):
        """The level circle {p = sigma} at LEVEL_NODES midpoints, one
        (pts, w) block; each arc 2 pi / LEVEL_NODES over the orbit volume
        2 pi."""
        th = _level_angles()
        return [(np.stack([th, np.full(th.size, sigma)]),
                 np.full(th.size, 1.0 / th.size))]

    def profile(self, rho) -> MomentumProfile:
        """On 1024 Gauss p-nodes of |p| < 2, where every profile lives,
        and 128 theta midpoints."""
        f, h = rho.exact_beta, PROFILE_FD_STEP
        p, wp = composite_gl(-2.0, 2.0, 1, 1024)
        th = 2 * math.pi * (np.arange(128) + 0.5) / 128
        tt, pp = np.meshgrid(th, p, indexing="ij")

        def ring(g, dp=0.0):
            vals = np.asarray(g(np.stack([tt, pp + dp])), float)
            return vals.sum(axis=0) * (2 * math.pi / 128)

        if f is not None:
            return MomentumProfile(p, (ring(f, h) - ring(f, -h)) / (2 * h)
                                   * wp, ring(f) * wp)
        dens = rho.density or (lambda pts: np.ones_like(pts[0]))
        return MomentumProfile(p, ring(dens) * wp, None)

    def residue_density(self, pts):
        """cos^2 theta times the order-6 poly bump in p."""
        return (np.cos(pts[0]) ** 2) * Bump(radius=1.0, order=6,
                                            kind="poly")(pts[1])

    def amplitude(self, bump_cfg: Optional[dict], sigma: float) -> Amplitude:
        """(1 + cos^2 theta) times a momentum profile curved at the level
        sigma, declared as those two factors: the remainder of the
        regular-value expansion is then genuinely of second order."""
        p_bump = Bump(radius=1.6, order=6, kind="poly")
        f = (lambda t: 1.0 + np.cos(t) ** 2,
             lambda p: p_bump(p - sigma) * np.exp(-(p - sigma) ** 2))
        return replace(super().amplitude(bump_cfg, sigma), factors=f,
                       density=lambda c: f[0](c[0]) * f[1](c[1]))

    def sweep_oracle(self, amplitude: Amplitude, mus: Sequence[float],
                     sigma: float) -> List[float]:
        from .oracles import cotangent_regular_integral
        if amplitude.factors is None:
            raise ModelError("the T*S^1 sweep needs declared factors")
        return cotangent_regular_integral(
            amplitude.factors,
            lambda t, p: amplitude.eta_factor(np.stack([t, p])),
            BumpHat(amplitude.g_profile), sigma, mus)


def _antisym_check(m):
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    for i in range(n):
        for j in range(n):
            if m[i][j] != -m[j][i]:
                raise ModelError(
                    f"generator not antisymmetric at entry ({i},{j})")
    return m


def _commute_check(gens):
    n = len(gens[0])
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            for i in range(n):
                for j in range(n):
                    ab = sum(gens[a][i][k] * gens[b][k][j]
                             for k in range(n))
                    ba = sum(gens[b][i][k] * gens[a][k][j]
                             for k in range(n))
                    if ab != ba:
                        raise ModelError(
                            f"generators {a} and {b} do not commute")


@dataclass(frozen=True)
class RotationPlane:
    axes: tuple              # (i, j) coordinate pair
    speeds: tuple            # Fraction per generator


class LinearCotangent(CatalogModel):
    """T*R^n with commuting antisymmetric generators; J_X(q,p) = <Xq, p>;
    a Gaussian catalog amplitude."""

    gaussian = True

    def __init__(self, n: int, generators: Sequence):
        self.n = int(n)
        gens = []
        for idx, g in enumerate(generators):
            try:
                gens.append(_antisym_check(g))
            except ModelError as exc:
                raise ModelError(f"generator {idx}: {exc}") from None
        for g in gens:
            if len(g) != self.n:
                raise ModelError("generator size does not match n")
        _commute_check(gens)
        self.generators = gens
        self.k = len(gens)
        self.planes = self._extract_planes()
        covered = {a for pl in self.planes for a in pl.axes}
        if len(covered) < self.n:
            raise ModelError("generators leave a common fixed subspace; "
                             "catalog requires isolated fixed points")
        self.group = GroupData(
            d=self.k, vol_g=(2 * math.pi) ** self.k,
            kappa=_rank_frac([pl.speeds for pl in self.planes]))

    def _extract_planes(self) -> List[RotationPlane]:
        """Require generators in common 2x2 block-rotation form."""
        planes = []
        used = set()
        for i in range(self.n):
            for j in range(i + 1, self.n):
                speeds = [g[j][i] for g in self.generators]
                if any(s != 0 for s in speeds):
                    for g in self.generators:
                        if g[i][j] != -g[j][i]:
                            raise ModelError("generator not block form")
                    if i in used or j in used:
                        raise ModelError("generators not simultaneously "
                                         "block-diagonal")
                    used.add(i)
                    used.add(j)
                    planes.append(RotationPlane(axes=(i, j),
                                                speeds=tuple(speeds)))
        for pl in planes:
            i, j = pl.axes
            for g in self.generators:
                for c in range(self.n):
                    if c not in (i, j) and (g[i][c] != 0 or g[j][c] != 0):
                        raise ModelError("generators not block-diagonal")
        return planes

    # -- basic operations ---------------------------------------------------

    def generator_matrix(self, x) -> np.ndarray:
        """The matrix of X = sum_i x_i g_i; x of shape (..., k) gives
        (..., n, n)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape[:-1] + (self.n, self.n))
        for g, xi in zip(self.generators, np.moveaxis(x, -1, 0)):
            out += xi[..., None, None] * np.array(
                [[float(v) for v in row] for row in g])
        return out

    def momentum(self, eta, x) -> float:
        """<Xq, p>; eta of shape (..., 2n) and x of shape (..., k) broadcast,
        and one point gives a float."""
        eta = np.asarray(eta, dtype=float)
        aq = np.vecdot(self.generator_matrix(x), eta[..., None, :self.n])
        out = np.vecdot(aq, eta[..., self.n:])
        return float(out) if out.ndim == 0 else out

    def fundamental_field(self, eta, x=None) -> np.ndarray:
        if x is None:
            x = _unit(self.k, 0)
        return self._act(self.generator_matrix(x), eta)

    def flow(self, eta, x, t):
        """e^{tX} eta: X rotates each plane (i, j) at the rate
        omega = X_ji, so e^{tX} is the block rotation by t omega."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        rot = np.eye(self.n)
        for pl in self.planes:
            i, j = pl.axes
            angle = t * float(np.dot([float(s) for s in pl.speeds], x))
            rot[i, i] = rot[j, j] = math.cos(angle)
            rot[j, i] = math.sin(angle)
            rot[i, j] = -rot[j, i]
        return self._act(rot, eta)

    def _act(self, a, eta) -> np.ndarray:
        """(a q, a p) at eta = (q, p)."""
        q, p = np.asarray(eta[:self.n], float), np.asarray(
            eta[self.n:], float)
        return np.concatenate([a.dot(q), a.dot(p)])

    def fixed_components(self) -> List[FixedComponent]:
        weights = []
        for pl in self.planes:
            lam = LinForm(list(pl.speeds))
            weights.append((lam, 1))
            weights.append((-lam, 1))
        return [FixedComponent(
            points=tuple(Fraction(0) for _ in range(2 * self.n)),
            j_value=LinForm([0] * self.k),
            weights=tuple(weights))]

    def isotropy_dim(self, eta) -> int:
        rows = []
        for pl in self.planes:
            i, j = pl.axes
            if any(abs(float(eta[a])) > 1e-13
                   for a in (i, j, self.n + i, self.n + j)):
                rows.append(list(pl.speeds))
        return self.k - _rank_frac(rows)

    def gram(self, eta) -> np.ndarray:
        fields = [self.fundamental_field(eta, _unit(self.k, i))
                  for i in range(self.k)]
        return np.array([[float(np.dot(a, b)) for b in fields]
                         for a in fields])

    def xi_map(self, eta) -> SymMat:
        """Gram matrix of the fundamental fields restricted to g.eta, in an
        orthonormal basis of the orbit tangent (exact at rational points)."""
        fields = [self._field_exact(eta, i) for i in range(self.k)]
        grams = [[sum(a * b for a, b in zip(fa, fb)) for fb in fields]
                 for fa in fields]
        active = [i for i in range(self.k)
                  if any(v != 0 for v in fields[i])]
        if not active:
            raise ModelError("trivial orbit")
        sub = [[grams[i][j] for j in active] for i in active]
        if _rank_frac([list(map(Fraction, r)) for r in sub]) < len(active):
            # dependent fields: restrict to an exact independent subset
            raise ModelError("xi_map needs independent fundamental fields "
                             "at this point")
        return SymMat(sub)

    def _field_exact(self, eta, i):
        eta = [Fraction(x).limit_denominator(10 ** 12)
               if isinstance(x, float) else Fraction(x) for x in eta]
        g = self.generators[i]
        q, p = eta[:self.n], eta[self.n:]
        gq = [sum(g[r][c] * q[c] for c in range(self.n))
              for r in range(self.n)]
        gp = [sum(g[r][c] * p[c] for c in range(self.n))
              for r in range(self.n)]
        return gq + gp

    def orbit_volume(self, eta) -> float:
        gram = self.gram(eta)
        active = np.flatnonzero(np.sqrt(np.diag(gram)) > 1e-13)
        if not active.size:
            return 0.0
        det = float(np.linalg.det(gram[np.ix_(active, active)]))
        # period lattice: unit-speed catalog generators have period 2 pi;
        # they act with coprime integer speeds, so the finite stabilizer of
        # a point off the fixed set is trivial
        return (2 * math.pi) ** len(active) * math.sqrt(max(det, 0.0))

    def reduced_rule(self, sigma: float):
        """The planar rotation's singular level: Omega minus the origin is
        {(r u, s u)} with u = (cos phi, sin phi), (r, s) in R^2, phi in
        [0, pi).  96 Gauss r and s on [-6.5, 6.5] and 64 phi midpoints,
        one (pts, w) block of 96 x 96 (r, s) points per phi, made as it
        is read.  The surface measure sqrt(r^2 + s^2) dr ds dphi over the
        orbit volume 2 pi sqrt(r^2 + s^2) leaves the weight
        w_r w_s dphi / 2 pi, the same in every block."""
        if self.n != 2:
            raise ModelError("reduced_rule covers the planar rotation model")
        check_unit_speed(self)
        if sigma != 0.0:
            raise ModelError("singular leading coefficient is at sigma = 0")
        r, wr = composite_gl(-PLANAR_EXTENT, PLANAR_EXTENT, 1, 96)
        phi = math.pi * (np.arange(64) + 0.5) / 64
        rr, ss = np.meshgrid(r, r, indexing="ij")
        w = (np.outer(wr, wr) * (math.pi / 64) / (2 * math.pi)).ravel()
        return ((np.stack([c * rr, s * rr, c * ss, s * ss]).reshape(4, -1), w)
                for c, s in zip(np.cos(phi), np.sin(phi)))

    def profile(self, rho):
        """The Gaussian planar-rotation oracle, the one L(X) route of
        LinearCotangent: its pushforward is even, so L is real."""
        from .oracles import linrot2_oracle
        if self.n != 2 or rho.density is not None or rho.is_exact:
            raise ModelError("LinearCotangent L-evaluator covers the "
                             "Gaussian rotation catalog entry")
        check_unit_speed(self)
        return linrot2_oracle(Bump(radius=1.0, order=6, kind="poly"))

    def sweep_oracle(self, amplitude: Amplitude, mus: Sequence[float],
                     sigma: float) -> List[float]:
        """By the Gaussian oracle, after reduced_rule refused any other
        model or level."""
        from .oracles import linrot2_oracle
        if amplitude.density is not None or not amplitude.gaussian:
            raise ModelError("the planar rotation oracle is Gaussian only")
        return linrot2_oracle(amplitude.g_profile).integral(list(mus))


def _unit(k, i):
    v = np.zeros(k)
    v[i] = 1.0
    return v


def _rank_frac(rows) -> int:
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return 0
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0),
                   None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


# ---------------------------------------------------------------------------
# catalog constructors and config ingestion

def rotation_generator(n: int, plane: Tuple[int, int],
                       speed=1) -> List[List[Fraction]]:
    g = [[Fraction(0)] * n for _ in range(n)]
    i, j = plane
    g[i][j] = -Fraction(speed)
    g[j][i] = Fraction(speed)
    return g


def check_unit_speed(model: LinearCotangent):
    """The planar rotation entry's oracle and reduced rule assume speed
    +-1; any other speed is not that entry."""
    if any(abs(s) != 1 for pl in model.planes for s in pl.speeds):
        raise ModelError("the planar rotation catalog entry needs speed "
                         "+-1 in every rotation plane")


def _linrot(n: int) -> LinearCotangent:
    """T*R^n, n even, with one unit-speed rotation per coordinate plane."""
    return LinearCotangent(n, [rotation_generator(n, (i, i + 1))
                               for i in range(0, n, 2)])


# kind -> (constructor from the config parameters, CLI commands that
# support the kind)
MODELS = {
    "sphere": (lambda p: Sphere(p.get("radius", 1)),
               ("dh", "localize", "residue")),
    "cotangent-circle": (lambda p: CotangentCircle(),
                         ("residue", "singular")),
    "linrot2": (lambda p: _linrot(2), ("singular", "resolve-verify")),
    "linrot4": (lambda p: _linrot(4), ("resolve-verify",)),
    "linear-cotangent": (lambda p: LinearCotangent(p["n"], p["generators"]),
                         ("singular", "resolve-verify")),
}


def make_model(kind: str, **params):
    """Build the catalog model `kind`; parameters the kind does not use
    (such as a config's "bump") are ignored."""
    if kind not in MODELS:
        raise ModelError(f"unknown model kind {kind!r}")
    try:
        return MODELS[kind][0](params)
    except KeyError as exc:
        raise ModelError(f"model kind {kind!r} needs {exc.args[0]!r}") \
            from None


def reduced_integral(model, f: Callable, sigma: float = 0.0) -> float:
    """vol G * int_{Reg Omega_sigma} f / vol O_eta by the model's
    reduced_rule; f maps points (dim, m) to m values and is called on
    each block of the rule."""
    total = 0.0
    for pts, w in model.reduced_rule(sigma):
        total += float(np.einsum("i,i->", w,
                                 np.asarray(f(pts), dtype=float)))
    return model.group.vol_g * total
