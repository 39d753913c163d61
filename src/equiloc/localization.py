"""Fixed-point localization sums, Duistermaat-Heckman measures, ray
residues, smeared delta-limits, and the pairing with the reduced-space
integral.

Normalization is pinned by one calibration identity: for the unit sphere
with the area form, the smeared limit of the transformed distribution must
equal 4 pi^2.  With the transform convention of piecewise.py this fixes the
pairing constant of a d-torus to (2 pi)^d; `calibrate` recomputes the
smeared side by quadrature and returns the measured ratio.

The smeared limit's X-integrals and the L(X) and reduced-space sums it
calls are np.einsum contractions on the calling thread; none enters the
BLAS thread pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .bumps import Bump, SmearingKernel
from .models import (Amplitude, FixedComponent, ModelError, Sphere,
                     reduced_integral)
from .oscillatory import CleanPhase, BaseNode, sp_coefficients
from .piecewise import PiecewisePoly, _require_rank_one, ft_shifted
from .quadrature import composite_gl
from .ratexp import RatExp, RatTerm
from .scalars import CRat, i_power, two_pi_float


class NoFixedPointsError(RuntimeError):
    def __init__(self):
        super().__init__("no fixed points: localization sum not applicable")


class RegularityError(ValueError):
    pass


@dataclass
class EquivariantForm:
    """Closed basic data reduced to a density against the reference top
    form (Liouville/area), optionally with an equivariantly exact part.

    density: callable on model coordinates, or None for the constant 1;
    scale: exact rational multiple; exact_beta: profile function f defining
    beta = f * dtheta in the model's angular coordinate (the catalog's Dbeta
    family).
    """
    scale: Fraction = Fraction(1)
    density: Optional[Callable] = None
    exact_beta: Optional[Callable] = None

    @property
    def is_exact(self) -> bool:
        return self.exact_beta is not None

    def value_at(self, point) -> float:
        v = float(self.scale)
        if self.density is not None:
            v *= float(self.density(np.asarray(point, dtype=float)))
        return v


def euler_inverse(fc: FixedComponent, y):
    """1/prod lambda_q(Y)^m for a point component."""
    exact = all(not isinstance(v, float) for v in y)
    out = Fraction(1) if exact else 1.0
    for form, mult in fc.weights:
        lam = form([Fraction(v) for v in y]) if exact else float(form(y))
        if lam == 0:
            raise RegularityError(f"Y on the weight hyperplane {form}")
        out = out / lam ** mult
    return out


def _bv_constant(rank_nf: int) -> complex:
    R = rank_nf // 2
    return complex(i_power(R)) * (2.0 * math.pi) ** R


def bv_term(model, fc: FixedComponent, rho: EquivariantForm, y) -> complex:
    y = np.atleast_1d(np.asarray(y, dtype=float))
    inv = euler_inverse(fc, list(y))
    jval = float(fc.j_value(list(y)))
    val = rho.value_at([float(f) for f in fc.points])
    return _bv_constant(fc.rank_nf) * complex(
        math.cos(jval), math.sin(jval)) * val * float(inv)


def bv_sum(model, rho: EquivariantForm, y) -> complex:
    comps = model.fixed_components()
    if not comps:
        raise NoFixedPointsError()
    total = sum(bv_term(model, fc, rho, y) for fc in comps)
    if not np.isfinite(total):      # the terms overflow below Y ~ 1e-308
        raise RegularityError(f"Y = {y:g}: the fixed-point sum {total} is "
                              "not finite, its terms overflow a float")
    return total


def u_f_symbolic(model, fc: FixedComponent,
                 rho: EquivariantForm) -> RatExp:
    """Exact fixed-point term i^R (2 pi)^R c e^{i J_F(Y)} / e_F(Y), with
    R = rank_nf / 2: phase = J-value, denominators = weights."""
    if rho.density is not None:
        raise ModelError("symbolic route needs a constant form")
    R = fc.rank_nf // 2
    term = RatTerm(i_power(R) * CRat(rho.scale), fc.j_value, list(fc.weights))
    return RatExp(model.group.d, [term], R)


def _fixed_point_sum(model, rho: EquivariantForm) -> RatExp:
    """sum_F u_F over the fixed components of a rank-1 model; the terms
    share one power of 2 pi, and a sum of two powers is refused."""
    comps = model.fixed_components()
    if not comps:
        raise NoFixedPointsError()
    _require_rank_one(model.group.d)
    first, *rest = (u_f_symbolic(model, fc, rho) for fc in comps)
    return sum(rest, first)


def dh_measure(model, rho: EquivariantForm, side: int = 1) -> PiecewisePoly:
    """Pushforward-normalized piecewise-polynomial measure: the shifted
    transform of the summed fixed-point terms over the cone side * Y > 0."""
    return ft_shifted(_fixed_point_sum(model, rho), side)


def jk_residue(model, rho: EquivariantForm, direction) -> Tuple[CRat, int]:
    """sum_F Res^{Lambda, sigma} of the transformed u_F terms, in the
    pushforward normalization (multiply by the pairing constant to match
    the smeared limit): on a torus the Weyl factor Phi^2 is 1, so this is
    the DH measure's limit along the ray `direction`.  Returned exactly, as
    (c, k) for c * (2 pi)^k; two_pi_float(c, k) is its value."""
    U = dh_measure(model, rho)
    return U.residue_ray(direction), U.two_pi_power


def pairing_constant(model) -> float:
    """(2 pi)^d: on a torus vol T = vol G and |W| = 1 cancel."""
    return (2 * math.pi) ** model.group.d


# ---------------------------------------------------------------------------
# model L-evaluators


def l_alpha(model, rho: EquivariantForm, x):
    """L(X) = int e^{i J_X} rho for a float X (a complex) or an array of X
    (a complex array): the Fourier transform of the model's momentum
    profile, `model.profile(rho)`."""
    return float(rho.scale) * model.profile(rho).l_alpha(x)


# ---------------------------------------------------------------------------
# smeared limits and the reduced-space pairing


@dataclass(frozen=True)
class SmearedResult:
    values: Tuple[Tuple[float, float], ...]
    extrapolated: float
    converged: bool


def l_alpha_batch(model, rho: EquivariantForm, xs: np.ndarray) -> np.ndarray:
    """Real part of L(X) over an array of X values: for a closed form the
    cosine transform of its profile; for an exact form Re l_alpha."""
    xs = np.asarray(xs, dtype=float)
    if rho.is_exact:
        return np.real(l_alpha(model, rho, xs))
    return float(rho.scale) * model.profile(rho).l_alpha_batch(xs)


@lru_cache(maxsize=None)
def default_kernel() -> SmearingKernel:
    return SmearingKernel()


SMEAR_X_MAX = 600.0     # the smeared limit integrates |X| <= SMEAR_X_MAX
SMEAR_EPS = (0.2, 0.1, 0.05, 0.025)     # the default eps ladder


def ladder_problem(eps_list: Sequence[float]) -> Optional[str]:
    """Why smeared_limit's Richardson steps, whose factor 4 assumes eps
    halves, cannot use this eps ladder, or None."""
    if len(eps_list) < 2 or any(
            2 * b != a for a, b in zip(eps_list, eps_list[1:])):
        return "need at least 2 values, each half the one before"
    return None


def smeared_limit(model, rho: EquivariantForm,
                  eps_list: Sequence[float] = SMEAR_EPS) -> SmearedResult:
    """<F_g L, phi_eps> = int L(X) phi_hat(eps X) dX over |X| <= SMEAR_X_MAX
    at each eps, with phi the default smearing kernel, then Richardson
    extrapolation with the even-kernel O(eps^2) ansatz."""
    problem = ladder_problem(eps_list)
    if problem:
        raise ValueError(f"eps ladder: {problem}")
    kernel = default_kernel()
    panels = max(64, int(SMEAR_X_MAX / math.pi) + 1)
    nodes, wts = composite_gl(0.0, SMEAR_X_MAX, panels)
    lvals = l_alpha_batch(model, rho, nodes)
    vals = []
    for eps in eps_list:
        integrand = lvals * np.asarray(kernel.phi_hat(eps * nodes), float)
        v = float(np.einsum("i,i->", integrand, wts))
        vals.append((eps, 2.0 * v))
    seq = [v for _, v in vals]
    # Richardson on the eps^2 ladder
    while len(seq) > 1:
        seq = [(4.0 * b - a) / 3.0 for a, b in zip(seq[:-1], seq[1:])]
    converged = abs(seq[0] - vals[-1][1]) < 0.05 * (1 + abs(seq[0]))
    return SmearedResult(values=tuple(vals), extrapolated=float(seq[0]),
                         converged=converged)


def kirwan_integral(model, rho: EquivariantForm) -> float:
    """(2 pi)^d vol G * int_{Reg Omega_0} r(rho) / vol O_eta; a form
    without a density integrates the model's default amplitude."""
    g = model.group
    if g.kappa != g.d:
        raise ModelError("kirwan_integral requires kappa = d")
    dens = rho.density or Amplitude(gaussian=model.gaussian).eta_factor
    return (2 * math.pi) ** g.d * float(rho.scale) * reduced_integral(
        model, dens)


CALIBRATION_MODEL = {"kind": "sphere", "radius": 1}


@dataclass
class CalibrationStamp:
    pairing_constant: float
    measured: float
    ratio: float

    def to_dict(self):
        return {"pairing_constant": self.pairing_constant,
                "measured": self.measured, "ratio": self.ratio,
                "model": CALIBRATION_MODEL["kind"]}


@lru_cache(maxsize=1)
def calibration_limit() -> SmearedResult:
    """The smeared limit of the calibration: the area form of the unit
    sphere (CALIBRATION_MODEL) on the default SMEAR_EPS ladder.  It is
    computed once per process and the one (frozen) result is shared, so
    `residue --model sphere --calibrate` builds the 2,048-node profile
    once."""
    return smeared_limit(Sphere(CALIBRATION_MODEL["radius"]),
                         EquivariantForm())


def calibrate() -> CalibrationStamp:
    """Fix the transform normalization on the unit-sphere oracle: the
    smeared limit of the area form must equal 4 pi^2, while the exact
    residue side gives 2 pi; the ratio is the pairing constant."""
    sphere = Sphere(CALIBRATION_MODEL["radius"])
    rho = EquivariantForm()
    sm = calibration_limit()
    return CalibrationStamp(
        pairing_constant=pairing_constant(sphere),
        measured=sm.extrapolated,
        ratio=sm.extrapolated / two_pi_float(*jk_residue(sphere, rho, (1,))))


# ---------------------------------------------------------------------------
# localization with remainder: per-component expansions in 1/|Y|


@dataclass
class AsymptoticL:
    terms: List[complex]
    total: Callable
    order: int


def asymptotic_l(model, rho: EquivariantForm,
                 order: int = 1) -> AsymptoticL:
    """Per-fixed-component stationary-phase expansions of L(Y) in 1/|Y|
    (mu = 1/|Y|), assembled from orthographic charts at the poles, each cut
    off at 0.8 R."""
    if not isinstance(model, Sphere):
        raise ModelError("asymptotic_l is shipped for the sphere catalog")
    r = float(model.radius)
    tube = 0.8
    expansions = []
    for sgn in (+1.0, -1.0):
        def psi(s, _sgn=sgn):
            s = np.asarray(s, dtype=float)
            return _sgn * math.sqrt(max(r * r - float(s[0]) ** 2 -
                                        float(s[1]) ** 2, 1e-300))

        def amp(s, _sgn=sgn):
            s = np.asarray(s, dtype=float)
            rho2 = float(s[0]) ** 2 + float(s[1]) ** 2
            if rho2 >= (tube * r) ** 2:
                return 0.0
            z = _sgn * math.sqrt(r * r - rho2)
            jac = r / abs(z)
            pt = np.array([s[0], s[1], z])
            dens = rho.value_at(pt)
            cut = Bump(radius=tube * r, order=8, kind="plateau", flat=0.6)
            return dens * jac * float(cut(math.sqrt(rho2)))

        node = BaseNode(weight=1.0, psi_num=psi, amp_num=amp)
        phase = CleanPhase(rank=2, psi0=sgn * r, nodes=[node])
        expansions.append(sp_coefficients(phase, order, method="fd"))

    def total(y: float) -> complex:
        mu = 1.0 / abs(y)
        out = 0j
        for e in expansions:
            out += e.evaluate(mu)
        return out

    return AsymptoticL(terms=[e.coefficients for e in expansions],
                       total=total, order=order)
