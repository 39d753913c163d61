"""Iterated blow-up desingularization of the momentum-map phase for the
linear catalog, with the two-way computation of the singular leading
coefficient.

Charts realize the factorization psi o (chart map) = tau_1 ... tau_N *
psi_wk exactly; the critical set of the weak transform is cut out by the
linear conditions (coefficient vanishing on the algebra directions and
annihilator conditions on the covector), and the transversal Hessian stays
uniformly nondegenerate down to the exceptional divisor, including the
sigma-substitution tau_1 = s1^2 s2, tau_2 = s1 s2 at depth two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .models import (Amplitude, CotangentCircle, LinearCotangent, ModelError,
                     reduced_integral)
from .quadrature import composite_gl, pairwise_sum
from .oscillatory import OrderFit, order_fit


@dataclass(frozen=True)
class ChainLevel:
    c: int      # slice-sphere dimension + 1 (normal fiber dimension)
    d: int      # dim of the orthogonal-complement increment in g
    e: int      # dim of the isotropy algebra at the level point


@dataclass(frozen=True)
class IsotropyChain:
    types: tuple                 # descriptors, most singular first
    levels: Tuple[ChainLevel, ...]
    lam: int                     # maximal chain length over the model
    iso_generator: Optional[int]  # deeper circle type's generator, depth 2

    @property
    def depth(self) -> int:
        return len(self.levels)

    def jacobian_exponents(self) -> List[int]:
        out = []
        dsum = 0
        for lv in self.levels:
            dsum += lv.d
            out.append(lv.c + dsum - 1)
        return out

    def check_kappa(self, kappa: int) -> bool:
        return all(ex >= kappa for ex in self.jacobian_exponents())


@dataclass
class StratifyResult:
    chains: List[IsotropyChain]
    lam: int


def stratify(model) -> StratifyResult:
    """Isotropy lattice of the linear catalog actions, ordered so that more
    singular types come first."""
    if isinstance(model, CotangentCircle):
        return StratifyResult(chains=[], lam=1)
    if not isinstance(model, LinearCotangent):
        raise ModelError("stratify covers the linear catalog")
    planes = model.planes
    k = model.k
    if k == 1:
        chain = IsotropyChain(
            types=("(G)",),
            levels=(ChainLevel(c=model.n, d=0, e=1),),
            lam=2, iso_generator=None)
        return StratifyResult(chains=[chain], lam=2)
    if k == 2 and len(planes) == 2:
        # T^2 on R^4: chains (T^2) > (S^1_a) and (T^2) > (S^1_b)
        chains = []
        for second in (0, 1):
            chains.append(IsotropyChain(
                types=("(T^2)", f"(S^1_{second})"),
                levels=(ChainLevel(c=4, d=0, e=2),
                        ChainLevel(c=2, d=1, e=1)),
                lam=3, iso_generator=second))
        return StratifyResult(chains=chains, lam=3)
    raise ModelError("stratify supports the shipped linear catalog "
                     "(depth <= 2)")


# ---------------------------------------------------------------------------
# charts

# tau extent of the depth-1 chart domain, its crit sampler and the
# resolved_leading tau grid
TAU_RANGE = 4.2


@dataclass
class BlowupChart:
    """One direction chart of the iterated monoidal transformation, a chart
    that carries Crit(psi_wk).

    `psi_wk`/`psi_tot` evaluate the weak and total transforms,
    `ambient_map` sends a chart point to (eta, X) upstairs, `conditions`
    returns the residuals of (I)-(III), `normal_equations` their gradients
    at one point, and `crit_sampler` and `crit_param` build points of
    Crit(psi_wk).  Every callable broadcasts over leading axes: points of
    shape (..., n) give values of shape (...) (`conditions` a dict of them,
    `ambient_map` eta of shape (..., 2n) and X of shape (..., k)), and one
    point gives floats.  `crit_sampler(rng, m)` returns an (m, n) array,
    and `crit_batch` builds the eta coordinates of a whole (tau, theta, s)
    grid of Crit(psi_wk) from broadcast views.

    The alpha chart, where the algebra direction is the projective unit,
    is no BlowupChart: psi_wk has no critical points there, so it only
    certifies the non-stationarity bound (`alpha_grad_norm`).
    """
    chain: IsotropyChain
    label: str
    domain: tuple                       # per-coordinate (lo, hi)
    psi_wk: Callable
    psi_tot: Callable
    ambient_map: Callable
    jac_exponents: tuple
    conditions: Callable                # points -> dict of named residuals
    crit_sampler: Callable              # rng, m -> (m, n) critical points
    normal_equations: Callable          # point -> gradients of (I)-(III)
    crit_param: Optional[Callable] = None       # (tau, theta, s) -> point
    crit_batch: Optional[Callable] = None       # taus, thetas, svals -> eta

    def gradient(self, pt, h: float = 1e-6) -> np.ndarray:
        """Central differences of psi_wk; points of shape (..., n) give
        gradients of shape (..., n), from one psi_wk call."""
        pt = np.asarray(pt, dtype=float)
        e = h * np.eye(pt.shape[-1])
        x = pt[..., None, :]
        f = self.psi_wk(np.stack([x + e, x - e]))
        return (f[0] - f[1]) / (2 * h)

    def hessian(self, pt) -> np.ndarray:
        """Central-difference Hessian at one point (step 1e-4), from one
        psi_wk call on the whole stencil."""
        pt = np.asarray(pt, dtype=float)
        n = len(pt)
        h = 1e-4
        e = h * np.eye(n)
        iu, ju = np.triu_indices(n, 1)
        ei, ej = e[iu], e[ju]
        f = self.psi_wk(np.concatenate([
            pt[None], pt + e, pt - e,
            pt + ei + ej, pt + ei - ej, pt - ei + ej, pt - ei - ej]))
        f0, fp, fm = f[0], f[1:n + 1], f[n + 1:2 * n + 1]
        fpp, fpm, fmp, fmm = f[2 * n + 1:].reshape(4, -1)
        out = np.empty((n, n))
        out[iu, ju] = out[ju, iu] = (fpp - fpm - fmp + fmm) / (4 * h ** 2)
        out[np.diag_indices(n)] = (fp - 2 * f0 + fm) / h ** 2
        return out


def uniform_points(domain, rng, m: int) -> np.ndarray:
    """m points uniform on a domain of per-coordinate (lo, hi), shape
    (m, n), drawn coordinate by coordinate and point after point."""
    lo, hi = np.array(domain, dtype=float).T
    return rng.uniform(lo, hi, size=(m, len(lo)))


def _scalar_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


def _residuals(i, ii, iii) -> dict:
    return {"I": _scalar_or_array(i), "II": _scalar_or_array(ii),
            "III": _scalar_or_array(iii)}


def build_charts(model, chain: IsotropyChain) -> List[BlowupChart]:
    """The direction charts of the resolution along chain: the charts that
    carry Crit(psi_wk) and the leading coefficient.  The depth-2 alpha
    chart only certifies the non-stationarity bound; `alpha_grad_norm`
    gives what that needs."""
    if not isinstance(model, LinearCotangent):
        raise ModelError("build_charts covers the linear catalog")
    if chain.depth == 1:
        return _charts_depth1(model, chain)
    if chain.depth == 2:
        return [_make_theta_theta_chart(model, chain, rho)
                for rho in (0, 1)]
    raise ModelError("chain depth above 2 is not constructed")


def _charts_depth1(model: LinearCotangent,
                   chain: IsotropyChain) -> List[BlowupChart]:
    """S^1 on R^2: center {0} x g; two direction charts covering the
    hemispheres v_rho > 0; no alpha charts (d = 0)."""
    if model.n != 2 or model.k != 1:
        raise ModelError("depth-1 charts expect the planar rotation model")
    a = np.array([[0.0, -1.0], [1.0, 0.0]]) * float(
        model.planes[0].speeds[0])
    charts = []
    for rho in (0, 1):
        def vdir(theta, _rho=rho):
            t = np.asarray(theta, dtype=float)
            n = np.sqrt(1.0 + t * t)
            v = np.empty(t.shape + (2,))
            v[..., _rho] = 1.0 / n
            v[..., 1 - _rho] = t / n
            return v

        def ambient(pt, _vdir=vdir):
            pt = np.asarray(pt, dtype=float)
            q = pt[..., 0, None] * _vdir(pt[..., 1])
            return np.concatenate([q, pt[..., 3:5]], axis=-1), pt[..., 2:3]

        def psi_wk(pt, _vdir=vdir):
            pt = np.asarray(pt, dtype=float)
            av = _vdir(pt[..., 1]) @ a.T
            return _scalar_or_array(pt[..., 2] * np.vecdot(av, pt[..., 3:5]))

        def psi_tot(pt, _psi=psi_wk):
            return _scalar_or_array(np.asarray(pt, dtype=float)[..., 0] *
                                    _psi(pt))

        def conditions(pt, _vdir=vdir):
            pt = np.asarray(pt, dtype=float)
            av = _vdir(pt[..., 1]) @ a.T
            lam_b_v = pt[..., 2, None] * av
            # the same rounding as np.linalg.norm of one vector
            return _residuals(np.sqrt(np.vecdot(lam_b_v, lam_b_v)),
                              np.zeros(pt.shape[:-1]),
                              np.abs(np.vecdot(av, pt[..., 3:5])))

        def crit_param(tau, theta, s, _vdir=vdir):
            tau, theta, s = np.broadcast_arrays(tau, theta, s)
            v = _vdir(theta)
            return np.stack([tau, theta, np.zeros(tau.shape),
                             s * v[..., 0], s * v[..., 1]], axis=-1)

        def crit_sampler(rng, n, _param=crit_param):
            tau, theta, s = rng.uniform((-TAU_RANGE, -3.0, -3.0),
                                        (TAU_RANGE, 3.0, 3.0),
                                        size=(n, 3)).T
            return _param(tau, theta, s)

        def crit_batch(taus, thetas, svals, _vdir=vdir):
            """eta coordinates (4, n_tau, n_th, n_s) over the crit grid."""
            v = _vdir(thetas).T
            shape = (len(taus), len(thetas), len(svals))
            tt = np.asarray(taus)[None, :, None, None]
            vv = v[:, None, :, None]
            ss = np.asarray(svals)[None, None, None, :]
            q = np.broadcast_to(tt * vv, (2,) + shape)
            p = np.broadcast_to(ss * vv, (2,) + shape)
            return np.concatenate([q, p], axis=0)

        def normal_equations(pt, _vdir=vdir):
            """Gradients of the defining equations (I), (III) in chart
            coordinates (tau, theta, beta, p0, p1)."""
            tau, theta, beta, p0, p1 = map(float, pt)
            v = _vdir(theta)
            # derivative of v(theta), built numerically; exactness is not
            # needed for pivoting
            h = 1e-7
            vp = _vdir(theta + h)
            vm = _vdir(theta - h)
            dv = (vp - vm) / (2 * h)
            g1 = np.zeros(5)
            g1[2] = 1.0                             # beta = 0
            g2 = np.zeros(5)
            g2[1] = float(np.dot(a @ dv, [p0, p1]))  # d theta
            g2[3] = (a @ v)[0]
            g2[4] = (a @ v)[1]
            return [g1, g2]

        charts.append(BlowupChart(
            chain=chain, label=f"theta{rho}",
            domain=((-TAU_RANGE, TAU_RANGE), (-6.0, 6.0), (-2.0, 2.0),
                    (-6.0, 6.0), (-6.0, 6.0)),
            psi_wk=psi_wk, psi_tot=psi_tot, ambient_map=ambient,
            jac_exponents=tuple(chain.jacobian_exponents()),
            conditions=conditions, crit_sampler=crit_sampler,
            crit_param=crit_param, crit_batch=crit_batch,
            normal_equations=normal_equations))
    return charts


def _make_theta_theta_chart(model, chain, rho: int) -> BlowupChart:
    """T^2 on R^4, chain (T^2) > (S^1): first blow-up at the origin of R^4,
    second along the singular circle in the direction sphere S^3.

    Chart coordinates: (s1, s2, th1, phi, alpha, beta, p0..p3) with the
    substituted divisors tau1 = s1^2 s2, tau2 = s1 s2; the base circle
    x2(th1) lies in the plane fixed by the deeper isotropy circle, and
    v2(phi) covers a hemisphere of its normal directions inside S^3.
    """
    iso = chain.iso_generator
    a_alpha = _plane_matrix(model, 1 - iso)   # rotates the circle plane
    a_beta = _plane_matrix(model, iso)        # the isotropy generator
    i1, j1 = model.planes[1 - iso].axes       # circle of singular points
    i2, j2 = model.planes[iso].axes           # normal directions in S^3

    def x2(th1):
        return _circle_point(th1, i1, j1)

    def v2(phi):
        t = np.asarray(phi, dtype=float)
        n = np.sqrt(1 + t * t)
        out = np.zeros(t.shape + (4,))
        out[..., (i2, j2)[rho]] = 1.0 / n
        out[..., (i2, j2)[1 - rho]] = t / n
        return out

    def taus(pt):
        s1, s2 = pt[..., 0], pt[..., 1]
        return s1 * s1 * s2, s1 * s2

    def mpoint(pt):
        pt = np.asarray(pt, dtype=float)
        t2 = pt[..., 0, None] * pt[..., 1, None]
        return np.cos(t2) * x2(pt[..., 2]) + np.sin(t2) * v2(pt[..., 3])

    def psi_wk(pt):
        pt = np.asarray(pt, dtype=float)
        t2 = pt[..., 0] * pt[..., 1]
        big = np.abs(t2) > 1e-9
        sinc = np.where(big, np.sin(t2) / np.where(big, t2, 1.0),
                        1.0 - t2 * t2 / 6.0)
        vec = pt[..., 4, None] * (mpoint(pt) @ a_alpha.T) + \
            (pt[..., 5] * sinc)[..., None] * (v2(pt[..., 3]) @ a_beta.T)
        return _scalar_or_array(np.vecdot(vec, pt[..., 6:10]))

    def psi_tot(pt):
        pt = np.asarray(pt, dtype=float)
        t1, t2 = taus(pt)
        return _scalar_or_array(t1 * t2 * psi_wk(pt))

    def ambient(pt):
        pt = np.asarray(pt, dtype=float)
        t1, t2 = taus(pt)
        xvec = np.empty(pt.shape[:-1] + (2,))
        xvec[..., 1 - iso] = t2 * pt[..., 4]
        xvec[..., iso] = pt[..., 5]
        return np.concatenate([t1[..., None] * mpoint(pt), pt[..., 6:10]],
                              axis=-1), xvec

    def signed_residuals(pt):
        pt = np.asarray(pt, dtype=float)
        p = pt[..., 6:10]
        return (np.vecdot(mpoint(pt) @ a_alpha.T, p),
                np.vecdot(v2(pt[..., 3]) @ a_beta.T, p))

    def conditions(pt):
        pt = np.asarray(pt, dtype=float)
        r2, r3 = signed_residuals(pt)
        u = v2(pt[..., 3]) @ a_beta.T
        # the same rounding as np.linalg.norm of one vector
        return _residuals(np.abs(pt[..., 4]) + np.abs(pt[..., 5]) *
                          np.sqrt(np.vecdot(u, u)), np.abs(r2), np.abs(r3))

    def crit_sampler(rng, n):
        base = np.zeros((n, 10))
        z = np.empty((n, 4))
        r = np.empty(n)
        # the draws interleave point by point: (s1, s2, th1, phi), then a
        # normal 4-vector and a radius
        for k in range(n):
            base[k, :4] = rng.uniform((-1, -1, 0, -3), (1, 1, 2 * math.pi, 3))
            z[k] = rng.normal(size=4)
            r[k] = rng.uniform(0.5, 2.0)
        u = np.stack([mpoint(base) @ a_alpha.T,
                      v2(base[:, 3]) @ a_beta.T], axis=-1)
        q, _ = np.linalg.qr(u)
        proj = np.eye(4) - q @ np.swapaxes(q, -1, -2)
        base[:, 6:10] = (proj @ z[..., None])[..., 0] * r[:, None]
        return base

    def normal_equations(pt):
        h = 1e-7
        grads = []
        g = np.zeros(10)
        g[4] = 1.0
        grads.append(g)                        # alpha = 0
        g = np.zeros(10)
        g[5] = 1.0
        grads.append(g)                        # lambda(B) v = 0 <=> beta = 0
        for which in (0, 1):
            g = np.zeros(10)
            for idx in (2, 3, 6, 7, 8, 9):
                e = np.zeros(10)
                e[idx] = h
                g[idx] = (signed_residuals(pt + e)[which]
                          - signed_residuals(pt - e)[which]) / (2 * h)
            grads.append(g)
        return grads

    return BlowupChart(
        chain=chain, label=f"theta-theta{rho}",
        domain=((-1, 1), (-1, 1), (0, 2 * math.pi), (-6, 6), (-2, 2),
                (-2, 2), (-6, 6), (-6, 6), (-6, 6), (-6, 6)),
        psi_wk=psi_wk, psi_tot=psi_tot, ambient_map=ambient,
        jac_exponents=tuple(chain.jacobian_exponents()),
        conditions=conditions, crit_sampler=crit_sampler,
        normal_equations=normal_equations)


def _circle_point(th1, i: int, j: int) -> np.ndarray:
    """cos(th1) e_i + sin(th1) e_j in R^4; broadcasts over th1."""
    th1 = np.asarray(th1, dtype=float)
    out = np.zeros(th1.shape + (4,))
    out[..., i] = np.cos(th1)
    out[..., j] = np.sin(th1)
    return out


def _plane_matrix(model: LinearCotangent, plane_index: int) -> np.ndarray:
    out = np.zeros((4, 4))
    pl = model.planes[plane_index]
    i, j = pl.axes
    out[i][j] = -1.0
    out[j][i] = 1.0
    return out


# (t2, th1, w0, w1, beta, p0..p3) ranges of the depth-2 alpha chart
ALPHA_DOMAIN = ((-1, 1), (0, 2 * math.pi), (-1, 1), (-1, 1), (-2, 2),
                (-6, 6), (-6, 6), (-6, 6), (-6, 6))


def alpha_grad_norm(model: LinearCotangent, chain: IsotropyChain) -> Callable:
    """|d_p psi_wk| on the second-level alpha chart of a depth-2 chain,
    where the algebra direction is the projective unit, as a function of
    points (..., 9) in ALPHA_DOMAIN.  psi_wk = <grad_p, p> is linear in p,
    so this gradient never vanishing means the weak transform has no
    critical points there: the chart only certifies the non-stationarity
    bound."""
    iso = chain.iso_generator
    a_alpha = _plane_matrix(model, 1 - iso)
    a_beta = _plane_matrix(model, iso)
    i1, j1 = model.planes[1 - iso].axes   # circle plane
    i2, j2 = model.planes[iso].axes       # normal directions

    def grad_norm(pt):
        pt = np.asarray(pt, dtype=float)
        t2, beta = pt[..., 0], pt[..., 4]
        w = np.zeros(pt.shape[:-1] + (4,))
        w[..., i2] = pt[..., 2]
        w[..., j2] = pt[..., 3]
        nv = np.sqrt(np.vecdot(w, w))
        arg = t2 * nv
        circle = _circle_point(pt[..., 1], i1, j1)
        off = nv > 1e-12
        m = np.where(off[..., None], np.cos(arg)[..., None] * circle +
                     (np.sin(arg) / np.where(off, nv, 1.0))[..., None] * w,
                     circle)
        big = np.abs(arg) > 1e-9
        sincf = np.where(big, np.sin(arg) / np.where(big, arg, 1.0), 1.0)
        g = m @ a_alpha.T + (beta * sincf)[..., None] * (w @ a_beta.T)
        # the same rounding as np.linalg.norm of one vector
        return _scalar_or_array(np.sqrt(np.vecdot(g, g)))

    return grad_norm


# ---------------------------------------------------------------------------
# witnesses and Hessians


@dataclass
class CritWitness:
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    grad_norm: float

    @property
    def all_conditions(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii


CRIT_TOL = 1e-9     # a residual of (I)-(III) at most this holds


def crit_conditions(chart: BlowupChart, pt) -> CritWitness:
    res = chart.conditions(pt)
    return CritWitness(
        cond_i=res["I"] <= CRIT_TOL, cond_ii=res["II"] <= CRIT_TOL,
        cond_iii=res["III"] <= CRIT_TOL,
        grad_norm=float(np.linalg.norm(chart.gradient(pt))))


@dataclass
class TransversalHessian:
    det: float
    signature: int
    min_abs_eig: float
    rank: int


def transversal_hessian(chart: BlowupChart, pt,
                        frame: str = "adapted") -> TransversalHessian:
    """Hessian of psi_wk transversal to Crit(psi_wk).

    frame="adapted": implicit-function normal coordinates from the
    defining equations (magnitude pivoting), matching the chart algebra.
    frame="orthonormal": nonzero spectrum of the full coordinate Hessian,
    which is the measure-consistent transversal block.
    """
    full = chart.hessian(np.asarray(pt, dtype=float))
    eigs = np.linalg.eigvalsh(full)
    scale = max(1.0, float(np.abs(eigs).max()))
    nonzero = eigs[np.abs(eigs) > 1e-6 * scale]
    if frame == "orthonormal":
        det = float(np.prod(nonzero)) if len(nonzero) else 0.0
        sig = int((nonzero > 0).sum() - (nonzero < 0).sum())
        return TransversalHessian(
            det=det, signature=sig,
            min_abs_eig=float(np.abs(nonzero).min()) if len(nonzero)
            else 0.0,
            rank=len(nonzero))
    grads = chart.normal_equations(np.asarray(pt, dtype=float))
    idx = _pivot_columns(grads)
    sub = full[np.ix_(idx, idx)]
    eigs = np.linalg.eigvalsh(sub)
    det = float(np.prod(eigs))
    sig = int((eigs > 0).sum() - (eigs < 0).sum())
    return TransversalHessian(det=det, signature=sig,
                              min_abs_eig=float(np.abs(eigs).min()),
                              rank=len(nonzero))


def _pivot_columns(grads: List[np.ndarray]) -> List[int]:
    """Greedy magnitude pivoting: one coordinate per defining equation."""
    a = np.stack([np.asarray(g, dtype=float) for g in grads])
    used: List[int] = []
    for row in range(a.shape[0]):
        r = a[row].copy()
        for u in used:
            r[u] = 0.0
        j = int(np.argmax(np.abs(r)))
        if abs(r[j]) < 1e-12:
            raise ModelError("degenerate defining equations")
        used.append(j)
        # eliminate the chosen column from the remaining rows
        for row2 in range(row + 1, a.shape[0]):
            if a[row, j] != 0:
                a[row2] = a[row2] - a[row2, j] / a[row, j] * a[row]
    return sorted(used)


# ---------------------------------------------------------------------------
# leading coefficients


def direct_leading(model, amplitude: Amplitude,
                   sigma: float = 0.0) -> float:
    """L0 = (vol G / |H|) int_{Reg Omega_sigma} [int_{g_eta} a dX] /
    vol O_eta.  For kappa = d the inner integral is a(eta, 0)."""
    return float(amplitude.g_factor(0.0)) * reduced_integral(
        model, amplitude.eta_factor, sigma)


def resolved_leading(model, charts: Sequence[BlowupChart],
                     amplitude: Amplitude, n_tau: int = 160,
                     n_ang: int = 40, n_s: int = 120) -> float:
    """Sum of chart integrals over Crit(psi_wk) with the surviving
    |tau|^{c+sum d-1-kappa} density, the partition-of-unity weights, and
    the measure-consistent transversal Hessian, on n_tau Gauss tau and
    n_s Gauss s in [-4.2, 4.2] and n_ang Gauss angles.

    The ratio dCrit / |det Hess_perp|^{1/2} is sampled on a probe grid of
    about 5 points per axis and must be constant to 1e-8 (the planar
    catalog cancels it exactly); the verified constant then carries the
    fine grid.  A ratio that varies raises ModelError.
    """
    if not isinstance(model, LinearCotangent) or model.n != 2:
        raise ModelError("resolved_leading covers the planar rotation model")
    kappa = model.group.kappa
    taus, wtau = composite_gl(-TAU_RANGE, TAU_RANGE, 1, n_tau)
    svals, wsv = composite_gl(-4.2, 4.2, 1, n_s)
    # angle substitution theta = tan(phi): d theta = sec^2 phi d phi
    phis, wph = composite_gl(-math.pi / 2, math.pi / 2, 1, n_ang)
    g0 = float(amplitude.g_factor(0.0))
    total_parts = []
    for chart in charts:
        exp_surv = chart.jac_exponents[0] - kappa

        def meas_ratio(t, theta, s):
            hh = transversal_hessian(chart, chart.crit_param(t, theta, s),
                                     frame="orthonormal")
            return _crit_measure(chart, t, theta, s) / math.sqrt(
                abs(hh.det))

        probes = [meas_ratio(t, math.tan(ph), s)
                  for t in taus[::max(1, n_tau // 5)]
                  for ph in phis[::max(1, n_ang // 5)]
                  for s in svals[::max(1, n_s // 5)]]
        if max(probes) - min(probes) > 1e-8 * max(1.0, abs(probes[0])):
            raise ModelError(
                f"chart {chart.label}: dCrit / |det Hess_perp|^(1/2) is not "
                "constant on the probe grid")
        const_ratio = float(np.mean(probes))
        thetas = np.tan(phis)
        coords = chart.crit_batch(taus, thetas, svals)
        shape = coords.shape[1:]
        vals = amplitude.eta_factor(coords.reshape(4, -1)).reshape(
            shape) * (g0 * const_ratio)
        # partition weight v_rho^2 times the smooth Jacobian, both
        # 1/(1+theta^2), and d theta = sec^2 phi d phi
        w_theta = (1.0 / (1.0 + thetas ** 2)) ** 2 * wph / \
            np.cos(phis) ** 2
        w_tau = np.abs(taus) ** exp_surv * wtau
        total_parts.append(float(np.einsum("tas,t,a,s->", vals, w_tau,
                                           w_theta, wsv)))
    return float(pairwise_sum(total_parts))


def _crit_measure(chart: BlowupChart, tau, theta, s) -> float:
    """sqrt Gram of the crit parametrization tangents (tau, theta, s) at
    crit_param(tau, theta, s).  s is read back from that point as |p| with
    the sign of s, which can differ from s in the last bit; the 1e-6 step
    amplifies such a change, so it is kept."""
    h = 1e-6
    v = chart.crit_param(tau, theta, s)[3:5]
    s = float(np.dot(v, v)) ** 0.5 * (1.0 if s >= 0 else -1.0)
    tangents = []
    for dtau, dth, ds in ((h, 0, 0), (0, h, 0), (0, 0, h)):
        plus = chart.crit_param(tau + dtau, theta + dth, s + ds)
        minus = chart.crit_param(tau - dtau, theta - dth, s - ds)
        tangents.append((plus - minus) / (2 * h))
    g = np.array([[float(np.dot(a, b)) for b in tangents]
                  for a in tangents])
    return math.sqrt(max(np.linalg.det(g), 0.0))


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepRow:
    mu: float
    oracle: float
    scaled: float
    leading: float
    remainder: float


@dataclass
class SweepReport:
    rows: List[SweepRow]
    leading: float
    fit: Optional[OrderFit]           # of |I - (2 pi mu)^kappa L0|
    fit_scaled: Optional[OrderFit]    # of |I/(2 pi mu)^kappa - L0|
    kappa: int
    lam: int


def singular_sweep(model, amplitude: Amplitude, mus: Sequence[float],
                   sigma: float = 0.0) -> SweepReport:
    """Oracle I(mu) against (2 pi mu)^kappa L0 with the remainder fit."""
    kappa = model.group.kappa
    if isinstance(model, CotangentCircle):
        from .bumps import BumpHat
        from .oracles import cotangent_regular_integral
        l0 = direct_leading(model, amplitude, sigma=sigma)
        vals = cotangent_regular_integral(
            lambda t, p: amplitude.eta_factor(np.stack([t, p])),
            BumpHat(amplitude.g_profile), sigma, mus)
    elif isinstance(model, LinearCotangent) and model.n == 2:
        from .oracles import linrot2_oracle
        orc = linrot2_oracle(amplitude.g_profile)
        l0 = direct_leading(model, amplitude)
        vals = [orc.integral(mu) for mu in mus]
    else:
        raise ModelError("singular_sweep covers the shipped catalog")
    lam = stratify(model).lam
    rows = []
    for mu, val in zip(mus, vals):
        val = float(val)
        scaled = val / (2 * math.pi * mu) ** kappa
        rows.append(SweepRow(mu=mu, oracle=val, scaled=scaled, leading=l0,
                             remainder=abs(val - (2 * math.pi * mu)
                                           ** kappa * l0)))
    fit = fit_scaled = None
    if len(rows) >= 4:
        fit = order_fit([(r.mu, r.remainder) for r in rows])
        fit_scaled = order_fit([(r.mu, abs(r.scaled - l0)) for r in rows])
    return SweepReport(rows=rows, leading=l0, fit=fit,
                       fit_scaled=fit_scaled, kappa=kappa, lam=lam)


# ---------------------------------------------------------------------------
# certificate


@dataclass
class ResolutionCertificate:
    factorization_max_err: float
    crit_witness_count: int
    crit_mismatches: int
    min_transversal_eig: float
    codim: int
    l_resolved: float
    l_direct: float
    rel_gap: float
    alpha_grad_min: Optional[float] = None

    def to_dict(self):
        return {
            "factorization_max_err": self.factorization_max_err,
            "crit_witness_count": self.crit_witness_count,
            "crit_mismatches": self.crit_mismatches,
            "min_transversal_eig": self.min_transversal_eig,
            "codim": self.codim,
            "L_resolved": self.l_resolved,
            "L_direct": self.l_direct,
            "rel_gap": self.rel_gap,
            "alpha_grad_min": self.alpha_grad_min,
        }


def factorization_check(chart: BlowupChart, model, rng,
                        n: int = 1000) -> float:
    """max relative error of psi(ambient) = prod tau * psi_wk."""
    pts = uniform_points(chart.domain, rng, n)
    lhs = model.momentum(*chart.ambient_map(pts))
    rhs = chart.psi_tot(pts)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return float(np.max(np.abs(lhs - rhs) / scale))


def crit_equivalence_scan(chart: BlowupChart, rng,
                          n: int = 10_000) -> Tuple[int, int]:
    """(witness count, mismatches) over a mixed grid of constructed
    critical points and random points: (I)-(III) <=> grad psi_wk = 0."""
    crit_pts = chart.crit_sampler(rng, n // 4)
    pts = np.concatenate([crit_pts,
                          uniform_points(chart.domain, rng,
                                         n - len(crit_pts))])
    grads = chart.gradient(pts)
    # the same rounding as np.linalg.norm of each gradient on its own
    grad_zero = np.sqrt(np.vecdot(grads, grads)) <= 1e-6
    res = chart.conditions(pts)
    crit = (res["I"] <= CRIT_TOL) & (res["II"] <= CRIT_TOL) & \
        (res["III"] <= CRIT_TOL)
    return len(pts), int(np.count_nonzero(crit != grad_zero))


def resolution_certificate(model, amplitude: Amplitude,
                           seed: int = 7) -> ResolutionCertificate:
    rng = np.random.default_rng(seed)
    strat = stratify(model)
    chain = strat.chains[0]
    if not chain.check_kappa(model.group.kappa):
        raise ModelError("jacobian exponent inequality fails")
    charts = build_charts(model, chain)
    fmax = 0.0
    witnesses = 0
    mism = 0
    mineig = math.inf
    codim = None
    for chart in charts:
        fmax = max(fmax, factorization_check(chart, model, rng, n=500))
        c, m = crit_equivalence_scan(chart, rng, n=5000)
        witnesses += c
        mism += m
        for pt in chart.crit_sampler(rng, 8):
            th = transversal_hessian(chart, pt, frame="adapted")
            mineig = min(mineig, th.min_abs_eig)
            full = transversal_hessian(chart, pt, frame="orthonormal")
            codim = full.rank if codim is None else codim
        # sigma-grid including 0
        for tau0 in (0.0, 0.25, -0.6):
            pt = chart.crit_sampler(rng, 1)[0]
            pt[0] = tau0
            th = transversal_hessian(chart, pt, frame="adapted")
            mineig = min(mineig, th.min_abs_eig)
    if chain.depth == 1:
        l_res = resolved_leading(model, charts, amplitude)
        l_dir = direct_leading(model, amplitude)
        gap = abs(l_res - l_dir) / max(abs(l_dir), 1e-300)
    else:
        l_res = l_dir = float("nan")
        gap = 0.0
    alpha_min = None
    if chain.depth == 2:
        alpha_min = float(np.min(alpha_grad_norm(model, chain)(
            uniform_points(ALPHA_DOMAIN, rng, 500))))
    return ResolutionCertificate(
        factorization_max_err=fmax, crit_witness_count=witnesses,
        crit_mismatches=mism, min_transversal_eig=float(mineig),
        codim=int(codim) if codim is not None else -1,
        l_resolved=l_res, l_direct=l_dir, rel_gap=gap,
        alpha_grad_min=alpha_min)
