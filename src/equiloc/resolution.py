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

from .models import Amplitude, LinearCotangent, ModelError, reduced_integral
from .quadrature import composite_gl, pairwise_sum, row_blocks
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
    singular types come first.  A model without fixed points (T*S^1) has
    one isotropy type and no chain."""
    if not model.fixed_components():
        return StratifyResult(chains=[], lam=1)
    if not isinstance(model, LinearCotangent):
        raise ModelError("stratify covers the linear catalog")
    if model.k == 1:
        chain = IsotropyChain(
            types=("(G)",),
            levels=(ChainLevel(c=model.n, d=0, e=1),),
            lam=2, iso_generator=None)
        return StratifyResult(chains=[chain], lam=2)
    if model.k == 2 and len(model.planes) == 2:
        # T^2 on R^4: chains (T^2) > (S^1_a) and (T^2) > (S^1_b); the
        # charts take generator i for the rotation of plane i
        if any(abs(pl.speeds[i]) != 1 or pl.speeds[1 - i] != 0
               for i, pl in enumerate(model.planes)):
            raise ModelError("depth-2 charts need generator i to rotate "
                             "plane i alone, at speed +-1")
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


def _complex_step(f, x):
    """Derivatives of f along each coordinate of x, Im f(x + i h e_j) / h
    with h = 1e-30: no subtraction, so no cancellation and no step size.
    f (an array or a tuple of them) sees points (..., n, n), direction j
    on the next-to-last axis, and j stays where f puts that axis."""
    h = 1e-30
    x = np.asarray(x, dtype=float)
    out = f(x[..., None, :] + 1j * h * np.eye(x.shape[-1]))
    if isinstance(out, tuple):
        return tuple(np.imag(v) / h for v in out)
    return np.imag(out) / h


@dataclass
class BlowupChart:
    """One direction chart of the iterated monoidal transformation, a chart
    that carries Crit(psi_wk).

    A chart declares its geometry: `taus` its exceptional-divisor
    coordinates ((tau,) at depth 1, (s1^2 s2, s1 s2) at depth 2),
    `ambient_map` a chart point's (eta, X) upstairs, `equations` the
    signed defining equations e_a of Crit(psi_wk), `form` the (a, b, c_ab)
    of psi_wk = sum c_ab e_a e_b at points, `conditions` the residuals of
    (I)-(III), and `crit_sampler`, `crit_param` and `crit_batch` points of
    Crit(psi_wk).  The class derives psi_wk, the total transform
    `psi_tot` = prod tau * psi_wk, and by complex step the gradients of
    psi_wk and of `equations` and the Hessian on Crit(psi_wk).
    `factorization_check` certifies the declared form against the
    momentum map.  The Jacobian exponents are the chain's.

    Every callable broadcasts over leading axes: points of shape (..., n)
    give values of shape (...) (`taus` and `equations` tuples of them,
    `conditions` a dict, `ambient_map` eta of shape (..., 2n) and X of
    shape (..., k)), and one point gives floats.  `equations`, `form` and
    `crit_param` take complex points too (always batched); `conditions`
    and `ambient_map` are real.
    `crit_sampler(rng, m)` returns an (m, n) array, and `crit_batch`
    builds the eta coordinates of a whole (tau, theta, s) grid of
    Crit(psi_wk) from broadcast views.

    The alpha chart, where the algebra direction is the projective unit,
    is no BlowupChart: psi_wk has no critical points there, so it only
    certifies the non-stationarity bound (`alpha_grad_norm`).
    """
    chain: IsotropyChain
    label: str
    domain: tuple                       # per-coordinate (lo, hi)
    taus: Callable                      # points -> divisor coordinates
    ambient_map: Callable
    equations: Callable                 # points -> signed equations
    form: Callable                      # points -> ((a, b, c_ab), ...)
    conditions: Callable                # points -> dict of named residuals
    crit_sampler: Callable              # rng, m -> (m, n) critical points
    crit_param: Optional[Callable] = None       # (tau, theta, s) -> point
    crit_batch: Optional[Callable] = None       # taus, thetas, svals -> eta

    def psi_wk(self, pt):
        """The weak transform sum c_ab e_a e_b of the declared form."""
        pt = np.asarray(pt)
        e = self.equations(pt)
        return _scalar_or_array(sum(c * e[a] * e[b]
                                    for a, b, c in self.form(pt)))

    def psi_tot(self, pt):
        """The total transform prod tau * psi_wk."""
        pt = np.asarray(pt, dtype=float)
        return _scalar_or_array(math.prod(self.taus(pt)) * self.psi_wk(pt))

    def normal_equations(self, pt) -> List[np.ndarray]:
        """Gradients of `equations` at one point, by complex step."""
        return list(_complex_step(self.equations, pt))

    def gradient(self, pt) -> np.ndarray:
        """Gradients of psi_wk by complex step; points of shape (..., n)
        give gradients of shape (..., n), from one psi_wk call."""
        return _complex_step(self.psi_wk, pt)

    def hessian(self, pt) -> np.ndarray:
        """Hessians of psi_wk on Crit(psi_wk), sum c_ab (grad e_a grad
        e_b^T + grad e_b grad e_a^T): exact there, since every e_a
        vanishes on Crit, and not the Hessian anywhere else.  Points of
        shape (..., n) give shape (..., n, n), from one `equations` call."""
        pt = np.asarray(pt, dtype=float)
        g = _complex_step(self.equations, pt)
        half = sum(np.asarray(c)[..., None, None] * g[a][..., :, None] *
                   g[b][..., None, :] for a, b, c in self.form(pt))
        return half + np.swapaxes(half, -1, -2)


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
            t = np.asarray(theta)
            n = np.sqrt(1.0 + t * t)
            v = np.empty(n.shape + (2,), dtype=n.dtype)
            v[..., _rho] = 1.0 / n
            v[..., 1 - _rho] = t / n
            return v

        def ambient(pt, _vdir=vdir):
            pt = np.asarray(pt, dtype=float)
            q = pt[..., 0, None] * _vdir(pt[..., 1])
            return np.concatenate([q, pt[..., 3:5]], axis=-1), pt[..., 2:3]

        def equations(pt, _vdir=vdir):
            """(beta, <A v, p>), signed."""
            pt = np.asarray(pt)
            av = _vdir(pt[..., 1]) @ a.T
            return pt[..., 2], np.einsum("...i,...i->...", av, pt[..., 3:5])

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

        charts.append(BlowupChart(
            chain=chain, label=f"theta{rho}",
            domain=((-TAU_RANGE, TAU_RANGE), (-6.0, 6.0), (-2.0, 2.0),
                    (-6.0, 6.0), (-6.0, 6.0)),
            taus=lambda pt: (pt[..., 0],), ambient_map=ambient,
            equations=equations, form=lambda pt: ((0, 1, 1.0),),
            conditions=conditions, crit_sampler=crit_sampler,
            crit_param=crit_param, crit_batch=crit_batch))
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
        t = np.asarray(phi)
        n = np.sqrt(1 + t * t)
        out = np.zeros(n.shape + (4,), dtype=n.dtype)
        out[..., (i2, j2)[rho]] = 1.0 / n
        out[..., (i2, j2)[1 - rho]] = t / n
        return out

    def taus(pt):
        s1, s2 = pt[..., 0], pt[..., 1]
        return s1 * s1 * s2, s1 * s2

    def mpoint(pt):
        pt = np.asarray(pt)
        t2 = pt[..., 0, None] * pt[..., 1, None]
        return np.cos(t2) * x2(pt[..., 2]) + np.sin(t2) * v2(pt[..., 3])

    def ambient(pt):
        pt = np.asarray(pt, dtype=float)
        t1, t2 = taus(pt)
        xvec = np.empty(pt.shape[:-1] + (2,))
        xvec[..., 1 - iso] = t2 * pt[..., 4]
        xvec[..., iso] = pt[..., 5]
        return np.concatenate([t1[..., None] * mpoint(pt), pt[..., 6:10]],
                              axis=-1), xvec

    def equations(pt):
        """(alpha, beta, r2, r3), signed; r2 and r3 annihilate p."""
        pt = np.asarray(pt)
        p = pt[..., 6:10]
        return (pt[..., 4], pt[..., 5],
                np.einsum("...i,...i->...", mpoint(pt) @ a_alpha.T, p),
                np.einsum("...i,...i->...", v2(pt[..., 3]) @ a_beta.T, p))

    def form(pt):
        """alpha r2 + sinc(s1 s2) beta r3."""
        return (0, 2, 1.0), (1, 3, _sinc(pt[..., 0] * pt[..., 1]))

    def conditions(pt):
        pt = np.asarray(pt, dtype=float)
        _, _, r2, r3 = equations(pt)
        u = v2(pt[..., 3]) @ a_beta.T
        # the same rounding as np.linalg.norm of one vector
        return _residuals(np.abs(pt[..., 4]) + np.abs(pt[..., 5]) *
                          np.sqrt(np.vecdot(u, u)), np.abs(r2), np.abs(r3))

    def crit_sampler(rng, n):
        # three draws: (s1, s2, th1, phi), normal 4-vectors and radii
        base = np.zeros((n, 10))
        base[:, :4] = rng.uniform((-1, -1, 0, -3), (1, 1, 2 * math.pi, 3),
                                  size=(n, 4))
        z = rng.normal(size=(n, 4))
        r = rng.uniform(0.5, 2.0, size=n)
        u = np.stack([mpoint(base) @ a_alpha.T,
                      v2(base[:, 3]) @ a_beta.T], axis=-1)
        q, _ = np.linalg.qr(u)
        proj = np.eye(4) - q @ np.swapaxes(q, -1, -2)
        base[:, 6:10] = (proj @ z[..., None])[..., 0] * r[:, None]
        return base

    return BlowupChart(
        chain=chain, label=f"theta-theta{rho}",
        domain=((-1, 1), (-1, 1), (0, 2 * math.pi), (-6, 6), (-2, 2),
                (-2, 2), (-6, 6), (-6, 6), (-6, 6), (-6, 6)),
        taus=taus, ambient_map=ambient, equations=equations, form=form,
        conditions=conditions, crit_sampler=crit_sampler)


def _circle_point(th1, i: int, j: int) -> np.ndarray:
    """cos(th1) e_i + sin(th1) e_j in R^4; broadcasts over th1."""
    cos = np.cos(th1)
    out = np.zeros(cos.shape + (4,), dtype=cos.dtype)
    out[..., i] = cos
    out[..., j] = np.sin(th1)
    return out


def _sinc(t):
    """sin(t) / t, and its Taylor polynomial where |t| <= 1e-9."""
    big = np.abs(t) > 1e-9
    return np.where(big, np.sin(t) / np.where(big, t, 1.0), 1.0 - t * t / 6.0)


def _plane_matrix(model: LinearCotangent, plane_index: int) -> np.ndarray:
    """The generator that rotates plane `plane_index`, at its +-1 speed."""
    plane = model.planes[plane_index]
    speed = float(plane.speeds[plane_index])
    out = np.zeros((4, 4))
    i, j = plane.axes
    out[i][j] = -speed
    out[j][i] = speed
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
        g = m @ a_alpha.T + (beta * _sinc(arg))[..., None] * (w @ a_beta.T)
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
    full = chart.hessian(pt)
    eigs = np.linalg.eigvalsh(full)
    nonzero = eigs[_nonzero(eigs)]
    if frame == "orthonormal":
        det = float(np.prod(nonzero)) if len(nonzero) else 0.0
        sig = int((nonzero > 0).sum() - (nonzero < 0).sum())
        return TransversalHessian(
            det=det, signature=sig,
            min_abs_eig=float(np.abs(nonzero).min()) if len(nonzero)
            else 0.0,
            rank=len(nonzero))
    grads = chart.normal_equations(pt)
    idx = _pivot_columns(grads)
    sub = full[np.ix_(idx, idx)]
    eigs = np.linalg.eigvalsh(sub)
    det = float(np.prod(eigs))
    sig = int((eigs > 0).sum() - (eigs < 0).sum())
    return TransversalHessian(det=det, signature=sig,
                              min_abs_eig=float(np.abs(eigs).min()),
                              rank=len(nonzero))


def _nonzero(eigs) -> np.ndarray:
    """Mask of the eigenvalues above 1e-6 of the largest (at least 1),
    per Hessian: the spectrum transversal to Crit(psi_wk)."""
    scale = np.maximum(1.0, np.abs(eigs).max(axis=-1, keepdims=True))
    return np.abs(eigs) > 1e-6 * scale


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
    """L0 = vol G int_{Reg Omega_sigma} [int_{g_eta} a dX] / vol O_eta.
    For kappa = d the inner integral is a(eta, 0)."""
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
    about 5 points per axis, in one `probe_ratios` pass per chart, and
    must be constant to 1e-8 (the planar catalog cancels it exactly); the
    verified constant then carries the fine grid.  A ratio that varies,
    or one that is not finite, raises ModelError.  The fine grid is
    streamed in blocks of whole tau slices, BLOCK_POINTS points at most.
    """
    if not isinstance(model, LinearCotangent) or model.n != 2:
        raise ModelError("resolved_leading covers the planar rotation model")
    kappa = model.group.kappa
    taus, wtau = composite_gl(-TAU_RANGE, TAU_RANGE, 1, n_tau)
    svals, wsv = composite_gl(-4.2, 4.2, 1, n_s)
    # angle substitution theta = tan(phi): d theta = sec^2 phi d phi
    phis, wph = composite_gl(-math.pi / 2, math.pi / 2, 1, n_ang)
    thetas = np.tan(phis)
    probe = np.meshgrid(taus[::max(1, n_tau // 5)],
                        thetas[::max(1, n_ang // 5)],
                        svals[::max(1, n_s // 5)], indexing="ij")
    # partition weight v_rho^2 times the smooth Jacobian, both
    # 1/(1+theta^2), and d theta = sec^2 phi d phi
    w_theta = (1.0 / (1.0 + thetas ** 2)) ** 2 * wph / np.cos(phis) ** 2
    g0 = float(amplitude.g_factor(0.0))
    total_parts = []
    for chart in charts:
        probes = probe_ratios(chart, *(a.ravel() for a in probe))
        if not np.all(np.isfinite(probes)) or np.ptp(probes) > \
                1e-8 * max(1.0, abs(probes[0])):
            raise ModelError(
                f"chart {chart.label}: dCrit / |det Hess_perp|^(1/2) is not "
                "constant on the probe grid")
        exp_surv = chart.chain.jacobian_exponents()[0] - kappa
        w_tau = np.abs(taus) ** exp_surv * wtau
        blocks = []
        for part in row_blocks(n_tau, n_ang * n_s):
            coords = chart.crit_batch(taus[part], thetas, svals)
            vals = amplitude.eta_factor(coords.reshape(4, -1))
            blocks.append(np.einsum("tas,t,a,s->",
                                    vals.reshape(coords.shape[1:]),
                                    w_tau[part], w_theta, wsv))
        total_parts.append(float(pairwise_sum(blocks))
                           * (g0 * float(np.mean(probes))))
    return float(pairwise_sum(total_parts))


def probe_ratios(chart: BlowupChart, tau, theta, s) -> np.ndarray:
    """dCrit / |det Hess_perp|^(1/2) at crit_param(tau, theta, s) for 1-D
    arrays of one length m, in one pass: one stacked Hessian on Crit and
    one stacked eigvalsh, and the parametrization tangents by complex step
    (crit_param takes complex arguments) from one crit_param call, with
    one stacked determinant of their Gram matrices.  |det Hess_perp| is
    the product of the `_nonzero` eigenvalues, as in transversal_hessian's
    "orthonormal" frame."""
    pts = chart.crit_param(tau, theta, s)
    eigs = np.linalg.eigvalsh(chart.hessian(pts))
    nonzero = _nonzero(eigs)
    det = np.where(nonzero.any(axis=-1),
                   np.prod(np.where(nonzero, eigs, 1.0), axis=-1), 0.0)
    # (point, parameter, coordinate)
    tangents = _complex_step(
        lambda z: chart.crit_param(*np.moveaxis(z, -1, 0)),
        np.stack([tau, theta, s], axis=-1))
    gram = np.linalg.det(np.einsum("mki,mli->mkl", tangents, tangents))
    return np.sqrt(np.maximum(gram, 0.0)) / np.sqrt(np.abs(det))


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
    """The model's oracle I(mu) against (2 pi mu)^kappa L0 with the
    remainder fit.  The oracle runs first, so an amplitude it refuses
    costs no direct_leading work."""
    kappa = model.group.kappa
    vals = model.sweep_oracle(amplitude, mus, sigma)
    l0 = direct_leading(model, amplitude, sigma=sigma)
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
    # None at depth 2, where no leading-coefficient comparison runs
    l_resolved: Optional[float]
    l_direct: Optional[float]
    rel_gap: Optional[float]
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
    critical points and random points: (I)-(III) <=> grad psi_wk = 0.
    The gradients are taken in blocks of m points: for a chart of
    dimension d the (m, d, d) complex-step array of a block holds at most
    BLOCK_POINTS entries."""
    crit_pts = chart.crit_sampler(rng, n // 4)
    pts = np.concatenate([crit_pts,
                          uniform_points(chart.domain, rng,
                                         n - len(crit_pts))])
    grads = np.concatenate([chart.gradient(pts[blk]) for blk in
                            row_blocks(len(pts), len(chart.domain) ** 2)])
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
            codim = th.rank if codim is None else codim
        # sigma-grid including 0
        for tau0 in (0.0, 0.25, -0.6):
            pt = chart.crit_sampler(rng, 1)[0]
            pt[0] = tau0
            th = transversal_hessian(chart, pt, frame="adapted")
            mineig = min(mineig, th.min_abs_eig)
    l_res = l_dir = gap = alpha_min = None
    if chain.depth == 1:
        l_res = resolved_leading(model, charts, amplitude)
        l_dir = direct_leading(model, amplitude)
        gap = abs(l_res - l_dir) / max(abs(l_dir), 1e-300)
    else:
        alpha_min = float(np.min(alpha_grad_norm(model, chain)(
            uniform_points(ALPHA_DOMAIN, rng, 500))))
    return ResolutionCertificate(
        factorization_max_err=fmax, crit_witness_count=witnesses,
        crit_mismatches=mism, min_transversal_eig=float(mineig),
        codim=int(codim) if codim is not None else -1,
        l_resolved=l_res, l_direct=l_dir, rel_gap=gap,
        alpha_grad_min=alpha_min)
