"""Brute-force oracles for the localization and asymptotics pipelines.

Everything here is built from quadrature-level identities only (exact
Fourier reduction of the Lie-algebra integral, rotational symmetry, the
Bessel integral int_0^{2 pi} cos(c x sin g) dg = 2 pi J_0(c x), the
Catalan/Bessel kernel int_0^inf e^{-t - w/t} dt/t = 2 K_0(2 sqrt(w))), so
the values are independent of every localization formula and every
stationary-phase expansion they are used to test.

The two Bessel functions are numpy rules of their own, with no package
formula in them: `bessel_j0` is a power series, the midpoint rule for
the Bessel integral and Hankel's asymptotic series by range, and
`bessel_k0` is the log series or, after u = 2 sqrt(x) sinh(t/2) in
int_0^inf e^{-x cosh t} dt, one fixed trapezoid rule for all x >= 1.5.
The planar-rotation oracle's I(mu) is one composite Gauss pass over
graded panels in c = v / mu, shared by every mu of a sweep.  The package
needs numpy only.

Every quadrature sum here is an np.einsum over operands contiguous along
the summed axis (the planar-rotation pushforward table is stored one row
per Gauss node for that), so no oracle enters the BLAS thread pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .bumps import Bump, BumpHat
from .models import ModelError
from .quadrature import (composite_gl, cosine_panels, cosine_sum,
                         gauss_legendre, row_blocks)

# the pushforward integral's lower limit in t = ln x: int_0^{e^t} K_0 is
# below 3e-16 rho there
PF_T_MIN = -40.0


# ---------------------------------------------------------------------------
# Bessel rules

# J_0(x) = sum_k (-x^2/4)^k / (k!)^2 below J0_SERIES_MAX: the 26 terms
# leave 5e-21 at x = 8, where the largest term is 113, so round-off in the
# cancelling sum sets the error (1.4e-14 near x = 8)
J0_SERIES_MAX = 8.0
_J0_SERIES = tuple((-0.25) ** k / math.factorial(k) ** 2 for k in range(26))
# J_0(x) = (1/pi) int_0^pi cos(x sin th) dth on [J0_SERIES_MAX, J0_HANKEL_MIN)
# by the midpoint rule on J0_MIDPOINTS nodes.  The integrand is
# pi-periodic, so the rule's error is 2 |J_110(x)| < 1e-40; the nodes pair
# up as th and pi - th around th = pi/2, leaving 28 cosines a point.
J0_HANKEL_MIN = 30.0
J0_MIDPOINTS = 55
_J0_SIN = np.sin((np.arange(J0_MIDPOINTS // 2 + 1) + 0.5)
                 * (math.pi / J0_MIDPOINTS))
_J0_MID_W = np.full(_J0_SIN.size, 2.0 / J0_MIDPOINTS)
_J0_MID_W[-1] = 1.0 / J0_MIDPOINTS
# Hankel's series from J0_HANKEL_MIN on: J_0(x) = sqrt(2 / (pi x))
# (P cos(x - pi/4) + Q sin(x - pi/4)), P = sum_k (-1)^k a_2k / x^2k and
# Q = sum_k (-1)^k a_2k+1 / x^2k+1 with a_k = prod_{j<=k} (2j - 1)^2 / 8j.
# At x = 30 the 22 terms leave 1e-18.
_HANKEL = tuple(math.prod((2 * j - 1) ** 2 / (8.0 * j)
                          for j in range(1, k + 1)) for k in range(22))


def bessel_j0(x):
    """J_0(x), even, for an array (an array) or a float (a float): within
    1.4e-14 of 40-digit values on [0, 800] (the series' round-off near
    x = 8), and within 1.3e-15 from x = 8 on."""
    x = np.abs(np.asarray(x, dtype=float))
    flat = x.ravel()
    out = np.empty_like(flat)
    low = flat < J0_SERIES_MAX
    high = flat >= J0_HANKEL_MIN
    mid = ~(low | high)
    u = flat[low] ** 2
    acc = np.zeros_like(u)
    for c in reversed(_J0_SERIES):
        acc = acc * u + c
    out[low] = acc
    block = np.multiply.outer(flat[mid], _J0_SIN)
    out[mid] = np.einsum("ij,j->i", np.cos(block, out=block), _J0_MID_W)
    y = flat[high]
    r = -1.0 / (y * y)
    p = np.zeros_like(y)
    q = np.zeros_like(y)
    for k in range(len(_HANKEL) - 2, -1, -2):
        p = p * r + _HANKEL[k]
        q = q * r + _HANKEL[k + 1]
    phase = y - 0.25 * math.pi
    out[high] = np.sqrt(2.0 / (math.pi * y)) * (
        p * np.cos(phase) + q / y * np.sin(phase))
    return out.reshape(x.shape) if x.ndim else float(out[0])


# K_0(x) = -(ln(x/2) + gamma) I_0(x) + sum_k H_k (x^2/4)^k / (k!)^2 below
# K0_SERIES_MAX, I_0 = sum_k (x^2/4)^k / (k!)^2 and H_k the harmonic
# numbers; at x = 1.5 the 16 terms leave 1e-30
K0_SERIES_MAX = 1.5
EULER_GAMMA = 0.57721566490153286
_I0_SERIES = tuple(0.25 ** k / math.factorial(k) ** 2 for k in range(16))
_K0_SERIES = tuple(c * sum(1.0 / j for j in range(1, k + 1))
                   for k, c in enumerate(_I0_SERIES))
# from K0_SERIES_MAX on, u = 2 sqrt(x) sinh(t/2) turns K_0(x) = int_0^inf
# e^{-x cosh t} dt into e^{-x} int_0^inf e^{-u^2/2} (x + u^2/4)^{-1/2} du,
# a Gaussian times a function analytic for |Im u| < 2 sqrt(x): one
# trapezoid rule of step 0.4 on u_k = 0.4 k, k = 0..22 (the rest is below
# e^{-40}), serves every x >= 1.5
_K0_U = 0.4 * np.arange(23)
_K0_W = 0.4 * np.exp(-0.5 * _K0_U ** 2)
_K0_W[0] *= 0.5


def bessel_k0(x):
    """K_0(x) for x > 0, an array (an array) or a float (a float): within
    1e-15 relative of 40-digit values on [1e-300, 700].  A value depends
    on x alone, not on the array it comes in."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    low = flat < K0_SERIES_MAX
    xl = flat[low]
    u = xl * xl
    i0 = np.zeros_like(u)
    tail = np.zeros_like(u)
    for a, b in zip(reversed(_I0_SERIES), reversed(_K0_SERIES)):
        i0 = i0 * u + a
        tail = tail * u + b
    out[low] = tail - (np.log(0.5 * xl) + EULER_GAMMA) * i0
    xh = flat[~low]
    acc = np.zeros_like(xh)
    term = np.empty_like(xh)
    # w_k / sqrt(x + u_k^2 / 4), accumulated in place
    for uk, w in zip(_K0_U, _K0_W):
        np.sqrt(np.add(xh, 0.25 * uk * uk, out=term), out=term)
        acc += np.divide(w, term, out=term)
    out[~low] = np.exp(-xh) * acc
    return out.reshape(x.shape) if x.ndim else float(out[0])


def fresnel_leading(mu: float) -> complex:
    return math.sqrt(2 * math.pi * mu) * complex(
        math.cos(math.pi / 4), math.sin(math.pi / 4))


def sphere_bv_oracle(radius: float, y: float) -> complex:
    """int_{S^2_R} e^{i y z} dA by the 1-D height quadrature on 256 Gauss
    z-nodes, doubled while under 200 + 12 |y| R.  A rule above 4096 nodes
    (|y| R above 324) raises ModelError: capped there, the value drifts
    from 4 pi R sin(yR)/y (by 22.7 at R = 10, y = 1024)."""
    r = float(radius)
    need = 200 + 12 * abs(y) * r
    if need > 4096:
        raise ModelError(f"sphere_bv_oracle: |y| R = {abs(y) * r:g} needs "
                         f"more than its 4096 height nodes")
    nz = 256
    while nz < need:
        nz *= 2
    z, w = composite_gl(-r, r, 1, nz)
    ring = 2 * math.pi * np.ones_like(z) * r
    return complex(np.einsum("i,i->", ring * np.exp(1j * y * z), w))


def mc_pushforward_sphere(radius: float, n_samples: int, seed: int,
                          bins: int = 20):
    """Monte Carlo pushforward of the area measure under the height:
    uniform sphere points from normalized Gaussians, histogram of z, both
    by `row_blocks` (the draws of one pass, in turn)."""
    rng = np.random.default_rng(seed)
    hist = 0
    for blk in row_blocks(n_samples, 3):
        a, b, c = rng.normal(size=(blk.stop - blk.start, 3)).T
        z = c / np.sqrt(a * a + b * b + c * c) * radius
        block, edges = np.histogram(z, bins=bins, range=(-radius, radius))
        hist = hist + block
    area = 4 * math.pi * radius ** 2
    masses = hist / n_samples * area
    return masses, edges


# ---------------------------------------------------------------------------
# cotangent circle


def cotangent_regular_integral(factors: Tuple[Callable, Callable],
                               f_theta_p: Callable, bhat: BumpHat,
                               sigma: float,
                               mus: Sequence[float]) -> List[float]:
    """I_sigma(mu) = mu * int int f(theta, sigma + mu w) bhat(w) dtheta dw
    for each mu of a sweep, for f = F(theta) P(p) with factors = (F, P):
    mu (2 pi / 256 sum_theta F) sum_w P(sigma + mu w) bhat(w) dw on 256
    theta midpoints and 75 16-point Gauss panels of |w| <= 400.

    The X-integral of e^{i (p - sigma) X / mu} g(X) is exactly
    ghat((p - sigma)/mu); the substitution w = (p - sigma)/mu is exact.

    F is evaluated once and P once per mu, on its 1200 w-nodes.  First,
    F P must match f within 1e-14 of max |f| on every 16th theta midpoint
    times every 16th w-node of each mu, or ModelError.  The w rule is
    exactly mirrored and bhat even, so bhat is evaluated once, on 600
    nodes.
    """
    th = 2 * math.pi * (np.arange(256) + 0.5) / 256
    w, wts = composite_gl(-400.0, 400.0, 75)
    f_th = factors[0](th)
    f_p = np.array([factors[1](sigma + mu * w) for mu in mus])
    want = f_theta_p(*np.broadcast_arrays(
        th[::16, None, None], sigma + np.multiply.outer(mus, w[::16])))
    err = np.abs(np.multiply.outer(f_th[::16], f_p[:, ::16]) - want).max()
    if not err <= 1e-14 * np.abs(want).max():     # a NaN fails too
        raise ModelError(f"the declared (theta, p) factors miss by {err:.3g}")
    bw = bhat(w[w.size // 2:])
    bw_wts = np.concatenate([bw[::-1], bw]) * wts
    theta_sum = 2 * math.pi / 256 * float(np.einsum("i->", f_th))
    return [mu * theta_sum * float(np.einsum("i,i->", row, bw_wts))
            for mu, row in zip(mus, f_p)]


def cotangent_l_alpha(f_theta_p: Callable, x: float, p_lo: float,
                      p_hi: float, n_p: int = 800) -> complex:
    """L(X) of T*S^1 on 128 theta midpoints and n_p Gauss p-nodes."""
    n_theta = 128
    th = 2 * math.pi * (np.arange(n_theta) + 0.5) / n_theta
    p, wp = composite_gl(p_lo, p_hi, 1, n_p)
    tt, pp = np.meshgrid(th, p, indexing="ij")
    vals = np.asarray(f_theta_p(tt, pp), dtype=complex) * np.exp(1j * x * pp)
    inner = vals.sum(axis=0) * (2 * math.pi / n_theta)
    return complex(np.einsum("i,i->", inner, wp))


# ---------------------------------------------------------------------------
# LinearCotangent(2, rotation): Gaussian amplitude reductions


# I(mu) integrates v over [0, V_MAX]: past it K_0(2 v) v is below 1e-50
V_MAX = 60.0
# the edges of I(mu)'s 16-point Gauss panels in c = v / mu, the same for
# every mu: one panel on [0, 4^-8] for the c log c of K_0(2 mu c) mu c at
# 0, eight geometric x4 ones up to 1, sixteen equal ones on [1, 64] where
# G turns; `Linrot2Oracle.integral` adds geometric x1.5 ones past 64
C_EDGES_LOW = np.concatenate([[0.0], 4.0 ** -np.arange(8, 0, -1),
                              np.linspace(1.0, 64.0, 17)])
# the Gauss rules of G's J_0 side, c R < 800 needing at most 424 nodes.
# A rule for each multiple of 16 would save a quarter of the J_0 points
# but build 26 rules, 0.10-0.16 s in each process; these take 0.02 s.
J0_RULE_NODES = (54, 108, 216, 432)


@dataclass
class Linrot2Oracle:
    """Oscillatory-integral oracle for J(q, p) = q1 p2 - q2 p1 with
    amplitude e^{-|eta|^2} b(X).

    The X-integral is the exact Fourier transform bhat(J/mu); polar
    coordinates in the q- and p-planes reduce the angular integral to
    G(c) = int_0^{2 pi} bhat(c sin gamma) d gamma, and the radial Gaussian
    pair reduces to the Bessel kernel, leaving honest 1-D quadratures:

        I(mu) = 2 pi * int_0^inf G(v / mu) K_0(2 v) v dv,

    cut at v = V_MAX, one composite 16-point Gauss pass in c = v / mu over
    panels whose edges do not depend on mu (C_EDGES_LOW, then x1.5) up to
    V_MAX / mu, with `bessel_k0`: within 1e-12 relative of the Hankel
    closed form 8 pi^2 mu^2 int_0^R b(x) / (x^2 + 4 mu^2) dx for
    1e-4 <= mu <= 1e-2.  A sweep shares every panel but each mu's last,
    so G is evaluated once, on the union of the nodes (832 distinct c for
    the five mu of `singular --model linrot2`, not 3,392), and a mu's
    value is the same bits alone or in a sweep.

    G has two exact forms, each one vectorised pass over an array of c.
    The J_0 identity int_0^{2 pi} cos(c x sin gamma) d gamma =
    2 pi J_0(c x) gives

        G(c) = 4 pi int_0^R b(x) J_0(c x) dx,

    used for c < 2U with `bessel_j0` on one Gauss rule of [0, R], the
    first of J0_RULE_NODES with at least c R / 2 + 24 nodes: a Gauss rule
    resolves the oscillation of J_0(c x) over [0, R] once its nodes pass
    c R / 2, and the margin of 24 covers the poly bump (within 1.3e-13 of
    a rule of c R + 64 panels for orders 2 to 40).  u = c sin gamma gives
    G(c) = 4 int_0^c bhat(u) (c^2 - u^2)^(-1/2) du, used for c >= 2U on a
    bhat table over [0, U] built at the first such c, U = 400 / R.  That
    cut holds G to 1e-13 relative for poly bumps of order 6 and up (order
    5 leaves 5e-13, order 2 2.2e-7), so any other bump raises
    ModelError.

    L(X) = 2 int_0^inf cos(X v) rho(v) dv, the smeared limit's side, is
    the cosine transform of the pushforward density rho of J under the
    Gaussian: a table of rho built in one vectorised pass at the first
    l_alpha_batch call, summed by angle addition over its panels
    (`cosine_sum`, the helper BumpHat sums by), with no BumpHat call.
    """

    g_bump: Bump

    def __post_init__(self):
        if self.g_bump.kind != "poly" or self.g_bump.order < 6:
            raise ModelError("the planar rotation oracle needs a poly bump "
                             "of order 6 or more")
        self.bhat = BumpHat(self.g_bump)
        self.u_max = 400.0 / self.g_bump.radius

    @cached_property
    def _bhat_table(self):
        """(u, bhat(u) du) on [0, U], built at the first c >= 2U: the
        smeared limit, which reads only the pushforward, never builds
        it."""
        # bhat(u) turns like cos(u R) and U R = 400: 4 radians a panel
        u, du = composite_gl(0.0, self.u_max, int(400.0 / 4.0) + 16)
        return u, self.bhat(u) * du

    def angular(self, c):
        """G(c) = int_0^{2pi} bhat(c sin g) dg, even in c, for a float c
        (a float) or an array (an array)."""
        c = np.abs(np.asarray(c, dtype=float))
        flat = c.ravel()
        out = np.empty_like(flat)
        radius = self.g_bump.radius
        low = flat < 2.0 * self.u_max
        rule = np.searchsorted(J0_RULE_NODES, flat * radius / 2.0 + 24.0)
        for k, n in enumerate(J0_RULE_NODES):
            sel = low & (rule == k)
            if not sel.any():
                continue
            x, dx = composite_gl(0.0, radius, 1, n)
            block = bessel_j0(np.multiply.outer(flat[sel], x))
            out[sel] = 4.0 * math.pi * np.einsum(
                "ij,j->i", block, self.g_bump(x) * dx)
        if not low.all():
            u, bhat_du = self._bhat_table
            high = flat[~low]
            block = np.subtract.outer(high * high, u ** 2)
            np.sqrt(block, out=block)
            out[~low] = 4.0 * np.einsum("ij,j->i", 1.0 / block, bhat_du)
        return out.reshape(c.shape) if c.ndim else float(out[0])

    def integral(self, mu):
        """I(mu) for a float mu > 0 (a float) or for each mu of a
        sequence (a list), with one `angular` call: each mu takes the
        shared panels below V_MAX / mu and one last panel that ends
        there, so G is evaluated once on the union of their nodes."""
        mus = np.atleast_1d(np.asarray(mu, dtype=float))
        ends = V_MAX / mus
        top = math.ceil(math.log(max(ends.max() / 64.0, 1.0), 1.5))
        edges = np.append(C_EDGES_LOW,
                          [64.0 * 1.5 ** k for k in range(1, top + 1)])
        keep = np.searchsorted(edges, ends)       # edges below V_MAX / mu
        shared = int(keep.max()) - 1
        lo = np.append(edges[:shared], edges[keep - 1])
        hi = np.append(edges[1:shared + 1], ends)
        t, w = gauss_legendre(16)
        c = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * t
        dc = 0.5 * (hi - lo)[:, None] * w
        g = self.angular(c)
        out = []
        for i, (m, k) in enumerate(zip(mus, keep)):
            rows = np.append(np.arange(k - 1), shared + i)
            v = m * c[rows]
            out.append(2.0 * math.pi * float(np.einsum(
                "ij,ij->", g[rows], bessel_k0(2.0 * v) * v * m * dc[rows])))
        return out if np.ndim(mu) else out[0]

    def pushforward_density(self, v):
        """rho(v) = int delta(J - v) e^{-|eta|^2} d eta
                  = 4 pi int_0^40 K_0(2 sqrt(v^2 + x^2)) dx,
        for a float v (a float) or an array (an array), in one pass.

        x = e^t - (v^2/4) e^{-t} is x = |v| sinh(s) shifted by
        t = s + ln(|v|/2), so sqrt(v^2 + x^2) = e^t + (v^2/4) e^{-t} = r
        and dx = r dt: the integrand K_0(2r) r is smooth in t across
        x ~ |v| and stays so as v -> 0, where t = ln x.  t runs from
        ln(|v|/2) (x = 0), cut at PF_T_MIN (what it drops is below
        3e-16 rho), to x = 40, on max(2, ceil(span / 2.5)) Gauss
        panels: 2 to 18 per v, within 1e-14 of pi^2 e^{-2|v|} for
        0 <= v <= 25.  The v of a panel count go by `row_blocks`.
        """
        v = np.abs(np.asarray(v, dtype=float))
        with np.errstate(divide="ignore"):
            lo = np.maximum(np.log(0.5 * v), PF_T_MIN)
        span = np.log(20.0 + np.sqrt(400.0 + 0.25 * v * v)) - lo
        panels = np.maximum(2, np.ceil(span / 2.5)).astype(int)
        out = np.empty_like(v)
        # one rule per panel count, so each v gets the same rule whatever
        # array it comes in (counted with bincount: np.unique would import
        # numpy.ma, 10 ms, at its first call)
        v, lo, span, flat = v.ravel(), lo.ravel(), span.ravel(), out.ravel()
        for n in np.flatnonzero(np.bincount(panels.ravel())):
            u, du = composite_gl(0.0, 1.0, int(n))
            rows = np.flatnonzero(panels.ravel() == n)
            for blk in row_blocks(len(rows), len(u)):
                sel = rows[blk]
                t = lo[sel, None] + span[sel, None] * u
                e = np.exp(t)
                r = e + 0.25 * v[sel, None] ** 2 / e
                flat[sel] = np.einsum("ij,j->i", bessel_k0(2.0 * r) * r,
                                      du) * span[sel]
        return 4.0 * math.pi * out

    @cached_property
    def _pushforward_table(self):
        """rho dv on 960 16-point Gauss panels of [0, 20], folded for
        `cosine_sum`: they resolve X <= 600 (within 3e-14 of
        4 pi^2 / (4 + X^2)); past v = 20 rho is below 4e-17."""
        return cosine_panels(self.pushforward_density, 0.0, 20.0, 960)

    def l_alpha(self, x):
        """L(X), real as the pushforward is even: l_alpha_batch + 0j."""
        vals = self.l_alpha_batch(x)
        return (vals if np.ndim(x) else vals[0]) + 0j

    def l_alpha_batch(self, xs) -> np.ndarray:
        """L(X) over an array of X: twice the `cosine_sum` of the
        pushforward table, by angle addition over its 960 panels."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return 2.0 * cosine_sum(self._pushforward_table, xs)


_LINROT2_CACHE = {}


def linrot2_oracle(g_bump: Bump) -> "Linrot2Oracle":
    key = (g_bump.radius, g_bump.order, g_bump.kind, g_bump.flat)
    if key not in _LINROT2_CACHE:
        _LINROT2_CACHE[key] = Linrot2Oracle(g_bump=g_bump)
    return _LINROT2_CACHE[key]
