"""Brute-force oracles for the localization and asymptotics pipelines.

Everything here is built from quadrature-level identities only (exact
Fourier reduction of the Lie-algebra integral, rotational symmetry, the
Bessel integral int_0^{2 pi} cos(c x sin g) dg = 2 pi J_0(c x), the
Catalan/Bessel kernel int_0^inf e^{-t - w/t} dt/t = 2 K_0(2 sqrt(w))), so
the values are independent of every localization formula and every
stationary-phase expansion they are used to test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import j0, k0

from .bumps import Bump, BumpHat
from .models import ModelError
from .quadrature import composite_gl, gauss_legendre

# the pushforward integral's lower limit in t = ln x: int_0^{e^t} K_0 is
# below 3e-16 rho there
PF_T_MIN = -40.0


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
    return complex(np.dot(ring * np.exp(1j * y * z), w))


def mc_pushforward_sphere(radius: float, n_samples: int, seed: int,
                          bins: int = 20):
    """Monte Carlo pushforward of the area measure under the height:
    uniform sphere points from normalized Gaussians, histogram of z."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n_samples, 3))
    g /= np.linalg.norm(g, axis=1)[:, None]
    z = g[:, 2] * radius
    area = 4 * math.pi * radius ** 2
    hist, edges = np.histogram(z, bins=bins, range=(-radius, radius))
    masses = hist / n_samples * area
    return masses, edges


# ---------------------------------------------------------------------------
# cotangent circle


def cotangent_regular_integral(f_theta_p: Callable, bhat: BumpHat,
                               sigma: float,
                               mus: Sequence[float]) -> List[float]:
    """I_sigma(mu) = mu * int int f(theta, sigma + mu w) bhat(w) dtheta dw
    for each mu of a sweep, on 256 theta midpoints and 1200 Gauss w-nodes
    of |w| <= 400.

    The X-integral of e^{i (p - sigma) X / mu} g(X) is exactly
    ghat((p - sigma)/mu); the substitution w = (p - sigma)/mu is exact.
    """
    n_theta = 256
    th = 2 * math.pi * (np.arange(n_theta) + 0.5) / n_theta
    w, wts = composite_gl(-400.0, 400.0, 1, 1200)
    tt, ww = np.meshgrid(th, w, indexing="ij")
    # bhat depends on w alone: evaluate it once per sweep and broadcast
    bw = bhat(w)
    out = []
    for mu in mus:
        inner = (f_theta_p(tt, sigma + mu * ww) * bw).sum(axis=0) * (
            2 * math.pi / n_theta)
        out.append(mu * float(np.dot(inner, wts)))
    return out


def cotangent_l_alpha(f_theta_p: Callable, x: float, p_lo: float,
                      p_hi: float, n_p: int = 800) -> complex:
    """L(X) of T*S^1 on 128 theta midpoints and n_p Gauss p-nodes."""
    n_theta = 128
    th = 2 * math.pi * (np.arange(n_theta) + 0.5) / n_theta
    p, wp = composite_gl(p_lo, p_hi, 1, n_p)
    tt, pp = np.meshgrid(th, p, indexing="ij")
    vals = np.asarray(f_theta_p(tt, pp), dtype=complex) * np.exp(1j * x * pp)
    inner = vals.sum(axis=0) * (2 * math.pi / n_theta)
    return complex(np.dot(inner, wp))


# ---------------------------------------------------------------------------
# LinearCotangent(2, rotation): Gaussian amplitude reductions


@dataclass
class Linrot2Oracle:
    """Oscillatory-integral oracle for J(q, p) = q1 p2 - q2 p1 with
    amplitude e^{-|eta|^2} b(X).

    The X-integral is the exact Fourier transform bhat(J/mu); polar
    coordinates in the q- and p-planes reduce the angular integral to
    G(c) = int_0^{2 pi} bhat(c sin gamma) d gamma, and the radial Gaussian
    pair reduces to the Bessel kernel, leaving honest 1-D quadratures:

        I(mu) = 2 pi * int_0^inf G(v / mu) K_0(2 v) v dv.

    G has two exact forms, neither with a quad call.  The J_0 identity
    int_0^{2 pi} cos(c x sin gamma) d gamma = 2 pi J_0(c x) gives

        G(c) = 4 pi int_0^R b(x) J_0(c x) dx,

    used for c < 2U on BumpHat's rule sized from c R.  u = c sin gamma
    gives G(c) = 4 int_0^c bhat(u) (c^2 - u^2)^(-1/2) du, used for c >= 2U
    on a bhat table over [0, U] built once, U = 400 / R; past U the hat of
    the order-6 poly bump is below 1e-13 bhat(0).

    L(X) = 2 int_0^inf cos(X v) rho(v) dv, the smeared limit's side, is
    the cosine transform of the pushforward density rho of J under the
    Gaussian: a table of rho built in one vectorised pass at the first
    l_alpha_batch call, summed by angle addition over its panels, with no
    quad and no BumpHat call.
    """

    g_bump: Bump

    def __post_init__(self):
        self.bhat = BumpHat(self.g_bump)
        self.u_max = 400.0 / self.g_bump.radius
        # bhat(u) turns like cos(u R) and U R = 400: 4 radians a panel
        self._u, du = composite_gl(0.0, self.u_max, int(400.0 / 4.0) + 16)
        self._bhat_du = self.bhat(self._u) * du

    def angular(self, c: float) -> float:
        """G(c) = int_0^{2pi} bhat(c sin g) dg (even in c)."""
        c = abs(float(c))
        if c < 2.0 * self.u_max:
            x, fb = self.bhat.rule(c)
            return 2.0 * math.pi * float(np.dot(j0(c * x), fb))
        return 4.0 * float(np.dot(self._bhat_du,
                                  1.0 / np.sqrt(c * c - self._u ** 2)))

    def integral(self, mu: float) -> float:
        def f(v):
            return self.angular(v / mu) * k0(2.0 * v) * v
        cut = 30.0 * mu
        a = quad(f, 0.0, cut, limit=400)[0]
        b = quad(f, cut, max(10.0, 200.0 * mu), limit=400)[0]
        c = quad(f, max(10.0, 200.0 * mu), 60.0, limit=200)[0]
        return 2.0 * math.pi * (a + b + c)

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
        0 <= v <= 25.
        """
        v = np.abs(np.asarray(v, dtype=float))
        with np.errstate(divide="ignore"):
            lo = np.maximum(np.log(0.5 * v), PF_T_MIN)
        span = np.log(20.0 + np.sqrt(400.0 + 0.25 * v * v)) - lo
        panels = np.maximum(2, np.ceil(span / 2.5)).astype(int)
        out = np.empty_like(v)
        # one rule per panel count, so each v gets the same rule whatever
        # array it comes in
        for n in np.unique(panels):
            sel = panels == n
            u, du = composite_gl(0.0, 1.0, int(n))
            t = lo[sel, None] + span[sel, None] * u
            e = np.exp(t)
            r = e + 0.25 * v[sel, None] ** 2 / e
            out[sel] = np.einsum("ij,j->i", k0(2.0 * r) * r, du) * span[sel]
        return 4.0 * math.pi * out

    @cached_property
    def _pushforward_table(self):
        """rho dv on 16-point Gauss panels of [0, 20] as (panel midpoints
        c_p, positive half h t_j of the scaled Gauss nodes, even and odd
        parts of the weights in t_j): 960 panels resolve X <= 600 (within
        3e-14 of 4 pi^2 / (4 + X^2)); past v = 20 rho is below 4e-17."""
        panels = 960
        half = 10.0 / panels
        t, w = gauss_legendre(16)
        mid = (np.arange(panels) + 0.5) * (2.0 * half)
        wd = half * w * self.pushforward_density(mid[:, None] + half * t)
        # t_j = -t_{15-j}: cos(X h t) is even in t, sin(X h t) odd
        return (mid, half * t[8:], wd[:, 8:] + wd[:, 7::-1],
                wd[:, 8:] - wd[:, 7::-1])

    def l_alpha(self, x):
        """L(X), real as the pushforward is even: l_alpha_batch + 0j."""
        vals = self.l_alpha_batch(x)
        return (vals if np.ndim(x) else vals[0]) + 0j

    def l_alpha_batch(self, xs) -> np.ndarray:
        """L(X) over an array of X on the pushforward table.  Angle
        addition over its P equal panels,
        cos(X (c_p + h t_j)) = cos(X c_p) cos(X h t_j)
                               - sin(X c_p) sin(X h t_j),
        with the symmetric t_j folded, takes 2 (P + 8) transcendentals per
        X instead of 16 P."""
        mid, ht, even, odd = self._pushforward_table
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        arg = np.multiply.outer(xs, mid)
        sin_c = np.sin(arg)
        cos_c = np.cos(arg, out=arg)
        arg = np.multiply.outer(xs, ht)
        return 2.0 * (np.einsum("ij,ij->i", np.cos(arg), cos_c @ even)
                      - np.einsum("ij,ij->i", np.sin(arg), sin_c @ odd))


_LINROT2_CACHE = {}


def linrot2_oracle(g_bump: Bump) -> "Linrot2Oracle":
    key = (g_bump.radius, g_bump.order, g_bump.kind, g_bump.flat)
    if key not in _LINROT2_CACHE:
        _LINROT2_CACHE[key] = Linrot2Oracle(g_bump=g_bump)
    return _LINROT2_CACHE[key]
