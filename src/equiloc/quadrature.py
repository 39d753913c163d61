"""Oscillation-aware quadrature engine.

The 1-D driver splits the interval at stationary points, sizes panels by
accumulated phase variation, and switches from Gauss panels to a
Filon-type rule (phase substitution + Chebyshev amplitude interpolation
against exact oscillatory moments) once a monotone stretch carries more
than FILON_THRESHOLD radians.  Cells are independent work items and are
reduced with a fixed pairwise order so results are run-to-run identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

FILON_THRESHOLD = 2.0 * math.pi  # per-cell phase variation before Filon
FILON_CHUNK = 256.0 * math.pi     # phase length of one Filon chunk
FILON_DEGREE = 10
TENSOR_MIN_PANELS = 6             # minimum panels per tensor-rule axis


class BudgetExceeded(RuntimeError):
    pass


@dataclass
class QuadResult:
    value: complex
    error: float
    converged: bool
    points: int = 0


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1].

    One cached pair per n is shared by every caller, so both arrays are
    read-only: an in-place write raises instead of corrupting the rule.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def composite_gl(a: float, b: float, panels: int, n: int = 16):
    """(nodes, weights) of the n-point Gauss rule on each of `panels`
    equal panels of [a, b], panel by panel."""
    x, w = gauss_legendre(n)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def pairwise_sum(values: Sequence[complex]) -> complex:
    """Deterministic pairwise reduction."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(vals[i] + vals[i + 1])
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def panel_gauss(f: Callable, a: float, b: float, panels: int,
                n: int = 16) -> complex:
    """Composite Gauss-Legendre with vectorized evaluation."""
    _, w = gauss_legendre(n)
    pts, _ = composite_gl(a, b, panels, n)
    half = 0.5 * np.diff(np.linspace(a, b, panels + 1))
    vals = np.asarray(f(pts), dtype=complex).reshape(panels, n)
    cell = (vals * w[None, :]).sum(axis=1) * half
    return pairwise_sum(list(cell))


def _phase_table(phase: Callable, a: float, b: float, mu: float,
                 base: int = 513, cap: int = 2_000_000):
    s = np.linspace(a, b, base)
    psi = np.asarray(phase(s), dtype=float)
    var = float(np.abs(np.diff(psi)).sum()) / mu
    n = int(min(cap, max(base, 8 * var / math.pi + 64)))
    if n > base:
        s = np.linspace(a, b, n)
        psi = np.asarray(phase(s), dtype=float)
    return s, psi


def _cheb_nodes(n: int):
    k = np.arange(n + 1)
    return np.cos(math.pi * k / n)[::-1]


def _osc_moments(omega: float, deg: int):
    """I_k = int_{-1}^{1} x^k e^{i omega x} dx via the stable forward
    recurrence (valid because chunks guarantee omega >> deg)."""
    out = np.empty(deg + 1, dtype=complex)
    eio = np.exp(1j * omega)
    emo = np.exp(-1j * omega)
    io = 1j * omega
    out[0] = (eio - emo) / io
    for k in range(1, deg + 1):
        out[k] = (eio - (-1) ** k * emo) / io - (k / io) * out[k - 1]
    return out


def _filon_chunk(amp: Callable, s_nodes: np.ndarray, t_lo: float,
                 t_hi: float, t_nodes: np.ndarray, dpsi_nodes: np.ndarray,
                 mu: float) -> complex:
    """integral over t in [t_lo, t_hi] of e^{it/mu} g(t) dt with
    g = amp(s(t))/psi'(s(t)), interpolated at Chebyshev t-nodes."""
    g = np.asarray(amp(s_nodes), dtype=complex) / dpsi_nodes
    half = 0.5 * (t_hi - t_lo)
    mid = 0.5 * (t_hi + t_lo)
    deg = len(t_nodes) - 1
    # monomial coefficients of the interpolant in x = (t - mid)/half
    x = (t_nodes - mid) / half
    V = np.vander(x, deg + 1, increasing=True)
    coef = np.linalg.solve(V, g)
    mom = _osc_moments(half / mu, deg)
    return np.exp(1j * mid / mu) * half * np.dot(coef, mom)


def oscillatory_quad_1d(amp: Callable, phase: Callable, a: float, b: float,
                        mu: float, max_points: int = 6_000_000
                        ) -> QuadResult:
    """integral_a^b e^{i phase(s)/mu} amp(s) ds."""
    if b <= a:
        return QuadResult(0.0, 0.0, True, 0)
    v1, n1 = _osc_pass(amp, phase, a, b, mu, refine=1, max_points=max_points)
    v2, n2 = _osc_pass(amp, phase, a, b, mu, refine=2, max_points=max_points)
    err = abs(v2 - v1)
    return QuadResult(v2, err, err <= 1e-7 * (1.0 + abs(v2)), n1 + n2)


_GUARD = 32.0 * math.pi  # phase radians kept on Gauss panels around a
                         # stationary point (1/psi' is singular there)


def _osc_pass(amp, phase, a, b, mu, refine: int, max_points: int):
    s, psi = _phase_table(phase, a, b, mu)
    dpsi = np.gradient(psi, s)
    cum = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(psi)))]) / mu
    total = float(cum[-1])
    # variation-coordinates of stationary points (sign changes of psi')
    stat_v = [float(cum[i + 1])
              for i in np.nonzero(np.diff(np.sign(dpsi)) != 0)[0]]
    gl_zones = []
    for v in stat_v:
        gl_zones.append((max(0.0, v - _GUARD), min(total, v + _GUARD)))
    gl_zones.sort()
    merged = []
    for z in gl_zones:
        if merged and z[0] <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], z[1]))
        else:
            merged.append(z)
    # build the alternating zone list over [0, total]
    zones = []
    cursor = 0.0
    for z0, z1 in merged:
        if z0 > cursor:
            zones.append((cursor, z0, "mono"))
        zones.append((z0, z1, "gl"))
        cursor = z1
    if cursor < total:
        zones.append((cursor, total, "mono"))
    if not zones:
        zones = [(0.0, total, "gl")]

    pieces = []
    npts = 0
    # snap zone boundaries to table indices so the pieces tile [a, b]
    idx_zones = []
    prev_idx = 0
    for v0, v1, kind in zones:
        i1 = int(np.searchsorted(cum, v1))
        i1 = min(max(i1, prev_idx + 1), len(s) - 1)
        if kind == zones[-1][2] and (v0, v1, kind) == zones[-1]:
            i1 = len(s) - 1
        idx_zones.append((prev_idx, i1, kind))
        prev_idx = i1
    if idx_zones:
        i0, i1, kind = idx_zones[-1]
        idx_zones[-1] = (i0, len(s) - 1, kind)

    for i0, i1, kind in idx_zones:
        if i1 <= i0:
            continue
        lo, hi = float(s[i0]), float(s[i1])
        var = float(cum[i1] - cum[i0])
        if kind == "gl" or var <= max(FILON_THRESHOLD, _GUARD) * refine:
            panels = max(1, int(var / math.pi) + 1) * refine
            npts += panels * 16
            if npts > max_points:
                raise BudgetExceeded("oscillatory quadrature budget")
            pieces.append(panel_gauss(
                lambda x: np.asarray(amp(x)) *
                np.exp(1j * np.asarray(phase(x)) / mu), lo, hi, panels))
        else:
            pieces.append(_filon_zone(amp, s, psi, dpsi, i0, i1, mu,
                                      refine))
            npts += int(var / FILON_CHUNK + 1) * (FILON_DEGREE + 3)
    return pairwise_sum(pieces), npts


def _filon_zone(amp, s, psi, dpsi, i0, i1, mu, refine) -> complex:
    ss = s[i0:i1 + 1]       # increasing in s
    pp = psi[i0:i1 + 1]
    dd = dpsi[i0:i1 + 1]
    if len(ss) < 4:
        return panel_gauss(lambda x: np.asarray(amp(x)) *
                           np.exp(1j * np.interp(x, s, psi) / mu),
                           float(ss[0]), float(ss[-1]), 4)
    decreasing = pp[0] > pp[-1]
    tt = pp[::-1] if decreasing else pp       # increasing in t
    st = ss[::-1] if decreasing else ss
    t_lo, t_hi = float(tt[0]), float(tt[-1])
    nchunk = max(1, int((t_hi - t_lo) / (mu * FILON_CHUNK / refine)) + 1)
    edges = np.linspace(t_lo, t_hi, nchunk + 1)
    deg = FILON_DEGREE + 2 * (refine - 1)
    xc = _cheb_nodes(deg)
    vals = []
    for c0, c1 in zip(edges[:-1], edges[1:]):
        tn = 0.5 * (c0 + c1) + 0.5 * (c1 - c0) * xc
        sn = np.interp(tn, tt, st)
        dn = np.interp(sn, ss, dd)
        pn = np.interp(sn, ss, pp)
        sn = sn - (pn - tn) / dn           # Newton polish on the table
        dn = np.abs(np.interp(sn, ss, dd))
        vals.append(_filon_chunk(amp, sn, c0, c1, tn, dn, mu))
    return pairwise_sum(vals)


def tensor_oscillatory(amp: Callable, phase: Callable,
                       domain: Sequence, mu: float,
                       max_points: int = 4_000_000) -> QuadResult:
    """Tensor-product rule for 2 <= dim <= 3: grid sized per axis by the
    phase variation so each cell stays below the Gauss threshold."""
    dims = len(domain)
    probe = [np.linspace(lo, hi, 9) for lo, hi in domain]
    mesh = np.meshgrid(*probe, indexing="ij")
    flat = np.stack([m.ravel() for m in mesh])
    counts = []
    for ax in range(dims):
        h = (domain[ax][1] - domain[ax][0]) / 8.0
        shifted = flat.copy()
        shifted[ax] += h * 1e-4
        dps = np.abs(np.asarray(phase(shifted)) - np.asarray(phase(flat))) \
            / (h * 1e-4)
        gmax = float(np.max(dps))
        span = domain[ax][1] - domain[ax][0]
        counts.append(max(TENSOR_MIN_PANELS,
                          int(gmax * span / (mu * math.pi)) + 1))
    n = 8
    total = math.prod(c * n for c in counts)
    if total > max_points:
        raise BudgetExceeded(
            f"tensor oscillatory grid of {total} points over budget")
    axes_pts, axes_w = zip(*(composite_gl(lo, hi, c, n)
                             for (lo, hi), c in zip(domain, counts)))
    mesh = np.meshgrid(*axes_pts, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh])
    wts = np.ones(pts.shape[1])
    for ax in range(dims):
        mw = np.meshgrid(*[axes_w[i] if i == ax else np.ones_like(axes_w[i])
                           for i in range(dims)], indexing="ij")[ax]
        wts = wts * mw.ravel()
    vals = np.asarray(amp(pts), dtype=complex) * np.exp(
        1j * np.asarray(phase(pts)) / mu)
    value = complex(np.dot(vals, wts))
    return QuadResult(value, abs(value) * 1e-6, True, pts.shape[1])
