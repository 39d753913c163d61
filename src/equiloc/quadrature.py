"""Oscillation-aware quadrature engine.

The 1-D driver builds the phase table once per integral, splits it into
zones at stationary points and sizes panels by accumulated phase
variation; both refine passes read that table.  It holds psi alone (16
MB at its 2,000,000-point cap): the points, psi' and the variation are
recomputed where read, to the bit of np.linspace, np.gradient and
np.cumsum.  A monotone zone carrying more than _GUARD * refine radians
(32 pi, then 64 pi) switches from Gauss panels to a Filon-type rule
(phase substitution + Chebyshev amplitude interpolation against exact
oscillatory moments), and one weight vector serves all its chunks.
Cells are reduced in a fixed pairwise order, so results are run-to-run
identical.  One integral uses at most MAX_POINTS points, over both refine
passes, Gauss panels and Filon chunks alike.

The 2-D and 3-D tensor rule streams its grid in blocks of BLOCK_POINTS
points, whole rows along the last axis, so it holds one block and one axis
at a time; its budget still counts every grid point.  BLOCK_POINTS is the
block of every streamed grid in the package, and `row_blocks` cuts them.

A cosine transform on equal Gauss panels (`cosine_panels`,
`cosine_sum`) is summed by angle addition over the panels.

Filon chunks, tensor blocks and cosine sums are reduced by np.einsum
without optimize=, on the calling thread: no sum enters the BLAS thread
pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

FILON_CHUNK = 256.0 * math.pi     # phase length of one Filon chunk
FILON_DEGREE = 10
TENSOR_MIN_PANELS = 6             # minimum panels per tensor-rule axis
PANEL_NODES = 16                  # Gauss nodes per panel of panel_gauss
MAX_POINTS = 6_000_000            # point budget of one oscillatory integral
BLOCK_POINTS = 1 << 14            # grid points per block of a streamed sum
GL_NEWTON_STEPS = 10              # root passes before gauss_legendre raises


class BudgetExceeded(RuntimeError):
    pass


def row_blocks(rows: int, width: int):
    """Slices of range(rows) of at most BLOCK_POINTS entries (at least one
    row) of rows `width` entries long; zero rows give one empty slice."""
    step = max(1, BLOCK_POINTS // width)
    return (slice(r, min(r + step, rows))
            for r in range(0, max(rows, 1), step))


@dataclass
class QuadResult:
    """`value` of an oscillatory integral with a conservative `error`.

    In the 1-D engine `value` is the refine-2 pass and `error` is
    |v(refine 2) - v(refine 1)|, the deviation of the coarse pass; the
    returned value is usually far more accurate (Fresnel sweep: error
    7.6e-8 to 7.2e-7 against a true error of 1.0e-9 to 1.9e-8).
    `converged` is error <= 1e-7 (1 + |value|), so it can read False on an
    accurate value.  The tensor rule sets the nominal error
    1e-6 |value|, not an estimate, and always reports converged; its
    `points` is the full grid count, although the grid is streamed in row
    blocks and never held whole."""
    value: complex
    error: float
    converged: bool
    points: int = 0


def _legendre_and_derivative(n: int, x):
    """P_n(x) and P_n'(x) by the three-term recurrence
    (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}.  Its integer
    coefficients are exact; the rounded ratios (2j + 1)/(j + 1) would bias
    every Gauss weight the same way (Sum w - 2 = 7e-15 at n = 4096)."""
    p_prev, p = np.ones_like(x), x
    for j in range(1, n):
        p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], ascending.

    The (n + 1) // 2 zeros of P_n in [0, 1) are found at once, as one
    vector, from Tricomi's guess
    x_k = (1 - (n - 1)/8n^3) cos(pi (4k - 1)/(4n + 2)) (the middle root
    of odd n is 0 exactly).  A pass runs the three-term recurrence once,
    for P = P_n and P'; Legendre's equation gives
    P'' = (2x P' - n(n+1) P)/(1 - x^2) and
    P''' = (4x P'' - (n(n+1) - 2) P')/(1 - x^2), and the step is the
    series reversion of P(x - step) = 0 to third order,
    u + A u^2 + (2A^2 - B) u^3 with u = P/P', A = P''/2P', B = P'''/6P'.
    Once the largest step is at round-off, 4 eps, the rule returns
    x - step, and the weights 2/((1 - x^2) P'(x)^2) take P' corrected by
    P'' step: two passes for n >= 400, three below, where Newton took
    four and five.  The rule costs O(n^2) flops against the O(n^3)
    eigensolve of numpy's `leggauss` (n = 2048: 0.02 s against 0.7 s on
    a 2-core VM).  GL_NEWTON_STEPS passes without a round-off step raise
    instead of returning an unconverged rule.  Nodes and weights are
    mirrored, so the rule is exactly symmetric.  Against `leggauss`
    (n <= 2048) the nodes agree to 1.1e-16 and the weights to 1.1e-13
    absolute; `leggauss` is the less accurate of the two (largest
    relative weight error against 40-digit references at n = 400:
    2.8e-12 here, 5.7e-10 there).

    One cached pair per n is shared by every caller, so both arrays are
    read-only: an in-place write raises instead of corrupting the rule.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)) * np.cos(
        math.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[-1] = 0.0
    nn = n * (n + 1)
    for _ in range(GL_NEWTON_STEPS):
        p, dp = _legendre_and_derivative(n, x)
        one = (1.0 - x) * (1.0 + x)
        d2p = (2.0 * x * dp - nn * p) / one
        d3p = (4.0 * x * d2p - (nn - 2) * dp) / one
        u = p / dp
        a = d2p / (2.0 * dp)
        step = u * (1.0 + u * (a + u * (2.0 * a * a - d3p / (6.0 * dp))))
        x = x - step
        if np.max(np.abs(step)) <= 4.0 * np.finfo(float).eps:
            dp = dp - d2p * step
            break
    else:
        raise RuntimeError(f"gauss_legendre({n}): the root iteration did "
                           f"not converge in {GL_NEWTON_STEPS} passes (last "
                           f"step {np.max(np.abs(step)):.1e})")
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    half = n // 2
    x = np.concatenate([-x[:half], x[::-1]])
    w = np.concatenate([w[:half], w[::-1]])
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def composite_gl(a: float, b: float, panels: int, n: int = 16):
    """(nodes, weights) of the n-point Gauss rule on each of `panels`
    equal panels of [a, b], panel by panel.  On [-b, b] the rule is
    exactly mirrored (nodes[::-1] == -nodes, weights[::-1] == weights):
    linspace's edges are mirrored only to round-off, so they are
    antisymmetrized first."""
    x, w = gauss_legendre(n)
    edges = np.linspace(a, b, panels + 1)
    if a == -b:
        edges = 0.5 * (edges - edges[::-1])
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def cosine_panels(f: Callable, a: float, b: float, panels: int):
    """f(x) dx on PANEL_NODES-point Gauss panels of [a, b], folded for
    `cosine_sum`: (panel midpoints c_p, the positive half h t_j of the
    scaled nodes, the even and odd parts in t_j of the weights).  The
    weight parts are (PANEL_NODES / 2, panels) C-order arrays, one row per
    t_j, so the sums over panels run along contiguous rows.  f is called
    once, on a (panels, PANEL_NODES) array of nodes."""
    t, w = gauss_legendre(PANEL_NODES)
    half = 0.5 * (b - a) / panels
    mid = a + (np.arange(panels) + 0.5) * (2.0 * half)
    wd = half * w * f(mid[:, None] + half * t)
    # t_j = -t_{15-j}: cos(X h t) is even in t, sin(X h t) odd
    k = PANEL_NODES // 2
    return (mid, half * t[k:], (wd[:, k:] + wd[:, k - 1::-1]).T.copy(),
            (wd[:, k:] - wd[:, k - 1::-1]).T.copy())


def cosine_sum(table, xs) -> np.ndarray:
    """sum f(x) cos(X x) dx over a `cosine_panels` table, for each X of
    the 1-D array xs, by angle addition over its P equal panels,
    cos(X (c_p + h t_j)) = cos(X c_p) cos(X h t_j)
                           - sin(X c_p) sin(X h t_j):
    2 (P + PANEL_NODES / 2) transcendentals per X instead of
    PANEL_NODES P.  X is taken in `row_blocks` of P."""
    mid, ht, even, odd = table
    out = np.empty(len(xs))
    for blk in row_blocks(len(xs), len(mid)):
        arg = np.multiply.outer(xs[blk], mid)
        sin_c = np.sin(arg)
        cos_c = np.cos(arg, out=arg)
        arg = np.multiply.outer(xs[blk], ht)
        out[blk] = (np.einsum("ij,ij->i", np.cos(arg),
                              np.einsum("ip,jp->ij", cos_c, even))
                    - np.einsum("ij,ij->i", np.sin(arg),
                                np.einsum("ip,jp->ij", sin_c, odd)))
    return out


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


def panel_gauss(f: Callable, a: float, b: float, panels: int) -> complex:
    """Composite PANEL_NODES-point Gauss-Legendre with vectorized
    evaluation."""
    _, w = gauss_legendre(PANEL_NODES)
    pts, _ = composite_gl(a, b, panels, PANEL_NODES)
    half = 0.5 * np.diff(np.linspace(a, b, panels + 1))
    vals = np.asarray(f(pts), dtype=complex).reshape(panels, PANEL_NODES)
    cell = (vals * w[None, :]).sum(axis=1) * half
    return pairwise_sum(list(cell))


def _grid(a, b, n, k):
    """np.linspace(a, b, n)[k]: its k h + a, and b at k = n - 1."""
    return np.where(k == n - 1, b, k * ((b - a) / (n - 1)) + a)


def _phase_table(phase: Callable, a: float, b: float, mu: float):
    base, cap = 513, 2_000_000
    psi = np.asarray(phase(np.linspace(a, b, base)), dtype=float)
    var = float(np.abs(np.diff(psi)).sum()) / mu
    n = int(min(cap, max(base, 8 * var / math.pi + 64)))
    if n > base:
        psi = np.empty(n)
        for blk in row_blocks(n, 1):
            psi[blk] = phase(_grid(a, b, n, np.arange(blk.start, blk.stop)))
    return psi


def _dpsi(psi, h, k):
    """np.gradient(psi, h)[k]: central differences, one-sided at the ends."""
    lo, hi = np.maximum(k - 1, 0), np.minimum(k + 1, len(psi) - 1)
    return (psi[hi] - psi[lo]) / np.where(hi - lo == 2, 2.0 * h, h)


def _cum(psi, j, carry):
    """The variation sum_{0 < m <= i} |psi[m] - psi[m - 1]| on table block
    j, summed on from `carry` in np.cumsum's (sequential) order."""
    k0 = j * BLOCK_POINTS
    d = np.diff(psi[max(k0 - 1, 0):k0 + BLOCK_POINTS],
                prepend=psi[:1] if k0 == 0 else ())
    return np.cumsum(np.abs(np.append(carry, d)))[1:]


def _cum_search(block, last, n, x):
    """np.searchsorted(cum, x), cum n points long, block j of it block(j)
    and ending in last[j]."""
    j = int(np.searchsorted(last, x))
    return n if j == len(last) else \
        j * BLOCK_POINTS + int(np.searchsorted(block(j), x))


def _grid_cell(a, b, n, lo, hi, x):
    """lo - 1 + searchsorted(linspace(a, b, n)[lo:hi + 1], x, "right"),
    estimated, then moved until the grid points bracket x."""
    k = np.nan_to_num(np.clip(np.floor((x - a) / ((b - a) / (n - 1))),
                              lo - 1, hi), nan=hi).astype(int)
    while np.any(up := (k < hi) & (_grid(a, b, n, k + 1) <= x)):
        k = k + up
    while np.any(down := (k >= lo) & (_grid(a, b, n, k) > x)):
        k = k - down
    return k


def _interp(x, j, lo, hi, xp, fp):
    """np.interp(x, xp[lo:hi + 1], fp[lo:hi + 1]), xp and fp read at cell
    ends, given the cells j = lo - 1 + searchsorted(xp[lo:hi + 1], x,
    "right"): interp's own formula, f0 on a node, the end values outside
    and NaN at NaN."""
    c = np.clip(j, lo, hi - 1)
    x0, f0, f1 = xp(c), fp(c), fp(c + 1)
    with np.errstate(divide="ignore", invalid="ignore"):    # masked below
        y = np.where(x == x0, f0,
                     (f1 - f0) / (xp(c + 1) - x0) * (x - x0) + f0)
    y = np.where(j < lo, fp(lo), np.where(j >= hi, fp(hi), y))
    return np.where(np.isnan(x), x, y)


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


def oscillatory_quad_1d(amp: Callable, phase: Callable, a: float, b: float,
                        mu: float) -> QuadResult:
    """integral_a^b e^{i phase(s)/mu} amp(s) ds by two refine passes over
    one zone table (QuadResult says what error and converged mean); the
    two passes share the MAX_POINTS budget."""
    if b <= a:
        return QuadResult(0.0, 0.0, True, 0)
    table = _zone_table(phase, a, b, mu)
    v1, n1 = _osc_pass(amp, phase, mu, table, 1, MAX_POINTS)
    v2, n2 = _osc_pass(amp, phase, mu, table, 2, MAX_POINTS - n1)
    err = abs(v2 - v1)
    return QuadResult(v2, err, err <= 1e-7 * (1.0 + abs(v2)), n1 + n2)


_GUARD = 32.0 * math.pi  # phase radians kept on Gauss panels around a
                         # stationary point (1/psi' is singular there)


def _zone_table(phase, a, b, mu):
    """(a, b, psi, carries, zones) of [a, b]: the phase table, the
    accumulated phase variation before each table block and at the end,
    and zones (i0, i1, kind, variation / mu) that tile the table indices
    0..n-1.  A "gl" zone holds every table point within _GUARD radians of a
    stationary point (sign change of psi'); the "mono" zones between them
    are monotone in psi.  psi' and the variation are read by block."""
    psi = _phase_table(phase, a, b, mu)
    last = len(psi) - 1
    h = (b - a) / last          # the table's points are a uniform linspace
    flips, carries = [], [0.0]
    for blk in row_blocks(len(psi), 1):
        k = np.arange(blk.start, min(blk.stop + 1, len(psi)))
        # np.sign, not signbit: an exact zero of psi' borders a sign change
        flips.append(blk.start + np.flatnonzero(np.diff(np.sign(
            _dpsi(psi, h, k)))))
        carries.append(_cum(psi, len(carries) - 1, carries[-1])[-1])
    carries = np.array(carries)
    # cum / mu on a block, re-summed from its carry; guards and zone ends
    # re-read a few blocks, so the last 8 are kept
    block = lru_cache(maxsize=8)(lambda j: _cum(psi, j, carries[j]) / mu)
    cum_at = lambda i: block(i // BLOCK_POINTS)[i % BLOCK_POINTS]
    ends = [(0, None)]      # (end index, kind) of each zone in turn
    for i in np.concatenate(flips).tolist():
        stat = cum_at(i + 1)
        lo, hi = (_cum_search(block, carries[1:] / mu, len(psi), x)
                  for x in (stat - _GUARD, stat + _GUARD))
        end = ends[-1][0]
        if ends[-1][1] == "gl" and lo <= end:   # overlaps that guard
            ends[-1] = (max(end, min(hi, last)), "gl")
            continue
        if lo > end:
            ends.append((lo, "mono"))
        ends.append((min(hi, last), "gl"))
    if ends[-1][0] < last:
        ends.append((last, "mono"))
    zones = [(i0, i1, kind, float(cum_at(i1) - cum_at(i0)))
             for (i0, _), (i1, kind) in zip(ends, ends[1:]) if i1 > i0]
    return a, b, psi, carries, zones


def _osc_pass(amp, phase, mu, table, refine: int, budget: int):
    """(value, points) of one refine pass; each zone, Gauss or Filon, is
    charged against `budget` before its work is done."""
    a, b, psi, carries, zones = table
    pieces, npts = [], 0
    for i0, i1, kind, var in zones:
        lo, hi = (float(_grid(a, b, len(psi), i)) for i in (i0, i1))
        if kind == "gl" or var <= _GUARD * refine:
            panels = max(1, int(var / math.pi) + 1) * refine
            npts += panels * PANEL_NODES
            work = lambda: panel_gauss(
                lambda x: np.asarray(amp(x)) *
                np.exp(1j * np.asarray(phase(x)) / mu), lo, hi, panels)
        else:
            nchunk, nodes = _filon_plan(i1 - i0 + 1, abs(psi[i1] - psi[i0]),
                                        mu, refine)
            npts += nchunk * nodes
            work = lambda: _filon_zone(amp, a, b, psi, i0, i1, mu, refine)
        if npts > budget:
            raise BudgetExceeded("oscillatory quadrature budget")
        pieces.append(work())
    return pairwise_sum(pieces), npts


def _filon_plan(size: int, span: float, mu: float, refine: int):
    """(chunks, amp points per chunk) of a monotone zone of `size` table
    points spanning `span` radians of phase: Filon chunks of
    FILON_DEGREE + 2 (refine - 1) + 1 Chebyshev nodes, or 4 Gauss panels
    when the zone has under 4 table points."""
    if size < 4:
        return 4, PANEL_NODES
    nchunk = max(1, int(span / (mu * FILON_CHUNK / refine)) + 1)
    return nchunk, FILON_DEGREE + 2 * (refine - 1) + 1


def _filon_zone(amp, a, b, psi, i0, i1, mu, refine) -> complex:
    """Filon rule on a monotone zone: in t = psi(s) the integrand is
    e^{it/mu} g(t), g = amp(s(t))/|psi'(s(t))|.  Every chunk has width
    2*half and the same Chebyshev nodes x, so one weight vector
    w = V(x)^-T m(half/mu) against the exact moments m serves them all:
    chunk c contributes e^{i mid_c/mu} half (g_c . w).  The nodes s(t)
    are table interpolations (`_interp`) with one Newton step."""
    n = len(psi)
    grid = lambda k: _grid(a, b, n, k)
    dpsi = lambda k: _dpsi(psi, (b - a) / (n - 1), k)
    pp = psi[i0:i1 + 1]       # s increases along the table
    rev = pp[0] > pp[-1]
    tt = pp[::-1] if rev else pp      # increasing in t
    t_lo, t_hi = float(tt[0]), float(tt[-1])
    nchunk, nodes = _filon_plan(len(pp), t_hi - t_lo, mu, refine)
    if len(pp) < 4:
        return panel_gauss(lambda x: np.asarray(amp(x)) * np.exp(
            1j * _interp(x, _grid_cell(a, b, n, 0, n - 1, x), 0, n - 1,
                         grid, psi.__getitem__) / mu),
            float(grid(i0)), float(grid(i1)), nchunk)
    edges = np.linspace(t_lo, t_hi, nchunk + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (t_hi - t_lo) / nchunk
    deg = nodes - 1
    xc = np.cos(math.pi * np.arange(deg + 1) / deg)[::-1]   # Chebyshev nodes
    w = np.linalg.solve(np.vander(xc, increasing=True).T,
                        _osc_moments(half / mu, deg))
    tn = (mid[:, None] + half * xc[None, :]).ravel()
    sn = _interp(tn, np.searchsorted(tt, tn, "right") - 1, 0, len(tt) - 1,
                 tt.__getitem__, lambda r: grid(i1 - r if rev else i0 + r))
    cell = _grid_cell(a, b, n, i0, i1, sn)
    sn = sn - (_interp(sn, cell, i0, i1, grid, psi.__getitem__) - tn) / \
        _interp(sn, cell, i0, i1, grid, dpsi)           # Newton
    g = np.asarray(amp(sn), dtype=complex) / np.abs(_interp(
        sn, _grid_cell(a, b, n, i0, i1, sn), i0, i1, grid, dpsi))
    vals = np.exp(1j * mid / mu) * half * np.einsum(
        "ij,j->i", g.reshape(nchunk, -1), w)
    return pairwise_sum(list(vals))


def tensor_oscillatory(amp: Callable, phase: Callable,
                       domain: Sequence, mu: float) -> QuadResult:
    """Tensor-product rule for 2 <= dim <= 3: grid sized per axis by the
    phase variation so each cell stays below the Gauss threshold, within
    the MAX_POINTS budget, which counts every grid point and is checked
    before any of them is built.

    The grid, in C order, is a stack of rows along the last axis.  It is
    evaluated BLOCK_POINTS points at a time (at least one row): a block
    of rows r has the weights w_lead[r] (x) w_last, where w_lead is the
    product of the leading axes' weights, and is reduced by einsum, which
    stays single-threaded.  The block sums are combined pairwise, so
    memory is O(block + one axis) and `points` is the full grid count."""
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
    if total > MAX_POINTS:
        raise BudgetExceeded(
            f"tensor oscillatory grid of {total} points over budget")
    axes_pts, axes_w = zip(*(composite_gl(lo, hi, c, n)
                             for (lo, hi), c in zip(domain, counts)))
    lead = tuple(len(x) for x in axes_pts[:-1])
    x_last, w_last = axes_pts[-1], axes_w[-1]
    nrows, width = math.prod(lead), len(x_last)
    sums = []
    for blk in row_blocks(nrows, width):
        rows = np.unravel_index(np.arange(blk.start, blk.stop), lead)
        pts = np.empty((dims, len(rows[0]), width))
        w_lead = np.ones(len(rows[0]))
        for ax, idx in enumerate(rows):
            pts[ax] = axes_pts[ax][idx, None]
            w_lead *= axes_w[ax][idx]
        pts[-1] = x_last
        pts = pts.reshape(dims, -1)
        vals = np.asarray(amp(pts), dtype=complex) * np.exp(
            1j * np.asarray(phase(pts)) / mu)
        sums.append(np.einsum("ij,i,j->", vals.reshape(-1, width), w_lead,
                              w_last))
    value = complex(pairwise_sum(sums))
    return QuadResult(value, abs(value) * 1e-6, True, total)
