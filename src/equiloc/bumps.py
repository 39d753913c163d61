"""Bump amplitudes, their Fourier transforms, and smearing kernels."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.interpolate import CubicSpline

from .quadrature import composite_gl


def _smoothstep_coeffs(m: int):
    # antiderivative of t^m (1-t)^m, normalized so S(1) = 1
    coeffs = {}
    for k in range(m + 1):
        coeffs[m + k + 1] = ((-1) ** k * comb(m, k)) / (m + k + 1)
    total = sum(coeffs.values())
    return {p: c / total for p, c in coeffs.items()}


class Bump:
    """Even compactly supported bump on the line, b(0) = 1.

    kind "poly": (1 - (x/R)^2)^m, C^{m-1} at the boundary, curved at 0.
    kind "plateau": identically 1 on |x| <= flat*R, C^m decay to 0 at R;
    flat at 0 to all orders, which is what the symbolic stationary-phase
    path relies on.
    """

    def __init__(self, radius: float = 1.0, order: int = 6,
                 kind: str = "plateau", flat: float = 0.5):
        if kind not in ("poly", "plateau"):
            raise ValueError(f"unknown bump kind {kind!r}")
        self.radius = float(radius)
        self.order = int(order)
        self.kind = kind
        self.flat = float(flat)
        if kind == "plateau":
            self._steps = _smoothstep_coeffs(self.order)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        u = np.abs(x) / self.radius
        if self.kind == "poly":
            out = np.where(u < 1.0, (1.0 - np.minimum(u, 1.0) ** 2)
                           ** self.order, 0.0)
            return out
        t = (1.0 - u) / (1.0 - self.flat)
        t = np.clip(t, 0.0, 1.0)
        s = np.zeros_like(t)
        for p, c in self._steps.items():
            s += c * t ** p
        s = np.where(u <= self.flat, 1.0, s)
        return np.where(u < 1.0, s, 0.0)

    def mass(self) -> float:
        from scipy.integrate import quad
        return quad(lambda x: float(self(x)), -self.radius, self.radius,
                    limit=200)[0]


# grid rows per block of the cosine matrix in the BumpHat build
_BLOCK_ROWS = 2048
HAT_SAMPLES = 8192      # spline knots of a BumpHat on [0, wmax]


@dataclass
class BumpHat:
    """hat b(w) = int b(x) e^{i w x} dx, real and even for even bumps.

    Dense cubic-spline cache of HAT_SAMPLES knots on [0, wmax]; direct
    quadrature beyond the cached range.
    """

    bump: Bump
    wmax: float = 400.0

    def __post_init__(self):
        grid = np.linspace(0.0, self.wmax, HAT_SAMPLES)
        # vectorized composite Gauss: enough panels to resolve cos(wmax x)
        r = self.bump.radius
        panels = max(64, int(self.wmax * r / 4.0) + 16)
        nodes, wts = composite_gl(0.0, r, panels)
        fb = self.bump(nodes) * wts
        # the cosine matrix in blocks of grid rows bounds peak memory;
        # einsum keeps the reduction single-threaded
        vals = np.empty_like(grid)
        for lo in range(0, len(grid), _BLOCK_ROWS):
            block = np.outer(grid[lo:lo + _BLOCK_ROWS], nodes)
            np.cos(block, out=block)
            vals[lo:lo + _BLOCK_ROWS] = 2.0 * np.einsum("ij,j->i", block, fb)
        self._spline = CubicSpline(grid, vals)
        # the spline's own pieces as Python floats for `value`
        self._knots = self._spline.x.tolist()
        self._coeffs = self._spline.c.tolist()

    def _direct(self, w: float) -> float:
        from scipy.integrate import quad
        r = self.bump.radius
        val, _ = quad(lambda x: float(self.bump(x)) * math.cos(w * x),
                      0.0, r, limit=400)
        return 2.0 * val

    def value(self, w: float) -> float:
        """hat b at one real w, without numpy: the cached spline bit for
        bit as the array call gives it, direct quadrature beyond wmax.

        The spline piece is found as scipy's PPoly finds it (closed on the
        right at the last knot) and summed as PPoly sums it, power by
        power; Horner's rule would round differently.
        """
        w = abs(w)
        if not w <= self.wmax:
            return self._direct(w)
        knots = self._knots
        i = min(bisect_right(knots, w), len(knots) - 1) - 1
        c0, c1, c2, c3 = self._coeffs
        d = w - knots[i]
        d2 = d * d
        return c3[i] + c2[i] * d + c1[i] * d2 + c0[i] * (d2 * d)

    def __call__(self, w):
        if np.ndim(w) == 0:
            return self.value(float(w))
        w = np.abs(np.asarray(w, dtype=float))
        out = np.empty_like(w)
        inside = w <= self.wmax
        out[inside] = self._spline(w[inside])
        if np.any(~inside):
            flat = w[~inside].ravel()
            out[~inside] = np.array([self._direct(x) for x in flat]
                                    ).reshape(w[~inside].shape)
        return out


class SmearingKernel:
    """The normalized bump phi = b / int b on g* (here d = 1), b the
    radius-1 order-4 poly bump, with evaluator for phi-hat."""

    def __init__(self):
        self.bump = Bump(radius=1.0, order=4, kind="poly")
        self._mass = self.bump.mass()
        self._hat = BumpHat(self.bump, wmax=600.0)

    def phi_hat(self, x):
        """Fourier transform of phi (total integral one => phi_hat(0) = 1)."""
        return self._hat(x) / self._mass
