"""Bump amplitudes, their Fourier transforms, and smearing kernels."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .quadrature import composite_gl, cosine_panels, cosine_sum


def _smoothstep_coeffs(m: int):
    """Horner coefficients, highest degree first, of the smoothstep
    S(t) = int_0^t s^m (1-s)^m ds / B(m+1, m+1): exact rationals, each
    rounded to float once."""
    beta = Fraction(math.factorial(m) ** 2, math.factorial(2 * m + 1))
    coeffs = [0.0] * (2 * m + 2)
    for k in range(m + 1):
        coeffs[m - k] = float(Fraction((-1) ** k * math.comb(m, k),
                                       m + k + 1) / beta)
    return tuple(coeffs)


def _smoothstep(t, coeffs):
    """S(t) for t in [0, 1] by one Horner pass; t > 1/2 through
    S(t) = 1 - S(1 - t), which keeps the alternating sum away from the
    cancellation near t = 1."""
    flip = t > 0.5
    r = np.where(flip, 1.0 - t, t)
    acc = np.full_like(r, coeffs[0])
    for c in coeffs[1:]:
        acc *= r
        if c:
            acc += c
    return np.where(flip, 1.0 - acc, acc)


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
            if self.order > 10:     # Horner: 2.1e-13 off at 10, 7.6e-11 at 16
                raise ValueError("plateau bumps go up to order 10")
            self._steps = _smoothstep_coeffs(self.order)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        u = np.abs(x) / self.radius
        if self.kind == "poly":
            out = np.where(u < 1.0, (1.0 - np.minimum(u, 1.0) ** 2)
                           ** self.order, 0.0)
            return out
        # 1 on the plateau, 0 outside; the smoothstep on the band only
        u = np.asarray(u)
        out = np.where(u <= self.flat, 1.0, 0.0)
        band = (u > self.flat) & (u < 1.0)
        out[band] = _smoothstep((1.0 - u[band]) / (1.0 - self.flat),
                                self._steps)
        return out

    def mass(self) -> float:
        x, dx = composite_gl(-self.radius, self.radius, 64)
        return float(np.einsum("i,i->", self(x), dx))


BASE_PANELS = 64    # panels of [0, R] of every call with max|w| R below 196


@dataclass
class BumpHat:
    """hat b(w) = int b(x) e^{i w x} dx = 2 int_0^R b(x) cos(w x) dx, real
    and even for even bumps: one `cosine_sum` per call over equal 16-point
    Gauss panels of [0, R], each spanning at most 4 radians of cos(w x) at
    the call's max |w|.  Summed by angle addition over the P panels, a
    call costs 2 (P + 8) transcendentals per w instead of 16 P; the base
    table of BASE_PANELS panels is built once."""

    bump: Bump

    def __post_init__(self):
        self._base = self._table(BASE_PANELS)

    def _table(self, panels: int):
        return cosine_panels(lambda x: 2.0 * self.bump(x), 0.0,
                             self.bump.radius, panels)

    def __call__(self, w):
        w = np.abs(np.asarray(w, dtype=float))
        # max(BASE_PANELS, int(max|w| R / 4) + 16) panels
        panels = int(float(np.max(w, initial=0.0)) * self.bump.radius
                     / 4.0) + 16
        table = self._base if panels <= BASE_PANELS else self._table(panels)
        return cosine_sum(table, w.ravel()).reshape(w.shape)


# phi-hat of the radius-1 order-4 poly bump, 945 j_4(w) / w^4: its Taylor
# series sum_k (-w^2/2)^k 945 / (k! (2k + 9)!!) below PHI_SEAM (16 terms
# leave 1e-21 at the seam), the elementary sin/cos form of j_4 above
PHI_SEAM = 4.0
_PHI_SERIES = tuple((-0.5) ** k / (math.factorial(k) *
                                   math.prod(range(11, 2 * k + 10, 2)))
                    for k in range(16))


class SmearingKernel:
    """The normalized bump phi = b / int b on g* (here d = 1), b the
    radius-1 order-4 poly bump, with evaluator for phi-hat.

    phi_hat is the closed form 945 j_4(w) / w^4 of that bump's transform,
    O(1) per point: within 6e-16 of 40-digit values and 5e-15 of
    BumpHat(bump)(w) / bump.mass() for |w| <= 2,000.
    """

    def __init__(self):
        self.bump = Bump(radius=1.0, order=4, kind="poly")

    def phi_hat(self, x):
        """Fourier transform of phi (total integral one => phi_hat(0) = 1),
        even in x."""
        w = np.abs(np.asarray(x, dtype=float))
        out = np.empty_like(w)
        low = w < PHI_SEAM
        u = w[low] ** 2
        acc = np.zeros_like(u)
        for c in reversed(_PHI_SERIES):
            acc = acc * u + c
        out[low] = acc
        w = w[~low]
        r = 1.0 / (w * w)
        out[~low] = 945.0 / w ** 5 * (
            ((105.0 * r - 45.0) * r + 1.0) * np.sin(w)
            + (10.0 - 105.0 * r) / w * np.cos(w))
        return out
