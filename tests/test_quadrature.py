import math

import numpy as np
import pytest

from equiloc.quadrature import (composite_gl, gauss_legendre, pairwise_sum,
                                panel_gauss)


def _hand_built(a, b, panels, n):
    """The composite rule as each caller used to build it."""
    x, w = np.polynomial.legendre.leggauss(n)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * x[None, :]).ravel(),
            (half[:, None] * w[None, :]).ravel(), half)


def test_gauss_legendre_is_cached_and_read_only():
    x, w = gauss_legendre(16)
    assert gauss_legendre(16)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0
    ref_x, ref_w = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


@pytest.mark.parametrize("a,b,panels,n", [
    (0.0, 600.0, 191, 16),      # smeared_limit
    (0.0, 30.0, 360, 16),       # Linrot2Oracle.l_alpha_batch
    (-1.0, 1.0, 16, 16),
    (0.0, 1.0, 141, 16),        # BumpHat build
    (-2.5, 2.5, 7, 8),          # tensor_oscillatory axis
    (-0.3, 1.7, 5, 12),
])
def test_composite_gl_equals_hand_built_rule(a, b, panels, n):
    nodes, weights = composite_gl(a, b, panels, n)
    ref_nodes, ref_weights, _ = _hand_built(a, b, panels, n)
    assert np.array_equal(nodes, ref_nodes)
    assert np.array_equal(weights, ref_weights)


@pytest.mark.parametrize("lo,hi,n", [(-1.0, 1.0, 400), (-2.0, 2.0, 1024),
                                     (-400.0, 400.0, 1200),
                                     (-math.pi / 2, math.pi / 2, 40)])
def test_one_panel_equals_affine_map(lo, hi, n):
    # the single-interval rules the oracles and resolution scans used
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = composite_gl(lo, hi, 1, n)
    assert np.array_equal(nodes, 0.5 * (lo + hi) + 0.5 * (hi - lo) * x)
    assert np.array_equal(weights, 0.5 * (hi - lo) * w)


@pytest.mark.parametrize("n", [2, 5, 16])
def test_composite_gl_exact_to_degree_2n_minus_1(n):
    rng = np.random.default_rng(n)
    poly = np.polynomial.Polynomial(rng.normal(size=2 * n))
    a, b = -1.3, 2.1
    nodes, weights = composite_gl(a, b, 7, n)
    anti = poly.integ()
    exact = anti(b) - anti(a)
    assert abs(float(np.dot(poly(nodes), weights)) - exact) <= \
        1e-12 * max(1.0, abs(exact))


def test_panel_gauss_keeps_its_per_cell_reduction():
    f = lambda s: np.exp(3j * s) / (1.0 + s * s)
    a, b, panels = -2.0, 5.0, 9
    pts, _, half = _hand_built(a, b, panels, 16)
    w = np.polynomial.legendre.leggauss(16)[1]
    cell = (f(pts).reshape(panels, 16) * w[None, :]).sum(axis=1) * half
    assert panel_gauss(f, a, b, panels) == pairwise_sum(list(cell))
