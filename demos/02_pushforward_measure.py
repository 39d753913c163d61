#!/usr/bin/env python3
# The pushforward of the sphere's area under the height function is the
# uniform measure on [-R, R] (Archimedes).  Here it comes out of exact
# rational algebra: the cone-shifted Fourier transform of the fixed-point
# terms is a piecewise polynomial with a single chamber of density 2 pi R,
# and Monte Carlo sampling of the sphere agrees bin by bin.

import numpy as np
from fractions import Fraction

from equiloc import EquivariantForm, Sphere, dh_measure
from equiloc.oracles import mc_pushforward_sphere
from equiloc.scalars import two_pi_float

for radius in (1, 2):
    sphere = Sphere(radius)
    U = dh_measure(sphere, EquivariantForm())
    print(f"radius {radius}: {U.to_json()}")
    print(f"  mass = {two_pi_float(U.mass(), U.two_pi_power):.12f} "
          f"(area {4 * np.pi * radius ** 2:.12f})")

U = dh_measure(Sphere(1), EquivariantForm())
masses, edges = mc_pushforward_sphere(1.0, 1_000_000, seed=1, bins=10)
print("\nbin      exact mass     Monte Carlo    rel diff")
for i, m in enumerate(masses):
    mid = Fraction(float(0.5 * (edges[i] + edges[i + 1])))
    mid = mid.limit_denominator(10 ** 6)
    pred = U.value_float((mid,)) * float(edges[i + 1] - edges[i])
    print(f"{i:3d}    {pred:.6f}      {m:.6f}      "
          f"{abs(pred - m) / pred:.2%}")
