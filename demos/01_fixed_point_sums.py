#!/usr/bin/env python3
# Fixed-point localization on the round sphere.
#
# The height function generates the rotation about the z-axis; its two
# fixed points carry exponential-rational terms whose sum reproduces the
# full oscillatory integral  int_{S^2} e^{i Y z} dA  exactly.  We compare
# the fixed-point sum against 1-d quadrature of the z-integral and watch
# the 1/Y envelope.

import numpy as np

from equiloc import EquivariantForm, Sphere, bv_sum, u_f_symbolic
from equiloc.oracles import sphere_bv_oracle

sphere = Sphere(1)
rho = EquivariantForm()

print("Y        fixed-point sum        direct quadrature      |diff|")
for y in (0.5, 1.0, 2.0, 5.0, 12.0):
    loc = bv_sum(sphere, rho, y)
    direct = sphere_bv_oracle(1.0, y)
    print(f"{y:5.1f}  {loc.real:+.12f}      {direct.real:+.12f}"
          f"   {abs(loc - direct):.1e}")

print("\nExact terms attached to the poles:")
for fc in sphere.fixed_components():
    u = u_f_symbolic(sphere, fc, rho)
    t = u.terms[0]
    print(f"  J-value {fc.j_value.coeffs}, weight "
          f"{fc.weights[0][0].coeffs}: coefficient {t.coeff!r} "
          f"* (2pi)^{u.two_pi_power}")

print("\nTriangle bound: |sum| <= 4 pi / |Y|")
for y in (10.0, 40.0, 160.0):
    print(f"  Y={y:6.1f}: |sum| = {abs(bv_sum(sphere, rho, y)):.5f} "
          f"<= {4 * np.pi / y:.5f}")
