#!/usr/bin/env python3
# Ray residues and the reduced-space pairing.
#
# The residue is the ray limit at 0 of the transformed fixed-point terms.
# It is independent of the ray direction (exact chamber equality), and the
# calibrated pairing constant (2 pi)^d of a d-torus turns it into the
# smeared delta-limit, which in turn equals the stratum integral over the
# reduced space.  The free circle action on T*S^1 has no fixed points at
# all; there the smeared route is the only one, and it still matches the
# stratum integral.

import numpy as np

from equiloc import (Bump, CotangentCircle, EquivariantForm,
                     NoFixedPointsError, Sphere, bv_sum, calibrate,
                     jk_residue, kirwan_integral, pairing_constant,
                     smeared_limit)
from equiloc.scalars import two_pi_float

sphere = Sphere(1)
rho = EquivariantForm()
plus = jk_residue(sphere, rho, (1,))
minus = jk_residue(sphere, rho, (-1,))
print(f"residue along +1: {two_pi_float(*plus):.12f}")
print(f"residue along -1: {two_pi_float(*minus):.12f}   (equal exactly: "
      f"{plus == minus})")
sm = smeared_limit(sphere, rho)
kw = kirwan_integral(sphere, rho)
print(f"pairing constant: {pairing_constant(sphere):.12f}")
print(f"residue * pairing = "
      f"{two_pi_float(*plus) * pairing_constant(sphere):.8f}")
print(f"smeared limit     = {sm.extrapolated:.8f}")
print(f"Kirwan integral   = {kw:.8f}   (4 pi^2 = "
      f"{4 * np.pi ** 2:.8f})")

print("\ncalibration stamp:", calibrate().to_dict())

circle = CotangentCircle()
pb = Bump(radius=1.0, order=6, kind="poly")
rho_c = EquivariantForm(density=lambda pts: np.cos(pts[0]) ** 2 *
                        pb(pts[1]))
try:
    bv_sum(circle, rho_c, 1.0)
except NoFixedPointsError as exc:
    print(f"\ncotangent circle: {exc}")
sm_c = smeared_limit(circle, rho_c)
kw_c = kirwan_integral(circle, rho_c)
print(f"smeared route     = {sm_c.extrapolated:.8f}")
print(f"Kirwan integral   = {kw_c:.8f}   (2 pi^2 = "
      f"{2 * np.pi ** 2:.8f})")
