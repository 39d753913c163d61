#!/usr/bin/env python3
# Singular asymptotics of the momentum-map integral for the planar
# rotation, resolved by a blow-up at the origin.
#
# The critical set of psi(q, p, X) = X <Aq, p> is the singular cone
# {p parallel to q} times the isotropy directions.  One monoidal
# transformation q = tau v makes the weak transform's critical manifold
# smooth with a uniformly nondegenerate transversal Hessian; the chart
# integral of the surviving |tau|-density equals the direct stratum
# integral, and both match the oracle's leading behavior
# I(mu)/(2 pi mu) -> L0 = pi^2.

import math

import numpy as np

from equiloc import (Amplitude, Bump, build_charts, direct_leading,
                     make_model, resolution_certificate, resolved_leading,
                     singular_sweep, stratify)

model = make_model("linrot2")
amp = Amplitude(gaussian=True,
                g_profile=Bump(radius=1.0, order=6, kind="poly"))

strat = stratify(model)
chain = strat.chains[0]
print(f"isotropy chain {chain.types}, Lambda = {strat.lam}, "
      f"levels c/d/e = "
      f"{[(l.c, l.d, l.e) for l in chain.levels]}")

charts = build_charts(model, chain)
l_res = resolved_leading(model, charts, amp)
l_dir = direct_leading(model, amp)
print(f"resolved leading  {l_res:.10f}")
print(f"direct leading    {l_dir:.10f}   (pi^2 = {math.pi ** 2:.10f})")

rep = singular_sweep(model, amp, list(np.geomspace(1e-2, 1e-4, 5)))
print("\nmu         I(mu)          I/(2 pi mu)    gap vs L0")
for r in rep.rows:
    print(f"{r.mu:.2e}  {r.oracle:.6e}  {r.scaled:.6f}     "
          f"{abs(r.scaled - rep.leading) / rep.leading:.2%}")
print(f"remainder fit: exponent {rep.fit.exponent:.3f} "
      f"(kappa + 1 = {rep.kappa + 1}), log power "
      f"{rep.fit.log_power:.3f} <= Lambda - 1 = {rep.lam - 1}")

cert = resolution_certificate(model, amp, seed=7)
print("\nresolution certificate:", cert.to_dict())
