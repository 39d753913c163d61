"""Workloads of the equiloc benchmark: each is a fixed list of jobs.

A job is one certified computation, run in a fresh worker process:

* ``("cli", argv)`` calls ``equiloc.cli.main(argv + ["--out", DIR,
  "--seed", SEED])``; its certificates are read from the report.json it
  writes.
* ``("lib", name)`` calls one of the acceptance-gate computations below
  through the public API and returns its certificates directly.

The configurations are exactly the ones the CLI defaults and the
acceptance suite use; nothing is shrunk to make a run shorter.
"""

from __future__ import annotations

SWEEP = "1e-2:1e-4:5"

WORKLOADS = {
    # Regular localization and stationary phase: the short pairing CLI jobs
    # (the exact algebra, the vectorised L(X) path, the smearing-kernel and
    # BumpHat builds, the pushforward table; set-up is most of what a user
    # of these commands waits for), the sphere half of acceptance #5 (the
    # same smeared limit through the scalar l_alpha fallback that exact
    # forms take, 3,056 calls), and the Filon/Gauss zones of the
    # oscillatory engine with the tensor rule and the symbolic coefficient
    # algebra.  The resolution layer does no work here.  These three groups
    # share one workload because a shared host's speed wanders over about a
    # minute, so only runs that long are steady, and the time all runs may
    # take allows runs that long for two workloads.
    #
    # The cotangent half of acceptance #5, one 30-45 s job of memory-bound
    # grid work, is left out: on a shared 2-core VM its time followed the
    # host's load, and ten runs spread by 37% of their median
    # (interquartile range), more than the largest bound the benchmark may
    # set.
    #
    # In each workload the longest job comes first, so that a run whose
    # second pass over the list is cut short still repeats it.
    "regular": [
        ("cli", ["spexpand", "--model", "fresnel",
                 "--mu-sweep", "1e-1:3.1622776601683795e-4:6"]),
        ("cli", ["convergence"]),
        ("cli", ["spexpand", "--model", "saddle"]),
        ("cli", ["spexpand", "--model", "cubic", "--order", "2"]),
        ("lib", "coefficient_engine"),
        ("cli", ["dh", "--model", "sphere"]),
        ("cli", ["localize", "--model", "sphere"]),
        ("cli", ["residue", "--model", "sphere", "--calibrate"]),
        ("cli", ["residue", "--model", "cotangent-circle"]),
        ("lib", "linrot2_smeared_vs_kirwan"),
        ("lib", "exact_form_sphere"),
    ],
    # Scalar BumpHat calls in the linrot2 oracle and scalar psi_wk calls in
    # the resolution scans; the quadrature engine does no work here.
    "singular": [
        ("cli", ["singular", "--model", "linrot2", "--mu-sweep", SWEEP]),
        ("cli", ["singular", "--model", "cotangent-circle",
                 "--mu-sweep", SWEEP]),
        ("cli", ["spexpand", "--model", "cotangent-circle",
                 "--mu-sweep", SWEEP]),
        ("cli", ["resolve-verify", "--model", "linrot2"]),
        ("cli", ["resolve-verify", "--model", "linrot4"]),
    ],
}


def job_id(job) -> str:
    kind, spec = job
    if kind == "lib":
        return spec
    words = [spec[0]]
    for flag, value in zip(spec[1:], spec[2:]):
        if flag in ("--model", "--order"):
            words.append(value)
    if "--calibrate" in spec:
        words.append("calibrate")
    return "-".join(words)


def _cert(name, value, tolerance, passed):
    return {"name": name, "value": float(value),
            "tolerance": float(tolerance), "passed": bool(passed)}


# ---------------------------------------------------------------------------
# library jobs (acceptance-suite computations)


def linrot2_smeared_vs_kirwan():
    from equiloc import EquivariantForm, kirwan_integral, make_model
    from equiloc import smeared_limit
    m = make_model("linrot2")
    rho = EquivariantForm()
    kw = kirwan_integral(m, rho)
    sm = smeared_limit(m, rho)
    rel = abs(sm.extrapolated - kw) / abs(kw)
    return [_cert("smeared_vs_kirwan", rel, 0.01, rel <= 0.01)]


def exact_form_sphere():
    import numpy as np
    from equiloc import EquivariantForm, Sphere, smeared_limit
    rho = EquivariantForm(exact_beta=lambda z: (1 - z ** 2) *
                          np.exp(-(z ** 2)))
    v = abs(smeared_limit(Sphere(1), rho).extrapolated)
    return [_cert("exact_form_pairing", v, 1e-6, v <= 1e-6)]


def coefficient_engine():
    """Acceptance #10: symbolic against finite-difference coefficients on
    three cubic-perturbed quadratic phases, and the selection-rule zeros."""
    from fractions import Fraction

    import numpy as np
    from equiloc import BaseNode, CleanPhase, MPoly, sp_coefficients
    from equiloc.oscillatory import selection_rule_terms
    cases = [
        MPoly(1, {(2,): Fraction(1, 2), (3,): Fraction(1)}),
        MPoly(1, {(2,): Fraction(1, 2), (3,): Fraction(-1, 2)}),
        MPoly(2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2),
                  (3, 0): Fraction(1, 3), (1, 2): Fraction(1, 4)}),
    ]
    worst = 0.0
    for psi in cases:
        dim = psi.dim
        amp = MPoly.constant(dim, Fraction(1))
        sym = sp_coefficients(CleanPhase(
            rank=dim, psi0=0.0,
            nodes=[BaseNode(weight=1.0, psi_poly=psi, amp_poly=amp)]), 2,
            method="symbolic")
        node = BaseNode(
            weight=1.0,
            psi_num=lambda s, _p=psi: float(_p.eval_float(
                list(np.atleast_1d(s))).real),
            amp_num=lambda s: 1.0)
        fd = sp_coefficients(CleanPhase(rank=dim, psi0=0.0, nodes=[node]),
                             2, method="fd")
        for a, b in zip(sym.coefficients, fd.coefficients):
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    zeros = selection_rule_terms(cases[0], MPoly.constant(1, Fraction(1)),
                                 2)
    nonzero = sum(1 for _, v in zeros if not v.is_zero())
    return [_cert("symbolic_vs_fd", worst, 1e-6, worst <= 1e-6),
            _cert("selection_rule_nonzero_terms", nonzero, 0.0,
                  bool(zeros) and nonzero == 0)]


LIBRARY = {f.__name__: f for f in (linrot2_smeared_vs_kirwan,
                                   exact_form_sphere, coefficient_engine)}
