"""Per-layer metrics of a traced run, and the workloads each must move.

The layers are equiloc's modules.  Each metric is a call count
(``.calls``), inclusive seconds (``.s``), a work count (``.points``), a
layer's self time (``<layer>.self_s``) or one of the ratios and set-up
times below.  MAPPED names the workloads on which the metric should move
an end-to-end metric; on those the spans behind it must record calls, or
the traced run fails.  A metric predicted not to move on a workload is
the control there.
"""

from __future__ import annotations

import statistics

from tracer import TARGETS

R, SG = "regular", "singular"
ALL = (R, SG)

# (metric, unit, workloads where it must be backed by recorded calls)
METRICS = [
    ("cli.run.s", "s", (R,)),
    ("cli.self_s", "s", (R,)),
    ("localization.self_s", "s", (R,)),
    ("localization.l_alpha.calls", "count", (R,)),
    ("localization.l_alpha_batch.s", "s", (R,)),
    ("localization.l_alpha_batch.points", "count", (R,)),
    ("localization.smeared_limit.s", "s", (R,)),
    ("localization.smeared_limit.converged_ratio", "ratio", (R,)),
    ("localization.kirwan_integral.s", "s", (R,)),
    ("localization.dh_measure.s", "s", (R,)),
    ("localization.jk_residue.s", "s", (R,)),
    ("localization.bv_sum.calls", "count", (R,)),
    ("piecewise.ft_shifted.calls", "count", (R,)),
    ("piecewise.ft_shifted.s", "s", (R,)),
    ("symmat.ldlt.calls", "count", (R,)),
    ("oscillatory.sp_coefficients.s", "s", (R,)),
    ("oscillatory.selection_rule_terms.s", "s", (R,)),
    ("oscillatory.oscillatory_integral.s", "s", (R,)),
    ("oscillatory.order_fit.calls", "count", (R,)),
    ("bumps.BumpHat.build.calls", "count", (R,)),
    ("bumps.BumpHat.build.s", "s", (R,)),
    ("bumps.SmearingKernel.build.s", "s", (R,)),
    ("bumps.BumpHat.call.calls", "count", (SG,)),
    ("bumps.BumpHat.call.points", "count", (SG,)),
    ("bumps.BumpHat.call.s", "s", (SG,)),
    ("quadrature.oscillatory_quad_1d.calls", "count", (R,)),
    ("quadrature.oscillatory_quad_1d.s", "s", (R,)),
    ("quadrature.tensor_oscillatory.s", "s", (R,)),
    ("quadrature.panel_gauss.calls", "count", (R,)),
    ("quadrature.points", "count", (R,)),
    ("quadrature.converged_ratio", "ratio", (R,)),
    ("oracles.self_s", "s", (SG,)),
    ("oracles.Linrot2Oracle.angular.calls", "count", (SG,)),
    ("oracles.Linrot2Oracle.angular.s", "s", (SG,)),
    ("oracles.Linrot2Oracle.integral.s", "s", (SG,)),
    ("oracles.cotangent_regular_integral.s", "s", (SG,)),
    ("oracles.Linrot2Oracle.pushforward_density.calls", "count", (R,)),
    ("oracles.Linrot2Oracle.pushforward_density.s", "s", (R,)),
    ("oracles.linrot2_oracle.hit_ratio", "ratio", (R,)),
    ("oracles.mc_pushforward_sphere.s", "s", (R,)),
    ("oracles.sphere_bv_oracle.s", "s", (R,)),
    ("resolution.self_s", "s", (SG,)),
    ("resolution.chart.psi_wk.calls", "count", (SG,)),
    ("resolution.crit_equivalence_scan.s", "s", (SG,)),
    ("resolution.factorization_check.s", "s", (SG,)),
    ("resolution.transversal_hessian.calls", "count", (SG,)),
    ("resolution.transversal_hessian.s", "s", (SG,)),
    ("resolution.resolved_leading.s", "s", (SG,)),
    ("resolution.direct_leading.s", "s", (SG,)),
    ("resolution.singular_sweep.s", "s", (SG,)),
    ("setup.import_deps_s", "s", ALL),
    ("setup.import_equiloc_s", "s", ALL),
    ("trace.overhead_s", "s", ()),
]

SPANS = {name for name, _, _ in TARGETS} | {"resolution.chart.psi_wk"}
# ratio metric -> (numerator counter, span whose calls are the base)
RATIOS = {
    "quadrature.converged_ratio": ("quadrature.converged",
                                   "quadrature.results"),
    "localization.smeared_limit.converged_ratio": (
        "localization.smeared_limit.converged", "localization.smeared_limit"),
    "oracles.linrot2_oracle.hit_ratio": ("oracles.linrot2_oracle.hits",
                                         "oracles.linrot2_oracle"),
}
DEPS = ("numpy", "scipy")


def merge(summaries) -> dict:
    total = {"calls": {}, "seconds": {}, "points": {}, "self_s": {},
             "counts": {}}
    for s in summaries:
        for part, values in s.items():
            for key, v in values.items():
                total[part][key] = total[part].get(key, 0) + v
    return total


def metric_value(name: str, t: dict, imports: dict):
    """(value, count of the recorded calls behind it)."""
    calls, counts = t["calls"], t["counts"]
    if name in RATIOS:
        num, base = RATIOS[name]
        n = calls.get(base, counts.get(base, 0))
        return (counts.get(num, 0) / n if n else 0.0), n
    if name in imports:
        return imports[name], 1
    if name == "quadrature.points":
        return counts.get(name, 0), counts.get("quadrature.results", 0)
    stem, _, kind = name.rpartition(".")
    if kind == "self_s":
        n = sum(c for span, c in calls.items() if span.startswith(stem + "."))
        return t["self_s"].get(stem, 0.0), n
    if stem not in SPANS:
        raise KeyError(f"no span {stem} behind metric {name}")
    n = calls.get(stem, 0)
    part = {"calls": "calls", "s": "seconds", "points": "points"}[kind]
    return t[part].get(stem, 0), n


def import_times(stderr: str) -> dict:
    """Cumulative import time of numpy and scipy, and of equiloc's own
    modules (excluding numpy and scipy), from ``python -X importtime``."""
    # lines are "import time: self | cumulative | <indent>name", children
    # before parents; the indent is two spaces per nesting level
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue                     # the header line
        raw = parts[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        entries.append((depth, name, cumulative))
    deps = equiloc = 0
    ancestors_dep = []                   # per depth: inside a dep subtree
    # walk parents before children: reverse order is a pre-order walk
    for depth, name, cumulative in reversed(entries):
        del ancestors_dep[depth:]
        root = name.split(".")[0]
        inside = any(ancestors_dep)
        is_dep = root in DEPS
        if is_dep and not inside:
            deps += cumulative
        if depth == 0 and root == "equiloc":
            equiloc += cumulative
        ancestors_dep.append(is_dep or inside)
    return {"setup.import_deps_s": deps * 1e-6,
            "setup.import_equiloc_s": max(equiloc - deps, 0) * 1e-6}


def per_layer(workload: str, traced: list, untraced: list,
              imports: dict):
    """Metrics and trace-check problems of one traced run."""
    t = merge(r["trace"] for r in traced if "trace" in r)
    metrics, problems = {}, []
    for name, _, mapped in METRICS:
        if name == "trace.overhead_s":
            metrics[name] = sum(r["job_s"] for r in traced) - \
                sum(r["job_s"] for r in untraced)
            continue
        value, n = metric_value(name, t, imports)
        metrics[name] = value
        if workload in mapped and n == 0:
            problems.append(f"{name}: no recorded calls on {workload}")
    for a, b in zip(untraced, traced):
        if [(c["name"], c["value"]) for c in a["certificates"]] != \
                [(c["name"], c["value"]) for c in b["certificates"]]:
            problems.append(f"{a['id']}: traced certificate values differ "
                            f"from the untraced run's")
    return metrics, problems
