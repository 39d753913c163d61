"""Span tracer that wraps equiloc's public functions from outside.

``Tracer.install()`` replaces every binding of each traced name: the
defining module, every equiloc module that imported the name, and the
``equiloc`` package re-exports.  Methods are patched on their class, and
the ``psi_wk`` closure of each chart that ``build_charts`` returns is
wrapped on the chart itself.  Every call records one span (name, start,
end, parent span) in flat arrays, and per-name counters are kept alongside
so the per-layer numbers are measured where the work happens.

A layer is the module that defines the traced name.  Its self time is the
sum over its spans of the span's duration minus the duration of the
direct child spans it contains.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

# (span name, module, attribute path); "Class.method" patches the class.
TARGETS = [
    ("cli.run", "equiloc.cli", "run"),
    ("localization.l_alpha", "equiloc.localization", "l_alpha"),
    ("localization.l_alpha_batch", "equiloc.localization", "l_alpha_batch"),
    ("localization.smeared_limit", "equiloc.localization", "smeared_limit"),
    ("localization.kirwan_integral", "equiloc.localization",
     "kirwan_integral"),
    ("localization.dh_measure", "equiloc.localization", "dh_measure"),
    ("localization.jk_residue", "equiloc.localization", "jk_residue"),
    ("localization.bv_sum", "equiloc.localization", "bv_sum"),
    ("localization.calibrate", "equiloc.localization", "calibrate"),
    ("piecewise.ft_shifted", "equiloc.piecewise", "ft_shifted"),
    ("symmat.ldlt", "equiloc.symmat", "ldlt"),
    ("oscillatory.sp_coefficients", "equiloc.oscillatory",
     "sp_coefficients"),
    ("oscillatory.selection_rule_terms", "equiloc.oscillatory",
     "selection_rule_terms"),
    ("oscillatory.oscillatory_integral", "equiloc.oscillatory",
     "oscillatory_integral"),
    ("oscillatory.order_fit", "equiloc.oscillatory", "order_fit"),
    ("bumps.BumpHat.build", "equiloc.bumps", "BumpHat.__post_init__"),
    ("bumps.BumpHat.call", "equiloc.bumps", "BumpHat.__call__"),
    ("bumps.SmearingKernel.build", "equiloc.bumps", "SmearingKernel.__init__"),
    ("quadrature.oscillatory_quad_1d", "equiloc.quadrature",
     "oscillatory_quad_1d"),
    ("quadrature.tensor_oscillatory", "equiloc.quadrature",
     "tensor_oscillatory"),
    ("quadrature.panel_gauss", "equiloc.quadrature", "panel_gauss"),
    ("oracles.Linrot2Oracle.build", "equiloc.oracles",
     "Linrot2Oracle.__post_init__"),
    ("oracles.Linrot2Oracle.angular", "equiloc.oracles",
     "Linrot2Oracle.angular"),
    ("oracles.Linrot2Oracle.integral", "equiloc.oracles",
     "Linrot2Oracle.integral"),
    ("oracles.Linrot2Oracle.pushforward_density", "equiloc.oracles",
     "Linrot2Oracle.pushforward_density"),
    ("oracles.Linrot2Oracle.l_alpha_batch", "equiloc.oracles",
     "Linrot2Oracle.l_alpha_batch"),
    ("oracles.linrot2_oracle", "equiloc.oracles", "linrot2_oracle"),
    ("oracles.mc_pushforward_sphere", "equiloc.oracles",
     "mc_pushforward_sphere"),
    ("oracles.sphere_bv_oracle", "equiloc.oracles", "sphere_bv_oracle"),
    ("oracles.cotangent_regular_integral", "equiloc.oracles",
     "cotangent_regular_integral"),
    ("oracles.cotangent_l_alpha", "equiloc.oracles", "cotangent_l_alpha"),
    ("oracles.fresnel_leading", "equiloc.oracles", "fresnel_leading"),
    ("resolution.build_charts", "equiloc.resolution", "build_charts"),
    ("resolution.crit_equivalence_scan", "equiloc.resolution",
     "crit_equivalence_scan"),
    ("resolution.factorization_check", "equiloc.resolution",
     "factorization_check"),
    ("resolution.transversal_hessian", "equiloc.resolution",
     "transversal_hessian"),
    ("resolution.resolved_leading", "equiloc.resolution", "resolved_leading"),
    ("resolution.direct_leading", "equiloc.resolution", "direct_leading"),
    ("resolution.singular_sweep", "equiloc.resolution", "singular_sweep"),
    ("resolution.resolution_certificate", "equiloc.resolution",
     "resolution_certificate"),
]
PSI_WK = "resolution.chart.psi_wk"
QUAD_RESULTS = ("quadrature.oscillatory_quad_1d",
                "quadrature.tensor_oscillatory")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counters of one job.  Span 0 is the job itself."""

    def __init__(self):
        self.names: List[str] = ["job"]
        self._index: Dict[str, int] = {"job": 0}
        self.parent = array("q", [-1])
        self.name_idx = array("q", [0])
        self.start = array("d", [0.0])
        self.end = array("d", [0.0])
        self._stack = [0]          # open span ids; 0 is the job span
        self._child = [0.0]        # child time accumulated per open span
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self.points: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self._patched = []
        self._t0 = 0.0

    # -- patching ----------------------------------------------------------

    def install(self):
        for name, module, attr in TARGETS:
            mod = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig)
            bound = 0
            for mname, other in list(sys.modules.items()):
                if mname != "equiloc" and not mname.startswith("equiloc."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is orig:
                        self._set(other, key, orig, wrapped)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"no binding of {module}.{attr}")

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def _set(self, owner, key, orig, wrapped):
        self._patched.append((owner, key, orig))
        setattr(owner, key, wrapped)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        idx = self._name_index(name)
        layer = layer_of(name)
        before = after = None
        if name == "bumps.BumpHat.call":
            def before(args, kwargs):
                self.points[name] = self.points.get(name, 0) + \
                    int(np.size(args[1]))
        elif name == "localization.l_alpha_batch":
            def before(args, kwargs):
                self.points[name] = self.points.get(name, 0) + \
                    int(np.size(args[2]))
        elif name == "oracles.linrot2_oracle":
            # a call that leaves the oracle cache the same size was a hit
            from equiloc.oracles import _LINROT2_CACHE as cache
            sizes = []

            def before(args, kwargs):
                sizes.append(len(cache))

            def after(result):
                if len(cache) == sizes.pop():
                    self._count("oracles.linrot2_oracle.hits")
        elif name in QUAD_RESULTS:
            def after(result):
                # nested engine calls (tensor -> 1-d) count once, outermost
                if self.names[self.name_idx[self._stack[-1]]] in QUAD_RESULTS:
                    return
                self._count("quadrature.results")
                self._count("quadrature.points", int(result.points))
                if result.converged:
                    self._count("quadrature.converged")
        elif name == "localization.smeared_limit":
            def after(result):
                if result.converged:
                    self._count("localization.smeared_limit.converged")
        elif name == "resolution.build_charts":
            def after(result):
                for chart in result:
                    chart.psi_wk = self._wrap(PSI_WK, chart.psi_wk)

        stack, child = self._stack, self._child
        parent, name_idx = self.parent, self.name_idx
        start, end = self.start, self.end
        calls, seconds, self_s = self.calls, self.seconds, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(parent)
            parent.append(stack[-1])
            name_idx.append(idx)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                inner = child.pop()
                dur = t1 - t0
                child[-1] += dur
                start[sid] = t0
                end[sid] = t1
                calls[name] = calls.get(name, 0) + 1
                seconds[name] = seconds.get(name, 0.0) + dur
                self_s[layer] = self_s.get(layer, 0.0) + dur - inner
            if after is not None:
                after(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- the job span --------------------------------------------------------

    def begin_job(self):
        self._t0 = time.perf_counter()

    def end_job(self):
        t1 = time.perf_counter()
        self.start[0] = self._t0
        self.end[0] = t1
        dur = t1 - self._t0
        self.self_s["job"] = dur - self._child[0]

    # -- output --------------------------------------------------------------

    def summary(self) -> dict:
        return {"calls": self.calls, "seconds": self.seconds,
                "points": self.points, "self_s": self.self_s,
                "counts": self.counts}

    def write_spans(self, path: Path, job: str):
        """Append CSV rows (job, span, parent, name, start, end; seconds
        from the job span's start) to a gzip file, one member per job."""
        t0 = self.start[0]
        header = not path.exists()
        with gzip.open(path, "at") as fh:
            if header:
                fh.write("job,span,parent,name,start_s,end_s\n")
            for sid in range(len(self.parent)):
                fh.write(f"{job},{sid},{self.parent[sid]},"
                         f"{self.names[self.name_idx[sid]]},"
                         f"{self.start[sid] - t0:.9f},"
                         f"{self.end[sid] - t0:.9f}\n")
