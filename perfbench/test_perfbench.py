"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py

The last test runs the traced benchmark on every workload (a few
minutes): it fails when a per-layer metric has no recorded calls on a
workload it is mapped to, or when a traced certificate value differs from
the untraced run's.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from jobs import WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 | _io
import time:        50 |         50 |     numpy._core
import time:       200 |        250 |   numpy
import time:        30 |         30 |     scipy.special._ufuncs
import time:       300 |        330 |   scipy.special
import time:        20 |         20 |   fractions
import time:       400 |       1000 | equiloc
import time:        10 |         40 | equiloc.cli
"""


def test_import_times_split_deps_from_equiloc():
    got = layers.import_times(IMPORTTIME)
    assert got["setup.import_deps_s"] == pytest.approx(580e-6)
    assert got["setup.import_equiloc_s"] == pytest.approx(460e-6)


def _result(value, passed=True, name="gate"):
    return {"id": "job", "exit_code": 0,
            "certificates": [{"name": name, "value": value,
                              "tolerance": 0.01, "passed": passed}]}


def test_correctness_gate():
    ref = {"job": {"gate": {"value": 0.005, "tolerance": 0.01,
                            "seed_dependent": False}}}
    assert run.job_problems(_result(0.005 + 9e-6), ref) == []
    assert run.job_problems(_result(0.005 + 2e-5), ref)           # drift
    assert run.job_problems(_result(0.005, passed=False), ref)    # failed
    assert run.job_problems(_result(0.005, name="other"), ref)    # renamed
    exact = {"job": {"gate": {"value": 0.0, "tolerance": 0.0,
                              "seed_dependent": False}}}
    res = _result(0.0)
    res["certificates"][0]["tolerance"] = 0.0
    assert run.job_problems(res, exact) == []
    res["certificates"][0]["value"] = 1e-300
    assert run.job_problems(res, exact)
    seeded = {"job": {"gate": {"value": 0.001, "tolerance": 0.01,
                               "seed_dependent": True}}}
    assert run.job_problems(_result(0.009), seeded) == []


def test_tracer_patches_every_binding():
    import equiloc
    import equiloc.cli  # noqa: F401
    import equiloc.oracles  # noqa: F401
    from equiloc import localization, oscillatory, resolution
    tracer = Tracer()
    tracer.install()
    try:
        for fn in (oscillatory.oscillatory_quad_1d,
                   localization.sp_coefficients, localization.ft_shifted,
                   resolution.order_fit, equiloc.sp_coefficients,
                   equiloc.ldlt, equiloc.BumpHat.__call__):
            assert hasattr(fn, "__wrapped__"), fn
    finally:
        tracer.uninstall()
    assert not hasattr(equiloc.sp_coefficients, "__wrapped__")


def test_every_metric_names_a_traced_span():
    empty = {"calls": {}, "seconds": {}, "points": {}, "self_s": {},
             "counts": {}}
    for name, _, mapped in layers.METRICS:
        assert set(mapped) <= set(WORKLOADS), name
        if name != "trace.overhead_s":
            layers.metric_value(name, empty, {"setup.import_deps_s": 1.0,
                                              "setup.import_equiloc_s": 1.0})


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_is_complete(workload):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=180)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    assert result["failed"] == 0
    names = {m for m, _, _ in layers.METRICS}
    assert set(result["metrics"]) == names
