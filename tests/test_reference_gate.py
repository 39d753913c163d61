"""Every benchmark job passes the benchmark's correctness gate.

Each job of `perfbench/jobs.py` runs in this process: a CLI job through
`equiloc.cli.main` at seed 1, a library job through its function.  The
benchmark's own `run.job_problems` then checks its certificates against
`perfbench/reference.json`: exit code 0, every certificate passed, the
reference's certificate names, and each value within 1e-3 of its
tolerance of the reference value.  So a change that moves a certificate
past that allowance fails in the suite, not first in the benchmark.
"""

import json
import sys
from pathlib import Path

import pytest

from equiloc.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import jobs  # noqa: E402
import run  # noqa: E402

REFERENCE = run.load_reference()


@pytest.mark.parametrize(
    "job", [job for workload in jobs.WORKLOADS.values() for job in workload],
    ids=jobs.job_id)
def test_job_passes_the_reference_gate(job, tmp_path):
    kind, spec = job
    result = {"id": jobs.job_id(job), "exit_code": 0}
    if kind == "cli":
        result["exit_code"] = main(spec + ["--out", str(tmp_path),
                                           "--seed", "1"])
        (report,) = tmp_path.glob("run-*/report.json")
        result["certificates"] = json.loads(
            report.read_text())["certificates"]
    else:
        result["certificates"] = jobs.LIBRARY[spec]()
    assert run.job_problems(result, REFERENCE) == []
