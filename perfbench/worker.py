"""Run one benchmark job in this fresh process.

    python worker.py JOB_JSON RESULT_PATH [SPANS_PATH]

The worker imports equiloc and its CLI, then writes ``ready`` to stdout so
the runner can time set-up from outside.  It then runs the job once,
timing only the call into the entry point, and writes a JSON result: exit
code, job seconds, CPU seconds of the job, peak RSS of the process and the
certificates.  With SPANS_PATH it installs the tracer first and appends
the job's spans there.  With JOB_JSON ``null`` it only imports and exits,
which the traced run uses for an import-time profile.
"""

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _report_certificates(out_dir: Path):
    reports = list(out_dir.glob("run-*/report.json"))
    if len(reports) != 1:
        return []
    report = json.loads(reports[0].read_text())
    return [{k: c[k] for k in ("name", "value", "tolerance", "passed")}
            for c in report.get("certificates", [])]


def main(argv) -> int:
    job = json.loads(argv[1])
    result_path = Path(argv[2])
    spans_path = Path(argv[3]) if len(argv) > 3 else None

    import equiloc
    import equiloc.cli
    import equiloc.oracles  # noqa: F401  (loaded lazily by the CLI)
    import numpy
    import scipy
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if job is None:
        return 0

    import jobs
    # job output (certificate lines, report paths) goes to a log file
    log = open(result_path.with_suffix(".log"), "w")
    os.dup2(log.fileno(), 1)
    os.dup2(log.fileno(), 2)

    tracer = None
    if spans_path is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.begin_job()
    kind, spec = job["kind"], job["spec"]
    out_dir = result_path.parent / (result_path.stem + "-out")
    certificates, exit_code, error = [], 0, None
    cpu0, t0 = _cpu(), time.perf_counter()
    try:
        if kind == "cli":
            exit_code = equiloc.cli.main(
                spec + ["--out", str(out_dir), "--seed", str(job["seed"])])
        else:
            certificates = jobs.LIBRARY[spec]()
    except Exception:
        exit_code, error = 1, traceback.format_exc()
    t1, cpu1 = time.perf_counter(), _cpu()
    if tracer is not None:
        tracer.end_job()
    if kind == "cli" and error is None:
        certificates = _report_certificates(out_dir)

    result = {
        "exit_code": exit_code, "error": error,
        "job_s": t1 - t0, "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "certificates": certificates,
        "equiloc_file": equiloc.__file__,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spans_path, job["id"])
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
