"""equiloc benchmark runner (stdlib only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of jobs.py, or ``all`` to run every workload in turn.

Run from the root of a source checkout.  Each job of the workload (see
jobs.py) runs in its own fresh worker process, one at a time, because a
CLI user pays every import and lazy cache build on each command.  The
runner cycles through the job list, job after job, while the next job is
expected to end within S seconds; the first pass over the list always
completes.  Every job's certificates are checked: exit code 0, every
certificate passed, the same certificate names as reference.json, and
each value within 1e-3 of its tolerance of the reference (exactly equal
for zero-tolerance certificates).

--trace 0 prints the end-to-end metrics:
  wall_s       sum over the jobs of each job's median time over its
               runs (entry-point call to return; no interpreter start or
               import)
  setup_s      median over the run's workers (topped up to 5 with
               set-up-only workers) of worker start until the job can be
               called (interpreter + import of equiloc and its CLI)
  cpu_s        the same sum for the user+sys CPU of the job portions
  peak_rss_mb  max over the run's workers of the peak resident set

--trace 1 runs one untraced pass, one traced pass and one import-time
profile, and prints the per-layer metrics of layers.py, including the
tracing overhead; it fails if a mapped span recorded no calls or a traced
certificate differs from the untraced one.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; the line before it gives jobs_failed, the share of
jobs that failed the gate.  Per-job details, the environment and the
spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jobs as jobdefs
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

JOB_TIMEOUT_S = 150.0
MIN_SETUP_SAMPLES = 5
DRIFT_SHARE = 1e-3


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, a worker that cannot
    import it); no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = threads
    env["TMPDIR"] = str(tmp)
    env.pop("PYTHONSTARTUP", None)
    return env


def run_worker(job, seed: int, work: Path, tag: str, env: dict,
               spans: Path | None = None, importtime: bool = False) -> dict:
    """Start one worker, time its set-up, wait for it, return its result
    (job None: set-up only)."""
    spec = None if job is None else {
        "kind": job[0], "spec": job[1], "seed": seed,
        "id": jobdefs.job_id(job)}
    result_path = work / f"{tag}.json"
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "worker.py"), json.dumps(spec), str(result_path)]
    if spans is not None:
        cmd.append(str(spans))
    err_path = work / f"{tag}.stderr"
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        try:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            if line.strip() != b"ready":
                proc.wait(timeout=JOB_TIMEOUT_S)
                raise BenchError(
                    f"worker could not import equiloc:\n"
                    f"{err_path.read_text()[-2000:]}")
            proc.stdout.close()
            rc = proc.wait(timeout=JOB_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        worker_s = time.perf_counter() - t0
    if job is None:
        return {"setup_s": setup_s, "stderr": err_path}
    if rc != 0 or not result_path.exists():
        return {"id": spec["id"], "setup_s": setup_s, "worker_s": worker_s,
                "exit_code": rc,
                "error": err_path.read_text()[-2000:], "job_s": 0.0,
                "cpu_s": 0.0, "peak_rss_mb": 0.0, "certificates": []}
    out = json.loads(result_path.read_text())
    out["id"] = spec["id"]
    out["setup_s"] = setup_s
    out["worker_s"] = worker_s
    src = ROOT / "src" / "equiloc"
    if Path(out["equiloc_file"]).resolve().parent != src.resolve():
        raise BenchError(f"worker imported {out['equiloc_file']}, "
                         f"not the checkout's {src}")
    return out


# ---------------------------------------------------------------------------
# correctness


def same_value(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def job_problems(res: dict, reference: dict) -> list:
    """Every reason the job fails the gate; empty when it passes."""
    problems = []
    if res.get("exit_code") != 0:
        problems.append(f"exit code {res.get('exit_code')}: "
                        f"{(res.get('error') or '').strip()[-300:]}")
    certs = {c["name"]: c for c in res.get("certificates", [])}
    ref = reference.get(res["id"])
    if ref is None:
        return problems + ["no reference values for this job"]
    if not certs:
        problems.append("no certificates")
    if set(certs) != set(ref):
        problems.append(f"certificates {sorted(certs)} differ from the "
                        f"reference {sorted(ref)}")
    for name, c in certs.items():
        if not c["passed"]:
            problems.append(f"{name} failed: {c['value']!r} "
                            f"(tolerance {c['tolerance']!r})")
        r = ref.get(name)
        if r is None or r["seed_dependent"]:
            continue
        value, tol = float(c["value"]), float(r["tolerance"])
        if tol == 0.0:
            drifted = not same_value(value, r["value"])
        else:
            drifted = not abs(value - r["value"]) <= DRIFT_SHARE * tol
        if drifted:
            problems.append(f"{name} drifted: {value!r} against the "
                            f"reference {r['value']!r} (tolerance {tol!r})")
    return problems


# ---------------------------------------------------------------------------
# runs


def environment(seed: int, first: dict) -> dict:
    return {"nproc": nproc(), "blas_threads": nproc(), "seed": seed,
            "versions": first.get("versions", {}),
            "platform": platform.platform()}


def run_pass(workload: str, seed: int, work: Path, env: dict,
             reference: dict, tag: str, spans: Path | None = None) -> list:
    results = []
    for i, job in enumerate(jobdefs.WORKLOADS[workload]):
        res = run_worker(job, seed, work, f"{tag}-{i}", env, spans=spans)
        res["problems"] = job_problems(res, reference)
        results.append(res)
    return results


def run_cycle(workload: str, seed: int, seconds: float, work: Path,
              env: dict, reference: dict) -> list:
    """Untraced runs of each job: one pass over the job list, then job
    after job in the same order while the next one, taking as long as its
    last run, ends within ``seconds``.  Returns each job's runs."""
    job_list = jobdefs.WORKLOADS[workload]
    per_job = [[] for _ in job_list]
    t_start = time.perf_counter()
    for k in itertools.count():
        i = k % len(job_list)
        if per_job[i] and (time.perf_counter() - t_start +
                           per_job[i][-1]["worker_s"] > seconds):
            return per_job
        res = run_worker(job_list[i], seed, work, f"r{k}", env)
        res["problems"] = job_problems(res, reference)
        per_job[i].append(res)


def end_to_end(per_job, setups) -> dict:
    workers = [r for runs in per_job for r in runs]
    return {
        "wall_s": sum(statistics.median(r["job_s"] for r in runs)
                      for runs in per_job),
        "setup_s": statistics.median([r["setup_s"] for r in workers] +
                                     setups),
        "cpu_s": sum(statistics.median(r["cpu_s"] for r in runs)
                     for runs in per_job),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in workers),
    }


UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def job_record(res: dict) -> dict:
    return {k: res.get(k) for k in ("id", "job_s", "setup_s", "cpu_s",
                                     "peak_rss_mb", "exit_code",
                                     "certificates", "problems")}


def bench(workload: str, seed: int, seconds: float, trace: bool,
          work: Path) -> dict:
    env = worker_env(work)
    reference = load_reference()
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {"workload": workload, "trace": trace}
    if not trace:
        per_job = run_cycle(workload, seed, seconds, work, env, reference)
        n_workers = sum(len(runs) for runs in per_job)
        setups = [run_worker(None, seed, work, f"s{i}", env)["setup_s"]
                  for i in range(max(0, MIN_SETUP_SAMPLES - n_workers))]
        metrics = end_to_end(per_job, setups)
        units = UNITS
        ran = [r for runs in per_job for r in runs]
        record["runs"] = [[job_record(r) for r in runs] for runs in per_job]
        record["setup_probes_s"] = setups
        problems = []
    else:
        untraced = run_pass(workload, seed, work, env, reference, "u")
        spans = OUT / f"{stem}-spans.csv.gz"
        spans.unlink(missing_ok=True)
        traced = run_pass(workload, seed, work, env, reference, "t", spans)
        probe = run_worker(None, seed, work, "importtime", env,
                           importtime=True)
        imports = layers.import_times(probe["stderr"].read_text())
        metrics, problems = layers.per_layer(
            workload, traced, untraced, imports)
        units = {m: u for m, u, _ in layers.METRICS}
        ran = untraced + traced
        record["untraced"] = [job_record(r) for r in untraced]
        record["traced"] = [job_record(r) for r in traced]
        record["spans"] = str(spans.relative_to(ROOT))
    failed = sum(1 for r in ran if r["problems"])
    record["environment"] = environment(seed, ran[0])
    record["metrics"] = metrics
    record["problems"] = problems
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for r in ran:
        status = "FAIL " + "; ".join(r["problems"]) if r["problems"] \
            else "ok"
        print(f"job {r['id']}: {r['job_s']:.3f} s, setup "
              f"{r['setup_s']:.3f} s, {r['peak_rss_mb']:.0f} MB: {status}")
    for p in problems:
        print(f"trace check failed: {p}")
    print(f"jobs_failed: {failed}/{len(ran)} = {failed / len(ran):.3f}; "
          f"details in {(OUT / (stem + '.json')).relative_to(ROOT)}")
    return {"correct": failed == 0 and not problems,
            "attempted": len(ran), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(jobdefs.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (ROOT / "src" / "equiloc" / "__init__.py").is_file():
        print(f"no equiloc sources under {ROOT / 'src'}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    names = list(jobdefs.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    results = {}
    for name in names:
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT / "tmp"))
        try:
            results[name] = bench(name, args.seed, args.seconds,
                                  bool(args.trace), work)
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 3
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    # all workloads: one result line, metrics named <workload>.<metric>
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
