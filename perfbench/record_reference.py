"""Record reference.json: every job's certificate values on this commit.

    python3 perfbench/record_reference.py

Each job runs once with seed 1 and once with seed 2.  A certificate whose
value differs between the two seeds (the Monte Carlo bins of ``dh``, the
random scan points of ``resolve-verify``) is marked seed-dependent: the
benchmark then checks only that it passes, not that it equals the
reference.
"""

import json
import shutil
import sys
import tempfile

import run
from jobs import WORKLOADS

SEEDS = (1, 2)


def main() -> int:
    reference = {}
    (run.OUT / "tmp").mkdir(parents=True, exist_ok=True)
    work = run.Path(tempfile.mkdtemp(prefix="reference-",
                                     dir=run.OUT / "tmp"))
    try:
        env = run.worker_env(work)
        for workload in WORKLOADS:
            by_seed = [run.run_pass(workload, seed, work, env, {},
                                    f"{workload}-{seed}") for seed in SEEDS]
            for runs in zip(*by_seed):
                for res in runs:
                    bad = [c["name"] for c in res["certificates"]
                           if not c["passed"]]
                    if res["exit_code"] != 0 or bad or not res["certificates"]:
                        print(f"{res['id']}: exit {res['exit_code']}, failed "
                              f"{bad}: not recorded", file=sys.stderr)
                        return 1
                first = {c["name"]: c for c in runs[0]["certificates"]}
                second = {c["name"]: c for c in runs[1]["certificates"]}
                if set(first) != set(second):
                    print(f"{runs[0]['id']}: certificate names depend on "
                          f"the seed", file=sys.stderr)
                    return 1
                reference[runs[0]["id"]] = {
                    name: {"value": c["value"], "tolerance": c["tolerance"],
                           "seed_dependent": not run.same_value(
                               c["value"], second[name]["value"])}
                    for name, c in first.items()}
                print(f"{runs[0]['id']}: {runs[0]['job_s']:.2f} s",
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
