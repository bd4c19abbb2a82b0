"""Record the stats.csv digests that the benchmark gates every run on.

    python3 perfbench/record.py --workload cartpole-desk --seeds 1 2 3 4 5

Runs one job per master seed on the current source and writes the SHA-256
of its stats.csv into perfbench/digests.json.  Re-record only when a change
is meant to alter training results; a change that should leave them alone
must pass the existing digests instead.
"""

from __future__ import annotations

import argparse
import json
import shutil
import time

import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    workload = run.WORKLOADS[args.workload]
    digests = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    recorded = digests.setdefault(workload.name, {})
    work_dir = run.WORK / f"record-{workload.name}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        for master_seed in args.seeds:
            ctx = run.Context(run.Ledger(), time.perf_counter() + run.RUN_DEADLINE_S)
            job = run.run_job(workload, master_seed, work_dir / str(master_seed), ctx)
            if job is None:
                raise SystemExit(f"master seed {master_seed}: job failed")
            print(f"master seed {master_seed}: train {job.train:.2f} s, sha256 {job.digest}")
            recorded[str(master_seed)] = job.digest
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
