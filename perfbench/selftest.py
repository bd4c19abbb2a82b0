"""Harness self-test at toy size (a few agents, two generations).

    python3 perfbench/selftest.py

Runs the harness on two toy workloads, one serial and one through the
process pool with a resume leg, and checks that

- every metric BENCHMARK.json names is in the result line and in a
  `metric <name> = <value> <unit>` report line, with the unit it names;
- with the right digests every operation passes;
- a deliberately wrong digest is counted as a failed operation and makes
  the run incorrect, which shows the output gate works.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import time

import run

TOY = {w.name: w for w in (
    run.Workload("toy-serial", "cartpole", population=4, truncation=2,
                 generations=2, job_s=1.0),
    run.Workload("toy-pool", "minigrid-5", population=4, truncation=2,
                 generations=2, job_s=1.0, workers=2, resume_from=0),
)}
SEED = 7


def harness(workload: str, trace: int, digests: dict) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.main(["--workload", workload, "--seed", str(SEED),
                           "--seconds", "1", "--trace", str(trace)],
                          workloads=TOY, digests=digests)
    return status, out.getvalue().splitlines()


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    digests: dict = {}
    record_dir = run.WORK / "selftest-record"
    shutil.rmtree(record_dir, ignore_errors=True)
    try:
        for workload in TOY.values():
            ctx = run.Context(run.Ledger(), time.perf_counter() + run.RUN_DEADLINE_S)
            job = run.run_job(workload, SEED, record_dir / workload.name, ctx)
            expect(job is not None, f"{workload.name}: toy job runs")
            if job is not None:
                digests[workload.name] = {str(SEED): job.digest}
    finally:
        shutil.rmtree(record_dir, ignore_errors=True)
    if problems:
        return 1

    for name in TOY:
        for trace, metrics in wanted.items():
            status, lines = harness(name, trace, digests)
            result = json.loads(lines[-1])
            expect(status == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{name} --trace {trace}: exit 0, correct, no failed operation")
            printed = {line.split()[1]: line.split()[-1] for line in lines
                       if line.startswith("metric ")}
            for metric in metrics:
                got = result["metrics"].get(metric["name"], {})
                expect(got.get("unit") == metric["unit"]
                       and isinstance(got.get("value"), (int, float))
                       and printed.get(metric["name"]) == metric["unit"],
                       f"{name} --trace {trace}: {metric['name']} printed in {metric['unit']}")

        wrong = {name: {seed: "0" * 64 for seed in digests[name]}}
        status, lines = harness(name, 0, wrong)
        result = json.loads(lines[-1])
        expect(status == 0 and not result["correct"] and result["failed"] >= 1,
               f"{name}: a wrong digest is counted as a failure "
               f"({result['failed']} of {result['attempted']} operations failed)")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
