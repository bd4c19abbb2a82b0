"""qevo training benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload cartpole-desk --seed 1 --seconds 30 --trace 0

Each job is a fresh `qevo train` child process (plus `qevo resume` from the
middle checkpoint on minigrid8-pool) on a config this script writes; the
desk configs in configs/ ask for more workers than a small machine has, so
they are not used.  Jobs are timed from outside and every job's stats.csv
is checked against the SHA-256 recorded in digests.json for its master
seed.  `--seed n` picks master seeds from the recorded ones, so the same
seed always gives the same inputs and every run has a known answer.

--trace 0 reports the end-to-end metrics, --trace 1 runs the workload once
untraced and once with spans at every layer boundary (see child.py) and
reports the per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  An operation is one child
process or one output check; it fails on a non-zero exit or a digest
mismatch.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".runs"
DIGESTS = BENCH / "digests.json"

RUN_DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 5       # setup_s is the median of this many set-ups per run
TAIL_BEYOND = 10        # gen_s_tail: highest percentile with this many samples above
REFERENCE_S = 0.005     # serial times are scaled to a reference loop of this many seconds


@dataclass(frozen=True)
class Workload:
    name: str
    env: str
    population: int
    truncation: int
    generations: int
    job_s: float         # nominal wall time of one job: a run makes seconds / job_s jobs
    workers: int = 1
    resume_from: int | None = None  # resume from this checkpoint after training
    init_scale: float = 0.01

    def config(self, master_seed: int, out_dir: Path, workers: int) -> dict:
        return {
            "env": self.env,
            "mps_bond_dim": MPS_BOND_DIM,
            "out_dir": str(out_dir),
            "workers": workers,
            # periodic checkpoints only where the resume leg needs them
            "checkpoint_every": 1 if self.resume_from is not None else self.generations + 1,
            "evo": {"population": self.population, "truncation": self.truncation,
                    "mutation_power": 0.02, "repeats_all": 3, "repeats_parents": 5,
                    "generations": self.generations, "master_seed": master_seed,
                    "init_scale": self.init_scale},
        }


MPS_BOND_DIM = 4

# Why each workload (see README.md for the layer -> metric table).  Jobs run
# one after another from a single client; job_s is one job's wall time on a
# 2-vCPU Xeon VM, so that --seconds buys the same work on every machine.
WORKLOADS = {w.name: w for w in (
    # every decision is one env step plus one 2-qubit policy forward; the
    # observation memo never hits, and there is no MPS work
    Workload("cartpole-desk", "cartpole", population=100, truncation=5,
             generations=50, job_s=13.0),
    # genome-to-agent build, MPS contraction and the 8-qubit circuit dominate;
    # ~99% of decisions hit the memo, so env steps barely matter
    Workload("minigrid5-desk", "minigrid-5", population=100, truncation=10,
             generations=20, job_s=13.0),
    # full-scale population through the process pool, a checkpoint written
    # every generation and one read back by `qevo resume`.  With the usual
    # init_scale 0.01 no agent reaches the 8x8 goal for dozens of
    # generations, every stats.csv row is zero for every seed, and the digest
    # gate could not tell a broken policy from a working one.
    Workload("minigrid8-pool", "minigrid-8", population=500, truncation=10,
             generations=6, job_s=18.0, workers=2, resume_from=2,
             init_scale=0.2),
)}


# ---------------------------------------------------------------------------
# operations and child processes

class Ledger:
    """Counts operations (child processes and output checks) and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self._lock = threading.Lock()  # the traced run checks from two threads

    def check(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failures.append(what)
                print(f"FAILED: {what}")
        return ok


@dataclass
class Proc:
    """Timings of one child process, in seconds."""

    setup: float
    train: float
    gens: list[float]
    speed: list[float]   # per generation: REFERENCE_S / reference loop time around it
    maxrss_kb: int
    checkpoint_sizes: list[int]
    contract_flops: int
    spans: Path | None


@dataclass
class Job:
    procs: list[Proc]
    digest: str
    out_dir: Path

    @property
    def setup(self) -> float:
        return sum(p.setup for p in self.procs)

    @property
    def train(self) -> float:
        return sum(p.train for p in self.procs)

    @property
    def gens(self) -> list[float]:
        return [g for p in self.procs for g in p.gens]


@dataclass
class Context:
    ledger: Ledger
    deadline: float
    digests: dict = field(default_factory=dict)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_child(argv: list[str], stem: Path, trace: bool, ctx: Context) -> Proc | None:
    report = stem.with_name(stem.name + ".json")
    spans = stem.with_name(stem.name + ".npz") if trace else None
    log = stem.with_name(stem.name + ".log")
    command = [sys.executable, str(BENCH / "child.py"), str(report),
               str(spans) if spans else "-", "--", *argv]
    with open(log, "w") as log_file:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, stdout=log_file,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            status = proc.wait(timeout=max(1.0, ctx.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            status = "killed at the run deadline"
        finally:
            if proc.returncode is None:  # the deadline passed, or an interrupt
                os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
                proc.wait()
    ok = status == 0 and report.is_file()
    if not ctx.ledger.check(ok, f"qevo {argv[0]} ({stem.name}) exited with {status}"):
        sys.stdout.write(log.read_text()[-2000:])
        return None
    data = json.loads(report.read_text())
    if data["not_traced"]:
        print(f"warning: not in the source, so not traced: {', '.join(data['not_traced'])}")
    bursts = data["bursts"]
    starts = [data["first"]] + [t + b for t, b in zip(data["gens"], bursts)]
    speed = []
    for k, (begin, end) in enumerate(zip(starts, data["gens"])):
        # the pool workers' loops during the generation, or else this
        # process's own right before and after it
        near = ([s for t, s in data["worker_bursts"] if begin <= t < end]
                or bursts[max(0, k - 1):k + 1])
        speed.append(REFERENCE_S / statistics.fmean(near))
    return Proc(setup=data["first"] - start,
                train=data["end"] - data["first"] - sum(bursts),
                gens=[end - begin for begin, end in zip(starts, data["gens"])],
                speed=speed,
                maxrss_kb=data["maxrss_kb"],
                checkpoint_sizes=data["checkpoint_sizes"],
                contract_flops=data["contract_flops"], spans=spans)


def run_job(workload: Workload, master_seed: int, job_dir: Path, ctx: Context,
            workers: int | None = None, trace: bool = False) -> Job | None:
    """Train (and resume) once; gate stats.csv on the recorded digest."""
    job_dir.mkdir(parents=True)
    out_dir = job_dir / "out"
    config = job_dir / "config.json"
    workers = workload.workers if workers is None else workers
    config.write_text(json.dumps(workload.config(master_seed, out_dir, workers)))
    train = run_child(["train", "--config", str(config)], job_dir / "train", trace, ctx)
    if train is None:
        return None
    stats = out_dir / "stats.csv"
    digest = sha256(stats)
    expected = ctx.digests.get(str(master_seed))
    if expected is not None:
        ctx.ledger.check(digest == expected,
                         f"{workload.name} master seed {master_seed}: stats.csv "
                         f"sha256 {digest[:16]} != recorded {expected[:16]}")
    procs = [train]
    if workload.resume_from is not None:
        checkpoint = out_dir / f"checkpoint_{workload.resume_from}.json"
        resume = run_child(["resume", "--checkpoint", str(checkpoint)],
                           job_dir / "resume", trace, ctx)
        if resume is None:
            return None
        resumed = sha256(stats)
        ctx.ledger.check(resumed == digest,
                         f"{workload.name} master seed {master_seed}: resumed "
                         f"stats.csv sha256 {resumed[:16]} != uninterrupted {digest[:16]}")
        procs.append(resume)
    return Job(procs, digest, out_dir)


def run_setup_probe(workload: Workload, master_seed: int, probe_dir: Path,
                    checkpoint: Path | None, ctx: Context) -> float | None:
    """Set-up time of the workload's processes, with no generation to run."""
    probe_dir.mkdir(parents=True)
    out_dir = probe_dir / "out"
    config = probe_dir / "config.json"
    config.write_text(json.dumps(workload.config(master_seed, out_dir, workload.workers)))
    train = run_child(["train", "--config", str(config), "--generations", "0"],
                      probe_dir / "train", False, ctx)
    if train is None:
        return None
    total = train.setup
    if workload.resume_from is not None and checkpoint is not None:
        data = json.loads(checkpoint.read_text())
        data["run_config"]["out_dir"] = str(out_dir)
        copy = probe_dir / checkpoint.name
        copy.write_text(json.dumps(data))
        resume = run_child(["resume", "--checkpoint", str(copy), "--generations",
                            str(workload.resume_from + 1)], probe_dir / "resume", False, ctx)
        if resume is None:
            return None
        total += resume.setup
    return total


# ---------------------------------------------------------------------------
# metrics

def tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest whole percentile with TAIL_BEYOND samples above it.

    With TAIL_BEYOND samples or fewer no percentile qualifies, and the
    maximum is reported as p100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    percentile = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, math.ceil(percentile * n / 100))  # nearest rank, 1-based
    return ordered[rank - 1], percentile


def at_reference_speed(proc: Proc) -> tuple[float, list[float]]:
    """(train, generation times) of a process, at reference speed.

    The shared host's speed drifts by a fifth over minutes.  Each
    generation is scaled by its speed factor (see README.md); the training
    time by the same factors, weighted by generation time.  Set-up runs
    before any reference loop does, so it is left as measured.
    """
    gens = [g * f for g, f in zip(proc.gens, proc.speed)]
    return proc.train * sum(gens) / sum(proc.gens), gens


def measure(workload: Workload, seed: int, seconds: int, run_dir: Path,
            ctx: Context) -> dict | None:
    seeds = sorted(int(s) for s in ctx.digests)
    master_seeds = [seeds[(seed + j) % len(seeds)] for j in
                    range(max(1, round(seconds / workload.job_s)))]
    jobs = [job for j, master_seed in enumerate(master_seeds)
            if (job := run_job(workload, master_seed, run_dir / f"job{j}", ctx)) is not None]
    if not jobs:
        return None
    checkpoint = None
    if workload.resume_from is not None:
        checkpoint = jobs[0].out_dir / f"checkpoint_{workload.resume_from}.json"
    probes = [run_setup_probe(workload, master_seeds[0], run_dir / f"probe{k}", checkpoint, ctx)
              for k in range(SETUP_SAMPLES - len(jobs))]
    setups = [job.setup for job in jobs] + [s for s in probes if s is not None]

    raw_gens = [g for job in jobs for g in job.gens]
    print(f"unscaled: train_s {statistics.fmean(job.train for job in jobs):.6g} s, "
          f"gen_s_p50 {statistics.median(raw_gens):.6g} s, "
          f"gen_s_tail {tail(raw_gens)[0]:.6g} s")
    at_speed = [[at_reference_speed(p) for p in job.procs] for job in jobs]
    gens = [g for job in at_speed for _, proc_gens in job for g in proc_gens]
    tail_value, tail_percentile = tail(gens)
    print(f"jobs: {len(jobs)} (master seeds {', '.join(map(str, master_seeds))}), "
          f"set-up samples: {len(setups)}, generation samples: {len(gens)}")
    print(f"gen_s_tail: p{tail_percentile} of {len(gens)} generation times")
    return {
        "setup_s": (statistics.median(setups), "s"),
        # a mean over the jobs, so that it covers the whole run
        "train_s": (statistics.fmean(sum(train for train, _ in job) for job in at_speed), "s"),
        "gen_s_p50": (statistics.median(gens), "s"),
        "gen_s_tail": (tail_value, "s"),
        "peak_rss_mb": (max(p.maxrss_kb for job in jobs for p in job.procs) / 1024, "MB"),
    }


def span_table(paths: list[Path]) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, inclusive seconds, self seconds) over all span files.

    Self time is a span's duration minus the time its child spans cover.
    """
    import numpy as np
    table: dict[str, list] = {}
    for path in paths:
        with np.load(path) as data:
            names, name, parent = data["names"], data["name"], data["parent"]
            duration = data["end"] - data["start"]
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested],
                              minlength=duration.size)
        self_time = duration - covered
        calls = np.bincount(name, minlength=names.size)
        inclusive = np.bincount(name, weights=duration, minlength=names.size)
        own = np.bincount(name, weights=self_time, minlength=names.size)
        for code, label in enumerate(names.tolist()):
            row = table.setdefault(label, [0, 0.0, 0.0])
            row[0] += int(calls[code])
            row[1] += float(inclusive[code])
            row[2] += float(own[code])
    return {label: tuple(row) for label, row in table.items()}


# derived from other measurements rather than counted or timed
COMPUTED = {"mps.contract_flops", "evo.policy_cache_hit_ratio", "evo.pool_bytes",
            "evo.pool_wait_s", "trace_overhead_ratio"}


def print_metric(name: str, value: float, unit: str) -> None:
    note = " (computed)" if name in COMPUTED else ""
    print(f"metric {name}{note} = {value:.6g} {unit}")


def wall(job: Job) -> float:
    return job.setup + job.train


def trace_metrics(workload: Workload, seed: int, run_dir: Path,
                  ctx: Context) -> dict | None:
    seeds = sorted(int(s) for s in ctx.digests)
    master_seed = seeds[seed % len(seeds)]
    pool = None
    if workload.workers > 1:
        pool = run_job(workload, master_seed, run_dir / "pool", ctx)
    # side by side, so that both see the same machine
    with ThreadPoolExecutor(2) as clients:
        plain, traced = clients.map(
            lambda trace: run_job(workload, master_seed, run_dir / ("traced" if trace else "plain"),
                                  ctx, workers=1, trace=trace),
            (False, True))
    if plain is None or traced is None or (workload.workers > 1 and pool is None):
        return None
    if pool is not None:
        ctx.ledger.check(pool.digest == traced.digest,
                         f"{workload.name}: {workload.workers}-worker stats.csv "
                         f"differs from the traced workers=1 run")

    table = span_table([p.spans for p in traced.procs])

    def calls(name: str) -> int:
        return table.get(name, (0, 0.0, 0.0))[0]

    def inclusive(name: str) -> float:
        return table.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return table.get(name, (0, 0.0, 0.0))[2]

    genome_length = len(json.loads((traced.out_dir / "best_genome.json").read_text())["genome"])
    evaluation = inclusive("evo.eval") + inclusive("evo.elite")
    steps = calls("envs.step")
    metrics = {
        "envs.step_calls": (steps, "count"),
        "envs.step_s": (own("envs.step"), "s"),
        "envs.reset_calls": (calls("envs.reset"), "count"),
        "agents.act_calls": (calls("agents.act"), "count"),
        "agents.act_s": (own("agents.act"), "s"),
        "agents.circuit_s": (own("agents.circuit"), "s"),
        "agents.build_calls": (calls("agents.build"), "count"),
        "agents.build_s": (own("agents.build"), "s"),
        "mps.unflatten_s": (own("mps.unflatten"), "s"),
        "mps.contract_calls": (calls("mps.contract"), "count"),
        "mps.contract_s": (own("mps.contract"), "s"),
        "mps.contract_flops": (sum(p.contract_flops for p in traced.procs), "flop"),
        "qsim.apply_single_calls": (calls("qsim.apply_single"), "count"),
        "qsim.apply_single_s": (own("qsim.apply_single"), "s"),
        "evo.policy_cache_hit_ratio": (1.0 - calls("agents.act") / steps if steps else 0.0,
                                       "ratio"),
        "evo.fitness_calls": (calls("evo.eval") + calls("evo.elite"), "count"),
        "evo.eval_s": (inclusive("evo.eval"), "s"),
        "evo.elite_s": (inclusive("evo.elite"), "s"),
        "evo.rank_s": (own("evo.rank"), "s"),
        "evo.spawn_s": (own("evo.spawn"), "s"),
        "evo.init_s": (own("evo.init"), "s"),
        "evo.pool_wait_s": (0.0, "s"),
        "evo.pool_bytes": (workload.population * genome_length * 8 if pool else 0, "B"),
        "cli.checkpoint_writes": (calls("cli.checkpoint_write"), "count"),
        "cli.checkpoint_write_s": (own("cli.checkpoint_write"), "s"),
        "cli.checkpoint_bytes": (sum(s for p in traced.procs for s in p.checkpoint_sizes), "B"),
        "cli.checkpoint_read_s": (own("cli.checkpoint_read"), "s"),
        "trace_overhead_ratio": (wall(traced) / wall(plain), "ratio"),
    }
    if pool is not None:
        # Worker spans do not come back through the pool.  The generation
        # time of the workers=1 runs splits into evaluation, which two
        # workers could halve, and the rest, which stays serial; whatever
        # the 2-worker generations take beyond that is pool overhead.  The
        # untraced run gives the time and the traced run the split; the
        # traced run's own time is not used, since its spans inflate the
        # evaluation.  Zero without a pool.
        serial_rest = sum(traced.gens) - evaluation
        serial_eval = sum(plain.gens) - serial_rest
        metrics["evo.pool_wait_s"] = (
            sum(pool.gens) - serial_rest - serial_eval / workload.workers, "s")

    print(f"traced master seed {master_seed}: untraced {wall(plain):.3f} s, "
          f"traced {wall(traced):.3f} s, genome length {genome_length}")
    print(f"{'span':24} {'calls':>10} {'inclusive_s':>12} {'self_s':>10}")
    for name, (n, incl, self_s) in sorted(table.items()):
        print(f"{name:24} {n:10d} {incl:12.4f} {self_s:10.4f}")
    return metrics


# ---------------------------------------------------------------------------
# environment record

def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True)
        commit = result.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qevo").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------------
# entry point

def parse_args(argv: list[str] | None, workloads: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None, workloads: dict = WORKLOADS,
         digests: dict | None = None) -> int:
    args = parse_args(argv, workloads)
    if not (ROOT / "src" / "qevo" / "cli.py").is_file():
        print(f"error: no qevo source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    if digests is None:
        digests = json.loads(DIGESTS.read_text())
    ctx = Context(Ledger(), time.perf_counter() + RUN_DEADLINE_S,
                  digests[workload.name])

    env = environment(args.seed)
    print("environment: " + json.dumps(env))
    if env["loadavg_1m"] > env["nproc"]:
        print(f"warning: load average {env['loadavg_1m']:.2f} exceeds "
              f"nproc {env['nproc']}; timings will be noisy")

    run_dir = WORK / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            metrics = trace_metrics(workload, args.seed, run_dir, ctx)
        else:
            metrics = measure(workload, args.seed, args.seconds, run_dir, ctx)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if metrics is None:
        print("error: no job completed, so there is nothing to report", file=sys.stderr)
        return 1

    ledger = ctx.ledger
    print(f"metric failed_frac = {len(ledger.failures)}/{ledger.attempted} = "
          f"{len(ledger.failures) / ledger.attempted:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print_metric(name, value, unit)
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
