"""Run one `qevo` command in a fresh process, with timing hooks added.

    python3 perfbench/child.py REPORT.json SPANS.npz|- -- train --config cfg.json

The source is not changed: hooks wrap qevo's callables from outside,
before `cli.main` runs.  Every run records

- `first`: perf_counter when the first generation starts, i.e. when
  `evo.init_population` returns (train) or `evo.run` is entered (resume,
  which gets its population from the checkpoint);
- `gens`: perf_counter at each call of the `on_generation` callback that
  cli passes to `evo.run`, one per generation;
- `bursts`: the seconds a fixed pure-Python loop took, run right after
  each of those stamps and before the callback itself.  The parent
  subtracts them from the generation and training times and uses them to
  gauge the machine's speed while this process trained;
- `worker_bursts`: (perf_counter at start, seconds) of the same loop, run
  by pool workers before every WORKER_BURST_EVERY-th task, so that the
  machine's speed is gauged where a pool workload does its work;
- `end`: perf_counter when `cli.main` returns;
- `maxrss_kb`: the largest resident set of this process or any pool
  worker it waited for.

perf_counter is CLOCK_MONOTONIC on Linux, so the parent can compare these
stamps with its own.  When SPANS is a path, every layer boundary in
`LAYER_CALLABLES` is wrapped as well, spans (name, start, end, parent)
are kept in memory and written to SPANS when the command ends,
`contract_flops` counts the floating-point work of the `mps.contract`
calls from the extractors' core shapes, and `not_traced` lists the
callables the source does not have.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qevo import agents, cli, envs, evo, mps  # noqa: E402

perf = time.perf_counter
REFERENCE_LOOPS = 60_000  # about 5 ms on a 2-vCPU Xeon VM
WORKER_BURST_EVERY = 25   # tasks take about 8 ms, so this adds about 2.5%

# (span name, module, attribute path).  `agents.apply_single` is the name
# under which agents imports qsim.apply_single, so that is the one wrapped.
# The checkpoint helpers are private to cli, but are where checkpoint I/O
# happens.  A callable the source no longer has is skipped and reported.
LAYER_CALLABLES = (
    ("envs.step", envs, "CartPoleEnv.step"),
    ("envs.step", envs, "MiniGridEnv.step"),
    ("envs.reset", envs, "CartPoleEnv.reset"),
    ("envs.reset", envs, "MiniGridEnv.reset"),
    ("agents.act", agents, "CartPoleAgent.act"),
    ("agents.act", agents, "TnVqcAgent.act"),
    ("agents.circuit", agents, "CartPoleAgent.logits"),
    ("agents.circuit", agents, "TnVqcAgent.feature_logits"),
    ("agents.build", agents, "AgentArchitecture.build"),
    ("mps.unflatten", mps, "unflatten"),
    ("mps.contract", mps, "contract"),
    ("qsim.apply_single", agents, "apply_single"),
    ("evo.rank", evo, "rank_indices"),
    ("evo.spawn", evo, "spawn_children"),
    ("evo.init", evo, "init_population"),
    ("evo.fitness", evo, "evaluate_fitness"),
    ("cli.checkpoint_write", cli, "_write_checkpoint"),
    ("cli.checkpoint_read", cli, "_load_checkpoint"),
    ("cli.best_genome_write", cli, "_write_best_genome"),
)


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(ends)
            names.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf()
                stack.pop()

        return traced

    def save(self, path: str, run_id: str) -> None:
        import numpy as np
        np.savez(path, run_id=run_id, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def contract_flops(shapes: list[tuple[int, ...]]) -> int:
    """Floating-point operations of one `mps.contract` sweep over these cores.

    `shapes` is `mps._core_shapes(...)`: (d, m), (m, d, m) ..., the output
    core (m, out, m) in the middle, ... (m, d, m), (m, d).  A multiply-add
    counts as 2.  Left of the output core the sweep carries a (m,) vector,
    right of it an (out, m) matrix.
    """
    pos = len(shapes) // 2
    out = shapes[pos][1]
    multiply_adds = shapes[0][0] * shapes[0][1]          # phi[0] @ first core
    for a, d, b in shapes[1:pos]:                        # site matrix, vector @ it
        multiply_adds += a * d * b + a * b
    multiply_adds += math.prod(shapes[pos])              # output core
    for a, d, b in shapes[pos + 1:-1]:                   # site matrix, carry @ it
        multiply_adds += a * d * b + out * a * b
    multiply_adds += math.prod(shapes[-1]) + out * shapes[-1][0]  # last core
    return 2 * multiply_adds


def install_layer_spans(tracer: Tracer, checkpoint_sizes: list[int],
                        sweeps: dict) -> list[str]:
    """Wrap every callable in LAYER_CALLABLES; returns the ones not found.

    `sweeps` counts `mps.contract` calls per (n_sites, bond_dim, out_dim).
    """

    def split_by_phase(name, evaluate):
        # one callable, two phases: the tag in the seed entropy says which
        eval_phase = tracer.wrap("evo.eval", evaluate)
        elite_phase = tracer.wrap("evo.elite", evaluate)

        def evaluate_fitness(*args, **kwargs):
            entropy = args[4] if len(args) > 4 else kwargs["seed_entropy"]
            phase = elite_phase if entropy[1] == evo.TAG_ELITE else eval_phase
            return phase(*args, **kwargs)

        return evaluate_fitness

    def record_size(name, write_checkpoint):
        traced = tracer.wrap(name, write_checkpoint)

        def sized(path, *args, **kwargs):
            traced(path, *args, **kwargs)
            checkpoint_sizes.append(os.path.getsize(path))

        return sized

    def count_sweeps(name, contract):
        traced = tracer.wrap(name, contract)

        def counted(extractor, *args, **kwargs):
            key = (extractor.n_sites, extractor.bond_dim, extractor.out_dim)
            sweeps[key] = sweeps.get(key, 0) + 1
            return traced(extractor, *args, **kwargs)

        return counted

    special = {"evo.fitness": split_by_phase, "cli.checkpoint_write": record_size,
               "mps.contract": count_sweeps}
    missing = []
    for name, module, path in LAYER_CALLABLES:
        *owners, attr = path.split(".")
        owner = module
        for part in owners:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{module.__name__}.{path}")
        else:
            setattr(owner, attr, special.get(name, tracer.wrap)(name, fn))
    return missing


def reference_burst() -> float:
    """Seconds this process takes for a fixed pure-Python loop."""
    start = perf()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return perf() - start


def install_worker_bursts(prefix: str) -> None:
    """Have pool workers time the reference loop every WORKER_BURST_EVERY tasks.

    The workers are forked from this process and so run the wrapper; each
    appends `start seconds` lines to its own file `prefix.<pid>`.  Without
    `evo._eval_task` no worker times the loop, and the parent's loops are
    used instead.
    """
    eval_task = getattr(evo, "_eval_task", None)
    if eval_task is None:
        return
    calls = 0

    def timed_eval_task(task):
        nonlocal calls
        calls += 1
        if calls % WORKER_BURST_EVERY == 0:
            start = perf()
            seconds = reference_burst()
            with open(f"{prefix}.{os.getpid()}", "a") as handle:
                handle.write(f"{start!r} {seconds!r}\n")
        return eval_task(task)

    # the pool pickles the task function by name, so the wrapper takes it
    timed_eval_task.__module__ = eval_task.__module__
    timed_eval_task.__qualname__ = eval_task.__qualname__
    evo._eval_task = timed_eval_task


def install_generation_marks(marks: dict, tracer: Tracer | None) -> None:
    run, init_population = evo.run, evo.init_population

    def timed_init_population(*args, **kwargs):
        population = init_population(*args, **kwargs)
        marks["first"] = perf()
        return population

    def timed_run(*args, on_generation=None, **kwargs):
        marks["first"] = perf()
        stamps = marks["gens"]
        if on_generation is not None and tracer is not None:
            on_generation = tracer.wrap("cli.on_generation", on_generation)

        def hook(stats, snapshot):
            stamps.append(perf())
            marks["bursts"].append(reference_burst())
            if on_generation is not None:
                on_generation(stats, snapshot)

        return run(*args, on_generation=hook, **kwargs)

    evo.init_population = timed_init_population
    evo.run = timed_run


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: child.py REPORT.json SPANS.npz|- -- QEVO_ARGS...",
              file=sys.stderr)
        return 2
    report_path, spans_path, qevo_argv = argv[0], argv[1], argv[3:]
    tracer = Tracer() if spans_path != "-" else None
    checkpoint_sizes: list[int] = []
    sweeps: dict = {}
    missing = install_layer_spans(tracer, checkpoint_sizes, sweeps) if tracer else []
    marks: dict = {"first": None, "gens": [], "bursts": []}
    install_generation_marks(marks, tracer)
    worker_prefix = report_path + ".worker"
    install_worker_bursts(worker_prefix)

    status = cli.main(qevo_argv)
    end = perf()
    worker_bursts = []
    for path in Path(worker_prefix).parent.glob(Path(worker_prefix).name + ".*"):
        worker_bursts += [[float(x) for x in line.split()] for line in path.read_text().splitlines()]
        path.unlink()
    maxrss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer is not None:
        tracer.save(spans_path, run_id=Path(spans_path).stem)
    Path(report_path).write_text(json.dumps({
        "status": status, "first": marks["first"], "gens": marks["gens"],
        "bursts": marks["bursts"], "worker_bursts": sorted(worker_bursts),
        "end": end, "maxrss_kb": maxrss, "checkpoint_sizes": checkpoint_sizes,
        "contract_flops": sum(calls * contract_flops(mps._core_shapes(*key))
                              for key, calls in sweeps.items()),
        "not_traced": missing,
    }))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
