"""Session set-up shared by every test module, the tiny runs the command line
tests start from, and the command line's failure and determinism contracts."""

import contextlib
import dataclasses
import io
import json
import os
import re
import threading
import warnings
from pathlib import Path
from unittest import mock

import pytest

from qevo import cli, evo

# When a Hypothesis test fails, its report hook imports this module, which
# imports libcst, whose import raises a DeprecationWarning (of
# mypy_extensions); as every warning is an error (pyproject.toml), that ends the
# whole session with an INTERNALERROR, so the failure goes unreported and later
# tests never run.
# Imported once here, with the warning ignored, the hook finds it loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed: the hook reports without it
        pass


def write_config(path: Path, **overrides) -> Path:
    """A tiny cart-pole run config at `path`, writing to `path.parent / "run"`,
    with `overrides` of its top-level keys and of its `evo` section."""
    section = {"population": 6, "truncation": 2, "mutation_power": 0.05, "repeats_all": 2,
               "repeats_parents": 2, "generations": 5, "master_seed": 3, "init_scale": 0.01,
               **overrides.pop("evo", {})}
    path.write_text(json.dumps({"env": "cartpole", "out_dir": str(path.parent / "run"),
                                "workers": 1, "checkpoint_every": 2, **overrides,
                                "evo": section}))
    return path


def run_files(run: Path) -> dict | None:
    """Each file of a run directory by name, with its bytes; None if there is none."""
    return {path.name: path.read_bytes() for path in sorted(run.iterdir())} \
        if run.exists() else None


@dataclasses.dataclass(frozen=True)
class Outcome:
    """What one `qevo` command did: its exit status, what it printed, the
    plans it scored in this process and its run directory before and after."""
    status: int
    out: str
    err: str
    scored: int
    run_before: dict | None
    run_after: dict | None


def run_qevo(argv: list[str], run: Path | None = None) -> Outcome:
    """Run `qevo argv` in this process, counting the calls of
    `evo.batch_fitness` and `evo.episode_returns` and reading the run
    directory `run` before and after.  A plain function, not a fixture, so
    that a Hypothesis test can call it once per example."""
    before = None if run is None else run_files(run)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(evo, "batch_fitness", wraps=evo.batch_fitness) as fitness, \
            mock.patch.object(evo, "episode_returns", wraps=evo.episode_returns) as returns, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return Outcome(status, out.getvalue(), err.getvalue(),
                   fitness.call_count + returns.call_count, before,
                   None if run is None else run_files(run))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """trained(**overrides): the run directory of `write_config(**overrides)`,
    trained with status 0 and no stderr at its first call in the module."""
    runs = {}

    def trained_run(**overrides) -> Path:
        key = json.dumps(overrides, sort_keys=True)
        if key not in runs:
            config = write_config(tmp_path_factory.mktemp("trained") / "cfg.json", **overrides)
            outcome = run_qevo(["train", "--config", str(config)])
            assert (outcome.status, outcome.err) == (0, ""), outcome
            runs[key] = config.parent / "run"
        return runs[key]

    return trained_run


@pytest.fixture
def placements(monkeypatch):
    """Every os.sched_setaffinity call, as (thread name, pid, sorted cpus),
    recorded in place of being made, so that no test pins this process:
    os.sched_getaffinity allows CPUs 3, 5 and 8 and the main thread runs on
    CPU 5."""
    placed = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {8, 3, 5})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: placed.append(
        (threading.current_thread().name, pid, sorted(cpus))), raising=False)
    monkeypatch.setattr(evo, "_this_cpu", lambda: 5)
    return placed


def assert_rejected(outcome: Outcome, text: str = "", exact: bool = False,
                    may_score: bool = False) -> None:
    """The failure contract of `train`, `resume` and `eval`: exit status 1,
    one stderr line `error: ...` holding `text` (or `error: {text}` itself
    if `exact`), nothing on stdout, no plan scored (unless `may_score`: a
    train stops at the first generation whose children overflow) and the
    run directory as it was: absent after a train, byte for byte the same
    after a resume, a missing stats.csv still missing."""
    assert outcome.status == 1, outcome
    assert re.fullmatch(r"error: [^\n]*\n", outcome.err), outcome.err
    line = outcome.err[:-1]
    assert line == f"error: {text}" if exact else text in line, (line, text)
    assert outcome.out == "", outcome.out
    assert may_score or outcome.scored == 0, line
    assert outcome.run_after == outcome.run_before, line


def assert_deterministic(run: Path, reference: Path, outcomes: list[Outcome]) -> None:
    """The determinism contract of `train` and `resume`: the commands that
    made `run` exited with status 0 and no stderr, and `run` holds what the
    uninterrupted serial run `reference`, which checkpoints every generation,
    wrote: `stats.csv` and `best_genome.json` byte for byte, and checkpoints
    equal in every key but `run_config` (the directory and worker count)."""
    assert [(outcome.status, outcome.err) for outcome in outcomes] == [(0, "")] * len(outcomes)
    for name in ("stats.csv", "best_genome.json"):
        assert (run / name).read_bytes() == (reference / name).read_bytes(), name
    checkpoints = sorted(run.glob("checkpoint_*.json"))
    assert checkpoints, sorted(run.iterdir())
    for path in checkpoints:
        ours, theirs = (json.loads(p.read_text()) for p in (path, reference / path.name))
        del ours["run_config"], theirs["run_config"]
        assert ours == theirs, path.name
