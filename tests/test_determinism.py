"""The determinism contract: each row's pooled, repeated, resumed or crash-recovered
run, made on `qevo`'s command line, writes what its config's uninterrupted serial run writes."""

import json
import math
from collections.abc import Callable
from concurrent import futures
from functools import partial
from multiprocessing import get_context
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest

from qevo import cli, evo

from conftest import assert_deterministic, record_helpers, run_qevo, write_config

UNEVEN = {"generations": 3, "repeats_parents": 3, "master_seed": 11, "init_scale": 0.3}
CONFIGS = {  # overrides of write_config's tiny cart-pole run
    "base": {},
    "seed11": {"evo": {"generations": 2, "master_seed": 11}},
    # 7 rows over 3 workers, then plans of 6 children and the 2 parents twice over and an
    # elite trial of 2 rows; plans of 1 to 3 rows, so some of 3 workers' slices are empty
    "P7-T2": {"evo": {"population": 7, **UNEVEN}},
    "P2-T1": {"evo": {"population": 2, "truncation": 1, **UNEVEN}},
    # each pool worker builds TN-VQC policies from its copy of the env
    "minigrid5": {"env": "minigrid-5", "mps_bond_dim": 2, "evo": {
        "population": 10, "generations": 4, "master_seed": 1, "init_scale": 0.2}},
    # 55 children of 4,808 entries span two spawn blocks, so a helper thread spawns each
    # generation beside the callback before it and draws the noise of every spawn after
    # the run's first while the plan before it is scored: all of it, since it fits in
    # evo.HEAD_ENTRIES (the rows with a head of 0 draw one spawn block ahead and the
    # rest in the spawn, as every P=500 run does)
    "minigrid5-P56": {"env": "minigrid-5", "mps_bond_dim": 4, "evo": {
        "population": 56, "generations": 5, "master_seed": 1, "init_scale": 0.2}},
    # entries of about 1e10 overflow the cell tables' products, warning in no process
    "huge-mps": {"env": "minigrid-5", "evo": {"init_scale": 1e10, "generations": 2}},
    # at odd m the MPS rows are not 16-byte aligned
    "bond3": {"env": "minigrid-5", "mps_bond_dim": 3, "evo": {
        "population": 20, "truncation": 4, "mutation_power": 0.1, "repeats_parents": 3,
        "generations": 4, "master_seed": 6, "init_scale": 0.2}},
    **{f"every{k}": {"checkpoint_every": k, "evo": {"generations": 6}} for k in range(1, 5)},
}
REWARDED = {"minigrid5", "minigrid5-P56", "bond3"}  # most small minigrid runs score 0 everywhere


def qevo(*args):
    return run_qevo([str(arg) for arg in args])


def train(config: Path, workers: int = 1, times: int = 1) -> list:
    return [qevo("train", "--config", config, "--workers", workers) for _ in range(times)]


def resume(config: Path, generation: int, workers: int = 1, trained_on: int = 1,
           trained_for: int | None = None, older_keys: bool = False) -> list:
    # train on `trained_on` workers for `trained_for` generations (the config's by default)
    # and resume to the config's count from checkpoint `generation`, or from a copy outside
    # the run that also holds the keys checkpoints once held, which the loader ignores
    generations = json.loads(config.read_text())["evo"]["generations"]
    trained = qevo("train", "--config", config, "--workers", trained_on,
                   "--generations", trained_for or generations)
    checkpoint = config.parent / "run" / f"checkpoint_{generation}.json"
    if older_keys:
        data = json.loads(checkpoint.read_text())
        data.update(parent_fitness=cli._encode_array(np.array([0.5, 0.25])), elite_score=0.5)
        checkpoint = config.parent / "older.json"
        checkpoint.write_text(json.dumps(data))
    return [trained, qevo("resume", "--checkpoint", checkpoint, "--workers", workers,
                          "--generations", generations)]


def torn(config: Path, kill: int) -> list:
    # kill a train at its `kill`-th rename, tear the temp file left behind to
    # 100 bytes, then resume from the newest checkpoint or train again
    replace, renames = cli.os.replace, []

    def replace_until_killed(src, dst):
        renames.append((Path(src), Path(src).read_bytes()[:100]))
        if len(renames) == kill:
            raise InterruptedError("killed")
        replace(src, dst)

    with mock.patch.object(cli.os, "replace", replace_until_killed):
        killed = qevo("train", "--config", config)
    assert (killed.status, killed.err) == (1, "error: killed\n"), killed
    renames[-1][0].write_bytes(renames[-1][1])  # the cleanup a kill never runs removed it
    newest = max(config.parent.glob("run/checkpoint_*.json"), default=None,
                 key=lambda path: int(path.stem.split("_")[1]))
    return [qevo("resume", "--checkpoint", newest) if newest
            else qevo("train", "--config", config)]


class Row(NamedTuple):
    id: str
    config: str
    produce: Callable[[Path], list]  # the Outcomes of the commands that made the run
    patch: Callable[[pytest.MonkeyPatch], None] | None = None


ROWS = [
    Row("train-twice", "base", partial(train, times=2)),
    Row("train-on-2-workers", "base", partial(train, workers=2)),
    Row("resume-from-1", "base", partial(resume, generation=1)),
    Row("resume-from-3-of-4", "base", partial(resume, generation=3, trained_for=4)),
    Row("resume-with-older-keys", "base", partial(resume, generation=1, older_keys=True)),
    Row("seed11-on-2-workers", "seed11", partial(train, workers=2)),
    # spawned workers inherit nothing: the shared buffer reaches them only in initargs
    Row("seed11-on-2-spawned-workers", "seed11", partial(train, workers=2),
        lambda monkeypatch: monkeypatch.setattr(futures, "ProcessPoolExecutor", partial(
            futures.ProcessPoolExecutor, mp_context=get_context("spawn")))),
    Row("P7-T2-on-3-workers", "P7-T2", partial(train, workers=3)),
    Row("P2-T1-on-3-workers", "P2-T1", partial(train, workers=3)),
    Row("minigrid5-on-2-workers", "minigrid5", partial(train, workers=2)),
    # the resume re-spawns its first population straight into the shared buffer
    Row("minigrid5-resume-from-1-on-2-workers", "minigrid5",
        partial(resume, generation=1, workers=2)),
    Row("minigrid5-on-2-workers-resume-from-1-serially", "minigrid5",
        partial(resume, generation=1, trained_on=2)),
    Row("minigrid5-P56-serially", "minigrid5-P56", train),
    Row("minigrid5-P56-on-2-workers", "minigrid5-P56", partial(train, workers=2)),
    Row("minigrid5-P56-resume-from-1-on-2-workers", "minigrid5-P56",
        partial(resume, generation=1, workers=2)),
    *(Row(f"minigrid5-P56-with-a-one-block-head{on}", "minigrid5-P56",
          partial(train, workers=workers),
          lambda monkeypatch: monkeypatch.setattr(evo, "HEAD_ENTRIES", 0))
      for workers, on in [(1, ""), (2, "-on-2-workers")]),
    # each helper sleeps before it ranks and spawns, so every callback runs beside one
    *(Row(f"minigrid5-P56-beside-late-helpers{on}", "minigrid5-P56",
          partial(train, workers=workers), partial(record_helpers, delay=0.05))
      for workers, on in [(1, ""), (2, "-on-2-workers")]),
    # the children fit one block, so no spawn has its head drawn ahead
    Row("minigrid5-P56-in-one-spawn-block", "minigrid5-P56", train,
        lambda monkeypatch: monkeypatch.setattr(evo, "SPAWN_BLOCK_ENTRIES", 1 << 20)),
    Row("huge-mps-on-2-workers", "huge-mps", partial(train, workers=2)),
    Row("bond3-on-2-workers", "bond3", partial(train, workers=2)),
    # 6 generations rename a best genome and a checkpoint ceil(6 / every) times
    *(Row(f"every{every}-killed-at-rename-{kill}", f"every{every}", partial(torn, kill=kill))
      for every in range(1, 5) for kill in range(1, 2 * math.ceil(6 / every) + 1)),
]


@pytest.mark.parametrize("row", [pytest.param(row, id=row.id) for row in ROWS])
def test_run_writes_what_its_serial_run_writes(row, tmp_path, monkeypatch, trained):
    reference = trained(**{**CONFIGS[row.config], "checkpoint_every": 1})
    config = write_config(tmp_path / "cfg.json", **CONFIGS[row.config])
    rows = (reference / "stats.csv").read_text().splitlines()[1:]
    assert len(rows) == json.loads(config.read_text())["evo"]["generations"]
    assert row.config not in REWARDED or any(
        float(value) != 0.0 for line in rows for value in line.split(",")[1:])
    if row.patch is not None:
        row.patch(monkeypatch)
    assert_deterministic(tmp_path / "run", reference, row.produce(config))
