"""End-to-end command line tests on thumbnail-sized runs."""

import argparse
import base64
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevo import cli, envs, evo

import reference as ref

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
DATA_DIR = Path(__file__).resolve().parent / "data"
ARRAY_KEYS = ("parents", "elite", "best_genome")


def write_config(path: Path, **overrides) -> Path:
    config = {
        "env": "cartpole",
        "out_dir": str(path.parent / "run"),
        "workers": 1,
        "checkpoint_every": 2,
        "evo": {"population": 6, "truncation": 2, "mutation_power": 0.05,
                "repeats_all": 2, "repeats_parents": 2, "generations": 5,
                "master_seed": 3, "init_scale": 0.01},
    }
    evo_overrides = overrides.pop("evo", {})
    config.update(overrides)
    config["evo"].update(evo_overrides)
    path.write_text(json.dumps(config))
    return path


def read_stats(out_dir: Path) -> list[str]:
    return (out_dir / "stats.csv").read_text().splitlines()


def test_train_writes_stats_checkpoints_and_best_genome(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json")
    assert cli.main(["train", "--config", str(config)]) == 0
    out_dir = tmp_path / "run"
    lines = read_stats(out_dir)
    assert lines[0] == ",".join(cli.STATS_COLUMNS)
    assert len(lines) == 6  # header + 5 generations
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]
    # cadence checkpoints at generations 1 and 3, plus the final one at 4
    for gen in (1, 3, 4):
        assert (out_dir / f"checkpoint_{gen}.json").exists()
    best = json.loads((out_dir / "best_genome.json").read_text())
    assert best["env"] == "cartpole"
    assert len(best["genome"]) == 26
    assert "finished generation 4" in capsys.readouterr().out


def test_train_stops_before_writing_a_non_finite_genome(tmp_path, capsys):
    # a scale of 1e308 overflows most entries to +-inf, whose policies still
    # score finitely; the run used to write them to best_genome.json and the
    # checkpoints, which eval and resume reject.  It now stops where the
    # overflow happens, before a genome is scored, before its run directory
    # is made and with no NumPy warning (a warning is an error here)
    for key, message in [
            ("init_scale", "init_scale 1e+308 overflows the initial population"),
            ("mutation_power", "the children of generation 0 overflow at mutation_power 1e+308")]:
        (tmp_path / key).mkdir()
        config = write_config(tmp_path / key / "cfg.json", checkpoint_every=1, evo={key: 1e308})
        assert cli.main(["train", "--config", str(config)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / key / "run").exists()


def test_stats_rows_use_full_precision_floats(tmp_path):
    config = write_config(tmp_path / "cfg.json")
    cli.main(["train", "--config", str(config)])
    row = read_stats(tmp_path / "run")[1].split(",")
    assert len(row) == 7
    for cell in row[1:]:
        assert float(repr(float(cell))) == float(cell)  # repr round-trip


def test_train_reruns_are_byte_identical(tmp_path):
    config = write_config(tmp_path / "cfg.json")
    cli.main(["train", "--config", str(config)])
    first = (tmp_path / "run" / "stats.csv").read_bytes()
    cli.main(["train", "--config", str(config)])
    assert (tmp_path / "run" / "stats.csv").read_bytes() == first


def test_worker_count_leaves_stats_unchanged(tmp_path):
    config = write_config(tmp_path / "cfg.json")
    cli.main(["train", "--config", str(config), "--out-dir",
              str(tmp_path / "a")])
    cli.main(["train", "--config", str(config), "--out-dir",
              str(tmp_path / "b"), "--workers", "2"])
    assert (tmp_path / "a" / "stats.csv").read_bytes() == \
        (tmp_path / "b" / "stats.csv").read_bytes()


def test_seed_override_changes_stats(tmp_path):
    config = write_config(tmp_path / "cfg.json")
    cli.main(["train", "--config", str(config), "--out-dir",
              str(tmp_path / "a")])
    cli.main(["train", "--config", str(config), "--out-dir",
              str(tmp_path / "b"), "--seed", "99"])
    assert (tmp_path / "a" / "stats.csv").read_bytes() != \
        (tmp_path / "b" / "stats.csv").read_bytes()


def test_resume_from_checkpoint_matches_uninterrupted_run(tmp_path):
    config = write_config(tmp_path / "cfg.json")
    cli.main(["train", "--config", str(config), "--out-dir",
              str(tmp_path / "full")])
    reference = (tmp_path / "full" / "stats.csv").read_bytes()
    best_genome = (tmp_path / "full" / "best_genome.json").read_bytes()

    partial = write_config(tmp_path / "cfg_partial.json",
                           out_dir=str(tmp_path / "partial"),
                           evo={"generations": 4})
    cli.main(["train", "--config", str(partial)])
    assert cli.main(["resume", "--checkpoint",
                     str(tmp_path / "partial" / "checkpoint_3.json"),
                     "--generations", "5"]) == 0
    assert (tmp_path / "partial" / "stats.csv").read_bytes() == reference
    assert (tmp_path / "partial" / "best_genome.json").read_bytes() == best_genome


def test_resume_truncates_rows_beyond_checkpoint(tmp_path):
    config = write_config(tmp_path / "cfg.json")
    cli.main(["train", "--config", str(config)])
    reference = (tmp_path / "run" / "stats.csv").read_bytes()
    # resuming from the generation-1 checkpoint replays generations 2..4
    assert cli.main(["resume", "--checkpoint",
                     str(tmp_path / "run" / "checkpoint_1.json")]) == 0
    assert (tmp_path / "run" / "stats.csv").read_bytes() == reference


@pytest.mark.parametrize("generations", [2, 1])
def test_resume_with_nothing_to_run_touches_no_file(tmp_path, capsys, generations):
    config = write_config(tmp_path / "cfg.json", checkpoint_every=1)
    assert cli.main(["train", "--config", str(config)]) == 0
    out_dir = tmp_path / "run"

    def digests():
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in out_dir.iterdir()}

    before = digests()
    capsys.readouterr()
    # generation 1 is the checkpoint's, so a run of 2 or fewer is already done
    assert cli.main(["resume", "--checkpoint", str(out_dir / "checkpoint_1.json"),
                     "--generations", str(generations)]) == 0
    assert "no generations to run" in capsys.readouterr().out
    assert digests() == before


@pytest.mark.parametrize("damage,missing", [
    (lambda lines: None, 0),
    (lambda lines: lines[:2], 1),  # the header and row 0
    (lambda lines: lines[:4] + [lines[4][:5]], 3),
], ids=["missing", "cut-after-row-0", "torn-row"])
def test_resume_without_rows_up_to_checkpoint_fails(tmp_path, capsys, monkeypatch, damage,
                                                     missing):
    config = write_config(tmp_path / "cfg.json", evo={"generations": 6})
    assert cli.main(["train", "--config", str(config)]) == 0
    scored = []
    batch_fitness = evo.batch_fitness

    def recorded(*args):
        scored.append(args)
        return batch_fitness(*args)

    monkeypatch.setattr(evo, "batch_fitness", recorded)
    stats = tmp_path / "run" / "stats.csv"
    lines = damage(read_stats(tmp_path / "run"))
    kept = None if lines is None else "\n".join(lines) + "\n"
    if kept is None:
        stats.unlink()
    else:
        stats.write_text(kept)
    capsys.readouterr()
    # generation 3's checkpoint needs rows 0..3; the first one missing is named
    assert cli.main(["resume", "--checkpoint",
                     str(tmp_path / "run" / "checkpoint_3.json")]) == 1
    err = capsys.readouterr().err
    assert "stats.csv" in err and f"generation {missing}," in err
    assert (stats.read_text() if stats.exists() else None) == kept
    assert scored == []  # the rows are checked before any plan is scored


def test_resume_with_nothing_to_run_keeps_a_header_only_stats_file(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json")
    assert cli.main(["train", "--config", str(config)]) == 0
    stats = tmp_path / "run" / "stats.csv"
    stats.write_text(",".join(cli.STATS_COLUMNS) + "\n")
    before = stats.read_bytes()
    assert cli.main(["resume", "--checkpoint", str(tmp_path / "run" / "checkpoint_3.json"),
                     "--generations", "4"]) == 0
    assert "no generations to run" in capsys.readouterr().out
    assert stats.read_bytes() == before


def test_eval_reports_scores(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json")
    cli.main(["train", "--config", str(config)])
    capsys.readouterr()
    assert cli.main(["eval", "--genome",
                     str(tmp_path / "run" / "best_genome.json"),
                     "--episodes", "3", "--seed", "5"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["env"] == "cartpole"
    assert len(result["scores"]) == 3
    assert result["mean"] == pytest.approx(
        sum(result["scores"]) / 3)


def test_eval_zero_episodes(tmp_path, capsys):
    genome_file = tmp_path / "g.json"
    genome_file.write_text(json.dumps({"env": "cartpole",
                                       "genome": [0.0] * 26}))
    assert cli.main(["eval", "--genome", str(genome_file),
                     "--episodes", "0"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["scores"] == []
    assert result["mean"] is None and result["std"] is None


def test_eval_rejects_negative_episodes(tmp_path, capsys):
    genome_file = tmp_path / "g.json"
    genome_file.write_text(json.dumps({"env": "cartpole",
                                       "genome": [0.0] * 26}))
    assert cli.main(["eval", "--genome", str(genome_file),
                     "--episodes", "-3"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "--episodes" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("env_name", ["cartpole", "minigrid-5"])
def test_eval_rejects_a_negative_seed(tmp_path, capsys, env_name):
    # a minigrid walk never draws from its stream, so the seed is checked first
    genome_file = tmp_path / "g.json"
    genome_file.write_text(json.dumps({"env": env_name,
                                       "genome": [0.0] * envs.make(env_name).genome_length}))
    assert cli.main(["eval", "--genome", str(genome_file), "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "--seed" in captured.err
    assert captured.out == ""


def test_eval_rejects_an_unknown_env_flag(tmp_path, capsys):
    genome_file = tmp_path / "g.json"
    genome_file.write_text(json.dumps({"env": "cartpole", "genome": [0.0] * 26}))
    assert cli.main(["eval", "--genome", str(genome_file), "--env", "pong"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "unknown environment 'pong'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("bad", [1.5, True, 0, "2", None])
def test_eval_rejects_a_bad_bond_dim_in_the_file(tmp_path, capsys, bad):
    # 1.5 used to reach the genome length (700.5 expected), true was taken as 1
    length = envs.MiniGridEnv(5, bond_dim=1).genome_length
    genome_file = tmp_path / "g.json"
    genome_file.write_text(json.dumps({"env": "minigrid-5", "bond_dim": bad,
                                       "genome": [0.0] * length}))
    assert cli.main(["eval", "--genome", str(genome_file), "--episodes", "1"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "'bond_dim'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("payload", [[0.0] * 26, {"env": "cartpole"}, "genome", 26])
def test_eval_requires_an_object_with_a_genome_key(tmp_path, capsys, payload):
    genome_file = tmp_path / "g.json"
    genome_file.write_text(json.dumps(payload))
    assert cli.main(["eval", "--genome", str(genome_file), "--env", "cartpole",
                     "--episodes", "1"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "'genome'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("bad", [["cartpole"], 5, None, "pong"],
                         ids=["list", "number", "null", "unknown"])
def test_eval_rejects_a_bad_env_in_the_file(tmp_path, capsys, bad):
    genome_file = tmp_path / "g.json"
    genome_file.write_text(json.dumps({"env": bad, "genome": [0.0] * 26}))
    assert cli.main(["eval", "--genome", str(genome_file), "--episodes", "1"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "'env'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("env_name,bond_dim", [("cartpole", 4), ("minigrid-5", 2)])
def test_eval_output_matches_play_episode(tmp_path, capsys, env_name, bond_dim):
    env = ref.make_env(env_name, bond_dim)
    genome = np.random.default_rng(8).standard_normal(env.genome_length) * 0.3
    genome_file = tmp_path / "g.json"
    genome_file.write_text(json.dumps({"env": env_name, "bond_dim": bond_dim,
                                       "genome": genome.tolist()}))
    assert cli.main(["eval", "--genome", str(genome_file),
                     "--episodes", "4", "--seed", "6"]) == 0
    # the scalar reference: one agent, one Generator for all episodes
    agent = ref.build_agent(env, genome)
    rng = np.random.default_rng(np.random.SeedSequence([6]))
    memo: dict = {}
    scores = [ref.play_episode(agent, env, rng, memo) for _ in range(4)]
    expected = json.dumps({"env": env_name, "episodes": 4, "scores": scores,
                           "mean": float(np.mean(scores)), "std": float(np.std(scores))})
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("seed,episodes", [(2**32 + 5, 4), (6, 0), (6, 2000)],
                         ids=["two-word-seed", "no-episodes", "long-stream"])
def test_cartpole_eval_scores_match_play_episode(tmp_path, capsys, seed, episodes):
    # every episode's start state comes from the one stream [seed]
    env = ref.make_env("cartpole")
    genome = np.random.default_rng(8).standard_normal(env.genome_length) * 0.3
    genome_file = tmp_path / "g.json"
    genome_file.write_text(json.dumps({"env": "cartpole", "genome": genome.tolist()}))
    assert cli.main(["eval", "--genome", str(genome_file), "--episodes", str(episodes),
                     "--seed", str(seed)]) == 0
    agent = ref.build_agent(env, genome)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    memo: dict = {}
    scores = [ref.play_episode(agent, env, rng, memo) for _ in range(episodes)]
    result = json.loads(capsys.readouterr().out)
    assert (result["episodes"], result["scores"]) == (episodes, scores)


def test_eval_reads_an_encoded_genome(tmp_path, capsys):
    genome = np.random.default_rng(8).standard_normal(26) * 0.3
    outputs = []
    for form in (genome.tolist(), encode(genome)):
        genome_file = tmp_path / "g.json"
        genome_file.write_text(json.dumps({"env": "cartpole", "genome": form}))
        assert cli.main(["eval", "--genome", str(genome_file), "--episodes", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_eval_rejects_non_finite_genome(tmp_path, capsys, bad):
    genome_file = tmp_path / "g.json"
    genome_file.write_text('{"env": "cartpole", "genome": [%s%s]}'
                           % ("0.0, " * 25, bad))
    assert cli.main(["eval", "--genome", str(genome_file), "--episodes", "2"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "non-finite" in captured.err
    assert captured.out == ""


@pytest.mark.filterwarnings("error")
def test_eval_plays_a_genome_of_huge_angles(capsys):
    # alpha + gamma of two angles of 1e308 overflows unless they are reduced
    # by their period first
    assert cli.main(["eval", "--genome", str(DATA_DIR / "cartpole_huge_angles.json"),
                     "--episodes", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert all(0 <= score <= envs.CartPoleEnv.max_return
               for score in json.loads(captured.out)["scores"])


@pytest.mark.filterwarnings("error")
def test_train_on_huge_mps_entries_runs_without_warning_on_any_worker_count(tmp_path, capsys):
    # entries of about 1e10 overflow the cell tables' products to inf and NaN
    config = write_config(tmp_path / "cfg.json", env="minigrid-5",
                          evo={"init_scale": 1e10, "generations": 2})
    stats = []
    for workers in ("1", "2"):
        out_dir = tmp_path / f"workers{workers}"
        assert cli.main(["train", "--config", str(config), "--workers", workers,
                         "--out-dir", str(out_dir)]) == 0
        assert capsys.readouterr().err == ""
        stats.append((out_dir / "stats.csv").read_bytes())
    assert stats[0] == stats[1] and len(stats[0].splitlines()) == 3


@pytest.mark.parametrize("genome", [["0.5"] * 26, [0.0] * 25 + [True], "0.0"],
                         ids=["strings", "bool", "string"])
def test_eval_rejects_a_genome_of_non_numbers(tmp_path, capsys, genome):
    # NumPy would read "0.5" and true as numbers, and a lone string as a 0-d array
    genome_file = tmp_path / "g.json"
    genome_file.write_text(json.dumps({"env": "cartpole", "genome": genome}))
    assert cli.main(["eval", "--genome", str(genome_file), "--episodes", "2"]) == 1
    captured = capsys.readouterr()
    assert "error: genome holds a value that is not a JSON number" in captured.err
    assert captured.out == ""


def decode(value: dict) -> np.ndarray:
    """A checkpoint array in format 2, read without the code under test."""
    return np.frombuffer(base64.b64decode(value["float64le"]), "<f8").reshape(value["shape"])


def encode(values) -> dict:
    array = np.asarray(values, dtype="<f8")
    return {"shape": list(array.shape),
            "float64le": base64.b64encode(array.tobytes()).decode("ascii")}


def rewrite_checkpoint(path: Path, form: str, key: str, corrupt) -> None:
    """Apply `corrupt` to field `key` in list form, then write the checkpoint
    back with its arrays encoded (format 2) or as JSON lists (format 1)."""
    data = json.loads(path.read_text())
    for name in ARRAY_KEYS:
        data[name] = decode(data[name]).tolist()
    data[key] = corrupt(data[key])
    if form == "list":
        data["format"] = 1
    else:
        for name in ARRAY_KEYS:
            data[name] = encode(data[name])
    path.write_text(json.dumps(data))  # json writes a NaN as the NaN token


def both_forms(cases: list[tuple], ids: list[str]) -> list:
    """Each case on a format-2 checkpoint (under its own id) and on a format-1
    one (id suffix '-format1')."""
    return [pytest.param(form, *case, id=case_id + suffix)
            for form, suffix in (("encoded", ""), ("list", "-format1"))
            for case, case_id in zip(cases, ids)]


def put(bad):
    """A corruption that sets a scalar, or the last entry of an array's first
    row, to `bad`."""
    def corrupt(value):
        if isinstance(value, float):
            return bad
        if isinstance(value[0], list):
            value[0][-1] = bad
        else:
            value[-1] = bad
        return value

    return corrupt


NON_FINITE_KEYS = ["parents", "elite", "best_genome", "best_score", "window"]
NON_FINITE_CASES = ([(key, math.nan) for key in NON_FINITE_KEYS]
                    + [("parents", -math.inf), ("best_score", math.inf)])


@pytest.mark.parametrize("form,key,bad", both_forms(
    NON_FINITE_CASES, NON_FINITE_KEYS + ["parents-inf", "best_score-inf"]))
def test_resume_rejects_non_finite_checkpoint(tmp_path, capsys, form, key, bad):
    config = write_config(tmp_path / "cfg.json", evo={"generations": 4})
    assert cli.main(["train", "--config", str(config)]) == 0
    checkpoint = tmp_path / "run" / "checkpoint_1.json"
    rewrite_checkpoint(checkpoint, form, key, put(bad))
    before = (tmp_path / "run" / "stats.csv").read_bytes()
    capsys.readouterr()
    assert cli.main(["resume", "--checkpoint", str(checkpoint)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "non-finite" in captured.err
    assert (tmp_path / "run" / "stats.csv").read_bytes() == before


@pytest.mark.parametrize("form,key,corrupt", both_forms([
    ("parents", lambda rows: [row[:-1] for row in rows]),
    ("parents", lambda rows: rows[:-1]),
    ("best_score", lambda value: [value]),
    ("elite", lambda values: values[:-1]),
    ("best_genome", lambda values: values[:3]),
    ("window", lambda rows: [row[:-1] for row in rows]),
    ("window", lambda rows: rows[:-1]),
    ("generation", lambda value: 1.5),
    ("generation", lambda value: -1),
], ["parents-width", "parents-count", "best_score-list", "elite",
    "best_genome", "window-width", "window-rows", "generation-float",
    "generation-negative"]))
def test_rejected_resume_leaves_stats_unchanged(tmp_path, capsys, form, key, corrupt):
    config = write_config(tmp_path / "cfg.json")
    assert cli.main(["train", "--config", str(config)]) == 0
    checkpoint = tmp_path / "run" / "checkpoint_1.json"
    rewrite_checkpoint(checkpoint, form, key, corrupt)
    before = (tmp_path / "run" / "stats.csv").read_bytes()
    capsys.readouterr()
    assert cli.main(["resume", "--checkpoint", str(checkpoint)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and repr(key) in captured.err
    assert (tmp_path / "run" / "stats.csv").read_bytes() == before


@pytest.mark.parametrize("key,corrupt", [
    ("parents", lambda array: {**array, "float64le": "*" + array["float64le"][1:]}),
    ("elite", lambda array: {**array, "float64le": array["float64le"][:-12]}),
    ("best_genome", lambda array: {**array, "shape": [-26]}),
    ("best_genome", lambda array: {**array, "shape": [26.0]}),
    ("best_genome", lambda array: {**array, "shape": [True]}),
    ("elite", lambda array: {"shape": array["shape"]}),
    ("window", lambda rows: encode(rows)),
], ids=["not-base64", "truncated", "shape-negative", "shape-float", "shape-bool",
        "no-float64le", "window-encoded"])
def test_resume_rejects_malformed_encoded_array(tmp_path, capsys, key, corrupt):
    config = write_config(tmp_path / "cfg.json")
    assert cli.main(["train", "--config", str(config)]) == 0
    checkpoint = tmp_path / "run" / "checkpoint_1.json"
    data = json.loads(checkpoint.read_text())
    data[key] = corrupt(data[key])
    checkpoint.write_text(json.dumps(data))
    before = (tmp_path / "run" / "stats.csv").read_bytes()
    capsys.readouterr()
    assert cli.main(["resume", "--checkpoint", str(checkpoint)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and repr(key) in captured.err
    assert (tmp_path / "run" / "stats.csv").read_bytes() == before


@pytest.mark.parametrize("count", [1.5, True, 7, -100])
def test_resume_rejects_a_window_count_other_than_the_population(tmp_path, capsys, count):
    # training counts each generation's whole population, here 6; other
    # counts used to resume into a rolling mean and std no run can write
    config = write_config(tmp_path / "cfg.json")
    assert cli.main(["train", "--config", str(config)]) == 0
    checkpoint = tmp_path / "run" / "checkpoint_1.json"
    data = json.loads(checkpoint.read_text())
    data["window"][0][0] = count
    checkpoint.write_text(json.dumps(data))
    before = (tmp_path / "run" / "stats.csv").read_bytes()
    capsys.readouterr()
    assert cli.main(["resume", "--checkpoint", str(checkpoint)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "'window'" in captured.err
    assert (tmp_path / "run" / "stats.csv").read_bytes() == before


def run_dir_bytes(run: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(run.iterdir())}


@pytest.mark.parametrize("total,total_sq",
                         [(-1e6, 0.0), (3.0, 1.0), (0.0, -1e-300), (True, 1e9), (6.0, "40")],
                         ids=["negative-sum-zero-squares", "squares-below-mean",
                              "negative-squares", "sum-bool", "squares-string"])
def test_resume_rejects_window_sums_no_data_set_has(tmp_path, capsys, total, total_sq):
    # 6 values summing to `total` have a sum of squares of at least total^2 / 6;
    # a row below that would resume into a rolling std no run can write, and
    # a sum that is not a JSON number would be written back as it is
    config = write_config(tmp_path / "cfg.json")
    assert cli.main(["train", "--config", str(config)]) == 0
    checkpoint = tmp_path / "run" / "checkpoint_1.json"
    data = json.loads(checkpoint.read_text())
    data["window"][0][1:] = [total, total_sq]
    checkpoint.write_text(json.dumps(data))
    before = run_dir_bytes(tmp_path / "run")
    capsys.readouterr()
    assert cli.main(["resume", "--checkpoint", str(checkpoint)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "'window'" in lines[0]
    assert run_dir_bytes(tmp_path / "run") == before


def test_resume_accepts_the_window_of_a_generation_of_equal_fitness(tmp_path, capsys):
    # six agents that all walk 7 steps to the minigrid-5 goal score 0.937
    # each, and the sums training writes for them fall short of
    # count * sumsq >= sum^2 by rounding (about 2e-16 of sum^2)
    config = write_config(tmp_path / "cfg.json", env="minigrid-5", mps_bond_dim=1,
                          evo={"generations": 3})
    assert cli.main(["train", "--config", str(config)]) == 0
    fitness = np.full(6, 1.0 - 0.9 * 7 / 100)
    row = [6, float(fitness.sum()), float(np.square(fitness).sum())]
    assert row[0] * row[2] < row[1] ** 2
    checkpoint = tmp_path / "run" / "checkpoint_1.json"
    data = json.loads(checkpoint.read_text())
    data["window"][0] = row
    checkpoint.write_text(json.dumps(data))
    capsys.readouterr()
    assert cli.main(["resume", "--checkpoint", str(checkpoint)]) == 0
    assert capsys.readouterr().err == ""
    assert len(read_stats(tmp_path / "run")) == 4


@pytest.mark.parametrize("env,key,corrupt", [
    # these two used to resume into rolling_std_100 = inf and a best genome
    # frozen by a score no episode reaches
    ("cartpole", "window", lambda rows: [[*row[:2], 1e308] for row in rows]),
    ("cartpole", "best_score", lambda value: 1e9),
    ("cartpole", "best_score", lambda value: -1.0),
    ("cartpole", "window", lambda rows: [[6, 3000.5, 3000.5 ** 2 / 6], *rows[1:]]),
    ("cartpole", "window", lambda rows: [[6, 3000.0, 1.5e6 * (1 + 1e-15)], *rows[1:]]),
    ("cartpole", "window", lambda rows: [[6, -1e-300, 0.0], *rows[1:]]),
    ("minigrid-5", "best_score", lambda value: 1.0000000000000002),
    ("minigrid-5", "window", lambda rows: [[6, 6.5, 6.5 ** 2 / 6], *rows[1:]]),
], ids=["squares-1e308", "best_score-1e9", "best_score-negative", "sum-above-max",
        "squares-above-max", "sum-negative", "minigrid-best_score-above-1",
        "minigrid-sum-above-max"])
def test_resume_rejects_returns_no_episode_has(tmp_path, capsys, env, key, corrupt):
    # cart-pole returns lie in [0, 500] and minigrid's in [0, 1]; a window
    # row of 6 values has sums in [0, 6 R] and [0, 6 R^2]
    config = write_config(tmp_path / "cfg.json", env=env, mps_bond_dim=1,
                          evo={"generations": 3})
    assert cli.main(["train", "--config", str(config)]) == 0
    checkpoint = tmp_path / "run" / "checkpoint_1.json"
    data = json.loads(checkpoint.read_text())
    data[key] = corrupt(data[key])
    checkpoint.write_text(json.dumps(data))
    before = run_dir_bytes(tmp_path / "run")
    capsys.readouterr()
    assert cli.main(["resume", "--checkpoint", str(checkpoint)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and repr(key) in lines[0]
    assert run_dir_bytes(tmp_path / "run") == before


NOT_A_NUMBER = "holds a value that is not a JSON number"


@pytest.mark.parametrize("form,key,corrupt,message", [
    ("encoded", "format", lambda value: 3, "unsupported checkpoint format: 3"),
    # true == 1 in Python, so it used to pass as format 1
    ("encoded", "format", lambda value: True, "unsupported checkpoint format: True"),
    # ragged rows have no encoded form, so this case is a format-1 file only
    ("list", "parents", lambda rows: [rows[0][:-1], *rows[1:]],
     "'parents' is not a regular array of numbers"),
    # NumPy reads "1e9" and true as numbers: a best score of 1e9 no episode
    # reaches would freeze the run's best genome
    ("encoded", "best_score", lambda value: "1e9", f"'best_score' {NOT_A_NUMBER}"),
    ("encoded", "best_score", lambda value: True, f"'best_score' {NOT_A_NUMBER}"),
    ("list", "parents", lambda rows: [[str(v) for v in rows[0]], *rows[1:]],
     f"'parents' {NOT_A_NUMBER}"),
    ("list", "best_genome", lambda values: [True, *values[1:]],
     f"'best_genome' {NOT_A_NUMBER}"),
    ("encoded", "run_config", lambda config: {**config, "out_dir": 5},
     "out_dir must be of type str"),
    ("encoded", "run_config", lambda config: {**config, "env": "pong"},
     "unknown environment 'pong'"),
    ("encoded", "window", lambda rows: [[rows[0][0], True, rows[0][2]], *rows[1:]],
     f"'window' {NOT_A_NUMBER}"),
], ids=["format-3", "format-bool", "parents-ragged-format1", "best_score-string", "best_score-bool",
        "parents-strings-format1", "best_genome-bool-format1", "out_dir-int", "env-unknown",
        "window-bool"])
def test_resume_rejects_an_unreadable_checkpoint(tmp_path, capsys, form, key, corrupt,
                                                 message):
    config = write_config(tmp_path / "cfg.json")
    assert cli.main(["train", "--config", str(config)]) == 0
    checkpoint = tmp_path / "run" / "checkpoint_1.json"
    rewrite_checkpoint(checkpoint, form, key, corrupt)
    before = run_dir_bytes(tmp_path / "run")
    capsys.readouterr()
    assert cli.main(["resume", "--checkpoint", str(checkpoint)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and message in captured.err
    assert run_dir_bytes(tmp_path / "run") == before


def test_resume_rejects_a_checkpoint_that_is_not_an_object(tmp_path, capsys):
    checkpoint = tmp_path / "checkpoint_1.json"
    checkpoint.write_text("[1]")
    assert cli.main(["resume", "--checkpoint", str(checkpoint)]) == 1
    assert "checkpoint must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("key", sorted(cli.CHECKPOINT_KEYS))
def test_resume_names_a_missing_checkpoint_key(tmp_path, capsys, key):
    config = write_config(tmp_path / "cfg.json")
    assert cli.main(["train", "--config", str(config)]) == 0
    checkpoint = tmp_path / "run" / "checkpoint_1.json"
    data = json.loads(checkpoint.read_text())
    del data[key]
    checkpoint.write_text(json.dumps(data))
    before = (tmp_path / "run" / "stats.csv").read_bytes()
    capsys.readouterr()
    assert cli.main(["resume", "--checkpoint", str(checkpoint)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "missing" in captured.err
    assert repr(key) in captured.err
    assert (tmp_path / "run" / "stats.csv").read_bytes() == before


def test_format1_checkpoint_resumes_to_uninterrupted_stats(tmp_path):
    # written before arrays were encoded: cart-pole, 5 generations, a
    # checkpoint every generation; the stats are the uninterrupted run's
    data = json.loads((DATA_DIR / "format1_checkpoint_1.json").read_text())
    assert data["format"] == 1 and isinstance(data["parents"], list)
    reference = (DATA_DIR / "format1_stats.csv").read_bytes()
    out_dir = tmp_path / "run"
    data["run_config"]["out_dir"] = str(out_dir)
    checkpoint = tmp_path / "checkpoint_1.json"
    checkpoint.write_text(json.dumps(data))
    out_dir.mkdir()
    # the interrupted run had written the header and generations 0 and 1
    (out_dir / "stats.csv").write_bytes(b"".join(reference.splitlines(keepends=True)[:3]))
    assert cli.main(["resume", "--checkpoint", str(checkpoint)]) == 0
    assert (out_dir / "stats.csv").read_bytes() == reference


def test_checkpoint_holds_only_what_a_resume_reads(tmp_path):
    config = write_config(tmp_path / "cfg.json")
    assert cli.main(["train", "--config", str(config)]) == 0
    data = json.loads((tmp_path / "run" / "checkpoint_1.json").read_text())
    assert set(data) == {"format", "run_config", "generation", "parents", "elite",
                         "window", "best_genome", "best_score"}


def test_format2_checkpoint_with_older_keys_resumes_to_uninterrupted_stats(tmp_path):
    # checkpoints used to hold the parents' fitness and the elite's score
    # too; no resume read them, and the loader now ignores them
    config = write_config(tmp_path / "cfg.json")
    assert cli.main(["train", "--config", str(config), "--out-dir",
                     str(tmp_path / "full")]) == 0
    reference = run_dir_bytes(tmp_path / "full")
    assert cli.main(["train", "--config", str(config)]) == 0
    checkpoint = tmp_path / "run" / "checkpoint_1.json"
    data = json.loads(checkpoint.read_text())
    elite_score = float(read_stats(tmp_path / "run")[2].split(",")[4])
    data.update(parent_fitness=encode([elite_score, 0.5 * elite_score]),
                elite_score=elite_score)
    checkpoint.write_text(json.dumps(data))
    assert cli.main(["resume", "--checkpoint", str(checkpoint)]) == 0
    resumed = run_dir_bytes(tmp_path / "run")
    for name in ("stats.csv", "best_genome.json"):
        assert resumed[name] == reference[name]


@pytest.mark.parametrize("every,expected", [(2, [1, 3, 4]), (1, [0, 1, 2, 3, 4]),
                                            (5, [4]), (7, [4])])
def test_each_checkpoint_is_written_once(tmp_path, monkeypatch, every, expected):
    written = []
    write = cli._write_checkpoint

    def counted(path, config, snapshot):
        written.append(snapshot.generation)
        write(path, config, snapshot)

    monkeypatch.setattr(cli, "_write_checkpoint", counted)
    config = write_config(tmp_path / "cfg.json", checkpoint_every=every)
    assert cli.main(["train", "--config", str(config)]) == 0
    assert written == expected


def test_checkpoint_round_trips_byte_for_byte(tmp_path):
    config = write_config(tmp_path / "cfg.json")
    cli.main(["train", "--config", str(config)])
    original = tmp_path / "run" / "checkpoint_3.json"
    run_config, snapshot = cli._load_checkpoint(original)
    cli._write_checkpoint(tmp_path / "copy.json", run_config, snapshot)
    assert (tmp_path / "copy.json").read_bytes() == original.read_bytes()


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    config = write_config(tmp_path / "cfg.json")
    cli.main(["train", "--config", str(config)])
    out_dir = tmp_path / "run"
    checkpoint = out_dir / "checkpoint_3.json"
    before = checkpoint.read_bytes()
    files = sorted(out_dir.iterdir())
    run_config, snapshot = cli._load_checkpoint(out_dir / "checkpoint_4.json")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        cli._write_checkpoint(checkpoint, run_config, snapshot)
    assert checkpoint.read_bytes() == before
    assert sorted(out_dir.iterdir()) == files


class Killed(Exception):
    """Stands in for the signal that ends a run."""


@pytest.mark.parametrize("killed_in", [2, 4])
def test_killed_run_leaves_best_genome_of_last_checkpoint(tmp_path, monkeypatch, killed_in):
    config = write_config(tmp_path / "cfg.json")  # a checkpoint every 2 generations
    generations = iter(range(killed_in + 1))
    rank = cli.evo.rank_indices

    def rank_until_killed(fitness):
        if next(generations) == killed_in:  # ranking is once per generation
            raise Killed()
        return rank(fitness)

    monkeypatch.setattr(cli.evo, "rank_indices", rank_until_killed)
    assert cli.main(["train", "--config", str(config)]) == 1
    out_dir = tmp_path / "run"
    last = killed_in - 1
    assert sorted(out_dir.glob("checkpoint_*.json"))[-1].name == f"checkpoint_{last}.json"
    best = json.loads((out_dir / "best_genome.json").read_text())
    _, snapshot = cli._load_checkpoint(out_dir / f"checkpoint_{last}.json")
    assert best["generation"] == last
    assert np.array_equal(best["genome"], snapshot.best_genome)


@pytest.mark.parametrize("every", [1, 2, 4])
@pytest.mark.parametrize("kill", range(1, 13))  # 6 generations write at most 12 files
def test_killed_rename_leaves_best_genome_no_older_than_checkpoint(
        tmp_path, monkeypatch, every, kill):
    replace = cli.os.replace
    replaced = 0

    def replace_until_killed(src, dst):
        nonlocal replaced
        replaced += 1
        if replaced == kill:
            raise Killed()
        replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", replace_until_killed)
    config = write_config(tmp_path / "cfg.json", checkpoint_every=every,
                          evo={"generations": 6})
    status = cli.main(["train", "--config", str(config)])
    assert status == (1 if replaced >= kill else 0)
    out_dir = tmp_path / "run"
    checkpoints = [int(path.stem.split("_")[1]) for path in out_dir.glob("checkpoint_*.json")]
    if checkpoints:  # none without a best genome, and none newer than it
        assert (out_dir / "best_genome.json").exists()
        best = json.loads((out_dir / "best_genome.json").read_text())
        assert best["generation"] >= max(checkpoints)


@pytest.fixture(scope="module")
def uninterrupted_stats(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("uninterrupted") / "cfg.json"
    assert cli.main(["train", "--config", str(write_config(path, evo={"generations": 6}))]) == 0
    return (path.parent / "run" / "stats.csv").read_bytes()


@settings(max_examples=30, deadline=None)
@given(every=st.integers(1, 4), data=st.data())
def test_resume_after_torn_write_matches_uninterrupted_run(uninterrupted_stats, every, data):
    # every write renames one file; an uninterrupted run of 6 generations
    # writes a checkpoint and best_genome.json on each of ceil(6 / every)
    # occasions, the last generation's included
    kill = data.draw(st.integers(1, 2 * math.ceil(6 / every)), label="kill")
    replace = cli.os.replace
    torn = []
    replaced = 0

    def replace_until_killed(src, dst):
        nonlocal replaced
        replaced += 1
        if replaced == kill:
            # a killed process never runs the cleanup that removes its temp file
            torn.append((Path(src), Path(src).read_bytes()[:100]))
            raise Killed()
        replace(src, dst)

    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp) / "cfg.json", checkpoint_every=every,
                              evo={"generations": 6})
        out_dir = Path(tmp) / "run"
        with mock.patch.object(cli.os, "replace", replace_until_killed):
            assert cli.main(["train", "--config", str(config)]) == 1
        for path, head in torn:
            path.write_bytes(head)
        checkpoints = sorted(out_dir.glob("checkpoint_*.json"),
                             key=lambda path: int(path.stem.split("_")[1]))
        if checkpoints:
            assert cli.main(["resume", "--checkpoint", str(checkpoints[-1])]) == 0
        else:  # killed before the first checkpoint: start again
            assert cli.main(["train", "--config", str(config)]) == 0
        assert (out_dir / "stats.csv").read_bytes() == uninterrupted_stats


@pytest.mark.parametrize("field,value", [
    ("checkpoint_every", 1.5), ("workers", True), ("mps_bond_dim", 2.0),
    ("evo.population", 10.5), ("evo.truncation", True), ("evo.master_seed", True),
    ("evo.population", True), ("evo.truncation", 2.5), ("evo.master_seed", 1.0),
    ("evo.master_seed", -1), ("evo.init_scale", True), ("evo.mutation_power", True),
    ("env", "pong"), ("workers", 0), ("mps_bond_dim", 0), ("checkpoint_every", 0),
    ("out_dir", 5), ("out_dir", None),
])
def test_config_rejects_mistyped_numbers(tmp_path, capsys, field, value):
    section, _, name = field.rpartition(".")
    overrides = {"evo": {name: value}} if section else {name: value}
    config = write_config(tmp_path / "cfg.json", **overrides)
    assert cli.main(["train", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and name in captured.err
    assert not (tmp_path / "run").exists()


def test_eval_architecture_mismatch_fails(tmp_path, capsys):
    genome_file = tmp_path / "g.json"
    genome_file.write_text(json.dumps({"env": "cartpole",
                                       "genome": [0.0] * 26}))
    assert cli.main(["eval", "--genome", str(genome_file),
                     "--env", "minigrid-5"]) == 1
    assert "does not match" in capsys.readouterr().err


def test_eval_names_the_shape_of_an_encoded_genome(tmp_path, capsys):
    # an encoded array may hold the right entry count in the wrong shape
    genome_file = tmp_path / "g.json"
    genome_file.write_text(json.dumps({"env": "cartpole", "genome": encode([[0.0]] * 26)}))
    assert cli.main(["eval", "--genome", str(genome_file)]) == 1
    assert capsys.readouterr().err == \
        "error: genome shape (26, 1) does not match cartpole (expected (26,))\n"


def test_usage_text_lists_the_flags_of_each_subcommand():
    # the usage block of the module docstring is written by hand
    documented: dict[str, set] = {}
    for line in cli.__doc__.split("\n\n")[1].splitlines():
        words = line.split()
        if words[0] == "qevo":
            command = words[1]
        documented.setdefault(command, set()).update(re.findall(r"--[\w-]+", line))
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    defined = {name: {flag for action in parser._actions for flag in action.option_strings
                      if flag not in ("-h", "--help")}
               for name, parser in subparsers.choices.items()}
    assert documented == defined


def test_readme_commands_parse():
    # the README's examples are written by hand, so the parser holds them
    readme = (CONFIG_DIR.parent / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
    commands = [line for block in blocks for line in block.splitlines()
                if line.startswith("qevo ")]
    assert commands
    parser = cli.build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_missing_config_file_fails_cleanly(tmp_path, capsys):
    assert cli.main(["train", "--config", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    data = json.loads(write_config(path).read_text())
    data["sigma"] = 0.1
    path.write_text(json.dumps(data))
    assert cli.main(["train", "--config", str(path)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_evo_key_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    data = json.loads(write_config(path).read_text())
    del data["evo"]["population"]
    path.write_text(json.dumps(data))
    assert cli.main(["train", "--config", str(path)]) == 1
    assert "missing evo config keys" in capsys.readouterr().err


@pytest.mark.parametrize("section,value", [
    ("evo", 5), ("evo", [0.02]), ("evo", None), ("config", [1]),
], ids=["evo-number", "evo-list", "evo-null", "config-list"])
def test_config_section_must_be_an_object(tmp_path, capsys, section, value):
    path = tmp_path / "cfg.json"
    data = json.loads(write_config(path).read_text())
    if section == "config":
        data = value
    else:
        data[section] = value
        section += " config"
    path.write_text(json.dumps(data))
    assert cli.main(["train", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"error: {section} must be a JSON object" in captured.err
    assert not (tmp_path / "run").exists()


def test_zero_generation_override_parses_full_scale_configs(tmp_path, capsys):
    """Production-sized configs must load and start without running."""
    cartpole = {
        "env": "cartpole", "out_dir": str(tmp_path / "cp"),
        "evo": {"population": 500, "truncation": 5, "mutation_power": 0.02,
                "repeats_all": 3, "repeats_parents": 5, "generations": 1700,
                "master_seed": 1},
    }
    minigrid = {
        "env": "minigrid-8", "mps_bond_dim": 4, "out_dir": str(tmp_path / "mg"),
        "evo": {"population": 500, "truncation": 10, "mutation_power": 0.02,
                "repeats_all": 3, "repeats_parents": 5, "generations": 500,
                "master_seed": 1},
    }
    for name, payload in (("cp.json", cartpole), ("mg.json", minigrid)):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        assert cli.main(["train", "--config", str(path),
                         "--generations", "0"]) == 0
        assert "no generations to run" in capsys.readouterr().out


@pytest.mark.parametrize("config_path", sorted(CONFIG_DIR.glob("*.json")),
                         ids=lambda path: path.name)
def test_shipped_config_starts(config_path, tmp_path, capsys, monkeypatch):
    """Every config in configs/ must load and start without running."""
    draws = []
    init_population = evo.init_population

    def counted_init(*args, **kwargs):
        draws.append(args[1])
        return init_population(*args, **kwargs)

    # perfbench's set-up probe times a run of 0 generations up to this draw
    monkeypatch.setattr(evo, "init_population", counted_init)
    assert cli.main(["train", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "run"),
                     "--generations", "0"]) == 0
    assert "no generations to run" in capsys.readouterr().out
    assert read_stats(tmp_path / "run") == [",".join(cli.STATS_COLUMNS)]
    assert len(draws) == 1


# train, resume and eval a cart-pole run, then train minigrid-5, in one
# interpreter; the last line printed lists the pool-stack modules loaded
POOL_STACK_SCRIPT = """
import json, sys
from qevo import cli
configs, out, *workers = sys.argv[1:]
run = out + "/cartpole"
assert cli.main(["train", "--config", configs + "/cartpole_desk.json",
                 "--generations", "2", "--out-dir", run, *workers]) == 0
assert cli.main(["resume", "--checkpoint", run + "/checkpoint_1.json",
                 "--generations", "3", *workers]) == 0
assert cli.main(["eval", "--genome", run + "/best_genome.json", "--episodes", "2"]) == 0
assert cli.main(["train", "--config", configs + "/minigrid5_desk.json",
                 "--generations", "1", "--out-dir", out + "/minigrid5", *workers]) == 0
print(json.dumps(sorted(name for name in sys.modules
                        if name.startswith(("multiprocessing", "concurrent")))))
"""


@pytest.mark.parametrize("workers", [1, 2])
def test_only_a_pooled_run_imports_the_pool_stack(tmp_path, workers):
    # a fresh interpreter with only src on the path, as a user's run has:
    # pytest itself has loaded both stacks here; NumPy imports ctypes and
    # threading on its own, so those are not checked
    done = subprocess.run(
        [sys.executable, "-c", POOL_STACK_SCRIPT, str(CONFIG_DIR), str(tmp_path),
         *(["--workers", str(workers)] if workers > 1 else [])],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        capture_output=True, text=True, check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    if workers == 1:
        assert loaded == []
    else:
        assert {"concurrent.futures", "multiprocessing.sharedctypes"} <= set(loaded)
