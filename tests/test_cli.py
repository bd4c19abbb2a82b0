"""End-to-end command line tests on thumbnail-sized runs."""

from __future__ import annotations

import argparse
import base64
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import qevo
from qevo import cli, envs, evo

import reference as ref
from conftest import (assert_rejected, in_process_pool, record_helpers, run_files, run_qevo,
                      write_config)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
DATA_DIR = Path(__file__).resolve().parent / "data"
ARRAY_KEYS = ("parents", "elite", "best_genome")


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


def test_train_stops_before_writing_a_non_finite_genome(tmp_path):
    # a scale of 1e308 overflows most entries to +-inf, whose policies still
    # score finitely; the run used to write them to best_genome.json and the
    # checkpoints, which eval and resume reject.  It now stops where the
    # overflow happens, before the overflowing genomes are scored (only
    # generation 0 is, before its children overflow), before its run
    # directory is made and with no NumPy warning (a warning is an error here)
    for key, message in [
            ("init_scale", "init_scale 1e+308 overflows the initial population"),
            ("mutation_power", "the children of generation 0 overflow at mutation_power 1e+308")]:
        (tmp_path / key).mkdir()
        config = write_config(tmp_path / key / "cfg.json", checkpoint_every=1, evo={key: 1e308})
        assert_rejected(run_qevo(["train", "--config", str(config)], run=tmp_path / key / "run"),
                        message, exact=True, may_score=key == "mutation_power")


def test_stats_rows_use_full_precision_floats(trained):
    row = read_stats(trained())[1].split(",")
    assert len(row) == 7
    for cell in row[1:]:
        assert float(repr(float(cell))) == float(cell)  # repr round-trip


def test_seed_override_changes_stats(tmp_path):
    config = write_config(tmp_path / "cfg.json")
    cli.main(["train", "--config", str(config), "--out-dir",
              str(tmp_path / "a")])
    cli.main(["train", "--config", str(config), "--out-dir",
              str(tmp_path / "b"), "--seed", "99"])
    assert (tmp_path / "a" / "stats.csv").read_bytes() != \
        (tmp_path / "b" / "stats.csv").read_bytes()


@pytest.mark.parametrize("generations", [2, 1])
def test_resume_with_nothing_to_run_touches_no_file(tmp_path, capsys, generations):
    config = write_config(tmp_path / "cfg.json", checkpoint_every=1)
    assert cli.main(["train", "--config", str(config)]) == 0
    out_dir = tmp_path / "run"
    before = run_files(out_dir)
    capsys.readouterr()
    # generation 1 is the checkpoint's, so a run of 2 or fewer is already done
    assert cli.main(["resume", "--checkpoint", str(out_dir / "checkpoint_1.json"),
                     "--generations", str(generations)]) == 0
    assert "no generations to run" in capsys.readouterr().out
    assert run_files(out_dir) == before


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


def test_eval_reports_scores(trained, capsys):
    assert cli.main(["eval", "--genome", str(trained() / "best_genome.json"),
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


@pytest.mark.parametrize("env_name,bond_dim", [("cartpole", 4), ("minigrid-5", 2),
                                               ("minigrid-5", 1)])
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


def test_cartpole_eval_plays_a_long_stream_in_order(tmp_path, capsys):
    # a long eval reads the same stream as a short one, so its first scores
    # are the short eval's
    genome = np.random.default_rng(8).standard_normal(26) * 0.3
    genome_file = tmp_path / "g.json"
    genome_file.write_text(json.dumps({"env": "cartpole", "genome": genome.tolist()}))
    scores = []
    for episodes in ("16384", "4"):
        assert cli.main(["eval", "--genome", str(genome_file), "--episodes", episodes,
                         "--seed", "6"]) == 0
        scores.append(json.loads(capsys.readouterr().out)["scores"])
    assert len(scores[0]) == 16384 and scores[0][:4] == scores[1]


def test_eval_reads_an_encoded_genome(tmp_path, capsys):
    genome = np.random.default_rng(8).standard_normal(26) * 0.3
    outputs = []
    for form in (genome.tolist(), encode(genome)):
        genome_file = tmp_path / "g.json"
        genome_file.write_text(json.dumps({"env": "cartpole", "genome": form}))
        assert cli.main(["eval", "--genome", str(genome_file), "--episodes", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_eval_plays_a_genome_of_huge_angles(capsys):
    # alpha + gamma of two angles of 1e308 overflows unless they are reduced
    # by their period first
    assert cli.main(["eval", "--genome", str(DATA_DIR / "cartpole_huge_angles.json"),
                     "--episodes", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert all(0 <= score <= envs.CartPoleEnv.max_return
               for score in json.loads(captured.out)["scores"])


def test_a_config_of_only_env_and_evo_takes_the_documented_defaults(tmp_path):
    # the README names each of these defaults
    config = json.loads(write_config(tmp_path / "cfg.json").read_text())
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"env": config["env"], "evo": config["evo"]}))
    loaded = cli.load_run_config(bare)
    assert (loaded.mps_bond_dim, loaded.out_dir, loaded.workers,
            loaded.checkpoint_every) == (4, "runs/run", 1, 50)


def test_a_config_without_a_master_seed_trains_with_master_seed_0(tmp_path):
    config = json.loads(write_config(tmp_path / "cfg.json",
                                     evo={"master_seed": 0}).read_text())
    del config["evo"]["master_seed"]
    (tmp_path / "unseeded.json").write_text(json.dumps(config))
    for name in ("cfg", "unseeded"):
        assert cli.main(["train", "--config", str(tmp_path / f"{name}.json"),
                         "--out-dir", str(tmp_path / name)]) == 0
    assert read_stats(tmp_path / "cfg") == read_stats(tmp_path / "unseeded")


def decode(value: dict) -> np.ndarray:
    """A checkpoint array in format 2, read without the code under test."""
    return np.frombuffer(base64.b64decode(value["float64le"]), "<f8").reshape(value["shape"])


def encode(values) -> dict:
    array = np.asarray(values, dtype="<f8")
    return {"shape": list(array.shape),
            "float64le": base64.b64encode(array.tobytes()).decode("ascii")}


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


# ---------------------------------------------------------------------------
# the failure contract (conftest.assert_rejected), one table per command and
# one row per rejected input.  A row names the test it belongs to, so that
# each keeps the id the suite has always printed: a group of rows with ids
# is one parametrized test, and a group without is one test that checks
# its rows in turn


class ConfigRow(NamedTuple):
    test: str
    id: str | None
    config: Callable[[dict], object]  # the tiny config to the JSON trained on, None: no file
    text: str


class EvalRow(NamedTuple):
    test: str
    id: str | None
    genome_file: object  # the JSON evaluated
    flags: tuple[str, ...]
    text: str
    exact: bool = False


class ResumeRow(NamedTuple):
    test: str
    id: str | None
    checkpoint: Callable[[dict], object]  # the checkpoint's JSON to the JSON resumed from
    text: str | Callable[[Path], str]  # or the text, from the run directory as changed
    env: str = "cartpole"
    generation: int = 1  # of the checkpoint resumed from
    # stats.csv's lines to the lines written, or to None: the file deleted
    stats: Callable[[list[str]], list[str] | None] | None = None


def setting(field: str, value):
    """A config change that sets `field` ("evo.name" in the evo section) to `value`."""
    section, _, name = field.rpartition(".")

    def change(config: dict) -> dict:
        (config[section] if section else config)[name] = value
        return config

    return change


def at(key: str, corrupt, form: str | None = None):
    """A checkpoint change that applies `corrupt` to field `key`: as written,
    or in list form, then writing the arrays encoded (format 2) or as JSON
    lists (format 1)."""
    def change(data: dict) -> dict:
        if form is not None:
            for name in ARRAY_KEYS:
                data[name] = decode(data[name]).tolist()
        data[key] = corrupt(data[key])
        if form == "list":
            data["format"] = 1
        elif form is not None:
            for name in ARRAY_KEYS:
                data[name] = encode(data[name])
        return data

    return change


def without(key: str):
    return lambda data: {name: value for name, value in data.items() if name != key}


def both_forms(test: str, cases: list[tuple], ids: list[str], text) -> list[ResumeRow]:
    """Each (key, corrupt) case on a format-2 checkpoint (under its own id)
    and on a format-1 one (id suffix '-format1'), its text `text(key)`."""
    return [ResumeRow(test, case_id + suffix, at(key, corrupt, form), text(key))
            for form, suffix in (("encoded", ""), ("list", "-format1"))
            for (key, corrupt), case_id in zip(cases, ids)]


def another_runs_mean(run: Path) -> str:
    count, total, _ = json.loads((run / "checkpoint_1.json").read_text())["window"][-1]
    theirs = read_stats(run)[2].split(",")[2]
    return (f"stats.csv row of generation 1 has pop_mean {theirs}, "
            f"not the checkpoint's {total / count!r}")


NOT_A_NUMBER = "holds a value that is not a JSON number"
CARTPOLE_ZEROS = {"env": "cartpole", "genome": [0.0] * 26}
NON_FINITE_KEYS = ["parents", "elite", "best_genome", "best_score", "window"]

CONFIG_ROWS = [
    *(ConfigRow("test_config_rejects_mistyped_numbers", f"{field}-{value}",
                setting(field, value), field.rpartition(".")[2])
      for field, value in [
          ("checkpoint_every", 1.5), ("workers", True), ("mps_bond_dim", 2.0),
          ("evo.population", 10.5), ("evo.truncation", True), ("evo.master_seed", True),
          ("evo.population", True), ("evo.truncation", 2.5), ("evo.master_seed", 1.0),
          ("evo.master_seed", -1), ("evo.init_scale", True), ("evo.mutation_power", True),
          ("env", "pong"), ("workers", 0), ("mps_bond_dim", 0), ("checkpoint_every", 0),
          ("out_dir", 5), ("out_dir", None)]),
    *(ConfigRow("test_config_section_must_be_an_object", case_id, change,
                f"error: {section} must be a JSON object")
      for case_id, change, section in [
          ("evo-number", setting("evo", 5), "evo config"),
          ("evo-list", setting("evo", [0.02]), "evo config"),
          ("evo-null", setting("evo", None), "evo config"),
          ("config-list", lambda config: [1], "config")]),
    ConfigRow("test_missing_config_file_fails_cleanly", None, lambda config: None,
              "No such file or directory"),
    ConfigRow("test_unknown_config_key_rejected", None, setting("sigma", 0.1),
              "unknown config keys"),
    ConfigRow("test_missing_evo_key_rejected", None,
              lambda config: {**config, "evo": without("population")(config["evo"])},
              "missing evo config keys"),
]

EVAL_ROWS = [
    EvalRow("test_eval_rejects_negative_episodes", None, CARTPOLE_ZEROS,
            ("--episodes", "-3"), "--episodes"),
    # a minigrid walk never draws from its stream, so the seed is checked first
    *(EvalRow("test_eval_rejects_a_negative_seed", env_name,
              {"env": env_name, "genome": [0.0] * envs.make(env_name).genome_length},
              ("--seed", "-1"), "--seed")
      for env_name in ["cartpole", "minigrid-5"]),
    EvalRow("test_eval_rejects_an_unknown_env_flag", None, CARTPOLE_ZEROS,
            ("--env", "pong"), "unknown environment 'pong'"),
    # 1.5 used to reach the genome length (700.5 expected), true was taken as 1
    *(EvalRow("test_eval_rejects_a_bad_bond_dim_in_the_file", str(bad),
              {"env": "minigrid-5", "bond_dim": bad,
               "genome": [0.0] * envs.make("minigrid-5", 1).genome_length},
              ("--episodes", "1"), "'bond_dim'")
      for bad in [1.5, True, 0, "2", None]),
    *(EvalRow("test_eval_requires_an_object_with_a_genome_key", case_id, payload,
              ("--env", "cartpole", "--episodes", "1"), "'genome'")
      for case_id, payload in [("payload0", [0.0] * 26), ("payload1", {"env": "cartpole"}),
                               ("genome", "genome"), ("26", 26)]),
    *(EvalRow("test_eval_rejects_a_bad_env_in_the_file", case_id,
              {"env": bad, "genome": [0.0] * 26}, ("--episodes", "1"), "'env'")
      for case_id, bad in [("list", ["cartpole"]), ("number", 5), ("null", None),
                           ("unknown", "pong")]),
    # json writes a NaN or an infinity as the token NaN, Infinity or -Infinity
    *(EvalRow("test_eval_rejects_non_finite_genome", case_id,
              {"env": "cartpole", "genome": [0.0] * 25 + [bad]}, ("--episodes", "2"),
              "non-finite")
      for case_id, bad in [("NaN", math.nan), ("Infinity", math.inf),
                           ("-Infinity", -math.inf)]),
    # NumPy would read "0.5" and true as numbers, and a lone string as a 0-d array
    *(EvalRow("test_eval_rejects_a_genome_of_non_numbers", case_id,
              {"env": "cartpole", "genome": genome}, ("--episodes", "2"),
              f"error: genome {NOT_A_NUMBER}")
      for case_id, genome in [("strings", ["0.5"] * 26), ("bool", [0.0] * 25 + [True]),
                              ("string", "0.0")]),
    EvalRow("test_eval_architecture_mismatch_fails", None, CARTPOLE_ZEROS,
            ("--env", "minigrid-5"), "does not match"),
    # an encoded array may hold the right entry count in the wrong shape, or
    # no entry at all, since a shape's sizes may be 0
    *(EvalRow("test_eval_names_the_shape_of_an_encoded_genome", None,
              {"env": "cartpole", "genome": encode(genome)}, (),
              f"genome shape {shape} does not match cartpole (expected (26,))", exact=True)
      for genome, shape in [([[0.0]] * 26, "(26, 1)"), ([], "(0,)")]),
]

RESUME_ROWS = [
    *both_forms("test_resume_rejects_non_finite_checkpoint",
                [(key, put(math.nan)) for key in NON_FINITE_KEYS]
                + [("parents", put(-math.inf)), ("best_score", put(math.inf))],
                NON_FINITE_KEYS + ["parents-inf", "best_score-inf"], lambda key: "non-finite"),
    *both_forms("test_rejected_resume_leaves_stats_unchanged", [
        ("parents", lambda rows: [row[:-1] for row in rows]),
        ("parents", lambda rows: rows[:-1]),
        ("best_score", lambda value: [value]),
        ("elite", lambda values: values[:-1]),
        ("best_genome", lambda values: values[:3]),
        ("window", lambda rows: [row[:-1] for row in rows]),
        ("window", lambda rows: rows[:-1]),
        ("generation", lambda value: 1.5),
        ("generation", lambda value: -1),
    ], ["parents-width", "parents-count", "best_score-list", "elite", "best_genome",
        "window-width", "window-rows", "generation-float", "generation-negative"], repr),
    *(ResumeRow("test_resume_rejects_malformed_encoded_array", case_id, at(key, corrupt),
                repr(key))
      for case_id, key, corrupt in [
          ("not-base64", "parents",
           lambda array: {**array, "float64le": "*" + array["float64le"][1:]}),
          ("truncated", "elite", lambda array: {**array, "float64le": array["float64le"][:-12]}),
          ("shape-negative", "best_genome", lambda array: {**array, "shape": [-26]}),
          ("shape-float", "best_genome", lambda array: {**array, "shape": [26.0]}),
          ("shape-bool", "best_genome", lambda array: {**array, "shape": [True]}),
          ("no-float64le", "elite", lambda array: {"shape": array["shape"]}),
          ("window-encoded", "window", lambda rows: encode(rows))]),
    # training counts each generation's whole population, here 6; other
    # counts used to resume into a rolling mean and std no run can write
    *(ResumeRow("test_resume_rejects_a_window_count_other_than_the_population", str(count),
                at("window", lambda rows, count=count: [[count, *rows[0][1:]], *rows[1:]]),
                "'window'")
      for count in [1.5, True, 7, -100]),
    # 6 values summing to `total` have a sum of squares of at least total^2 / 6;
    # a row below that would resume into a rolling std no run can write, and
    # a sum that is not a JSON number would be written back as it is
    *(ResumeRow("test_resume_rejects_window_sums_no_data_set_has", case_id,
                at("window", lambda rows, sums=sums: [[rows[0][0], *sums], *rows[1:]]),
                "'window'")
      for case_id, sums in [("negative-sum-zero-squares", (-1e6, 0.0)),
                            ("squares-below-mean", (3.0, 1.0)),
                            ("negative-squares", (0.0, -1e-300)), ("sum-bool", (True, 1e9)),
                            ("squares-string", (6.0, "40"))]),
    # cart-pole returns lie in [0, 500] and minigrid's in [0, 1]; a window
    # row of 6 values has sums in [0, 6 R] and [0, 6 R^2].  The first two
    # used to resume into rolling_std_100 = inf and a best genome frozen by a
    # score no episode reaches
    *(ResumeRow("test_resume_rejects_returns_no_episode_has", case_id, at(key, corrupt),
                repr(key), env)
      for case_id, env, key, corrupt in [
          ("squares-1e308", "cartpole", "window",
           lambda rows: [[*row[:2], 1e308] for row in rows]),
          ("best_score-1e9", "cartpole", "best_score", lambda value: 1e9),
          ("best_score-negative", "cartpole", "best_score", lambda value: -1.0),
          ("sum-above-max", "cartpole", "window",
           lambda rows: [[6, 3000.5, 3000.5 ** 2 / 6], *rows[1:]]),
          ("squares-above-max", "cartpole", "window",
           lambda rows: [[6, 3000.0, 1.5e6 * (1 + 1e-15)], *rows[1:]]),
          ("sum-negative", "cartpole", "window", lambda rows: [[6, -1e-300, 0.0], *rows[1:]]),
          ("minigrid-best_score-above-1", "minigrid-5", "best_score",
           lambda value: 1.0000000000000002),
          ("minigrid-sum-above-max", "minigrid-5", "window",
           lambda rows: [[6, 6.5, 6.5 ** 2 / 6], *rows[1:]])]),
    *(ResumeRow("test_resume_rejects_an_unreadable_checkpoint", case_id,
                at(key, corrupt, form), message)
      for case_id, form, key, corrupt, message in [
          ("format-3", "encoded", "format", lambda value: 3, "unsupported checkpoint format: 3"),
          # true == 1 in Python, so it used to pass as format 1
          ("format-bool", "encoded", "format", lambda value: True,
           "unsupported checkpoint format: True"),
          # ragged rows have no encoded form, so this case is a format-1 file only
          ("parents-ragged-format1", "list", "parents", lambda rows: [rows[0][:-1], *rows[1:]],
           "'parents' is not a regular array of numbers"),
          # NumPy reads "1e9" and true as numbers: a best score of 1e9 no
          # episode reaches would freeze the run's best genome
          ("best_score-string", "encoded", "best_score", lambda value: "1e9",
           f"'best_score' {NOT_A_NUMBER}"),
          ("best_score-bool", "encoded", "best_score", lambda value: True,
           f"'best_score' {NOT_A_NUMBER}"),
          ("parents-strings-format1", "list", "parents",
           lambda rows: [[str(v) for v in rows[0]], *rows[1:]], f"'parents' {NOT_A_NUMBER}"),
          ("best_genome-bool-format1", "list", "best_genome",
           lambda values: [True, *values[1:]], f"'best_genome' {NOT_A_NUMBER}"),
          ("out_dir-int", "encoded", "run_config", lambda config: {**config, "out_dir": 5},
           "out_dir must be of type str"),
          ("env-unknown", "encoded", "run_config", lambda config: {**config, "env": "pong"},
           "unknown environment 'pong'"),
          ("window-bool", "encoded", "window",
           lambda rows: [[rows[0][0], True, rows[0][2]], *rows[1:]],
           f"'window' {NOT_A_NUMBER}")]),
    ResumeRow("test_resume_rejects_a_checkpoint_that_is_not_an_object", None,
              lambda data: [1], "checkpoint must be a JSON object"),
    *(ResumeRow("test_resume_names_a_missing_checkpoint_key", key, without(key),
                f"checkpoint is missing keys: [{key!r}]")
      for key in sorted(cli.CHECKPOINT_KEYS)),
    # generation 3's checkpoint needs rows 0..3; the first one missing is named
    *(ResumeRow("test_resume_without_rows_up_to_checkpoint_fails", case_id, lambda data: data,
                f"stats.csv lacks the row of generation {missing},", generation=3, stats=stats)
      for case_id, stats, missing in [
          ("missing", lambda lines: None, 0),
          ("cut-after-row-0", lambda lines: lines[:2], 1),  # the header and row 0
          ("torn-row", lambda lines: lines[:4] + [lines[4][:5]], 3)]),
    # row 1 holds generation 3's cells, as a run's stats.csv beside another
    # run's checkpoint_1.json does: a resume would keep it under the
    # checkpoint's row 2.  The error names both means, the row's and the
    # checkpoint's last window row's
    ResumeRow("test_resume_rejects_the_stats_of_another_run", None, lambda data: data,
              another_runs_mean,
              stats=lambda lines: [*lines[:2], "1," + lines[4].split(",", 1)[1], *lines[3:]]),
]


def check_config_row(row: ConfigRow, tmp_path: Path, trained) -> None:
    path = tmp_path / "cfg.json"
    config = row.config(json.loads(write_config(path).read_text()))
    if config is None:
        path.unlink()
    else:
        path.write_text(json.dumps(config))
    assert_rejected(run_qevo(["train", "--config", str(path)], run=tmp_path / "run"), row.text)


def check_eval_row(row: EvalRow, tmp_path: Path, trained) -> None:
    path = tmp_path / "g.json"
    path.write_text(json.dumps(row.genome_file))
    assert_rejected(run_qevo(["eval", "--genome", str(path), *row.flags]), row.text, row.exact)


def resumable_copy(run: Path, tmp_path: Path, generation: int = 1) -> tuple[Path, dict]:
    """A copy of `run` in tmp_path, and its checkpoint of `generation` (path
    and JSON), whose out_dir is the copy."""
    checkpoint = shutil.copytree(run, tmp_path / "run") / f"checkpoint_{generation}.json"
    data = json.loads(checkpoint.read_text())
    data["run_config"]["out_dir"] = str(checkpoint.parent)
    return checkpoint, data


def check_resume_row(row: ResumeRow, tmp_path: Path, trained) -> None:
    checkpoint, data = resumable_copy(trained(env=row.env, mps_bond_dim=1), tmp_path,
                                      row.generation)
    checkpoint.write_text(json.dumps(row.checkpoint(data)))
    run = checkpoint.parent
    if row.stats is not None:
        lines = row.stats(read_stats(run))
        if lines is None:
            (run / "stats.csv").unlink()
        else:
            (run / "stats.csv").write_text("\n".join(lines) + "\n")
    text = row.text if isinstance(row.text, str) else row.text(run)
    assert_rejected(run_qevo(["resume", "--checkpoint", str(checkpoint)], run=run), text)


def table_tests(rows: list, check) -> dict:
    """The test of each group of `rows` under the name they give, checking a
    row with `check(row, tmp_path, trained)`."""
    tests = {}
    for name in dict.fromkeys(row.test for row in rows):
        group = [row for row in rows if row.test == name]
        if group[0].id is None:
            def test(tmp_path, trained, group=group):
                for index, row in enumerate(group):
                    (tmp_path / str(index)).mkdir()
                    check(row, tmp_path / str(index), trained)
        else:
            @pytest.mark.parametrize("row", [pytest.param(row, id=row.id) for row in group])
            def test(tmp_path, trained, row):
                check(row, tmp_path, trained)
        test.__name__ = test.__qualname__ = name
        tests[name] = test
    return tests


globals().update(table_tests(CONFIG_ROWS, check_config_row)
                 | table_tests(EVAL_ROWS, check_eval_row)
                 | table_tests(RESUME_ROWS, check_resume_row))


def test_resume_accepts_the_window_of_a_generation_of_equal_fitness(tmp_path, trained):
    # six agents that all walk 7 steps to the minigrid-5 goal score 0.937
    # each, and the sums training writes for them fall short of
    # count * sumsq >= sum^2 by rounding (about 2e-16 of sum^2)
    fitness = np.full(6, 1.0 - 0.9 * 7 / 100)
    row = [6, float(fitness.sum()), float(np.square(fitness).sum())]
    assert row[0] * row[2] < row[1] ** 2
    checkpoint, data = resumable_copy(trained(env="minigrid-5", mps_bond_dim=1), tmp_path)
    data["window"][0] = row
    checkpoint.write_text(json.dumps(data))
    outcome = run_qevo(["resume", "--checkpoint", str(checkpoint)])
    assert (outcome.status, outcome.err) == (0, "")
    assert len(read_stats(checkpoint.parent)) == 6


def test_resume_accepts_returns_at_the_top_of_their_range(tmp_path, trained):
    # a cart-pole population that balances every episode for all 500 steps
    # has window rows (6, 6 * 500, 6 * 500^2) and best score 500; the last
    # window row is checked against stats.csv, so the first one is set
    checkpoint, data = resumable_copy(trained(env="cartpole", mps_bond_dim=1), tmp_path)
    data["window"][0] = [6, 3000.0, 1500000.0]
    data["best_score"] = 500.0
    checkpoint.write_text(json.dumps(data))
    outcome = run_qevo(["resume", "--checkpoint", str(checkpoint)])
    assert (outcome.status, outcome.err) == (0, "")
    assert len(read_stats(checkpoint.parent)) == 6


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


def test_checkpoint_holds_only_what_a_resume_reads(trained):
    data = json.loads((trained() / "checkpoint_1.json").read_text())
    assert set(data) == {"format", "run_config", "generation", "parents", "elite",
                         "window", "best_genome", "best_score"}


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


def test_checkpoint_round_trips_byte_for_byte(tmp_path, trained):
    original = trained() / "checkpoint_3.json"
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


@pytest.mark.parametrize("killed_in", [2, 4])
def test_a_kill_on_a_helper_leaves_best_genome_of_last_checkpoint(tmp_path, monkeypatch,
                                                                  killed_in):
    # with a cart-pole row a spawn block, a helper ranks each generation beside the
    # callback before it, and what it raises is raised only after that callback
    monkeypatch.setattr(cli.evo, "SPAWN_BLOCK_ENTRIES", 26)
    threads = record_helpers(monkeypatch)
    test_killed_run_leaves_best_genome_of_last_checkpoint(tmp_path, monkeypatch, killed_in)
    assert len(threads) == killed_in + 1


@pytest.mark.parametrize("workers", [1, 2])
def test_an_overflow_on_a_helper_stops_the_run_after_the_callback_before(tmp_path, monkeypatch,
                                                                        workers):
    # the children of generation 3 overflow, so a train stops after generation 2's
    # stats row and checkpoint, whether the main thread spawns or a helper does
    in_process_pool(monkeypatch)
    threads = record_helpers(monkeypatch)
    config = write_config(tmp_path / "cfg.json", checkpoint_every=1, workers=workers,
                          evo={"mutation_power": 4e307, "master_seed": 1})
    outcomes = []
    for block_entries in (evo.SPAWN_BLOCK_ENTRIES, 26):  # the second: a row a block
        monkeypatch.setattr(evo, "SPAWN_BLOCK_ENTRIES", block_entries)
        outcomes.append(run_qevo(["train", "--config", str(config)], run=tmp_path / "run"))
        shutil.rmtree(tmp_path / "run")
    assert len(threads) == 4  # generations 0 to 3 are ranked on helpers
    main, helped = outcomes
    assert (main.status, main.err) == (
        1, "error: the children of generation 3 overflow at mutation_power 4e+307\n")
    assert sorted(main.run_after) == ["best_genome.json", "checkpoint_0.json",
                                      "checkpoint_1.json", "checkpoint_2.json", "stats.csv"]
    assert [line.split(",")[0] for line in
            main.run_after["stats.csv"].decode().splitlines()[1:]] == ["0", "1", "2"]
    assert helped == main


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


def test_eval_plays_10_episodes_from_seed_0_by_default(tmp_path, capsys):
    genome_file = tmp_path / "g.json"
    genome = np.random.default_rng(4).standard_normal(26) * 0.3
    genome_file.write_text(json.dumps({"env": "cartpole", "genome": genome.tolist()}))
    outputs = []
    for flags in ([], ["--episodes", "10", "--seed", "0"]):
        assert cli.main(["eval", "--genome", str(genome_file), *flags]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


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
        draws.append(args)
        return init_population(*args, **kwargs)

    # perfbench's set-up probe times a run of 0 generations up to this draw
    monkeypatch.setattr(evo, "init_population", counted_init)
    assert cli.main(["train", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "run"),
                     "--generations", "0"]) == 0
    assert "no generations to run" in capsys.readouterr().out
    assert read_stats(tmp_path / "run") == [",".join(cli.STATS_COLUMNS)]
    assert len(draws) == 1


# a user's session in one interpreter, run from a fresh working directory:
# train, resume and eval on cart-pole and minigrid-5, the runs of both desk
# configs on two pool workers when the flag is given; the last line printed
# lists the pool-stack modules loaded
POOL_STACK_SCRIPT = """
import json, sys
from pathlib import Path
from qevo import cli
configs, data, *workers = sys.argv[1:]
cartpole, minigrid5 = configs + "/cartpole_desk.json", configs + "/minigrid5_desk.json"

def qevo(*args):
    assert cli.main([str(arg) for arg in args]) == 0, args

def run_files(run):
    return {path.name: path.read_bytes() for path in Path(run).iterdir()}

qevo("train", "--config", cartpole, "--generations", 2, "--out-dir", "cartpole", *workers)
qevo("resume", "--checkpoint", "cartpole/checkpoint_1.json", "--generations", 3, *workers)
qevo("eval", "--genome", "cartpole/best_genome.json", "--episodes", 2)
if not workers:  # no eval builds a pool, so the long one runs in one case only
    # 65,536 episodes draw one row of 262,144 start-state uniforms from one PCG64
    qevo("eval", "--genome", "cartpole/best_genome.json", "--episodes", 65536)
# the format-1 fixture's out_dir "run" is relative to the working directory,
# whose run holds the interrupted run's header and generations 0 and 1
Path("run").mkdir()
Path("run/stats.csv").write_text(
    "".join(Path(data, "format1_stats.csv").read_text().splitlines(keepends=True)[:3]))
qevo("resume", "--checkpoint", data + "/format1_checkpoint_1.json")
qevo("train", "--config", minigrid5, "--generations", 2, "--out-dir", "minigrid5", *workers)
qevo("resume", "--checkpoint", "minigrid5/checkpoint_1.json", "--generations", 3, *workers)
# each shipped grid size builds its model for the minigrid-5 genome
for env in ("minigrid-5", "minigrid-6", "minigrid-8"):
    qevo("eval", "--genome", "minigrid5/best_genome.json", "--env", env, "--episodes", 1)
if workers:
    # the pooled runs write what an uninterrupted serial run writes
    for config, run in ((cartpole, "cartpole"), (minigrid5, "minigrid5")):
        qevo("train", "--config", config, "--generations", 3, "--out-dir", run + "-serial")
        serial = run_files(run + "-serial")
        assert all(run_files(run)[name] == serial[name]
                   for name in ("stats.csv", "best_genome.json")), run
    # a resume from the last checkpoint has nothing to run
    before = run_files("minigrid5")
    qevo("resume", "--checkpoint", "minigrid5/checkpoint_2.json", *workers)
    assert run_files("minigrid5") == before
    # entries of 1e10 overflow the cell tables' products, in the parent and
    # in the workers
    huge = json.loads(Path(minigrid5).read_text())
    huge["evo"]["init_scale"] = 1e10
    Path("huge.json").write_text(json.dumps(huge))
    qevo("train", "--config", "huge.json", "--generations", 2, "--out-dir", "huge", *workers)
print(json.dumps(sorted(name for name in sys.modules
                        if name.startswith(("multiprocessing", "concurrent")))))
"""


def test_package_version_is_the_one_pyproject_declares():
    assert f'\nversion = "{qevo.__version__}"\n' in (SRC_DIR.parent / "pyproject.toml").read_text()


def test_python_dash_m_qevo_runs_the_command_line(tmp_path):
    # the README's spelling for an uninstalled checkout
    done = subprocess.run([sys.executable, "-m", "qevo", "--help"], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: qevo ")


def test_a_command_that_draws_nothing_never_imports_numpy_random(tmp_path):
    # the seed words' ISeedSequence is built on the first draw, so a minigrid
    # eval, which draws no start state, never pays numpy.random's import
    genome = tmp_path / "genome.json"
    genome.write_text(json.dumps({"env": "minigrid-5",
                                  "genome": [0.0] * envs.make("minigrid-5").genome_length}))
    script = ("import sys; from qevo import cli; "
              f"assert cli.main(['eval', '--genome', {str(genome)!r}]) == 0; "
              "print('numpy.random' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "False"


def test_the_benchmark_child_stamps_each_generation_of_a_train_and_its_resume(tmp_path):
    # perfbench/child.py stamps `first` when evo.init_population returns or
    # evo.run is entered, and wraps the on_generation callback it is passed
    # by keyword; a source change that bypasses either breaks the benchmark
    config = write_config(tmp_path / "cfg.json", checkpoint_every=1, evo={"generations": 3})
    checkpoint, report = tmp_path / "run" / "checkpoint_0.json", tmp_path / "report.json"
    for argv, generations in ((["train", "--config", str(config)], 3),
                              (["resume", "--checkpoint", str(checkpoint)], 2)):
        done = subprocess.run([sys.executable, str(SRC_DIR.parent / "perfbench" / "child.py"),
                               str(report), "-", "--", *argv],
                              cwd=tmp_path, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, ""), done.stderr
        stamps = json.loads(report.read_text())
        assert stamps["status"] == 0 and stamps["first"] is not None
        assert len(stamps["gens"]) == generations


@pytest.mark.parametrize("workers", [1, 2])
def test_only_a_pooled_run_imports_the_pool_stack(tmp_path, workers):
    # a fresh interpreter with only src on the path, as a user's run has, so
    # the library cannot import the test-only reference module: pytest itself
    # has loaded both pool stacks here; NumPy imports ctypes and threading on
    # its own, so those are not checked.  Development mode shows every
    # warning, a RuntimeWarning of a float path or the ResourceWarning of a
    # leaked shared population buffer among them, and the pool workers write
    # to the same stderr, which must stay empty
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-c", POOL_STACK_SCRIPT, str(CONFIG_DIR), str(DATA_DIR),
         *(["--workers", str(workers)] if workers > 1 else [])],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    loaded = json.loads(done.stdout.splitlines()[-1])
    if workers == 1:
        assert loaded == []
    else:
        assert {"concurrent.futures", "multiprocessing.sharedctypes"} <= set(loaded)
        assert "no generations to run after generation 2" in done.stdout
