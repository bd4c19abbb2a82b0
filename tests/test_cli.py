"""End-to-end command line tests on thumbnail-sized runs."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qevo import agents, cli

import reference as ref

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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

    partial = write_config(tmp_path / "cfg_partial.json",
                           out_dir=str(tmp_path / "partial"),
                           evo={"generations": 4})
    cli.main(["train", "--config", str(partial)])
    assert cli.main(["resume", "--checkpoint",
                     str(tmp_path / "partial" / "checkpoint_3.json"),
                     "--generations", "5"]) == 0
    assert (tmp_path / "partial" / "stats.csv").read_bytes() == reference


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


def test_resume_env_mismatch_fails(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json")
    cli.main(["train", "--config", str(config)])
    code = cli.main(["resume", "--checkpoint",
                     str(tmp_path / "run" / "checkpoint_4.json"),
                     "--env", "minigrid-5"])
    assert code == 1
    assert "cannot resume" in capsys.readouterr().err


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


def test_eval_rejects_zero_bond_dim(tmp_path, capsys):
    # the file's bond dimension must not stand in for an invalid override
    length = agents.tnvqc_architecture(bond_dim=2).genome_length
    genome_file = tmp_path / "g.json"
    genome_file.write_text(json.dumps({"env": "minigrid-5", "bond_dim": 2,
                                       "genome": [0.0] * length}))
    assert cli.main(["eval", "--genome", str(genome_file),
                     "--episodes", "1"]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--genome", str(genome_file),
                     "--bond-dim", "0"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "--bond-dim" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("env_name,bond_dim", [("cartpole", 4), ("minigrid-5", 2)])
def test_eval_output_matches_play_episode(tmp_path, capsys, env_name, bond_dim):
    _, architecture = cli.resolve_task(env_name, bond_dim)
    genome = np.random.default_rng(8).standard_normal(architecture.genome_length) * 0.3
    genome_file = tmp_path / "g.json"
    genome_file.write_text(json.dumps({"env": env_name, "bond_dim": bond_dim,
                                       "genome": genome.tolist()}))
    assert cli.main(["eval", "--genome", str(genome_file),
                     "--episodes", "4", "--seed", "6"]) == 0
    # the scalar reference: one agent, one Generator for all episodes
    agent, env = ref.build_agent(architecture, genome), ref.make_env(env_name)
    rng = np.random.default_rng(np.random.SeedSequence([6]))
    memo: dict = {}
    scores = [ref.play_episode(agent, env, rng, memo) for _ in range(4)]
    expected = json.dumps({"env": env_name, "episodes": 4, "scores": scores,
                           "mean": float(np.mean(scores)), "std": float(np.std(scores))})
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_eval_rejects_non_finite_genome(tmp_path, capsys, bad):
    genome_file = tmp_path / "g.json"
    genome_file.write_text('{"env": "cartpole", "genome": [%s%s]}'
                           % ("0.0, " * 25, bad))
    assert cli.main(["eval", "--genome", str(genome_file), "--episodes", "2"]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "non-finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key", ["parents", "elite", "best_genome", "best_score",
                                 "parent_fitness", "elite_score", "window"])
def test_resume_rejects_non_finite_checkpoint(tmp_path, capsys, key):
    config = write_config(tmp_path / "cfg.json", evo={"generations": 4})
    assert cli.main(["train", "--config", str(config)]) == 0
    checkpoint = tmp_path / "run" / "checkpoint_1.json"
    data = json.loads(checkpoint.read_text())
    if isinstance(data[key], float):
        data[key] = float("nan")
    elif isinstance(data[key][0], list):
        data[key][0][-1] = float("nan")
    else:
        data[key][-1] = float("nan")
    checkpoint.write_text(json.dumps(data))  # json writes the NaN token
    before = (tmp_path / "run" / "stats.csv").read_bytes()
    capsys.readouterr()
    assert cli.main(["resume", "--checkpoint", str(checkpoint)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "non-finite" in captured.err
    assert (tmp_path / "run" / "stats.csv").read_bytes() == before


@pytest.mark.parametrize("key,corrupt", [
    ("parents", lambda rows: [row[:-1] for row in rows]),
    ("parents", lambda rows: rows[:-1]),
    ("parent_fitness", lambda values: values[:-1]),
    ("elite", lambda values: values[:-1]),
    ("best_genome", lambda values: values[:3]),
    ("window", lambda rows: [row[:-1] for row in rows]),
    ("window", lambda rows: rows[:-1]),
    ("generation", lambda value: 1.5),
    ("generation", lambda value: -1),
], ids=["parents-width", "parents-count", "parent_fitness", "elite",
        "best_genome", "window-width", "window-rows", "generation-float",
        "generation-negative"])
def test_rejected_resume_leaves_stats_unchanged(tmp_path, capsys, key, corrupt):
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


@pytest.mark.parametrize("field,value", [
    ("checkpoint_every", 1.5), ("workers", True), ("mps_bond_dim", 2.0),
    ("evo.population", 10.5), ("evo.truncation", True), ("evo.master_seed", True),
    ("evo.master_seed", -1), ("evo.init_scale", True), ("evo.mutation_power", True),
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
def test_shipped_config_starts(config_path, tmp_path, capsys):
    """Every config in configs/ must load and start without running."""
    assert cli.main(["train", "--config", str(config_path),
                     "--out-dir", str(tmp_path / "run"),
                     "--generations", "0"]) == 0
    assert "no generations to run" in capsys.readouterr().out
    assert read_stats(tmp_path / "run") == [",".join(cli.STATS_COLUMNS)]
