"""The train, resume and eval boundaries under one-field changes to valid files.

Each example either fails as `conftest.assert_rejected` states (exit
status 1, one `error:` line, nothing on stdout, no plan scored, the run
directory as it was) or succeeds plausibly.  A checkpoint of generation 1
and a `best_genome.json` of each desk config are written once per module.
Each checkpoint example changes one of its values and resumes it for one
generation; a success leaves a `stats.csv` that a real run could write, a
best score an episode could reach and a checkpoint that itself loads.
Each genome example changes one field of the genome file and evaluates
it; a success prints scores that an episode could reach.  Each config
example changes one field of a desk config, drops or adds a key, or swaps
a section for another JSON value, then trains for 2 generations; a
success writes 2 rows that a real run could write and a checkpoint that
loads.
"""

import base64
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevo import cli, envs

from conftest import assert_rejected, run_qevo

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = ("cartpole_desk", "minigrid5_desk")
CHECKPOINT = "checkpoint_1.json"
# values of every JSON type, to put where another type belongs
OTHER_TYPES = (None, True, False, "1", [], {}, [1.0], 0.5, 3)
SPECIAL_FLOATS = (math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0, -0.0, 5e-324)


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """Each config's run directory after 2 generations.

    Only paths: Hypothesis prints the fixture with a failing example, and
    warns on a long repr, which the suite's warning policy raises.
    """
    runs = {}
    for name in CONFIGS:
        runs[name] = tmp_path_factory.mktemp(name)
        assert cli.main(["train", "--config", str(CONFIG_DIR / f"{name}.json"),
                         "--generations", "2", "--out-dir", str(runs[name])]) == 0
    return runs


def leaves(value, path=()):
    """The path of every value inside a checkpoint; an encoded array is one value."""
    if isinstance(value, dict) and set(value) != {"shape", "float64le"}:
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from leaves(item, path + (key,))


def changed(value, draw):
    """`value` with one change drawn for its kind."""
    other = st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(value)])
    if type(value) is int:
        return draw(st.one_of(other, st.sampled_from([True, False]),
                              st.integers(-3, 3).map(lambda delta: value + delta)))
    if type(value) is float:
        return draw(st.one_of(other, st.sampled_from(SPECIAL_FLOATS), st.floats(),
                              st.floats(0.5, 2.0).map(lambda factor: value * factor)))
    if type(value) is str:  # out_dir only changes type, so that no run writes elsewhere
        names = st.sampled_from([*envs.ENV_NAMES, "pong"])
        return draw(other if value not in envs.ENV_NAMES else st.one_of(other, names))
    if isinstance(value, dict) and "float64le" in value:
        data = base64.b64decode(value["float64le"])
        kind = draw(st.sampled_from(["type", "shape", "truncate", "entry"]))
        if kind == "shape":
            shape = value["shape"]
            return {**value, "shape": draw(st.sampled_from([
                shape[:-1], shape + [1], shape[::-1], [math.prod(shape)],
                [shape[0] + 1, *shape[1:]], [shape[0] - 1, *shape[1:]]]))}
        if kind == "truncate":
            cut = draw(st.integers(1, 16))
            return {**value, "float64le": value["float64le"][:-cut]}
        if kind == "entry":
            index = 8 * draw(st.integers(0, len(data) // 8 - 1))
            entry = struct.pack("<d", draw(st.sampled_from(SPECIAL_FLOATS)))
            data = data[:index] + entry + data[index + 8:]
            return {**value, "float64le": base64.b64encode(data).decode("ascii")}
    if isinstance(value, list) and value and draw(st.booleans()):
        return draw(st.sampled_from([value[:-1], value + value[-1:]]))  # a row fewer or more
    return draw(other)  # a value of another JSON type


def rows_a_run_could_write(text: str, top: float) -> bool:
    """Whether a stats file has contiguous generations from 0, and every
    score and std in [0, top], the env's return range."""
    lines = text.splitlines()
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return (lines[0] == ",".join(cli.STATS_COLUMNS)
            and all(len(row) == len(cli.STATS_COLUMNS) for row in rows)
            and [row[0] for row in rows] == list(range(len(rows)))
            and all(0 <= cell <= top for row in rows for cell in row[1:]))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(CONFIGS), data=st.data())
def test_changed_checkpoint_is_rejected_untouched_or_resumes_plausibly(runs, name, data):
    files = {path.name: path.read_bytes() for path in runs[name].iterdir()}
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        checkpoint = json.loads(files[CHECKPOINT])
        checkpoint["run_config"]["out_dir"] = str(out_dir)
        *parents, key = data.draw(st.sampled_from(list(leaves(checkpoint))), label="path")
        parent = checkpoint
        for step in parents:
            parent = parent[step]
        parent[key] = changed(parent[key], data.draw)
        for file_name, content in files.items():
            (out_dir / file_name).write_bytes(content)
        (out_dir / CHECKPOINT).write_text(json.dumps(checkpoint))
        outcome = run_qevo(["resume", "--checkpoint", str(out_dir / CHECKPOINT),
                            "--generations", "3", "--workers", "1"], run=out_dir)
        if outcome.status == 1:
            assert_rejected(outcome)
        else:
            assert outcome.status == 0 and outcome.err == ""
            top = envs.make(json.loads(files["best_genome.json"])["env"]).max_return
            assert rows_a_run_could_write((out_dir / "stats.csv").read_text(), top)
            assert 0 <= json.loads((out_dir / "best_genome.json").read_text())["score"] <= top
            if (out_dir / "checkpoint_2.json").exists():  # absent if nothing was left to run
                cli._load_checkpoint(out_dir / "checkpoint_2.json")


def changed_genome_file(payload: dict, draw) -> dict:
    """`payload` with one field changed, removed, or its genome changed in
    one entry, in length, in type or into an encoded array."""
    payload = dict(payload)
    key = draw(st.sampled_from(sorted(payload)), label="key")
    if draw(st.integers(0, 9), label="remove") == 0:
        del payload[key]
        return payload
    if key == "bond_dim" and draw(st.booleans()):
        payload[key] = draw(st.sampled_from([0, -1, True, False]))
        return payload
    if key != "genome":
        payload[key] = changed(payload[key], draw)
        return payload
    genome = list(payload["genome"])
    kind = draw(st.sampled_from(["entry", "list", "encoded"]), label="kind")
    if kind == "entry":
        index = draw(st.integers(0, len(genome) - 1), label="index")
        genome[index] = changed(genome[index], draw)
        payload["genome"] = genome
    elif kind == "encoded":  # an encoded array, the checkpoints' form, maybe changed
        encoded = cli._encode_array(np.array(genome))
        payload["genome"] = changed(encoded, draw) if draw(st.booleans()) else encoded
    else:  # an entry fewer or more, or a value of another type
        payload["genome"] = changed(genome, draw)
    return payload


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(CONFIGS), data=st.data())
def test_changed_genome_file_is_rejected_or_scores_plausibly(runs, name, data):
    payload = json.loads((runs[name] / "best_genome.json").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "best_genome.json"
        path.write_text(json.dumps(changed_genome_file(payload, data.draw)))
        outcome = run_qevo(["eval", "--genome", str(path), "--episodes", "2"])
    if outcome.status == 1:
        assert_rejected(outcome)
    else:
        assert outcome.status == 0 and outcome.err == ""
        result = json.loads(outcome.out)
        top = envs.make(result["env"]).max_return
        assert len(result["scores"]) == 2
        assert all(0 <= score <= top for score in result["scores"]), result


# config fields whose values size a run: an example gives them only invalid
# values or valid ones up to the desk config's, and at most 2 workers
SIZE_FIELDS = ("population", "truncation", "generations", "repeats_all",
               "repeats_parents", "mps_bond_dim", "workers")
SPECIAL_NUMBERS = SPECIAL_FLOATS + (0, -1)


def changed_config_value(name: str, value, draw):
    """A config field's `value` changed to another type, a bool, a special
    number or another value of its type."""
    other = st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(value)])
    special = st.sampled_from(SPECIAL_NUMBERS)
    if name in SIZE_FIELDS:
        top = 2 if name == "workers" else value
        return draw(st.one_of(other, st.booleans(), special, st.integers(1, top)))
    if type(value) is int:  # master_seed, checkpoint_every
        return draw(st.one_of(other, st.booleans(), special, st.integers(0, 2 ** 64)))
    if type(value) is float:  # mutation_power, init_scale
        return draw(st.one_of(other, special, st.floats(),
                              st.floats(0.5, 2.0).map(lambda factor: value * factor)))
    if name == "env":
        return draw(st.one_of(other, st.sampled_from([*envs.ENV_NAMES, "pong"])))
    return draw(other)  # out_dir only changes type, so that no run writes elsewhere


def changed_config(config: dict, draw):
    """`config` with one value changed, one key dropped or added, or the
    evo section or the whole config replaced by a value of another type."""
    config = {**config, "evo": dict(config["evo"])}
    kind = draw(st.sampled_from(["value", "value", "value", "drop", "add", "section"]),
                label="kind")
    if kind == "section":
        other = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not dict]))
        if draw(st.booleans(), label="whole config"):
            return other
        config["evo"] = other
    elif kind == "add":
        section = config if draw(st.booleans(), label="top level") else config["evo"]
        section[draw(st.sampled_from(["extra", "seed", "Population"]), label="key")] = 1
    else:  # out_dir is never dropped, since its default is relative to the working directory
        keys = [("config", key) for key in sorted(set(config) - {"evo", "out_dir"})]
        where, key = draw(st.sampled_from(keys + [("evo", key) for key in sorted(config["evo"])]),
                          label="key")
        section = config if where == "config" else config["evo"]
        if kind == "drop":
            del section[key]
        else:
            section[key] = changed_config_value(key, section[key], draw)
    return config


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(CONFIGS), data=st.data())
def test_changed_config_is_rejected_without_a_run_or_trains_plausibly(name, data):
    config = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "run"
        config["out_dir"] = str(out_dir)
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(changed_config(config, data.draw)))
        outcome = run_qevo(["train", "--config", str(path), "--generations", "2"], run=out_dir)
        if outcome.status == 1:
            # a run stops once generation g's children overflow, after g is scored
            assert_rejected(outcome, may_score="overflow at mutation_power" in outcome.err)
            # a float warning raised as an error is no boundary's message
            assert "encountered in" not in outcome.err, outcome.err
        else:
            assert outcome.status == 0 and outcome.err == ""
            run_config, snapshot = cli._load_checkpoint(out_dir / "checkpoint_1.json")
            top = envs.make(run_config.env, run_config.mps_bond_dim).max_return
            stats = (out_dir / "stats.csv").read_text()
            assert len(stats.splitlines()) == 3 and rows_a_run_could_write(stats, top)
            assert 0 <= snapshot.best_score <= top
