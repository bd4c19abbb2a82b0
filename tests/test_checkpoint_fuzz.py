"""The resume boundary under one-field changes to a valid checkpoint.

A checkpoint of generation 1 of each desk config is written once per
module.  Each example changes one of its values and resumes it for one
generation.  The resume must either fail with one `error:` line and leave
every file of the run directory as it was, or succeed and leave a
`stats.csv` that a real run could write, a best score an episode could
reach and a checkpoint that itself loads.
"""

import base64
import contextlib
import io
import json
import math
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevo import cli, envs

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
    warns on a long repr, which `-W error` would raise.
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
        before = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["resume", "--checkpoint", str(out_dir / CHECKPOINT),
                               "--generations", "3", "--workers", "1"])
        if status == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
            assert {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} == before
        else:
            assert status == 0 and err.getvalue() == ""
            top = envs.make(json.loads(files["best_genome.json"])["env"]).max_return
            assert rows_a_run_could_write((out_dir / "stats.csv").read_text(), top)
            assert 0 <= json.loads((out_dir / "best_genome.json").read_text())["score"] <= top
            if (out_dir / "checkpoint_2.json").exists():  # absent if nothing was left to run
                cli._load_checkpoint(out_dir / "checkpoint_2.json")
