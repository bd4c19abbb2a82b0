"""Command line front end: train, evaluate, resume.

    qevo train --config cfg.json [--seed N] [--out-dir DIR]
               [--workers N] [--generations M]
    qevo eval --genome best_genome.json [--env NAME]
              [--episodes K] [--seed N]
    qevo resume --checkpoint checkpoint_<g>.json
                [--generations M] [--workers N]

Config files are single JSON documents:

    {
      "env": "cartpole",            # or minigrid-5 / minigrid-6 / minigrid-8
      "mps_bond_dim": 4,            # minigrid only
      "out_dir": "runs/example",
      "workers": 1,
      "checkpoint_every": 50,
      "evo": {"population": 100, "truncation": 5, "mutation_power": 0.02,
              "repeats_all": 3, "repeats_parents": 5, "generations": 500,
              "master_seed": 1, "init_scale": 0.01}
    }

Training writes `stats.csv` (one row per generation), a
`checkpoint_<g>.json` file after every `checkpoint_every` generations and
after the last one, and `best_genome.json`, which is rewritten just before
each checkpoint, so it is never older than the newest one.  All randomness
flows from the master seed, so re-running a config reproduces the CSV
byte for byte, for any worker count.

A checkpoint holds what a resume reads: `format`, `run_config`,
`generation`, the ranked `parents`, the `elite`, the rolling `window` of
(count, sum, sum of squares) rows, `best_genome` and `best_score`.  Format 2
stores each array as an object

    {"shape": [10, 4808], "float64le": "<base64 of little-endian float64>"}

so that it is exact, compact and quick to write; scalars and the rolling
window stay JSON numbers.  Format-1 checkpoints, whose arrays are JSON
lists, still load, and a genome file may hold either form.  Keys that
older checkpoints also held (`parent_fitness`, `elite_score`) are ignored.
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import envs, evo

STATS_COLUMNS = tuple(field.name for field in dataclasses.fields(evo.GenerationStats))
CHECKPOINT_FORMAT = 2
CHECKPOINT_KEYS = {"run_config", *(field.name for field in
                                   dataclasses.fields(evo.GenerationSnapshot))}
# relative rounding by which a window row's count * sum of squares may fall
# short of its sum squared: a generation of equal fitness values gets there
# by about 1e-16
WINDOW_ROUNDING = 1e-12
# the JSON values a config field of each type takes: true is no number
JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}


@dataclass
class RunConfig:
    env: str
    evo: evo.EvoConfig
    mps_bond_dim: int = 4
    out_dir: str = "runs/run"
    workers: int = 1
    checkpoint_every: int = 50

    def __post_init__(self) -> None:
        if self.mps_bond_dim < 1:
            raise ValueError("mps_bond_dim must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


def _from_dict(cls, data: dict, section: str):
    """A config dataclass from JSON; a field without a default is a required
    key, and a value must be of a JSON type its field takes (JSON_TYPES)."""
    if type(data) is not dict:
        raise ValueError(f"{section} must be a JSON object, got {type(data).__name__}")
    fields = dataclasses.fields(cls)
    unknown = set(data) - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    missing = {f.name for f in fields if f.default is dataclasses.MISSING} - set(data)
    if missing:
        raise ValueError(f"missing {section} keys: {sorted(missing)}")
    hints = get_type_hints(cls)  # a dataclass-typed field is a nested section
    values = {key: _from_dict(hints[key], value, f"{key} config")
              if dataclasses.is_dataclass(hints[key]) else value
              for key, value in data.items()}
    for name, hint in hints.items():
        if hint in JSON_TYPES and name in data and type(data[name]) not in JSON_TYPES[hint]:
            raise ValueError(f"{name} must be of type {hint.__name__}, got {data[name]!r}")
    return cls(**values)


def load_run_config(path: str | Path) -> RunConfig:
    with open(path) as handle:
        return _from_dict(RunConfig, json.load(handle), "config")


# ---------------------------------------------------------------------------
# stats / checkpoint files

def _stats_row(stats: evo.GenerationStats) -> str:
    # every field is an int or a Python float, whose repr round-trips
    return ",".join(map(repr, dataclasses.astuple(stats))) + "\n"


def _encode_array(array: np.ndarray) -> dict:
    """An array as JSON: its shape and its little-endian float64 bytes in base64."""
    data = np.ascontiguousarray(array, dtype="<f8").tobytes()
    return {"shape": list(array.shape), "float64le": base64.b64encode(data).decode("ascii")}


def _decode_array(value: dict, what: str) -> np.ndarray:
    """The array `_encode_array` wrote, checked to be well formed."""
    if set(value) != {"shape", "float64le"}:
        raise ValueError(f"{what} must be a list or an object with the keys "
                         f"'shape' and 'float64le', got keys {sorted(value)}")
    shape = value["shape"]
    if type(shape) is not list or any(type(n) is not int or n < 0 for n in shape):
        raise ValueError(f"{what} shape must be a list of ints >= 0, got {shape!r}")
    try:
        data = base64.b64decode(value["float64le"], validate=True)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise ValueError(f"{what} float64le is not a base64 string") from None
    if len(data) != 8 * math.prod(shape):
        raise ValueError(f"{what} holds {len(data)} bytes, "
                         f"not 8 per entry of shape {tuple(shape)}")
    # astype copies the read-only buffer into an ordinary native float64 array
    return np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)


def _write_json(path: Path, payload: dict) -> None:
    """Write JSON (arrays encoded) so that a crash leaves the old or the new file.

    The text is synced to a temporary file beside `path`, then renamed over it.
    """
    text = json.dumps(payload, default=_encode_array)
    temp = path.with_name(path.name + ".tmp")
    try:
        with open(temp, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _write_checkpoint(path: Path, config: RunConfig,
                      snapshot: evo.GenerationSnapshot) -> None:
    _write_json(path, {"format": CHECKPOINT_FORMAT,
                       "run_config": dataclasses.asdict(config), **vars(snapshot)})


def _write_best_genome(path: Path, config: RunConfig,
                       snapshot: evo.GenerationSnapshot) -> None:
    # the genome stays a JSON list: the file is read by hand and by tools
    # that take its length, and one genome is cheap to write as text
    _write_json(path, {"env": config.env, "bond_dim": config.mps_bond_dim,
                       "generation": snapshot.generation, "score": snapshot.best_score,
                       "genome": snapshot.best_genome.tolist()})


def _json_numbers(value) -> bool:
    """Whether a JSON value is a number, or nested lists of numbers; not a bool."""
    if type(value) is list:
        return all(map(_json_numbers, value))
    return type(value) in (int, float)


def _finite_array(value, what: str) -> np.ndarray:
    """A float64 array from a JSON number, nested lists of them or an encoded array.

    NaN and infinities are rejected, and so are strings and bools, which
    NumPy would read as numbers.
    """
    if isinstance(value, dict):
        array = _decode_array(value, what)
    elif not _json_numbers(value):
        raise ValueError(f"{what} holds a value that is not a JSON number")
    else:
        try:
            array = np.asarray(value, dtype=np.float64)
        except ValueError:
            raise ValueError(f"{what} is not a regular array of numbers") from None
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{what} holds non-finite entries")
    return array


def _load_checkpoint(path: str | Path) -> tuple[RunConfig, evo.GenerationSnapshot]:
    """The run config and snapshot of a checkpoint, checked before anything is written.

    Format 1 holds its arrays as JSON lists, format 2 as encoded arrays;
    `_finite_array` reads either.
    """
    with open(path) as handle:
        data = json.load(handle)
    if type(data) is not dict:
        raise ValueError(f"checkpoint must be a JSON object, got {type(data).__name__}")
    if type(data.get("format")) is not int or data["format"] not in (1, CHECKPOINT_FORMAT):
        raise ValueError(f"unsupported checkpoint format: {data.get('format')!r}")
    missing = CHECKPOINT_KEYS - set(data)
    if missing:
        raise ValueError(f"checkpoint is missing keys: {sorted(missing)}")
    config = _from_dict(RunConfig, data["run_config"], "config")
    generation = data["generation"]
    if type(generation) is not int or generation < 0:
        raise ValueError(f"checkpoint 'generation' must be an int >= 0, got {generation!r}")
    # the window's sums become stats.csv cells through repr, so its rows stay
    # the JSON numbers in both formats: a NumPy scalar would print as np.float64(...)
    if type(data["window"]) is not list:
        raise ValueError("checkpoint 'window' must be a JSON list of rows")
    env = envs.make(config.env, config.mps_bond_dim)
    length, top = env.genome_length, env.max_return
    shapes = {"parents": (config.evo.truncation, length), "elite": (length,),
              "window": (min(generation + 1, evo.ROLLING_WINDOW), 3),
              "best_genome": (length,), "best_score": ()}
    values = {"generation": generation}
    for key, shape in shapes.items():
        array = _finite_array(data[key], f"checkpoint {key!r}")
        if array.shape != shape:
            raise ValueError(f"checkpoint {key!r} must have shape {shape}, "
                             f"got {array.shape}")
        values[key] = array if shape else array.item()
    # every fitness is a mean of returns in [0, top], and so is the best score
    if not 0 <= values["best_score"] <= top:
        raise ValueError(f"checkpoint 'best_score' {values['best_score']!r} lies outside "
                         f"[0, {top}], the returns of {config.env}")
    # training counts every generation's whole population into its row, and
    # no data set has a sum of squares below sum^2 / count
    for count, total, total_sq in data["window"]:
        if type(count) is not int or count != config.evo.population:
            raise ValueError(f"checkpoint 'window' counts must each be the population "
                             f"{config.evo.population}, got {count!r}")
        if not (0 <= total <= count * top and 0 <= total_sq <= count * top * top):
            raise ValueError(f"checkpoint 'window' row ({count}, {total!r}, {total_sq!r}) "
                             f"has sums no {count} returns in [0, {top}] have")
        if count * total_sq < (1.0 - WINDOW_ROUNDING) * total * total:
            raise ValueError(f"checkpoint 'window' row ({count}, {total!r}, {total_sq!r}) "
                             f"has a sum of squares no {count} values have")
    values["window"] = tuple(map(tuple, data["window"]))
    return config, evo.GenerationSnapshot(**values)


def _kept_stats(path: Path, generation: int) -> str:
    """The rows of generations 0..generation, which a resume from it keeps.

    They must be the stats file's first rows, in order, each of
    len(STATS_COLUMNS) fields; if one is missing, a ValueError names it.
    """
    rows = path.read_text().splitlines()[1:] if path.exists() else []
    for g in range(generation + 1):
        fields = rows[g].split(",") if g < len(rows) else []
        if len(fields) != len(STATS_COLUMNS) or fields[0] != str(g):
            raise ValueError(f"{path} lacks the row of generation {g}, "
                             f"which a resume from generation {generation} needs")
    return "".join(row + "\n" for row in rows[:generation + 1])


def _train_loop(config: RunConfig, resume: evo.GenerationSnapshot | None) -> int:
    """Train from scratch, or on from the snapshot `resume`."""
    env = envs.make(config.env, config.mps_bond_dim)
    out_dir = Path(config.out_dir)
    stats_path = out_dir / "stats.csv"
    head = ",".join(STATS_COLUMNS) + "\n"
    first = 0 if resume is None else resume.generation + 1
    if resume is not None and first < config.evo.generations:
        # the rows are checked before anything is scored, but those after the
        # checkpoint are cut only once a new row replaces them, so a resume
        # with nothing left to run writes nothing
        head += _kept_stats(stats_path, resume.generation)
    last = config.evo.generations - 1

    def on_generation(stats: evo.GenerationStats, snapshot: evo.GenerationSnapshot) -> None:
        generation = snapshot.generation
        if generation == first:  # a run stopped before its first row leaves no directory
            out_dir.mkdir(parents=True, exist_ok=True)
            stats_path.write_text(head)
        with open(stats_path, "a") as stats_file:
            stats_file.write(_stats_row(stats))
        if (generation + 1) % config.checkpoint_every == 0 or generation == last:
            # the best genome first, so that a kill between the two renames
            # leaves it no older than the newest checkpoint
            _write_best_genome(out_dir / "best_genome.json", config, snapshot)
            _write_checkpoint(out_dir / f"checkpoint_{generation}.json", config, snapshot)
        if generation == last:
            print(f"finished generation {generation}: "
                  f"best score {snapshot.best_score}, outputs in {out_dir}")

    if not evo.run(config.evo, env, workers=config.workers,
                   on_generation=on_generation, resume=resume):
        if resume is None:  # a fresh run of no generations leaves a header-only file
            out_dir.mkdir(parents=True, exist_ok=True)
            stats_path.write_text(head)
        after = "" if resume is None else f" after generation {resume.generation}"
        print(f"no generations to run{after}; outputs in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# subcommands

def _with_flags(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    """`config` with the values of the override flags given on the command line."""
    given = {name: value for name, value in vars(args).items() if value is not None}
    run = {name: given[name] for name in ("out_dir", "workers") if name in given}
    evo_fields = {field: given[flag] for flag, field in
                  (("seed", "master_seed"), ("generations", "generations")) if flag in given}
    return dataclasses.replace(config, **run,
                               evo=dataclasses.replace(config.evo, **evo_fields))


def cmd_train(args: argparse.Namespace) -> int:
    return _train_loop(_with_flags(load_run_config(args.config), args), resume=None)


def cmd_resume(args: argparse.Namespace) -> int:
    config, snapshot = _load_checkpoint(args.checkpoint)
    return _train_loop(_with_flags(config, args), resume=snapshot)


def cmd_eval(args: argparse.Namespace) -> int:
    if args.episodes < 0:
        raise ValueError(f"--episodes must be >= 0, got {args.episodes}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    with open(args.genome) as handle:
        payload = json.load(handle)
    if type(payload) is not dict or "genome" not in payload:
        raise ValueError("genome file must be a JSON object with a 'genome' key")
    env_name = args.env if args.env is not None else payload.get("env")
    if args.env is None and (type(env_name) is not str or env_name not in envs.ENV_NAMES):
        raise ValueError(f"genome file's 'env' must be one of {envs.ENV_NAMES} "
                         f"(or pass --env), got {env_name!r}")
    bond_dim = payload.get("bond_dim", 4)
    if type(bond_dim) is not int or bond_dim < 1:
        raise ValueError(f"genome file's 'bond_dim' must be an int >= 1, got {bond_dim!r}")
    env = envs.make(env_name, bond_dim)
    genome = _finite_array(payload["genome"], "genome")
    if genome.shape != (env.genome_length,):  # an encoded genome may have any shape
        raise ValueError(f"genome shape {genome.shape} does not match {env_name} "
                         f"(expected ({env.genome_length},))")

    # one agent, its episodes all drawn from the stream SeedSequence([seed])
    scores = evo.episode_returns(genome[None], env, [0], [[args.seed]],
                                 [args.episodes]).tolist()
    result = {
        "env": env_name,
        "episodes": args.episodes,
        "scores": scores,
        "mean": float(np.mean(scores)) if scores else None,
        "std": float(np.std(scores)) if scores else None,
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qevo",
        description="Evolutionary training of variational quantum circuit policies")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train from a JSON config")
    train.add_argument("--config", required=True, help="path to JSON run config")
    train.add_argument("--seed", type=int, help="override evo.master_seed")
    train.add_argument("--out-dir", help="override output directory")
    train.add_argument("--workers", type=int, help="override worker count")
    train.add_argument("--generations", type=int, help="override generation count")
    train.set_defaults(func=cmd_train)

    resume = sub.add_parser("resume", help="continue from a checkpoint")
    resume.add_argument("--checkpoint", required=True, help="checkpoint JSON path")
    resume.add_argument("--workers", type=int, help="override worker count")
    resume.add_argument("--generations", type=int, help="override generation count")
    resume.set_defaults(func=cmd_resume)

    ev = sub.add_parser("eval", help="replay a saved genome")
    ev.add_argument("--genome", required=True, help="genome JSON path")
    ev.add_argument("--env", help="environment name (defaults to the file's)")
    ev.add_argument("--episodes", type=int, default=10)
    ev.add_argument("--seed", type=int, default=0)
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # CLI boundary: report, do not traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
