"""Command line front end: train, evaluate, resume.

    qevo train --config cfg.json [--seed N] [--out-dir DIR]
               [--workers N] [--generations M]
    qevo eval --genome best_genome.json [--env NAME] [--bond-dim M]
              [--episodes K] [--seed N]
    qevo resume --checkpoint checkpoint_<g>.json [--generations M]
                [--workers N]

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

Training writes `stats.csv` (one row per generation), periodic
`checkpoint_<g>.json` files, and `best_genome.json`.  All randomness
flows from the master seed, so re-running a config reproduces the CSV
byte for byte, for any worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import agents, envs, evo

STATS_COLUMNS = ("generation", "top5_avg", "pop_mean", "pop_std",
                 "elite_score", "rolling_mean_100", "rolling_std_100")
CHECKPOINT_FORMAT = 1


@dataclass
class RunConfig:
    env: str
    evo: evo.EvoConfig
    mps_bond_dim: int = 4
    out_dir: str = "runs/run"
    workers: int = 1
    checkpoint_every: int = 50

    def __post_init__(self) -> None:
        if self.env not in envs.ENV_NAMES:
            raise ValueError(f"env must be one of {envs.ENV_NAMES}, "
                             f"got {self.env!r}")
        if self.mps_bond_dim < 1:
            raise ValueError("mps_bond_dim must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")


def _evo_config_from_dict(data: dict) -> evo.EvoConfig:
    allowed = {f.name for f in dataclasses.fields(evo.EvoConfig)}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown evo config keys: {sorted(unknown)}")
    missing = {"population", "truncation", "mutation_power", "generations"} - set(data)
    if missing:
        raise ValueError(f"missing evo config keys: {sorted(missing)}")
    return evo.EvoConfig(**data)


def _run_config_from_dict(data: dict) -> RunConfig:
    allowed = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "env" not in data or "evo" not in data:
        raise ValueError("config requires 'env' and 'evo' sections")
    fields = dict(data)
    fields["evo"] = _evo_config_from_dict(fields["evo"])
    return RunConfig(**fields)


def load_run_config(path: str | Path) -> RunConfig:
    with open(path) as handle:
        return _run_config_from_dict(json.load(handle))


def resolve_task(env: str, bond_dim: int):
    """(env_factory, architecture) for an environment; bond_dim is for minigrid."""
    factory = envs.env_factory(env)
    if env == "cartpole":
        return factory, agents.cartpole_architecture()
    return factory, agents.tnvqc_architecture(bond_dim)


# ---------------------------------------------------------------------------
# stats / checkpoint files

def _stats_row(stats: evo.GenerationStats) -> str:
    return ",".join([
        str(stats.generation), repr(stats.top5_avg), repr(stats.pop_mean),
        repr(stats.pop_std), repr(stats.elite_score),
        repr(stats.rolling_mean_100), repr(stats.rolling_std_100),
    ]) + "\n"


def _write_checkpoint(path: Path, config: RunConfig,
                      snapshot: evo.GenerationSnapshot) -> None:
    payload = {
        "format": CHECKPOINT_FORMAT,
        "run_config": {
            "env": config.env,
            "mps_bond_dim": config.mps_bond_dim,
            "out_dir": config.out_dir,
            "workers": config.workers,
            "checkpoint_every": config.checkpoint_every,
            "evo": dataclasses.asdict(config.evo),
        },
        "generation": snapshot.generation,
        "parents": [row.tolist() for row in snapshot.parents],
        "parent_fitness": snapshot.parent_fitness.tolist(),
        "elite": snapshot.elite.tolist(),
        "elite_score": snapshot.elite_score,
        "window": [list(entry) for entry in snapshot.window],
        "best_genome": snapshot.best_genome.tolist(),
        "best_score": snapshot.best_score,
    }
    path.write_text(json.dumps(payload))


def _write_best_genome(path: Path, config: RunConfig,
                       snapshot: evo.GenerationSnapshot) -> None:
    payload = {
        "env": config.env,
        "bond_dim": config.mps_bond_dim,
        "generation": snapshot.generation,
        "score": snapshot.best_score,
        "genome": snapshot.best_genome.tolist(),
    }
    path.write_text(json.dumps(payload))


def _finite_array(values, what: str) -> np.ndarray:
    """A float64 array of JSON numbers, rejecting NaN and infinities."""
    array = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{what} holds non-finite entries")
    return array


def _load_checkpoint(path: str | Path) -> tuple[RunConfig, dict]:
    with open(path) as handle:
        data = json.load(handle)
    if data.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format: {data.get('format')!r}")
    config = _run_config_from_dict(data["run_config"])
    for key in ("parents", "parent_fitness", "elite", "elite_score", "window",
                "best_genome", "best_score"):
        _finite_array(data[key], f"checkpoint {key!r}")
    return config, data


def _truncate_stats(path: Path, last_generation: int) -> None:
    """Drop rows past the checkpointed generation before appending."""
    header = ",".join(STATS_COLUMNS) + "\n"
    if path.exists():
        kept = []
        for line in path.read_text().splitlines():
            first = line.split(",", 1)[0]
            if first == "generation":
                continue
            if int(first) <= last_generation:
                kept.append(line + "\n")
        path.write_text(header + "".join(kept))
    else:
        path.write_text(header)


def _train_loop(config: RunConfig, resume_state: evo.ResumeState | None,
                stats_mode: str) -> int:
    env_factory, architecture = resolve_task(config.env, config.mps_bond_dim)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats_path = out_dir / "stats.csv"

    last_snapshot: list[evo.GenerationSnapshot | None] = [None]
    with open(stats_path, stats_mode) as stats_file:
        if stats_mode == "w":
            stats_file.write(",".join(STATS_COLUMNS) + "\n")

        def on_generation(stats: evo.GenerationStats,
                          snapshot: evo.GenerationSnapshot) -> None:
            stats_file.write(_stats_row(stats))
            stats_file.flush()
            last_snapshot[0] = snapshot
            if (snapshot.generation + 1) % config.checkpoint_every == 0:
                _write_checkpoint(out_dir / f"checkpoint_{snapshot.generation}.json",
                                  config, snapshot)

        history = evo.run(config.evo, env_factory, architecture,
                          workers=config.workers, on_generation=on_generation,
                          resume=resume_state)

    snapshot = last_snapshot[0]
    if snapshot is not None:
        _write_checkpoint(out_dir / f"checkpoint_{snapshot.generation}.json",
                          config, snapshot)
        _write_best_genome(out_dir / "best_genome.json", config, snapshot)
        print(f"finished generation {snapshot.generation}: "
              f"best score {snapshot.best_score}, outputs in {out_dir}")
    else:
        print(f"no generations to run ({len(history)} completed); "
              f"outputs in {out_dir} unchanged")
    return 0


# ---------------------------------------------------------------------------
# subcommands

def cmd_train(args: argparse.Namespace) -> int:
    config = load_run_config(args.config)
    overrides: dict = {}
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    if args.workers is not None:
        overrides["workers"] = args.workers
    evo_overrides: dict = {}
    if args.seed is not None:
        evo_overrides["master_seed"] = args.seed
    if args.generations is not None:
        evo_overrides["generations"] = args.generations
    if evo_overrides:
        overrides["evo"] = dataclasses.replace(config.evo, **evo_overrides)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return _train_loop(config, resume_state=None, stats_mode="w")


def cmd_resume(args: argparse.Namespace) -> int:
    config, data = _load_checkpoint(args.checkpoint)
    if args.env is not None and args.env != config.env:
        raise ValueError(f"checkpoint was trained on {config.env!r}, "
                         f"cannot resume on {args.env!r}")
    overrides: dict = {}
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.generations is not None:
        overrides["evo"] = dataclasses.replace(config.evo,
                                               generations=args.generations)
    if overrides:
        config = dataclasses.replace(config, **overrides)

    generation = int(data["generation"])
    parents = np.asarray(data["parents"], dtype=np.float64)
    elite = np.asarray(data["elite"], dtype=np.float64)
    population = evo.spawn_children(parents, elite, config.evo, generation)
    resume_state = evo.ResumeState(
        next_generation=generation + 1,
        population=population,
        window=[tuple(entry) for entry in data["window"]],
        best_genome=np.asarray(data["best_genome"], dtype=np.float64),
        best_score=float(data["best_score"]),
    )
    _truncate_stats(Path(config.out_dir) / "stats.csv", generation)
    return _train_loop(config, resume_state=resume_state, stats_mode="a")


def cmd_eval(args: argparse.Namespace) -> int:
    if args.episodes < 0:
        raise ValueError(f"--episodes must be >= 0, got {args.episodes}")
    if args.bond_dim is not None and args.bond_dim < 1:
        raise ValueError(f"--bond-dim must be >= 1, got {args.bond_dim}")
    with open(args.genome) as handle:
        payload = json.load(handle)
    env_name = args.env or payload.get("env")
    if env_name is None:
        raise ValueError("genome file does not name an env; pass --env")
    bond_dim = args.bond_dim if args.bond_dim is not None else payload.get("bond_dim", 4)
    env_factory, architecture = resolve_task(env_name, bond_dim)
    genome = _finite_array(payload["genome"], "genome")
    if genome.shape != (architecture.genome_length,):
        raise ValueError(
            f"genome length {genome.size} does not match {architecture.name} "
            f"(expected {architecture.genome_length})")

    # one agent, its episodes all drawn from the stream SeedSequence([seed])
    scores = evo.episode_returns(genome[None], architecture, env_factory(),
                                 args.episodes, [[args.seed]])[0].tolist()
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
    resume.add_argument("--env", help="must match the checkpoint env if given")
    resume.add_argument("--workers", type=int, help="override worker count")
    resume.add_argument("--generations", type=int, help="override generation count")
    resume.set_defaults(func=cmd_resume)

    ev = sub.add_parser("eval", help="replay a saved genome")
    ev.add_argument("--genome", required=True, help="genome JSON path")
    ev.add_argument("--env", help="environment name (defaults to the file's)")
    ev.add_argument("--bond-dim", type=int, help="MPS bond dimension override")
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
