"""Acceptance suite: nine go/no-go checks, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines.  The two
training checks (6 and 7) are stochastic by design and documented to pass
on at least 2 of their 3 fixed seeds; together they dominate the ~8 s
runtime of this module.
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from qevo import cli, envs, evo, mps

import reference as ref


@contextlib.contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"criterion {number} ({label}): FAIL "
              f"(runtime {elapsed:.2f}s, budget {budget}s)")
        raise AssertionError(f"runtime budget exceeded: {elapsed:.2f}s")
    print(f"criterion {number} ({label}): PASS ({elapsed:.2f}s)")


def balancer(obs) -> int:
    """Hand-tuned linear policy that holds the pole for all 500 steps."""
    x, x_dot, theta, theta_dot = obs
    return 1 if 3.0 * theta + theta_dot + 0.05 * x + 0.2 * x_dot > 0 else 0


def test_criterion_1_simulator_properties():
    with criterion(1, "simulator properties", budget=1.0):
        rng = np.random.default_rng(100)
        gates = ("h", "ry", "rz", "rot", "cnot")
        for trial in range(30):
            state = ref.random_state(rng, 3)
            reference = state.copy()
            applied = []
            for _ in range(12):
                name = gates[rng.integers(len(gates))]
                if name == "h":
                    q = int(rng.integers(3))
                    ref.apply_h(state, q)
                    applied.append(("h", q))
                elif name in ("ry", "rz"):
                    q = int(rng.integers(3))
                    angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
                    getattr(ref, f"apply_{name}")(state, q, angle)
                    applied.append((name, q, angle))
                elif name == "rot":
                    q = int(rng.integers(3))
                    abg = tuple(rng.uniform(-math.pi, math.pi, 3))
                    ref.apply_rot(state, q, *abg)
                    applied.append(("rot", q, abg))
                else:
                    control, target = rng.permutation(3)[:2]
                    ref.apply_cnot(state, int(control), int(target))
                    applied.append(("cnot", int(control), int(target)))
                assert abs(state.norm() - 1.0) < 1e-9  # norm drift
            for op in reversed(applied):  # exact inverses
                if op[0] == "h":
                    ref.apply_h(state, op[1])
                elif op[0] in ("ry", "rz"):
                    getattr(ref, f"apply_{op[0]}")(state, op[1], -op[2])
                elif op[0] == "rot":
                    a, b, g = op[2]
                    ref.apply_rot(state, op[1], -g, -b, -a)
                else:
                    ref.apply_cnot(state, op[1], op[2])
            assert np.max(np.abs(state.amps - reference.amps)) < 1e-10
        for theta in np.linspace(-2 * math.pi, 2 * math.pi, 20):
            state = ref.new_zero_state(1)
            ref.apply_ry(state, 0, theta)
            assert abs(ref.expectation_z(state, 0) - math.cos(theta)) < 1e-9


def test_criterion_2_amplitude_encoding_fidelity():
    with criterion(2, "amplitude encoding fidelity", budget=1.0):
        rng = np.random.default_rng(200)
        for _ in range(200):
            vec = rng.uniform(0.0, 1.0, 4)
            vec[rng.integers(4)] = rng.choice([0.0, vec[0]])  # some zeros
            if np.linalg.norm(vec) == 0.0:
                vec[0] = 1.0
            vec /= np.linalg.norm(vec)
            encoded = ref.amplitude_encode(vec)
            direct = ref.assign_amplitudes(vec)
            assert np.max(np.abs(encoded.amps - direct.amps)) < 1e-9


def test_criterion_3_mps_oracle_equivalence():
    with criterion(3, "MPS sweep vs exhaustive sum", budget=10.0):
        rng = np.random.default_rng(300)
        for n_sites in range(2, 9):
            for bond_dim in (1, 2, 3):
                base = mps.identity_base(n_sites, bond_dim, 8)
                extractor = ref.MpsFeatureExtractor(
                    n_sites, bond_dim, 8,
                    base + 0.3 * rng.standard_normal(base.size))
                for _ in range(3):
                    values = rng.uniform(0.0, 1.0, n_sites)
                    fast = ref.contract(extractor, values)
                    slow = ref.exhaustive_contract(extractor, values)
                    assert np.max(np.abs(fast - slow)) < 1e-9


def test_criterion_4_parameter_count_identities():
    with criterion(4, "parameter count identities"):
        assert envs.CartPoleEnv().genome_length == 26
        for bond_dim in (1, 2, 3, 4):
            env = envs.MiniGridEnv(5, bond_dim=bond_dim)
            assert env.genome_length == 24 + mps.param_count(147, bond_dim, 8)


def test_criterion_5_environment_maxima():
    with criterion(5, "environment reward maxima"):
        maxima = {5: 0.955, 6: 0.95625, 8: 0.9613}
        for size, expected in maxima.items():
            env = ref.MiniGridEnv(size)
            env.reset()
            actions = [2] * (size - 3) + [1] + [2] * (size - 3)
            total, done = 0.0, False
            for action in actions:
                assert not done
                transition = env.step(action)
                total, done = total + transition.reward, transition.done
            assert done
            assert abs(total - expected) < 1e-3

        cartpole = ref.CartPoleEnv()
        obs = cartpole.reset(np.random.default_rng(0))
        total, done = 0.0, False
        while not done:
            transition = cartpole.step(balancer(obs))
            total += transition.reward
            obs, done = transition.observation, transition.done
        assert total == 500.0


DESK_CARTPOLE_SEEDS = (1, 5, 8)
DESK_MINIGRID_SEEDS = (1, 2, 3)


class BarReached(Exception):
    pass


def run_until(config: evo.EvoConfig, env, bar: float) -> tuple[bool, int]:
    """Train until the top-5 average reaches `bar` or the generations run out."""
    history = []

    def on_generation(stats, snapshot):
        history.append(stats)
        if stats.top5_avg >= bar:
            raise BarReached

    try:
        evo.run(config, env, on_generation=on_generation)
    except BarReached:
        pass
    return history[-1].top5_avg >= bar, len(history)


def test_criterion_6_desk_scale_cartpole_training():
    with criterion(6, "desk-scale cart-pole training"):
        outcomes = []
        for seed in DESK_CARTPOLE_SEEDS:
            config = evo.EvoConfig(population=100, truncation=5,
                                   mutation_power=0.02, generations=500,
                                   repeats_all=3, repeats_parents=5,
                                   master_seed=seed)
            hit, gens = run_until(config, envs.CartPoleEnv(), 400.0)
            outcomes.append(hit)
            print(f"  seed {seed}: top-5 avg >= 400 "
                  f"{'reached' if hit else 'missed'} after {gens} generations")
        assert sum(outcomes) >= 2


def test_criterion_7_desk_scale_minigrid_training():
    with criterion(7, "desk-scale minigrid-5 training"):
        outcomes = []
        for seed in DESK_MINIGRID_SEEDS:
            config = evo.EvoConfig(population=100, truncation=10,
                                   mutation_power=0.02, generations=150,
                                   repeats_all=3, repeats_parents=5,
                                   master_seed=seed)
            hit, gens = run_until(config, envs.MiniGridEnv(5, bond_dim=4), 0.90)
            outcomes.append(hit)
            print(f"  seed {seed}: top-5 avg >= 0.90 "
                  f"{'reached' if hit else 'missed'} after {gens} generations")
        assert sum(outcomes) >= 2


def test_criterion_8_evolution_sanity_oracle():
    with criterion(8, "sphere-objective sanity oracle", budget=5.0):
        dim = 26
        # A fixed mutation power sigma costs every mutant about sigma^2 * dim
        # in fitness, so the elite stalls near that floor: 0.0104 here, just
        # above the -0.01 bar (at sigma=0.05 it is 0.065, out of reach).
        # Do not raise sigma without moving the bar.
        config = evo.EvoConfig(population=50, truncation=5,
                               mutation_power=0.02, generations=200,
                               master_seed=0, init_scale=dim ** -0.5)
        history = evo._evolve(
            config,
            lambda genomes, rows, *_: np.array([-math.fsum(g * g) for g in genomes[rows]]),
            dim)
        assert abs(history[0].pop_mean + 1.0) < 0.2  # starts near -1
        # the elite is carried over verbatim and the objective is
        # deterministic, so the elite score can never drop
        elite_curve = np.array([s.elite_score for s in history])
        assert np.all(np.diff(elite_curve) >= 0.0)
        best = history[-1].elite_score
        print(f"  best elite fitness after 200 generations: {best:.4f}")
        assert best >= -0.01


def test_criterion_9_worker_count_determinism(tmp_path):
    with criterion(9, "stats.csv byte determinism across worker counts"):
        config = {
            "env": "cartpole",
            "checkpoint_every": 50,
            "evo": {"population": 100, "truncation": 5,
                    "mutation_power": 0.02, "repeats_all": 3,
                    "repeats_parents": 5, "generations": 12,
                    "master_seed": 1},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        for workers, out in ((1, "serial"), (3, "pooled")):
            code = cli.main(["train", "--config", str(path),
                             "--out-dir", str(tmp_path / out),
                             "--workers", str(workers)])
            assert code == 0
        serial = (tmp_path / "serial" / "stats.csv").read_bytes()
        pooled = (tmp_path / "pooled" / "stats.csv").read_bytes()
        assert serial == pooled
        assert serial.count(b"\n") == 13  # header + 12 generations
