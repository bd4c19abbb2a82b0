"""Evolution-strategy tests: seeding, ranking, elitism, the fused loop and its resume, the pool."""

import dataclasses
import functools
import itertools
import math
import os
import threading
import time
import tracemalloc
import zlib
from concurrent import futures
from multiprocessing import active_children, get_context, sharedctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevo import envs, evo

import reference as ref


def sphere(genome):
    # not np.dot: some OpenBLAS kernels round a dot product by its operands'
    # alignment, and a genome changes rows between generations
    return -math.fsum(genome * genome)


def sphere_fitness(genomes, rows, entropies, repeats):
    return np.array([sphere(genomes[r]) for r in rows])


def new_population(config, genome_length):
    """An out buffer for init_population; NaN until written."""
    return np.full((config.population, genome_length), np.nan)


def new_children(config, genome_length):
    """An out buffer for spawn_children: a population's first N-1 rows."""
    return new_population(config, genome_length)[:-1]


def tiny_config(**overrides):
    base = dict(population=8, truncation=3, mutation_power=0.05,
                generations=4, repeats_all=2, repeats_parents=2,
                master_seed=7, init_scale=0.01)
    base.update(overrides)
    return evo.EvoConfig(**base)


# ---------------------------------------------------------------------------
# config and primitives

def test_config_validation():
    with pytest.raises(ValueError, match="truncation"):
        tiny_config(truncation=8)
    with pytest.raises(ValueError, match="truncation"):
        tiny_config(truncation=0)
    with pytest.raises(ValueError, match="mutation_power"):
        tiny_config(mutation_power=0.0)
    with pytest.raises(ValueError, match="repeat"):
        tiny_config(repeats_all=0)
    with pytest.raises(ValueError, match="generations"):
        tiny_config(generations=-1)
    with pytest.raises(ValueError, match="init_scale"):
        tiny_config(init_scale=-0.1)


def test_init_population_deterministic_and_scaled():
    config = tiny_config(population=100, truncation=5, init_scale=0.02)
    pop = evo.init_population(config, new_population(config, 1000))
    again = evo.init_population(config, new_population(config, 1000))
    np.testing.assert_array_equal(pop, again)
    assert pop.shape == (100, 1000)
    # 1e5 standard normal draws: sample std within 10% of init_scale
    assert abs(pop.std() - 0.02) < 0.002
    assert abs(pop.mean()) < 0.001


def test_init_population_rows_independent_of_population_size():
    small_config = tiny_config(population=4, truncation=1)
    large_config = tiny_config(population=8, truncation=1)
    small = evo.init_population(small_config, new_population(small_config, 10))
    large = evo.init_population(large_config, new_population(large_config, 10))
    np.testing.assert_array_equal(small, large[:4])


def test_init_population_rejects_a_wrong_shape():
    config = tiny_config()
    with pytest.raises(ValueError, match=r"shape \(8, 5\), got \(9, 5\)"):
        evo.init_population(config, np.zeros((config.population + 1, 5)))


def test_init_scale_zero_gives_zero_population():
    config = tiny_config(init_scale=0.0)
    pop = evo.init_population(config, new_population(config, 5))
    np.testing.assert_array_equal(pop, np.zeros((8, 5)))


def test_rank_indices_descending_with_stable_ties():
    fitness = np.array([1.0, 3.0, 3.0, 2.0, 3.0])
    np.testing.assert_array_equal(evo.rank_indices(fitness), [1, 2, 4, 3, 0])


def test_spawn_children_layout():
    # spawn writes the N-1 children and nothing else: a sentinel in the
    # row just past `out` (where the loop puts the elite) and the parents
    # after it, the loop's layout, are left as they were
    config = tiny_config(population=6, truncation=2, mutation_power=0.1)
    n, t = config.population, config.truncation
    buffer = np.full((n + t, 4), np.nan)
    buffer[n - 1] = sentinel = np.array([-0.0, 9.0, np.inf, np.nan])
    buffer[n:] = parents = np.stack([np.zeros(4), np.ones(4)])
    pop = evo.spawn_children(buffer[n:], config, 0, out=buffer[:n - 1])
    assert pop.shape == (5, 4) and np.shares_memory(pop, buffer)
    assert buffer[n - 1].tobytes() == sentinel.tobytes()
    assert buffer[n:].tobytes() == parents.tobytes()
    again = evo.spawn_children(parents, config, 0, new_children(config, 4))
    np.testing.assert_array_equal(pop, again)
    shifted = evo.spawn_children(parents, config, 1, new_children(config, 4))
    assert not np.array_equal(pop, shifted)
    with pytest.raises(ValueError, match="shape"):  # a whole population is one row too many
        evo.spawn_children(parents, config, 0, new_population(config, 4))


@settings(max_examples=40, deadline=None)
@given(population=st.integers(2, 100), genome_length=st.integers(1, 60),
       init_scale=st.sampled_from([0.0, 1e-300, 0.01, 0.2, 3.0]),
       master_seed=st.integers(0, 2**32 - 1))
def test_init_population_matches_reference(population, genome_length, init_scale,
                                           master_seed):
    # init_scale 0.0 gives signed zeros, which tobytes tells apart
    config = tiny_config(population=population, truncation=1,
                         init_scale=init_scale, master_seed=master_seed)
    out = new_population(config, genome_length)
    pop = evo.init_population(config, out=out)
    assert pop is out
    assert pop.tobytes() == ref.init_population(config, genome_length).tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), population=st.integers(2, 100), genome_length=st.integers(1, 60),
       mutation_power=st.sampled_from([1e-300, 0.02, 0.5, 7.0]),
       generation=st.integers(0, 10_000), master_seed=st.integers(0, 2**32 - 1),
       parent_scale=st.sampled_from([0.0, 0.01, 1.0, 1e6]),
       block_entries=st.sampled_from([1, 50, 333, evo.SPAWN_BLOCK_ENTRIES]))
def test_spawn_children_matches_reference(data, population, genome_length, mutation_power,
                                          generation, master_seed, parent_scale,
                                          block_entries):
    truncation = data.draw(st.integers(1, population - 1), label="truncation")
    config = tiny_config(population=population, truncation=truncation,
                         mutation_power=mutation_power, master_seed=master_seed)
    rng = np.random.default_rng(generation)
    parents = rng.standard_normal((truncation, genome_length)) * parent_scale
    elite = parents[rng.integers(truncation)].copy()
    out = new_children(config, genome_length)
    default_block, evo.SPAWN_BLOCK_ENTRIES = evo.SPAWN_BLOCK_ENTRIES, block_entries
    try:  # small blocks: the parents are added in many row blocks
        pop = evo.spawn_children(parents, config, generation, out=out)
    finally:
        evo.SPAWN_BLOCK_ENTRIES = default_block
    assert pop is out
    expected = ref.spawn_children(parents, elite, config, generation)
    assert pop.tobytes() == expected[:-1].tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), population=st.integers(4, 60), genome_length=st.integers(1, 40),
       head=st.sampled_from(["1 row", "some rows", "all rows"]),
       mutation_power=st.sampled_from([1e-300, 0.02, 7.0]), generation=st.integers(0, 10_000),
       master_seed=st.integers(0, 2**32 - 1), parent_scale=st.sampled_from([0.0, 1.0, 1e6]))
def test_spawn_from_a_predrawn_head_matches_reference(data, population, genome_length, head,
                                                      mutation_power, generation, master_seed,
                                                      parent_scale):
    # the loop has a helper thread draw the head of a spawn's noise into the
    # block it then gathers the picked parents through; the spawn continues
    # the helper's Generator over the other rows
    truncation = data.draw(st.integers(1, population - 1), label="truncation")
    rows = {"1 row": 1, "all rows": population - 1}.get(head) or data.draw(
        st.integers(2, population - 2), label="rows")
    config = tiny_config(population=population, truncation=truncation,
                         mutation_power=mutation_power, master_seed=master_seed)
    rng = np.random.default_rng(generation)
    parents = rng.standard_normal((truncation, genome_length)) * parent_scale
    elite = parents[rng.integers(truncation)].copy()
    default_block = evo.SPAWN_BLOCK_ENTRIES
    evo.SPAWN_BLOCK_ENTRIES = rows * genome_length + genome_length - 1
    try:  # a block of `rows` whole rows, as the loop sizes it
        block = np.empty((evo._block_rows(genome_length), genome_length))
    finally:
        evo.SPAWN_BLOCK_ENTRIES = default_block
    helper, predrawn = evo._spawn_ahead(config, generation, truncation, block, [])
    helper.join(timeout=60)
    assert not helper.is_alive()
    out = new_children(config, genome_length)
    assert evo.spawn_children(parents, config, generation, out=out, head=predrawn) is out
    assert len(block) == rows and not np.shares_memory(block, out)
    expected = ref.spawn_children(parents, elite, config, generation)
    assert out.tobytes() == expected[:-1].tobytes()


def test_generation_step_allocates_no_second_population(monkeypatch):
    """The in-place loop's peak stays under 1.5 populations of memory.

    The loop owns one buffer of N - 1 + T rows; the parents are a few rows,
    and spawning gathers picked parents SPAWN_BLOCK_ENTRIES entries at a
    time.  An allocating init or spawn (stack, noise, sum, concatenate)
    would hold two or more populations at once.  Each generation is one
    plan: the population alone, then each elite trial beside the next
    population, then the last elite trial alone, and no population is
    spawned after the last generation.
    """
    config = evo.EvoConfig(population=200, truncation=10, mutation_power=0.02,
                           generations=3, master_seed=4, init_scale=0.1)
    n, t = config.population, config.truncation
    genome_length = 5_000
    population_bytes = n * genome_length * 8
    plans = []
    spawns = []
    spawn_children = evo.spawn_children

    def counted_spawn(*args, **kwargs):
        spawns.append(args[2])
        return spawn_children(*args, **kwargs)

    def row_sums(genomes, rows, entropies, repeats):  # allocates only (len,)
        assert all(entropy[0] == config.master_seed for entropy in entropies)
        # runs of rows of one (tag, generation, repeats), as (genome row, slot)
        plan = [((tag, generation, k), (row, slot)) for row, (_, tag, generation, slot), k
                in zip(rows.tolist(), entropies, repeats.tolist())]
        plans.append([(key, [cell for _, cell in run])
                      for key, run in itertools.groupby(plan, key=lambda item: item[0])])
        return genomes.sum(axis=1)[rows]

    monkeypatch.setattr(evo, "spawn_children", counted_spawn)
    tracemalloc.start()
    try:
        evo._evolve(config, row_sums, genome_length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * population_bytes, peak / population_bytes

    population = [(i, i) for i in range(n)]
    trial = [(n - 1 + i, i) for i in range(t)]  # the parents after the children
    # the children, then every parent as the candidate for slot N-1
    candidates = population[:-1] + [(n - 1 + i, n - 1) for i in range(t)]

    def fused(generation):
        return [((evo.TAG_EVAL, generation + 1, 3), candidates),
                ((evo.TAG_ELITE, generation, 5), trial)]

    assert plans == [[((evo.TAG_EVAL, 0, 3), population)], fused(0), fused(1),
                     [((evo.TAG_ELITE, 2, 5), trial)]]
    assert spawns == [0, 1]  # generations - 1 spawns

    # a resume re-spawns its first population, then spawns as before
    snaps = []
    evo._evolve(config, row_sums, genome_length,
                on_generation=lambda stats, snap: snaps.append(snap))
    plans.clear()
    spawns.clear()
    evo._evolve(config, row_sums, genome_length, resume=snaps[0])
    assert plans == [[((evo.TAG_EVAL, 1, 3), population)], fused(1),
                     [((evo.TAG_ELITE, 2, 5), trial)]]
    assert spawns == [0, 1]


def test_spawn_children_single_parent():
    config = tiny_config(population=3, truncation=1)
    parents = np.ones((1, 5))
    pop = evo.spawn_children(parents, config, 2, new_children(config, 5))
    # every child is parent + noise of the configured scale
    deltas = pop - 1.0
    assert np.all(deltas != 0.0)
    assert np.all(np.abs(deltas) < 1.0)  # 0.05 sigma: 20-sigma bound


def test_play_episode_memo_consistency():
    agent = ref.CartPoleAgent(
        np.random.default_rng(2).standard_normal(26))
    env = ref.CartPoleEnv()
    memo: dict = {}
    first = ref.play_episode(agent, env, np.random.default_rng(5), memo)
    warm = ref.play_episode(agent, env, np.random.default_rng(5), memo)
    cold = ref.play_episode(agent, env, np.random.default_rng(5), {})
    assert first == warm == cold


def test_evaluate_fitness_deterministic_in_entropy():
    genome = np.random.default_rng(3).standard_normal(26) * 0.01
    env = ref.CartPoleEnv()
    a = ref.evaluate_fitness(genome, env, 3, [0, 0, 0, 0])
    b = ref.evaluate_fitness(genome, env, 3, [0, 0, 0, 0])
    c = ref.evaluate_fitness(genome, env, 3, [0, 0, 0, 1])
    assert a == b
    assert a != c  # different stream, different start states


def test_evaluate_fitness_repeats_collapse_when_env_deterministic():
    env = ref.MiniGridEnv(5, bond_dim=2)
    genome = np.random.default_rng(4).standard_normal(env.genome_length) * 0.01
    one = ref.evaluate_fitness(genome, env, 1, [1, 2, 3])
    three = ref.evaluate_fitness(genome, env, 3, [9, 9, 9])
    assert one == three


# ---------------------------------------------------------------------------
# full loop on a closed-form objective

def test_sphere_run_improves_and_best_never_degrades():
    config = evo.EvoConfig(population=20, truncation=4, mutation_power=0.05,
                           generations=30, master_seed=1, init_scale=0.5)
    best = -math.inf
    snapshots = []
    history = evo._evolve(config, sphere_fitness, 10,
                          on_generation=lambda s, snap: snapshots.append(snap))
    assert len(history) == 30
    for snap in snapshots:
        assert snap.best_score >= best
        best = snap.best_score
    assert history[-1].elite_score > history[0].elite_score
    assert snapshots[-1].best_score == max(s.elite_score for s in history)
    np.testing.assert_array_equal(
        snapshots[-1].best_genome,
        snapshots[min(range(30), key=lambda g: -history[g].elite_score)].elite)


def test_non_finite_config_is_rejected():
    for field in ("mutation_power", "init_scale"):
        with pytest.raises(ValueError, match="finite"):
            tiny_config(**{field: math.nan})


def test_zero_generations_returns_empty_history():
    config = tiny_config(generations=0)
    assert evo._evolve(config, sphere_fitness, 3) == []


def test_elite_reappears_in_next_generation(monkeypatch):
    config = evo.EvoConfig(population=10, truncation=3, mutation_power=0.1,
                           generations=5, master_seed=2, init_scale=0.3)
    n = config.population
    buffer = np.empty((n - 1 + config.truncation, 6))
    ranked = []  # row N-1 of every population as it is ranked
    rank_indices = evo.rank_indices

    def recorded_rank(fitness):
        ranked.append(buffer[n - 1].copy())
        return rank_indices(fitness)

    monkeypatch.setattr(evo, "rank_indices", recorded_rank)
    snaps = []
    evo._evolve(config, sphere_fitness, 6,
                on_generation=lambda s, snap: snaps.append(snap), buffer=buffer)
    assert len(ranked) == len(snaps) == config.generations
    for snap, row in zip(snaps, ranked[1:]):
        elite_fitness = sphere(snap.elite)
        # repeats are moot for a deterministic objective, so the elite is
        # simply the top-ranked parent
        assert elite_fitness == max(sphere(p) for p in snap.parents)
        assert row.tobytes() == snap.elite.tobytes()


def test_resume_scores_the_checkpoint_elite_in_row_n_minus_1():
    # an elite unlike every parent, so that only the snapshot's can be there
    config = tiny_config(generations=4)
    n = config.population
    snaps = []
    evo._evolve(config, sphere_fitness, 5, on_generation=lambda s, snap: snaps.append(snap))
    resume = dataclasses.replace(snaps[1], elite=np.array([0.25, -0.0, 1e-300, 3.0, -7.5]))
    seen = []

    def recorded_fitness(genomes, rows, entropies, repeats):
        seen.append(genomes[:n].copy())
        return sphere_fitness(genomes, rows, entropies, repeats)

    evo._evolve(config, recorded_fitness, 5, resume=resume)
    assert seen[0][n - 1].tobytes() == resume.elite.tobytes()
    expected = ref.spawn_children(resume.parents, resume.elite, config, resume.generation)
    assert seen[0].tobytes() == expected.tobytes()


def test_rolling_window_pools_recent_generations():
    config = evo.EvoConfig(population=6, truncation=2, mutation_power=0.2,
                           generations=120, master_seed=3, init_scale=0.5)
    history = evo._evolve(config, sphere_fitness, 4)
    for upto in (0, 30, 119):
        recent = history[max(0, upto - 99):upto + 1]
        values = np.array([[s.pop_mean, s.pop_std] for s in recent])
        pooled_mean = values[:, 0].mean()  # equal weights: constant N
        pooled_sq = (values[:, 1] ** 2 + values[:, 0] ** 2).mean()
        pooled_std = math.sqrt(max(0.0, pooled_sq - pooled_mean ** 2))
        assert math.isclose(history[upto].rolling_mean_100, pooled_mean,
                            rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(history[upto].rolling_std_100, pooled_std,
                            rel_tol=1e-9, abs_tol=1e-9)


def stream_objective(scale, digits):
    """fitness(genome, entropy, repeats): the sphere plus a term of the
    stream and the repeat count, rounded so that ties occur."""
    def fitness(genome, entropy, repeats):
        stream = zlib.crc32(np.array([*entropy, repeats], dtype=np.int64).tobytes()) / 2**32
        return round(sphere(genome) + scale * stream, digits)

    return fitness


def plan_fitness(fitness):
    """The fitness_of of `_evolve` for a per-row fitness."""
    def fitness_of(genomes, rows, entropies, repeats):
        return np.array([fitness(genomes[row], entropy, k)
                         for row, entropy, k in zip(rows, entropies, repeats)])

    return fitness_of


def snapshot_bytes(snap):
    return (snap.generation, snap.parents.tobytes(), snap.elite.tobytes(), repr(snap.window),
            snap.best_genome.tobytes(), repr(snap.best_score))


def recorded_run(run, config, genome_length, resume=None, stop_at=None):
    """(stats reprs, snapshot bytes) of a run; it raises StopRun from
    on_generation after generation `stop_at`."""
    stats, snaps = [], []

    def on_generation(s, snap):
        stats.append(repr(s))
        snaps.append(snapshot_bytes(snap))
        if snap.generation == stop_at:
            raise StopRun

    try:
        history = run(config, genome_length, on_generation, resume)
    except StopRun:
        assert stop_at is not None
    else:
        assert [repr(s) for s in history] == stats
    return stats, snaps


@settings(max_examples=40, deadline=None)
@given(data=st.data(), population=st.integers(2, 9), genome_length=st.integers(1, 4),
       generations=st.integers(0, 6), repeats_all=st.integers(1, 4),
       repeats_parents=st.integers(1, 4), master_seed=st.integers(0, 2**32 - 1),
       mutation_power=st.sampled_from([0.05, 1.0]),
       init_scale=st.sampled_from([0.0, 0.01, 1.0]),
       scale=st.sampled_from([0.0, 0.1, 10.0]), digits=st.sampled_from([1, 15]),
       block_entries=st.sampled_from([1, evo.SPAWN_BLOCK_ENTRIES]))
def test_evolve_matches_the_two_batch_loop(data, population, genome_length, generations,
                                           repeats_all, repeats_parents, master_seed,
                                           mutation_power, init_scale, scale, digits,
                                           block_entries):
    # the fused plan gives every row its genome, stream and repeats: a stream
    # or repeat count given to the wrong row moves a fitness.  With 1-entry
    # blocks every spawn but a run's first has its head drawn by a helper
    config = evo.EvoConfig(
        population=population, truncation=data.draw(st.integers(1, population - 1)),
        mutation_power=mutation_power, generations=generations, repeats_all=repeats_all,
        repeats_parents=repeats_parents, master_seed=master_seed, init_scale=init_scale)
    fitness = stream_objective(scale, digits)

    def fused(config, genome_length, on_generation, resume):
        return evo._evolve(config, plan_fitness(fitness), genome_length, on_generation,
                           resume)

    def two_batch(config, genome_length, on_generation, resume):
        return ref.evolve(config, fitness, genome_length, on_generation, resume)

    snapshots = {}
    expected = recorded_run(two_batch, config, genome_length)
    default_block, evo.SPAWN_BLOCK_ENTRIES = evo.SPAWN_BLOCK_ENTRIES, block_entries
    try:
        assert recorded_run(fused, config, genome_length) == expected
        evo._evolve(config, plan_fitness(fitness), genome_length,
                    lambda s, snap: snapshots.__setitem__(snap.generation, snap))
        for generation, snap in snapshots.items():  # resume from every snapshot
            tail = recorded_run(fused, config, genome_length, resume=snap)
            assert tail == recorded_run(two_batch, config, genome_length, resume=snap)
            assert tail == tuple(seen[generation + 1:] for seen in expected)
        if generations:  # an early stop raised from on_generation
            stop_at = data.draw(st.integers(0, generations - 1), label="stop_at")
            stopped = recorded_run(fused, config, genome_length, stop_at=stop_at)
            assert stopped == tuple(seen[:stop_at + 1] for seen in expected)
    finally:
        evo.SPAWN_BLOCK_ENTRIES = default_block


# ---------------------------------------------------------------------------
# environment runs and the pool

@pytest.mark.parametrize("workers", [1, 2])
def test_resume_spawns_only_a_population_it_scores(monkeypatch, workers):
    # the last generation's snapshot leaves nothing to score, so a resume
    # from it spawns nothing; one generation earlier re-spawns the last
    config = tiny_config(generations=3)
    env = envs.CartPoleEnv()
    snaps = []
    full = evo.run(config, env, on_generation=lambda stats, snap: snaps.append(snap))
    spawns = []
    spawn_children = evo.spawn_children

    def counted_spawn(*args, **kwargs):
        spawns.append(args[2])
        return spawn_children(*args, **kwargs)

    monkeypatch.setattr(evo, "spawn_children", counted_spawn)
    assert evo.run(config, env, workers=workers, resume=snaps[-1]) == []
    assert spawns == []
    tail = evo.run(config, env, workers=workers, resume=snaps[-2])
    assert [repr(s) for s in tail] == [repr(full[-1])]
    assert spawns == [snaps[-2].generation]


def test_run_with_nothing_to_score_builds_no_pool(monkeypatch):
    # a finished resume, and a fresh run of 0 generations, which still draws
    # its population once, map no shared buffer and start no worker; run
    # imports both names when it builds a pool, so they are wrapped where
    # that import finds them
    built = []

    def recorded(module, name):
        build = getattr(module, name)

        def record(*args, **kwargs):
            built.append(name)
            return build(*args, **kwargs)
        return record

    for module, name in ((sharedctypes, "RawArray"), (futures, "ProcessPoolExecutor")):
        monkeypatch.setattr(module, name, recorded(module, name))
    inits = []
    init_population = evo.init_population

    def counted_init(*args, **kwargs):
        inits.append(args)
        return init_population(*args, **kwargs)

    monkeypatch.setattr(evo, "init_population", counted_init)
    config = tiny_config(generations=2)
    env = envs.CartPoleEnv()
    snaps = []
    evo.run(config, env, on_generation=lambda stats, snap: snaps.append(snap))
    inits.clear()
    assert evo.run(config, env, workers=2, resume=snaps[-1]) == []
    assert evo.run(tiny_config(generations=0), env, workers=2) == []
    assert built == []
    assert len(inits) == 1


class StopRun(Exception):
    pass


def test_pooled_run_stopped_by_on_generation_leaves_no_live_worker():
    # raising from on_generation is how a caller ends a run early
    config = evo.EvoConfig(population=6, truncation=2, mutation_power=0.05,
                           generations=5, repeats_all=2, repeats_parents=2,
                           master_seed=11, init_scale=0.01)
    seen = []

    def on_generation(stats, snapshot):
        seen.append(stats.generation)
        if stats.generation == 1:
            raise StopRun

    with pytest.raises(StopRun):
        evo.run(config, envs.CartPoleEnv(), workers=2, on_generation=on_generation)
    assert seen == [0, 1]
    assert active_children() == []


class InProcessPool:
    """Stands in for ProcessPoolExecutor: runs tasks here and records each map."""

    maps: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.workers = max_workers
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.maps.append((self.workers, tasks))
        return map(fn, tasks)


def in_process_pool(monkeypatch):
    monkeypatch.setattr(futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "maps", [])
    for name in ("_WORKER_ENV", "_WORKER_POPULATION"):
        monkeypatch.setattr(evo, name, None)  # restored after the test


@pytest.mark.parametrize("population,truncation,workers",
                         [(7, 2, 3), (2, 1, 3), (10, 3, 4), (5, 4, 5), (12, 5, 2)])
def test_pool_sends_one_contiguous_slice_per_worker(monkeypatch, placements, population,
                                                    truncation, workers):
    in_process_pool(monkeypatch)
    config = evo.EvoConfig(population=population, truncation=truncation,
                           mutation_power=0.05, generations=2, repeats_all=2,
                           repeats_parents=3, master_seed=4, init_scale=0.3)
    pooled = evo.run(config, envs.CartPoleEnv(), workers=workers)
    serial = evo.run(config, envs.CartPoleEnv(), workers=1)
    assert [repr(s) for s in serial] == [repr(s) for s in pooled]

    # each generation is one plan of (genome row, entropy, repeats) rows
    n, t = population, truncation

    def part(rows, tag, generation, slots, repeats):
        return [(row, [4, tag, generation, slot], repeats) for row, slot in zip(rows, slots)]

    trial = [part(range(n - 1, n - 1 + t), evo.TAG_ELITE, g, range(t), 3) for g in (0, 1)]
    plans = [part(range(n), evo.TAG_EVAL, 0, range(n), 2),
             part(range(n - 1 + t), evo.TAG_EVAL, 1, [*range(n - 1), *[n - 1] * t], 2)
             + trial[0],
             trial[1]]
    assert len(InProcessPool.maps) == len(plans)
    for plan, (seen_workers, tasks) in zip(plans, InProcessPool.maps):
        # no more processes than the buffer's rows, the most a plan has
        assert seen_workers == min(workers, n - 1 + t)
        assert len(tasks) == min(workers, len(plan))
        # the slices are cut at len(plan) * k // workers and tile the plan in
        # order, each plan row exactly once
        cuts = sorted({len(plan) * k // workers for k in range(workers + 1)})
        for k, ((cpu, rows, entropies, repeats), start, stop) in enumerate(
                zip(tasks, cuts, cuts[1:])):
            assert cpu == [3, 5, 8][k % 3]  # slice k on allowed CPU k mod 3
            assert len(rows) == len(entropies) == len(repeats) == stop - start
            assert list(zip(rows.tolist(), entropies, repeats.tolist())) == plan[start:stop]
    # each task placed its worker (here, this thread) on its CPU; the children
    # fit one spawn block, so no helper thread drew ahead
    assert placements == [("MainThread", 0, [task[0]]) for _, tasks in InProcessPool.maps
                          for task in tasks]


def record_helpers(monkeypatch, blocks: list | None = None, delay: float = 0.0) -> list:
    """The CPUs handed to each helper thread that draws a spawn's head; each
    helper appends its block to `blocks` and first sleeps `delay` seconds."""
    handed, draw_head = [], evo._draw_head

    def recorded(rng, block, cpus):
        handed.append(list(cpus))
        if blocks is not None:
            blocks.append(block)
        time.sleep(delay)
        draw_head(rng, block, cpus)

    monkeypatch.setattr(evo, "_draw_head", recorded)
    return handed


def test_a_helper_runs_on_every_allowed_cpu_but_the_main_threads(monkeypatch, placements):
    # rows of 4 entries, 1 a spawn block: generations 0..3 spawn 5 children
    # each, and a helper draws the head of every spawn but the run's first
    monkeypatch.setattr(evo, "SPAWN_BLOCK_ENTRIES", 7)
    blocks = []
    handed = record_helpers(monkeypatch, blocks)
    config = tiny_config(population=6, truncation=2, generations=5)
    serial = evo._evolve(config, sphere_fitness, 4)
    assert handed == [[3, 8]] * 3
    assert all(block is blocks[0] for block in blocks)  # one block a run
    assert placements == [("qevo-spawn-ahead", 0, [3, 8])] * 3
    monkeypatch.setattr(evo, "SPAWN_BLOCK_ENTRIES", 20)  # 5 rows: one block, no helper
    assert [repr(s) for s in evo._evolve(config, sphere_fitness, 4)] == [repr(s) for s in serial]
    assert len(handed) == 3


@pytest.mark.parametrize("host", ["one CPU", "no sched_setaffinity"])
def test_nothing_is_placed_on_one_cpu_or_without_sched_setaffinity(monkeypatch, placements,
                                                                   host):
    if host == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
    else:
        monkeypatch.delattr(os, "sched_setaffinity")
    in_process_pool(monkeypatch)
    monkeypatch.setattr(evo, "SPAWN_BLOCK_ENTRIES", envs.CartPoleEnv().genome_length)
    handed = record_helpers(monkeypatch)
    evo.run(tiny_config(population=6, truncation=2, generations=5), envs.CartPoleEnv(),
            workers=2)
    assert handed == [[]] * 3  # the helpers still draw, pinned to nothing
    assert {task[0] for _, tasks in InProcessPool.maps for task in tasks} == {None}
    assert placements == []


@pytest.mark.parametrize("stop", ["on_generation raises", "a spawn overflows"])
def test_a_stopped_run_leaves_no_helper_alive(monkeypatch, capfd, stop):
    # each helper outlasts the plan it is drawn beside, which must wait for it
    monkeypatch.setattr(evo, "SPAWN_BLOCK_ENTRIES", 4)  # rows of 4 entries, 1 a block
    handed = record_helpers(monkeypatch, delay=0.02)
    threads = threading.active_count()
    if stop == "on_generation raises":
        def on_generation(stats, snapshot):
            assert threading.active_count() == threads  # no helper beside a callback
            if stats.generation == 2:
                raise StopRun

        with pytest.raises(StopRun):
            evo._evolve(tiny_config(population=6, truncation=2, generations=6), sphere_fitness,
                        4, on_generation)
    else:  # the genomes with the largest entries are kept until the children overflow
        def largest_entry(genomes, rows, entropies, repeats):
            return np.log1p(np.abs(genomes[rows]).max(axis=1))

        config = tiny_config(population=6, truncation=2, generations=100,
                             mutation_power=3e307)
        with pytest.raises(ValueError, match="overflow at mutation_power"):
            evo._evolve(config, largest_entry, 4)
    assert len(handed) >= 2
    assert threading.active_count() == threads
    assert capfd.readouterr().err == ""


def test_no_helper_is_alive_when_the_pool_forks(monkeypatch):
    # a fork from a process with a second thread warns from Python 3.12 on;
    # the forked pool starts both workers at its first plan, before any helper
    forks, fork = [], os.fork

    def recorded_fork():
        forks.append(sorted(thread.name for thread in threading.enumerate()))
        return fork()

    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", functools.partial(
        futures.ProcessPoolExecutor, mp_context=get_context("fork")))
    handed = record_helpers(monkeypatch)
    env = envs.MiniGridEnv(5, envs.BOND_DIM)  # 55 children of 4,808 entries: two blocks
    config = evo.EvoConfig(population=56, truncation=2, mutation_power=0.05, generations=5,
                           repeats_all=1, repeats_parents=1, master_seed=3, init_scale=0.2)
    evo.run(config, env, workers=2)
    assert len(handed) == 3
    assert forks == [["MainThread"]] * 2


def test_near_zero_genomes_score_like_random_play():
    config = tiny_config(generations=1, master_seed=0)
    history = evo.run(config, envs.CartPoleEnv())
    # untrained agents topple the pole in well under 100 steps
    assert 5.0 <= history[0].pop_mean <= 100.0


def test_run_rejects_bad_worker_count():
    # with no generation to run no pool is built, so only run's own check raises
    for generations in (4, 0):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            evo.run(tiny_config(generations=generations), envs.CartPoleEnv(), workers=0)


def test_resume_shape_mismatch_rejected():
    config = tiny_config()
    # parents and elite of length 4 re-spawn a population of the wrong width
    resume = evo.GenerationSnapshot(
        generation=0, parents=np.zeros((3, 4)), elite=np.zeros(4), window=((8, 0.0, 0.0),),
        best_genome=np.zeros(4), best_score=0.0)
    # the config runs from scratch, so only the resume may raise
    assert len(evo._evolve(config, sphere_fitness, 5)) == config.generations
    with pytest.raises(ValueError, match="shape"):
        evo._evolve(config, sphere_fitness, 5, resume=resume)
