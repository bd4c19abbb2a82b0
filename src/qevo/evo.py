"""Truncation-selection evolution strategy with deterministic seeding.

Per generation:

1. every agent plays `repeats_all` episodes; its fitness is the mean score
2. rank fitness descending (stable sort: ties keep the lower index) and
   keep the top `truncation` genomes as parents
3. every parent plays `repeats_parents` fresh episodes; the parent with
   the best fresh mean becomes the elite
4. next population: slots 0..N-2 hold mutated children (uniformly chosen
   parent + mutation_power * standard normal noise), slot N-1 holds the
   elite copied verbatim

Every random draw comes from a named stream: the initial population's
agent i from np.random.SeedSequence([master_seed, TAG_INIT, 0, i]), each
episode row from [master_seed, TAG_EVAL or TAG_ELITE, generation, slot],
and generation g's mutation from [master_seed, TAG_MUTATE, g].  So results
are byte-identical for any worker count and any evaluation order, and a
checkpoint holding only the ranked parents and the elite reconstructs the
next population exactly by re-running the mutation stream.  The episode
start streams of a plan's rows are `Streams`: their uniforms are derived
for the whole plan at once, in arrays, and equal the ones a
np.random.default_rng per row would draw.

A run takes one env, which is the whole task: its `genome_length`, its
`policy(genomes)` and its lockstep `rollouts(act, ...)`.  A batch is a
plan of rows, each naming a genome row, a stream entropy and a repeat
count; `batch_fitness` scores every row of a plan at once
(`episode_returns`: the env's act over the plan's genomes driving its
rollouts).  Steps 3 and 1 of consecutive generations share a
batch: generation g + 1's children do not depend on g's elite, so they
are spawned before it is known and scored beside g's elite trial, along
with every parent once more on the stream of slot N-1, which the elite
takes.  So each generation makes one fitness call; the first of a run
scores its population alone and the last its elite trial alone, and no
population is spawned after the last generation.

A run spawns every generation in place into one (population - 1 +
truncation, genome_length) buffer, so no second population is ever
allocated: the children sit in rows 0..N-2, the parents right after them,
and once the elite is known it is copied into row N-1, so the population
is rows 0..N-1.  With a process pool the buffer is shared memory which
every worker maps once, when it also receives its copy of the env; each
plan is split into one contiguous slice of rows per worker, a task names
its slice, and no genome crosses a pipe.  The pool stack
(concurrent.futures, multiprocessing) is imported only when a pool is
built, so a one-worker run never loads it.

Numbers are checked where they are made, so the loop re-checks none: every
genome a run holds is finite (`init_population` and `spawn_children` stop
a run that overflows, and cli checks the files a run resumes from), and an
env scores any finite genome with a finite return (see agents).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

TAG_EVAL = 0
TAG_ELITE = 1
TAG_MUTATE = 2
TAG_INIT = 3

ROLLING_WINDOW = 100
# Genome entries (2 MiB) of picked parents gathered per step of spawn_children.
# Freeing a block this large keeps glibc's dynamic mmap threshold above the
# temporaries of mps.cell_tables and mps.contract_states (up to about 1.3 MB
# at P=100: the tables themselves and 0.5 MB block buffers), which are then
# served from the heap; with 256 KiB blocks they were mapped and
# page-faulted afresh on every batch, and minigrid-5 training ran 0.42 ->
# 0.48-0.59 s (perfbench minigrid5-desk, 3 seeds).
SPAWN_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class EvoConfig:
    population: int
    truncation: int
    mutation_power: float
    generations: int
    repeats_all: int = 3      # episodes per agent for ranking
    repeats_parents: int = 5  # fresh episodes per parent for elite selection
    master_seed: int = 0
    init_scale: float = 0.01

    def __post_init__(self) -> None:
        if not 1 <= self.truncation < self.population:
            raise ValueError("need 1 <= truncation < population")
        if not (math.isfinite(self.mutation_power) and math.isfinite(self.init_scale)):
            raise ValueError("mutation_power and init_scale must be finite")
        if self.mutation_power <= 0.0:
            raise ValueError("mutation_power must be positive")
        if self.repeats_all < 1 or self.repeats_parents < 1:
            raise ValueError("episode repeat counts must be >= 1")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.init_scale < 0.0:
            raise ValueError("init_scale must be >= 0")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")


@dataclass
class GenerationStats:
    generation: int
    top5_avg: float
    pop_mean: float
    pop_std: float
    elite_score: float
    rolling_mean_100: float
    rolling_std_100: float


@dataclass
class GenerationSnapshot:
    """Everything needed to checkpoint and later resume after `generation`.

    A checkpoint file holds exactly these fields, plus its format and the
    run config.
    """

    generation: int
    parents: np.ndarray
    elite: np.ndarray
    window: tuple[tuple[int, float, float], ...]
    best_genome: np.ndarray
    best_score: float


# ---------------------------------------------------------------------------
# a plan's random streams: NumPy's SeedSequence -> PCG64 -> Generator.uniform,
# for every row at once

# SeedSequence's hash constants (pool size 4) and PCG64's 128-bit multiplier
_POOL_SIZE = 4
_MIX_INIT, _MIX_MULT = 0x43b0d7e5, 0x931e8875
_MIX_LEFT, _MIX_RIGHT = 0xca01f9dd, 0x4973f715
_STATE_INIT, _STATE_MULT = 0x8b51f9dd, 0x58f38ded
_PCG_MULT = (0x2360ed051fc65da4, 0x4385df649fccf645)  # (high, low) 64-bit halves
_MASK32 = 0xFFFFFFFF


class Streams:
    """The streams default_rng(SeedSequence(entropy)) of a plan's rows, one
    entropy (a list of ints >= 0) per row, drawn from for all rows at once.

    No Generator is built: each row's SeedSequence pool and PCG64 state are
    derived in uint32 and uint64 arrays, and its k-th state is reached by
    one jump (M^k s + (M^(k-1) + ... + 1) inc), so the values are NumPy's,
    byte for byte.  The entries at one position must split into the same
    number of 32-bit words on every row, as a plan's do (its only entry
    that can reach 2^32 is the master seed, the same on every row).
    """

    def __init__(self, entropies: Sequence[Sequence[int]]):
        self.entropies = entropies

    def uniform(self, low: float, high: float, counts: Sequence[int]) -> np.ndarray:
        """Row by row, the first counts[i] values of row i's
        Generator.uniform(low, high, counts[i]), concatenated."""
        counts = np.asarray(counts, dtype=np.intp)
        total = int(counts.sum())
        initstate, seq = _seed_state(_entropy_words(self.entropies))
        inc = seq[0] << 1 | seq[1] >> 63, seq[1] << 1 | 1
        state = _add128(_mul128(_add128(inc, initstate), _PCG_MULT), inc)
        jump, shift = _pcg_jumps(1 << (int(counts.max()) - 1).bit_length())
        row = np.repeat(np.arange(len(counts)), counts)
        step = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        upper, lower = _add128(_mul128(_take(jump, step), _take(state, row)),
                               _mul128(_take(shift, step), _take(inc, row)))
        # PCG64's XSL-RR output, then Generator.uniform's 53-bit double
        mixed, turn = upper ^ lower, upper >> 58
        out = mixed >> turn | mixed << (-turn & 63)
        return low + (high - low) * ((out >> 11) * (1.0 / 9007199254740992.0))


def _entropy_words(entropies: Sequence[Sequence[int]]) -> np.ndarray:
    """(words, rows) uint32: every row's entries split into little-endian
    32-bit words, as SeedSequence splits them (0 is one zero word)."""
    columns = list(zip(*entropies))
    if any(len(entropy) != len(columns) for entropy in entropies):
        raise ValueError("stream entropies must all have the same number of entries")
    def word_count(value):
        return max(1, (int(value).bit_length() + 31) // 32)

    words = []
    for column in columns:
        low, count = min(column), word_count(max(column))
        # word counts grow with the value, so the extremes bound every entry's
        if low < 0 or word_count(low) != count:
            raise ValueError("each stream entropy entry must be an int >= 0 that splits "
                             "into the same number of 32-bit words on every row")
        words += ([column] if count == 1 else
                  [[value >> shift & _MASK32 for value in column]
                   for shift in range(0, 32 * count, 32)])
    return np.array(words, dtype=np.uint32).reshape(len(words), len(entropies))


@lru_cache(maxsize=8)
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """(count, 1) uint32, read-only: init, init * mult, init * mult^2, ...
    (mod 2^32)."""
    consts = np.array([[init * pow(mult, k, 1 << 32) & _MASK32] for k in range(count)],
                      dtype=np.uint32)
    consts.flags.writeable = False
    return consts


def _seed_state(words: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """SeedSequence(words[:, i]).generate_state(4, uint64) of every row
    i, as PCG64 reads it: (initstate, sequence), each a (high, low) pair
    of uint64 arrays."""
    n_words, rows = words.shape
    mix_consts = _hash_constants(
        _MIX_INIT, _MIX_MULT, _POOL_SIZE * max(_POOL_SIZE, n_words) + 1)
    used = 0

    def hashmix(values, count):
        nonlocal used
        values = (values ^ mix_consts[used:used + count]) * mix_consts[used + 1:used + count + 1]
        used += count
        return values ^ values >> 16

    def mix(x, y):
        result = _MIX_LEFT * x - _MIX_RIGHT * y
        return result ^ result >> 16

    pool = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
    pool[:n_words] = words[:_POOL_SIZE]
    pool = hashmix(pool, _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], _POOL_SIZE - 1))
    for src in range(_POOL_SIZE, n_words):
        pool = mix(pool, hashmix(words[src], _POOL_SIZE))
    state_consts = _hash_constants(_STATE_INIT, _STATE_MULT, 2 * _POOL_SIZE + 1)
    state = (np.concatenate([pool, pool]) ^ state_consts[:-1]) * state_consts[1:]
    state = (state ^ state >> 16).astype(np.uint64)
    initstate_high, initstate_low, seq_high, seq_low = state[0::2] | state[1::2] << 32
    return (initstate_high, initstate_low), (seq_high, seq_low)


def _take(pair, index):
    return pair[0][index], pair[1][index]


def _add128(a, b):
    """a + b mod 2^128, on (high, low) pairs of uint64 arrays."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]), low


def _mul128(a, b):
    """a * b mod 2^128, on (high, low) pairs of uint64 arrays or ints; the
    low halves' 128-bit product is taken from 32-bit pieces."""
    a_high, a_low = a
    b_high, b_low = b
    a1, a0 = a_low >> 32, a_low & _MASK32
    b1, b0 = b_low >> 32, b_low & _MASK32
    cross, mid = a0 * b1, a1 * b0
    carry = (a0 * b0 >> 32) + (cross & _MASK32) + (mid & _MASK32)
    high = (a1 * b1 + (cross >> 32) + (mid >> 32) + (carry >> 32)
            + a_high * b_low + a_low * b_high)
    return high, a_low * b_low


@lru_cache(maxsize=8)
def _pcg_jumps(steps: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(M^k, M^(k-1) + ... + 1) mod 2^128 for k = 1..steps, each as a
    read-only (high, low) pair of uint64 arrays."""
    mult, mask = _PCG_MULT[0] << 64 | _PCG_MULT[1], (1 << 128) - 1
    terms = [(1, 0)]
    for _ in range(steps):
        jump, shift = terms[-1]
        terms.append((jump * mult & mask, (shift * mult + 1) & mask))
    pairs = tuple((np.array([value >> 64 for value in column], dtype=np.uint64),
                   np.array([value & (1 << 64) - 1 for value in column], dtype=np.uint64))
                  for column in zip(*terms[1:]))
    for half in pairs[0] + pairs[1]:
        half.flags.writeable = False
    return pairs


# ---------------------------------------------------------------------------
# primitive operations

def init_population(config: EvoConfig, genome_length: int,
                    out: np.ndarray) -> np.ndarray:
    """N genomes, entries Normal(0, 1) * init_scale, one stream per agent.

    Written into `out`, a (population, genome_length) float64 array, which
    is returned.  An entry that overflows stops the run here, before any
    genome is scored.
    """
    _check_population(out, (config.population, genome_length))
    for i, row in enumerate(out):
        np.random.default_rng(
            np.random.SeedSequence([config.master_seed, TAG_INIT, 0, i])
        ).standard_normal(out=row)
    try:
        with np.errstate(over="raise"):
            out *= config.init_scale
    except FloatingPointError:
        raise ValueError(f"init_scale {config.init_scale!r} overflows the initial "
                         "population") from None
    return out


def episode_returns(genomes: np.ndarray, env, rows: Sequence[int],
                    entropies: Sequence[Sequence[int]],
                    repeats: Sequence[int]) -> np.ndarray:
    """Flat returns of a plan: its row i plays genome rows[i] for repeats[i]
    episodes, one after another from the stream entropies[i].

    The episodes come out row by row.  Every episode of the plan runs in
    lockstep through the env's `rollouts` and its batched policy, built
    over only the genome rows from the plan's lowest to its highest.
    """
    rows = np.asarray(rows)
    low = rows.min()
    return env.rollouts(env.policy(genomes[low:rows.max() + 1]), rows - low,
                        Streams(entropies), np.asarray(repeats))


def batch_fitness(genomes: np.ndarray, env, rows: Sequence[int],
                  entropies: Sequence[Sequence[int]],
                  repeats: Sequence[int]) -> np.ndarray:
    """Each plan row's mean return over its episodes (see episode_returns)."""
    repeats = np.asarray(repeats)
    returns = episode_returns(genomes, env, rows, entropies, repeats)
    first = np.cumsum(repeats) - repeats
    total = np.zeros(len(repeats))
    for episode in range(repeats.max()):  # summed in repeat order, one episode at a time
        playing = repeats > episode
        total[playing] += returns[first[playing] + episode]
    return total / repeats


def rank_indices(fitness: np.ndarray) -> np.ndarray:
    """Indices sorted by descending fitness; ties keep the lower index."""
    return np.argsort(-np.asarray(fitness, dtype=np.float64), kind="stable")


def spawn_children(parents: np.ndarray, elite: np.ndarray, config: EvoConfig,
                   generation: int, out: np.ndarray) -> np.ndarray:
    """Next population from ranked parents: N-1 mutants plus the elite last.

    Written into `out`, whose children's rows must not overlap `parents` or
    `elite` (its last row may be `elite` itself), and which is returned.
    The noise is drawn straight into the children's rows and scaled there,
    and the picked parents are added a block of about SPAWN_BLOCK_ENTRIES
    entries at a time, so no population-sized temporary exists.  A child
    entry that overflows stops the run here, before any child is scored.
    """
    _check_population(out, (config.population, parents.shape[1]))
    rng = np.random.default_rng(
        np.random.SeedSequence([config.master_seed, TAG_MUTATE, generation]))
    children = out[:-1]
    picks = rng.integers(0, len(parents), size=len(children))
    rng.standard_normal(out=children)
    rows = max(1, SPAWN_BLOCK_ENTRIES // parents.shape[1])
    try:
        with np.errstate(over="raise"):
            children *= config.mutation_power
            for start in range(0, len(children), rows):
                children[start:start + rows] += parents[picks[start:start + rows]]
    except FloatingPointError:
        raise ValueError(f"the children of generation {generation} overflow at "
                         f"mutation_power {config.mutation_power!r}") from None
    out[-1] = elite
    return out


def _check_population(out: np.ndarray, shape: tuple[int, int]) -> None:
    if out.shape != shape:
        raise ValueError(f"population must have shape {shape}, got {out.shape}")


def _window_stats(window) -> tuple[float, float]:
    count = sum(n for n, _, _ in window)
    total = sum(s for _, s, _ in window)
    total_sq = sum(ss for _, _, ss in window)
    mean = total / count
    var = max(0.0, total_sq / count - mean * mean)
    return mean, math.sqrt(var)


# ---------------------------------------------------------------------------
# pool workers: each receives the env once and maps the shared population
# buffer once

_WORKER_ENV = None
_WORKER_POPULATION = None


def _init_worker(env, shared, shape) -> None:
    global _WORKER_ENV, _WORKER_POPULATION
    _WORKER_ENV = env
    _WORKER_POPULATION = np.frombuffer(shared, dtype=np.float64).reshape(shape)


def _eval_task(task) -> np.ndarray:
    """Fitness of a slice (rows, entropies, repeats) of a plan over the
    shared population buffer."""
    return batch_fitness(_WORKER_POPULATION, _WORKER_ENV, *task)


# ---------------------------------------------------------------------------
# main loop

def _plan(config: EvoConfig, parts) -> tuple[np.ndarray, list[list[int]], np.ndarray]:
    """The (rows, entropies, repeats) of a batch of parts (rows, tag,
    generation, slots, repeats): part row i plays genome row rows[i] from
    the stream [master_seed, tag, generation, slots[i]]."""
    return (np.concatenate([rows for rows, *_ in parts]),
            [[config.master_seed, tag, generation, int(slot)]
             for _, tag, generation, slots, _ in parts for slot in slots],
            np.concatenate([np.full(len(rows), repeats) for rows, *_, repeats in parts]))


def _generations(config: EvoConfig, resume: GenerationSnapshot | None) -> range:
    """The generations a run scores: all, or those after a resumed snapshot's."""
    return range(0 if resume is None else resume.generation + 1, config.generations)


def _evolve(config: EvoConfig,
            fitness_of: Callable[[np.ndarray, np.ndarray, list, np.ndarray], np.ndarray],
            genome_length: int,
            on_generation: Callable[[GenerationStats, GenerationSnapshot], None] | None = None,
            resume: GenerationSnapshot | None = None,
            buffer: np.ndarray | None = None) -> list[GenerationStats]:
    """The loop; fitness_of(buffer, rows, entropies, repeats) returns a plan's finite fitness.

    `resume`, the snapshot of generation g, re-spawns generation g + 1 if
    that generation is to run; a fresh run draws its population even when
    no generation is.  Every generation lives in one (population - 1 +
    truncation, genome_length) buffer, `buffer` if given: the population in
    rows 0..N-1, while generation g's parents are tried for the elite in
    rows N-1 on, after generation g + 1's children.  Each generation is one
    plan of the whole buffer: every row on the TAG_EVAL stream of its slot
    of generation g + 1, the parents all on slot N-1's, since one of them
    is the elite that slot takes; then generation g's elite trial.  The
    first plan scores a population alone, the last an elite trial alone.
    """
    n, t = config.population, config.truncation
    buffer = np.empty((n - 1 + t, genome_length)) if buffer is None else buffer
    population = buffer[:n]
    generations = _generations(config, resume)
    start = generations.start
    if resume is None:
        init_population(config, genome_length, out=population)
        window: deque = deque(maxlen=ROLLING_WINDOW)
        best_genome: np.ndarray | None = None
        best_score = -math.inf
    else:
        window = deque(resume.window, maxlen=ROLLING_WINDOW)
        best_genome = resume.best_genome
        best_score = resume.best_score

    history: list[GenerationStats] = []
    if not generations:
        return history
    if resume is not None:
        spawn_children(resume.parents, resume.elite, config, resume.generation,
                       out=population)
    rows = np.arange(n - 1 + t)
    slots = np.minimum(rows, n - 1)  # each row's population slot; a parent's is N-1
    fitness = fitness_of(buffer, *_plan(
        config, [(rows[:n], TAG_EVAL, start, slots[:n], config.repeats_all)]))
    for generation in generations:
        order = rank_indices(fitness)
        # the gather copies before the write, so the elite in row N-1 may move
        buffer[n - 1:] = population[order[:t]]
        parents = buffer[n - 1:]
        last = generation + 1 == config.generations
        parts = [(rows[n - 1:], TAG_ELITE, generation, range(t), config.repeats_parents)]
        if not last:  # the children; spawn's elite row is the first parent's own
            spawn_children(parents, parents[0], config, generation, out=population)
            parts.insert(0, (rows, TAG_EVAL, generation + 1, slots, config.repeats_all))
        scores = fitness_of(buffer, *_plan(config, parts))
        elite_scores = scores[-t:]
        elite_index = int(np.argmax(elite_scores))  # first max: ties break low
        elite = parents[elite_index].copy()
        elite_score = float(elite_scores[elite_index])

        window.append((fitness.size, float(fitness.sum()),
                       float(np.square(fitness).sum())))
        rolling_mean, rolling_std = _window_stats(window)
        top_k = min(5, fitness.size)
        stats = GenerationStats(
            generation=generation,
            top5_avg=float(fitness[order[:top_k]].mean()),
            pop_mean=float(fitness.mean()),
            pop_std=float(fitness.std()),
            elite_score=elite_score,
            rolling_mean_100=rolling_mean,
            rolling_std_100=rolling_std,
        )
        history.append(stats)

        if elite_score > best_score:
            best_genome = elite.copy()
            best_score = elite_score

        if on_generation is not None:
            on_generation(stats, GenerationSnapshot(
                generation, parents.copy(), elite, tuple(window), best_genome, best_score))
        if not last:
            population[n - 1] = elite
            fitness = np.append(scores[:n - 1], scores[n - 1 + elite_index])
    return history


def run(config: EvoConfig, env, workers: int = 1,
        on_generation: Callable[[GenerationStats, GenerationSnapshot], None] | None = None,
        resume: GenerationSnapshot | None = None) -> list[GenerationStats]:
    """Train on an env, which brings its genome length and policy; see the
    module docstring for the loop.

    A plan row plays from its stream [master_seed, tag, generation, slot],
    so `workers` changes only where the episodes run.  With workers > 1 and
    a generation to run, the population buffer is shared memory that every
    worker maps at start-up, when it also receives a copy of `env`.  A plan
    of n rows is cut at n*k // workers into one contiguous slice per worker
    (empty slices are skipped), and a task names only its slice's genome
    rows, entropies and repeats, so no genome is pickled.  The pool starts
    at most one process per buffer row (N - 1 + T, the most a plan has),
    since a forked pool starts all its processes at the first map.  To stop
    early, raise from `on_generation`; the pool is shut down either way.
    The pool stack is imported here, and only when a pool is built.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1 or not _generations(config, resume):
        return _evolve(config, lambda genomes, *plan: batch_fitness(genomes, env, *plan),
                       env.genome_length, on_generation, resume)
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing.sharedctypes import RawArray

    shape = (config.population - 1 + config.truncation, env.genome_length)
    shared = RawArray("d", shape[0] * shape[1])

    def fitness_of(genomes, rows, entropies, repeats):
        cuts = [len(rows) * k // workers for k in range(workers + 1)]
        tasks = [(rows[start:stop], entropies[start:stop], repeats[start:stop])
                 for start, stop in zip(cuts, cuts[1:]) if start < stop]
        return np.concatenate(list(pool.map(_eval_task, tasks)))

    with ProcessPoolExecutor(max_workers=min(workers, shape[0]), initializer=_init_worker,
                             initargs=(env, shared, shape)) as pool:
        return _evolve(config, fitness_of, env.genome_length, on_generation, resume,
                       np.frombuffer(shared, dtype=np.float64).reshape(shape))
