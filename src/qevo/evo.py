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
start streams of a plan's rows are drawn by `stream_uniforms`, which hashes
every row's SeedSequence at once and seeds NumPy's PCG64 with each row's
words, so they equal what a np.random.default_rng per row would draw.

A run takes one env, which is the whole task: its `genome_length`, its
`policy(genomes)` and its lockstep `rollouts(act, agents, draw, repeats)`.
A batch is a plan of rows, each naming a genome row, a stream entropy and
a repeat count; `batch_fitness` scores every row of a plan at once
(`episode_returns`: the env's act over the plan's genomes driving its
rollouts, whose draw(low, high, counts) is stream_uniforms on the plan's
entropies).  Steps 3 and 1 of consecutive generations share a
batch: generation g + 1's children do not depend on g's elite, so they
are spawned before it is known and scored beside g's elite trial, along
with every parent once more on the stream of slot N-1, which the elite
takes.  So each generation makes one fitness call; the first of a run
scores its population alone and the last its elite trial alone, and no
population is spawned after the last generation.

A run spawns every generation in place into one (population - 1 +
truncation, genome_length) buffer, so no second population is ever
allocated: `spawn_children` writes the children into rows 0..N-2, the
parents sit right after them, and once the elite is known the loop copies
it into row N-1 (a resume copies its snapshot's elite there), so the
population is rows 0..N-1.  With a process pool the buffer is shared memory which
every worker maps once, when it also receives its copy of the env; each
plan is split into one contiguous slice of rows per worker, a task names
its slice, and no genome crosses a pipe.  The pool stack
(concurrent.futures, multiprocessing) is imported only when a pool is
built, so a one-worker run never loads it.

A spawn runs beside the work it does not need.  Generation g + 1's
mutation stream depends on neither g's parents nor its fitness, so while g's
plan is scored a helper thread draws the noise of g + 1's first children
into a head block the run allocates once: every child's, if all of it fits
in HEAD_ENTRIES entries (every desk-scale minigrid config), and otherwise
one spawn block of whole rows (see SPAWN_BLOCK_ENTRIES).  A spawn that
nothing drew ahead draws its own head, one spawn block at most; either way
it continues the Generator over the other rows and gathers the picked
parents through its head, so every byte holds.  Nor does a spawn need
on_generation: once g's elite is picked, a helper ranks g + 1, gathers its
parents and spawns while the main thread calls on_generation, then draws the
next head beside the plan, which waits for the spawn alone.  Helpers run
only where the children span more than one spawn block (every shipped
minigrid config, never cart-pole, where a thread a generation costs more
than it saves).  A callback may run beside one, so it gets only copies, and
what a helper raises is raised after the callback.  None outlives run or is
alive when a forked pool starts its workers, at the run's first plan.

CPU placement, from os.sched_getaffinity(0): a helper thread runs on every
allowed CPU but the one the main thread is on, and a pool worker scores
plan slice k on allowed CPU k mod n.  With one allowed CPU, or without
os.sched_setaffinity, nothing is placed.  A host whose cpusets do not
balance load never moves a new thread or forked process off its parent's
CPU, so left alone the helper and both pool workers share the main thread's
CPU while another stays idle.

Numbers are checked where they are made, so the loop re-checks none: every
genome a run holds is finite (`init_population` and `spawn_children` stop
a run that overflows, and cli checks the files a run resumes from), and an
env scores any finite genome with a finite return (see agents).
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator, Sequence

import numpy as np

TAG_EVAL = 0
TAG_ELITE = 1
TAG_MUTATE = 2
TAG_INIT = 3

ROLLING_WINDOW = 100
# Genome entries (2 MiB) of picked parents gathered per step of spawn_children,
# in whole rows.  Freeing a block this large keeps glibc's dynamic mmap
# threshold above the temporaries of mps.cell_tables and mps.contract_states
# (up to about 1.3 MB at P=100: the tables themselves and 0.5 MB block
# buffers), which are then served from the heap; with 256 KiB blocks they
# were mapped and page-faulted afresh on every batch, and minigrid-5 training
# ran 0.42 -> 0.48-0.59 s (perfbench minigrid5-desk, 3 seeds).  Where the
# children span more than one block, every spawn after a run's first gathers
# through one head block that a helper thread filled with the start of its
# noise: all N-1 children's rows if they fit in HEAD_ENTRIES (4 MiB; 99 rows
# of 4,808 at P=100), else one spawn block's.  That block is allocated once,
# after the first spawn freed its own, so the threshold has risen already.
# A block that never lets a 2 MiB chunk be freed took about 800 minor faults
# per minigrid-5 generation, and a fresh head every generation about 1,300;
# this layout takes 0-1 there.
SPAWN_BLOCK_ENTRIES = 1 << 18
HEAD_ENTRIES = 1 << 19


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
# a plan's random streams: NumPy's SeedSequence hash for every row at once,
# then one PCG64 per row and Generator.uniform's conversion

# SeedSequence's hash constants (pool size 4)
_POOL_SIZE = 4
_MIX_INIT, _MIX_MULT = 0x43b0d7e5, 0x931e8875
_MIX_LEFT, _MIX_RIGHT = 0xca01f9dd, 0x4973f715
_STATE_INIT, _STATE_MULT = 0x8b51f9dd, 0x58f38ded
_MASK32 = 0xFFFFFFFF


def stream_uniforms(entropies: Sequence[Sequence[int]], low: float, high: float,
                    counts: Sequence[int]) -> np.ndarray:
    """Row by row, the first counts[i] values of
    default_rng(SeedSequence(entropies[i])).uniform(low, high, counts[i]),
    concatenated: one entropy (a list of ints >= 0) per row.

    No SeedSequence is built: `_seed_state` hashes every row's seed words
    at once, in uint32 arrays, and each row's words seed NumPy's own PCG64,
    whose raw draws become Generator.uniform's 53-bit doubles, byte for
    byte.  The entries at one position must split into the same number of
    32-bit words on every row, as a plan's do (its only entry that can
    reach 2^32 is the master seed, on every row).
    """
    seed_words = _seed_words_type()
    raw = np.concatenate([np.random.PCG64(seed_words(words)).random_raw(count) for words, count
                          in zip(_seed_state(_entropy_words(entropies)), counts)])
    return low + (high - low) * ((raw >> 11) * (1.0 / 9007199254740992.0))


@lru_cache(maxsize=1)
def _seed_words_type() -> type:
    """PCG64's seed source for one row of `_seed_state`: an ISeedSequence,
    built on the first draw, so a process that draws nothing never imports
    numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype: type) -> np.ndarray:
            if n_words != 4 or dtype != np.uint64:  # PCG64's only request
                raise ValueError(f"seed words are 4 uint64 words, not {n_words} {dtype}")
            return self.words

    return SeedWords


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


def _seed_state(words: np.ndarray) -> np.ndarray:
    """(rows, 4) uint64, C-contiguous: row i is
    SeedSequence(words[:, i]).generate_state(4, uint64)."""
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
    return (state[0::2] | state[1::2] << 32).T.copy()


# ---------------------------------------------------------------------------
# primitive operations

def init_population(config: EvoConfig, out: np.ndarray) -> np.ndarray:
    """N genomes, entries Normal(0, 1) * init_scale, one stream per agent.

    Written into `out`, a (population, genome_length) float64 array, which
    is returned.  An entry that overflows stops the run here, before any
    genome is scored.
    """
    _check_population(out, (config.population, out.shape[-1]))
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

    The episodes come out row by row.  Every episode of the plan runs
    through the env's `rollouts` (in lockstep, cart-pole's last few alone)
    and its policy, built over only the genome rows from the plan's lowest
    to its highest.
    """
    rows = np.asarray(rows)
    low = rows.min()
    return env.rollouts(env.policy(genomes[low:rows.max() + 1]), rows - low,
                        partial(stream_uniforms, entropies), np.asarray(repeats))


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


def spawn_children(parents: np.ndarray, config: EvoConfig, generation: int,
                   out: np.ndarray, head: tuple | None = None) -> np.ndarray:
    """The N-1 mutants of ranked parents, the next population's rows 0..N-2.

    Written into `out`, a (population - 1, genome_length) array that must
    not overlap `parents`, which is returned.  `head` is `_head`'s (rng,
    picks, block) once `block` holds rng's next len(block) rows of noise;
    without one, the spawn fills a head of its own, one block of whole rows
    (about SPAWN_BLOCK_ENTRIES entries).  The other rows' noise is drawn
    straight into `out`, and the picked parents are gathered into the block
    and added a block at a time, so no population-sized temporary exists.
    A child entry that overflows stops the run here, before any child is
    scored.
    """
    _check_population(out, (config.population - 1, parents.shape[1]))
    rng, picks, block = head or _head(config, generation, len(parents), np.empty(
        (min(_block_rows(out.shape[1]), len(out)), out.shape[1])))
    if head is None:  # nothing drawn ahead: the spawn fills its own head
        rng.standard_normal(out=block)
    drawn = len(block)
    rng.standard_normal(out=out[drawn:])
    try:
        with np.errstate(over="raise"):
            np.multiply(block, config.mutation_power, out=out[:drawn])
            out[drawn:] *= config.mutation_power
            for start in range(0, len(out), drawn):
                children = out[start:start + drawn]
                gathered = block[:len(children)]
                # mode="raise" would buffer a second block
                np.take(parents, picks[start:start + drawn], axis=0, mode="clip",
                        out=gathered)
                children += gathered
    except FloatingPointError:
        raise ValueError(f"the children of generation {generation} overflow at "
                         f"mutation_power {config.mutation_power!r}") from None
    return out


def _head(config: EvoConfig, generation: int, parents: int, block: np.ndarray) -> tuple:
    """spawn_children's head for generation g before its noise is drawn:
    (rng, picks, block), rng the TAG_MUTATE Generator after it drew the
    picks, each child's parent among `parents` ranked rows."""
    rng = np.random.default_rng(
        np.random.SeedSequence([config.master_seed, TAG_MUTATE, generation]))
    return rng, rng.integers(0, parents, size=config.population - 1), block


def _block_rows(genome_length: int) -> int:
    return max(1, SPAWN_BLOCK_ENTRIES // genome_length)


class _Helper(threading.Thread):
    """A thread, started at once on every CPU in `cpus` but the caller's (on
    any if none is left), that runs the generator `work` to its end."""

    def __init__(self, cpus: Sequence[int], work: Iterator[np.ndarray]) -> None:
        super().__init__(name="qevo-spawn-ahead")
        self.cpus = [cpu for cpu in cpus if cpu != _this_cpu()]
        self.work, self.yielded, self.error = work, threading.Event(), None
        self.start()

    def run(self) -> None:
        if self.cpus:
            _place(self.cpus)
        try:
            self.value = next(self.work)
            self.yielded.set()
            next(self.work, None)
        except BaseException as error:  # raised again by result()
            self.error = error
        self.yielded.set()

    def result(self, join: bool = False) -> np.ndarray:
        """What `work` yielded (if `join`, once it has ended); raises what it raised."""
        (self.join if join else self.yielded.wait)()
        if self.error is not None:
            self.join()
            raise self.error
        return self.value


# ---------------------------------------------------------------------------
# CPU placement (see the module docstring)

def _cpus() -> list[int]:
    """The CPUs this thread may run on, in order; empty where there is
    nothing to place: one CPU, or no os.sched_setaffinity."""
    if not hasattr(os, "sched_setaffinity"):
        return []
    cpus = sorted(os.sched_getaffinity(0))
    return cpus if len(cpus) > 1 else []


def _this_cpu() -> int:
    """The CPU this thread runs on now (-1 if that cannot be told)."""
    return _sched_getcpu()()


@lru_cache(maxsize=1)
def _sched_getcpu() -> Callable[[], int]:
    """libc's sched_getcpu, bound once a process."""
    import ctypes  # NumPy has imported it already
    return ctypes.CDLL(None).sched_getcpu  # ctypes' default restype is C int


def _place(cpus: Sequence[int]) -> None:
    """Run this thread on `cpus` from now on; a set the host no longer
    allows leaves it where it is."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


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
    """Fitness of a slice (cpu, rows, entropies, repeats) of a plan over the
    shared population buffer, scored on CPU `cpu` unless it is None."""
    cpu, *plan = task
    if cpu is not None:
        _place([cpu])
    return batch_fitness(_WORKER_POPULATION, _WORKER_ENV, *plan)


# ---------------------------------------------------------------------------
# main loop

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

    `resume`, the snapshot of generation g, re-spawns generation g + 1's
    children and places its elite in row N-1 if that generation is to run;
    a fresh run draws its population even when no generation is.  Every
    generation lives in one (population - 1 + truncation, genome_length)
    buffer, `buffer` if given: the population in rows 0..N-1, while
    generation g's parents are tried for the elite in rows N-1 on, after
    generation g + 1's children.  Every plan is a slice of one layout (see
    below): the first a population alone, each generation's all of it, and
    the last an elite trial alone.
    """
    n, t = config.population, config.truncation
    buffer = np.empty((n - 1 + t, genome_length)) if buffer is None else buffer
    population = buffer[:n]
    generations = _generations(config, resume)
    if resume is None:
        init_population(config, out=population)
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
        spawn_children(resume.parents, config, resume.generation, out=population[:-1])
        population[-1] = resume.elite
    # helpers run where the children span more than one spawn block (never on cart-pole)
    draw_ahead = n - 1 > _block_rows(genome_length)
    cpus, block, head = _cpus(), None, None
    # generation g's plans slice one layout: rows 0..N-2+T play repeats_all episodes
    # on g + 1's TAG_EVAL stream of their population slot (every parent on N-1's,
    # which the elite takes), then rows N-1..N-2+T play repeats_parents episodes
    # on g's TAG_ELITE stream of their rank: g's elite trial
    rows = np.r_[0:n - 1 + t, n - 1:n - 1 + t]
    streams = ([(TAG_EVAL, 1, min(row, n - 1)) for row in range(n - 1 + t)]
               + [(TAG_ELITE, 0, rank) for rank in range(t)])
    repeats = np.repeat([config.repeats_all, config.repeats_parents], [n - 1 + t, t])
    parents = buffer[n - 1:]

    def plan(g: int, part: slice):
        return (rows[part], [[config.master_seed, tag, g + ahead, slot]
                             for tag, ahead, slot in streams[part]], repeats[part])

    def advance(fitness: np.ndarray, generation: int) -> Iterator[np.ndarray]:
        """Rank generation's population, gather its parents, spawn their children
        (none after the last) and yield the ranking; then draw the next head."""
        nonlocal block, head
        order = rank_indices(fitness)
        # the gather copies before the write, so the elite in row N-1 may move
        buffer[n - 1:] = population[order[:t]]
        if generation + 1 < config.generations:
            spawn_children(parents, config, generation, out=population[:-1], head=head)
        yield order
        if generation + 2 < config.generations:
            if block is None:  # allocated once the run's first spawn freed its own
                block = np.empty((n - 1 if (n - 1) * genome_length <= HEAD_ENTRIES
                                  else _block_rows(genome_length), genome_length))
            head = _head(config, generation + 1, t, block)
            head[0].standard_normal(out=block)  # releases the GIL

    fitness = fitness_of(buffer, *plan(generations.start - 1, slice(n)))
    helper = _Helper(cpus, advance(fitness, generations.start)) if draw_ahead else None
    try:
        for generation in generations:
            last = generation + 1 == config.generations
            order = next(advance(fitness, generation)) if helper is None else helper.result()
            scores = fitness_of(buffer, *plan(generation, slice(n - 1 + t if last else 0, None)))
            if helper is not None:  # it drew the next spawn's head beside the plan
                helper.result(join=True)
            elite_scores = scores[-t:]
            elite_index = int(np.argmax(elite_scores))  # first max: ties break low
            elite = parents[elite_index].copy()
            elite_score = float(elite_scores[elite_index])

            window.append((fitness.size, float(fitness.sum()),
                           float(np.square(fitness).sum())))
            rolling_mean, rolling_std = _window_stats(window)
            stats = GenerationStats(
                generation=generation,
                top5_avg=float(fitness[order[:5]].mean()),
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
            # copies first: the next helper gathers over the parents
            snapshot = GenerationSnapshot(generation, parents.copy(), elite, tuple(window),
                                          best_genome, best_score)
            helper = None
            if not last:
                population[n - 1] = elite
                fitness = np.append(scores[:n - 1], scores[n - 1 + elite_index])
                helper = _Helper(cpus, advance(fitness, generation + 1)) if draw_ahead else None
            if on_generation is not None:
                on_generation(stats, snapshot)
    finally:  # no helper outlives the run, and what the loop raised propagates
        if helper is not None:
            helper.join()
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
    (empty slices are skipped), and a task names only its slice's CPU (see
    the module docstring; None if nothing is placed), genome rows,
    entropies and repeats, so no genome is pickled.  The pool starts
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

    cpus = _cpus()

    def fitness_of(genomes, rows, entropies, repeats):
        cuts = [len(rows) * k // workers for k in range(workers + 1)]
        slices = [slice(start, stop) for start, stop in zip(cuts, cuts[1:]) if start < stop]
        tasks = [(cpus[k % len(cpus)] if cpus else None, rows[part], entropies[part],
                  repeats[part]) for k, part in enumerate(slices)]
        return np.concatenate(list(pool.map(_eval_task, tasks)))

    with ProcessPoolExecutor(max_workers=min(workers, shape[0]), initializer=_init_worker,
                             initargs=(env, shared, shape)) as pool:
        return _evolve(config, fitness_of, env.genome_length, on_generation, resume,
                       np.frombuffer(shared, dtype=np.float64).reshape(shape))
