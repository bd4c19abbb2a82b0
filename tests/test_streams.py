"""A plan's episode start streams against one NumPy Generator per row.

`evo.stream_uniforms` hashes every row's SeedSequence words at once, in
arrays, and seeds NumPy's own PCG64 with each row's words;
`ref.stream_uniforms` builds default_rng(SeedSequence(entropy)) per row.
The two must agree byte for byte, on any NumPy the project supports.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qevo import evo

import reference as ref

# per word count of an entry, the values at the edges of its range
EDGES = {1: [0, 2**32 - 1], 2: [2**32, 2**64 - 1], 3: [2**64, 2**64 + 3]}


def entries(words):
    low = 0 if words == 1 else 1 << 32 * (words - 1)
    return st.one_of(st.sampled_from(EDGES[words]),
                     st.integers(low, (1 << 32 * words) - 1))


@st.composite
def plans(draw):
    """(entropies, counts): 1-6 entries, each position splitting into the
    same number of words on every row, and rows that may share an entropy."""
    widths = draw(st.lists(st.sampled_from(sorted(EDGES)), min_size=1, max_size=6))
    distinct = draw(st.lists(st.tuples(*map(entries, widths)), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=10))
    counts = draw(st.lists(st.integers(0, 70), min_size=len(picks), max_size=len(picks)))
    return [list(distinct[i]) for i in picks], counts


@settings(max_examples=200, deadline=None)
@given(plan=plans(), bounds=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2))
@example(plan=([[0, 2**32 - 1], [2**32 - 1, 0]], [0, 0]), bounds=[-0.05, 0.05])
@example(plan=([[2**64 + 3, 2**32, 7]] * 3, [4, 0, 20]), bounds=[-0.05, 0.05])
@example(plan=([[0]], [3]), bounds=[0.0, -0.0])
def test_streams_match_a_generator_per_row(plan, bounds):
    entropies, counts = plan
    # -0.0 before 0.0: NumPy rejects uniform(0.0, -0.0), whose high - low is -0.0
    low, high = sorted(bounds, key=lambda bound: (bound, math.copysign(1.0, bound)))
    drawn = evo.stream_uniforms(entropies, low, high, counts)
    assert drawn.tobytes() == ref.stream_uniforms(entropies, low, high, counts).tobytes()


def test_streams_match_a_training_plan():
    # generation 0's plan, as the loop makes it: the parents all take slot
    # N-1's stream, and a master seed past 2^32 is two words on every row
    config = evo.EvoConfig(population=7, truncation=3, mutation_power=0.1,
                           generations=2, master_seed=2**32 + 5)
    plans = []

    def fitness_of(genomes, rows, entropies, repeats):
        plans.append((entropies, repeats))
        return np.zeros(len(rows))

    evo._evolve(config, fitness_of, 4)
    entropies, repeats = plans[1]
    assert len(entropies) == 12 and repeats.tolist() == [3] * 9 + [5] * 3
    assert entropies[6] == entropies[7] == entropies[8] == [2**32 + 5, evo.TAG_EVAL, 1, 6]
    counts = 4 * repeats
    drawn = evo.stream_uniforms(entropies, -0.05, 0.05, counts)
    assert drawn.tobytes() == ref.stream_uniforms(entropies, -0.05, 0.05, counts).tobytes()


def test_rows_of_1_to_8000_draws_match_their_generators():
    counts = [1, 2, 3, 4, 5, 8, 9, 16, 17, 33, 1000, 8000]
    entropies = [[11, i] for i in range(len(counts))]
    drawn = evo.stream_uniforms(entropies, 0.0, 1.0, counts)
    assert drawn.tobytes() == ref.stream_uniforms(entropies, 0.0, 1.0, counts).tobytes()


def test_seed_words_hand_pcg64_only_what_it_asks_for():
    # each row is SeedSequence's own 4 uint64 words, and PCG64's request is
    # the only one the words answer
    entropies = [[3, 2**32 + 1], [0, 2**33]]
    state = evo._seed_state(evo._entropy_words(entropies))
    for entropy, words in zip(entropies, state):
        expected = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
        assert words.tobytes() == expected.tobytes()
    row = state[0]
    seed = evo._seed_words_type()(row)
    assert seed.generate_state(4, np.uint64) is row
    for n_words, dtype in [(4, np.uint32), (8, np.uint32), (2, np.uint64), (5, np.uint64)]:
        with pytest.raises(ValueError, match="4 uint64 words"):
            seed.generate_state(n_words, dtype)


def test_one_long_row_matches_its_generator():
    drawn = evo.stream_uniforms([[6]], -0.05, 0.05, [262144])
    assert drawn.tobytes() == ref.stream_uniforms([[6]], -0.05, 0.05, [262144]).tobytes()


@pytest.mark.parametrize("entropies", [
    [[0], [2**32]],
    [[5, 2**64 + 3], [5, 2**32]],
    [[1, 2], [3]],
    [[-1]],
], ids=["one-and-two-words", "two-and-three-words", "ragged", "negative"])
def test_entries_that_split_unevenly_are_rejected(entropies):
    for count in (4, 0):  # also where nothing is drawn
        with pytest.raises(ValueError):
            evo.stream_uniforms(entropies, -0.05, 0.05, [count] * len(entropies))
