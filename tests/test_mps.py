"""MPS feature extractor tests, anchored by an exhaustive-sum oracle.

The library reads the MPS only through cell tables over words of symbols
(`mps.cell_tables`, `mps.contract_states`); they are held to the batched
float sweep `reference.contract_rows`, which the scalar sweep anchors.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qevo import agents, envs, evo, mps

import reference as ref


def chain(extractor):
    """The cores one by one, in chain order."""
    return [extractor.first, *extractor.left, extractor.output,
            *extractor.right, extractor.last]


def noisy_extractor(n_sites, bond_dim, out_dim, rng, scale):
    """Identity base plus scale * standard normal noise on every entry."""
    base = mps.identity_base(n_sites, bond_dim, out_dim)
    return ref.MpsFeatureExtractor(n_sites, bond_dim, out_dim,
                                   base + scale * rng.standard_normal(base.size))


@pytest.mark.parametrize("n_sites,bond_dim,out_dim", [
    (2, 1, 2), (3, 2, 2), (4, 3, 3), (5, 2, 4), (6, 3, 2), (7, 2, 3), (8, 3, 8),
])
def test_sweep_matches_exhaustive_sum(n_sites, bond_dim, out_dim):
    rng = np.random.default_rng(n_sites * 100 + bond_dim)
    extractor = noisy_extractor(n_sites, bond_dim, out_dim, rng, 0.5)
    values = rng.uniform(0.0, 1.0, n_sites)
    want = ref.exhaustive_contract(extractor, values)
    got = ref.contract(extractor, values)
    assert np.abs(want - got).max() < 1e-9


def test_all_ones_cores_small_oracle():
    # n_sites=3, m=2, out_dim=2, every entry 1, input (0,0,0): phi = (1,0)
    # everywhere, so only one index tuple survives and the open-leg sum is
    # over the three bond indices: 2^3 = 8 for both outputs
    extractor = ref.MpsFeatureExtractor(3, 2, 2, np.ones(4 + 8 + 8 + 4))
    got = ref.contract(extractor, np.zeros(3))
    want = ref.exhaustive_contract(extractor, np.zeros(3))
    np.testing.assert_allclose(got, want, atol=1e-12)
    np.testing.assert_allclose(got, [8.0, 8.0], atol=1e-12)


# ---------------------------------------------------------------------------
# feature map

def test_feature_map_endpoints():
    assert ref.feature_map(0.0) == (1.0, 0.0)
    assert ref.feature_map(1.0) == (0.0, 1.0)
    assert ref.feature_map(0.25) == (0.75, 0.25)


def test_feature_map_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ref.feature_map(1.5)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ref.feature_map(-0.1)


# ---------------------------------------------------------------------------
# initialization

def test_zero_noise_init_is_seed_independent():
    a = noisy_extractor(6, 3, 4, np.random.default_rng(0), 0.0)
    b = noisy_extractor(6, 3, 4, np.random.default_rng(999), 0.0)
    np.testing.assert_array_equal(a.flat, b.flat)
    np.testing.assert_array_equal(a.flat, mps.identity_base(6, 3, 4))


def test_zero_noise_init_contracts_to_ones():
    extractor = ref.MpsFeatureExtractor(147, 4, 8, mps.identity_base(147, 4, 8))
    values = np.random.default_rng(1).uniform(0, 1, 147)
    np.testing.assert_allclose(ref.contract(extractor, values), np.ones(8),
                               atol=1e-12)


def test_same_seed_same_extractor():
    a = noisy_extractor(9, 2, 3, np.random.default_rng(42), 0.01)
    b = noisy_extractor(9, 2, 3, np.random.default_rng(42), 0.01)
    np.testing.assert_array_equal(a.flat, b.flat)


def test_noisy_init_contracts_finite_nonzero():
    extractor = noisy_extractor(147, 2, 8, np.random.default_rng(5), 0.01)
    out = ref.contract(extractor, np.random.default_rng(6).uniform(0, 1, 147))
    assert np.all(np.isfinite(out))
    assert np.any(out != 0.0)


# ---------------------------------------------------------------------------
# flat layout / param_count

def test_param_count_enumeration_m2():
    # 1 left boundary (2*2) + 145 interior (2*2*2) + 1 output (2*8*2)
    # + 1 right boundary (2*2)
    assert mps.param_count(147, 2, 8) == 4 + 145 * 8 + 32 + 4 == 1200


def test_param_count_counts_two_boundary_cores_the_interior_and_the_output():
    d = mps.LOCAL_DIM
    for n_sites, m, out_dim in itertools.product(range(2, 201), range(1, 6), range(1, 9)):
        assert mps.param_count(n_sites, m, out_dim) == (
            2 * d * m + (n_sites - 2) * d * m * m + out_dim * m * m)


def test_param_count_matches_flatten_length():
    for bond_dim in (1, 2, 4):
        extractor = noisy_extractor(11, bond_dim, 5, np.random.default_rng(0), 0.01)
        assert extractor.flat.size == mps.param_count(11, bond_dim, 5)
        assert mps.identity_base(11, bond_dim, 5).size == mps.param_count(11, bond_dim, 5)


def test_output_core_sits_in_the_middle():
    extractor = ref.MpsFeatureExtractor(147, 2, 8, mps.identity_base(147, 2, 8))
    assert extractor.output_pos == 74
    assert len(chain(extractor)) == 148
    assert extractor.left.shape == (73, 2, 2, 2)
    assert chain(extractor)[74] is extractor.output
    assert extractor.output.shape == (2, 8, 2)


@given(st.integers(2, 9), st.integers(1, 3), st.integers(1, 4),
       st.integers(0, 2 ** 31))
@settings(max_examples=30, deadline=None)
def test_views_tile_the_flat_vector(n_sites, bond_dim, out_dim, seed):
    flat = np.random.default_rng(seed).standard_normal(
        mps.param_count(n_sites, bond_dim, out_dim))
    extractor = ref.MpsFeatureExtractor(n_sites, bond_dim, out_dim, flat)
    cores = chain(extractor)
    # the module docstring's rule: the output core at (n_sites + 1) // 2
    m, d = bond_dim, mps.LOCAL_DIM
    pos = (n_sites + 1) // 2
    assert [c.shape for c in cores] == ([(d, m)] + [(m, d, m)] * (pos - 1) + [(m, out_dim, m)]
                                        + [(m, d, m)] * (n_sites - 1 - pos) + [(m, d)])
    for view in (extractor.first, extractor.left, extractor.output,
                 extractor.right, extractor.last):
        assert np.shares_memory(view, flat) or view.size == 0
        assert not view.flags.writeable
    np.testing.assert_array_equal(np.concatenate([c.ravel() for c in cores]), flat)


@given(st.integers(2, 9), st.integers(1, 4), st.integers(1, 8), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_views_of_a_block_are_the_views_of_its_rows(n_sites, bond_dim, out_dim, count):
    block = np.arange(count * mps.param_count(n_sites, bond_dim, out_dim),
                      dtype=float).reshape(count, -1)
    views = mps._views(block, n_sites, bond_dim, out_dim)
    for i, flat in enumerate(block):
        for view, row_view in zip(views, mps._views(flat, n_sites, bond_dim, out_dim)):
            assert np.shares_memory(view, block) or view.size == 0
            np.testing.assert_array_equal(view[i], row_view)


@pytest.mark.parametrize("cached", [
    lambda: mps.identity_base(5, 3, 2),
    lambda: mps._site_rows(5, 3, 2),
    lambda: evo._hash_constants(evo._MIX_INIT, evo._MIX_MULT, 17),
], ids=["identity_base", "_site_rows", "_hash_constants"])
def test_cached_arrays_refuse_writes(cached):
    # every caller of an lru_cache'd array gets the same one, so none may write it
    array = cached()
    assert cached() is array
    with pytest.raises(ValueError, match="read-only"):
        array.flat[0] = 1


@given(st.integers(2, 9), st.integers(1, 4), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_site_rows_address_every_input_core(n_sites, bond_dim, out_dim):
    # distinct nonzero entries, extended as _site_rows reads them: one zero
    # row, then the last core as the bond-0 column of an (m, d, m) core
    m = bond_dim
    flat = np.arange(1.0, mps.param_count(n_sites, m, out_dim) + 1)
    extractor = ref.MpsFeatureExtractor(n_sites, m, out_dim, flat)
    last_column = np.zeros((m, mps.LOCAL_DIM, m))
    last_column[..., 0] = extractor.last
    rows = np.concatenate([flat, np.zeros(m), last_column.ravel()]).reshape(-1, m)
    # gathered[site, d, a] is row a of the site's physical slice d
    gathered = rows[mps._site_rows(n_sites, m, out_dim)]
    assert gathered.shape == (n_sites, mps.LOCAL_DIM, m, m)
    np.testing.assert_array_equal(gathered[0, :, 0], extractor.first)
    np.testing.assert_array_equal(gathered[0, :, 1:], 0.0)
    interior = np.concatenate([extractor.left, extractor.right])
    np.testing.assert_array_equal(gathered[1:-1], interior.transpose(0, 2, 1, 3))
    np.testing.assert_array_equal(gathered[-1, :, :, 0], extractor.last.T)
    np.testing.assert_array_equal(gathered[-1, :, :, 1:], 0.0)


def test_mps_extractor_rejects_a_flat_of_the_wrong_entry_count():
    with pytest.raises(ValueError, match="entries"):
        ref.MpsFeatureExtractor(5, 2, 3, np.zeros(10))


# ---------------------------------------------------------------------------
# properties

def test_contract_linear_in_each_core():
    rng = np.random.default_rng(12)
    extractor = noisy_extractor(7, 2, 3, rng, 0.3)
    values = rng.uniform(0, 1, 7)
    base = ref.contract(extractor, values)
    offset = 0
    for core in chain(extractor):
        flat = extractor.flat.copy()
        flat[offset:offset + core.size] *= 2.0
        offset += core.size
        doubled = ref.MpsFeatureExtractor(7, 2, 3, flat)
        np.testing.assert_allclose(ref.contract(doubled, values), 2.0 * base,
                                   atol=1e-9)
    assert offset == extractor.flat.size


def test_contract_rejects_bad_inputs():
    extractor = ref.MpsFeatureExtractor(5, 2, 2, mps.identity_base(5, 2, 2))
    with pytest.raises(ValueError, match="components"):
        ref.contract(extractor, np.zeros(4))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ref.contract(extractor, np.full(5, 1.2))


def test_extractor_shape_validation():
    with pytest.raises(ValueError, match="entries"):
        ref.MpsFeatureExtractor(5, 2, 2, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="at least 2"):
        mps.param_count(1, 2, 2)


# ---------------------------------------------------------------------------
# cell tables against the float sweep

GRID_MODELS = {size: envs.MiniGridEnv(size).model for size in (5, 6, 8)}


def assert_features_match(features, offsets, rows, values, bond_dim, out_dim):
    """The oracle's features; `features` lie within 1e-10 of each row's largest.

    The two sweeps associate the products differently.  On a rare row whose
    features cancel far below the chain's magnitude (about one row in 10^5
    of random bond-4 genomes at scale 1) neither float64 sweep keeps 1e-10:
    there the oracle must itself be off the long-double sweep (80-bit on
    x86-64) by at least a tenth of the difference, so that rounding, not
    the tables, explains it.
    """
    expected = ref.contract_rows(offsets, rows, values, bond_dim, out_dim)
    difference = np.abs(features - expected).max(axis=1)
    stray = difference > 1e-10 * np.abs(expected).max(axis=1)
    if stray.any():
        exact = ref.contract_rows(offsets.astype(np.longdouble), rows[stray],
                                  values[stray].astype(np.longdouble), bond_dim, out_dim)
        oracle_error = np.abs(expected[stray] - exact).max(axis=1)
        assert np.all(oracle_error >= 0.1 * difference[stray])
    return expected


def assert_grid_policy_matches(genomes, bond_dim, model):
    """Every (genome, state) pair: features and actions against the oracle."""
    offsets = genomes[:, agents.TNVQC_CIRCUIT_PARAMS:]
    states = np.tile(np.arange(len(model.words)), len(genomes))
    rows = np.repeat(np.arange(len(genomes)), len(model.words))
    tables = mps.cell_tables(offsets, bond_dim, agents.TNVQC_QUBITS, model.alphabet,
                             model.words)
    features = mps.contract_states(tables, rows, states)
    expected = assert_features_match(features, offsets, rows, ref.grid_views(model)[states],
                                     bond_dim, agents.TNVQC_QUBITS)
    circuit = genomes[:, :agents.TNVQC_CIRCUIT_PARAMS].reshape(-1, agents.TNVQC_QUBITS, 3)
    oracle = agents._tnvqc_logits(expected, agents._measured_axes(circuit)[rows])
    actions = agents.tnvqc_policy(genomes, bond_dim, model)(rows, states)
    assert actions.tolist() == np.argmax(oracle, axis=1).tolist()


@settings(max_examples=20, deadline=None)
@given(size=st.sampled_from(sorted(GRID_MODELS)), bond_dim=st.sampled_from([1, 2, 4]),
       scale=st.one_of(st.sampled_from([0.0, 0.01, 1.0, 3.0]), st.floats(0.0, 3.0)),
       seed=st.integers(0, 2**32 - 1))
def test_cell_tables_match_contract_rows_on_every_state(size, bond_dim, scale, seed):
    length = envs.MiniGridEnv(size, bond_dim).genome_length
    genomes = np.random.default_rng(seed).standard_normal((4, length)) * scale
    # offsets of -identity_base zero every core: features 0, every logit ties
    genomes[0, agents.TNVQC_CIRCUIT_PARAMS:] = -mps.identity_base(
        agents.TNVQC_SITES, bond_dim, agents.TNVQC_QUBITS)
    assert_grid_policy_matches(genomes, bond_dim, GRID_MODELS[size])


@pytest.fixture(scope="module")
def trained_population():
    """The population after 6 generations of a minigrid-5 run at bond dimension 4."""
    config = evo.EvoConfig(population=24, truncation=4, mutation_power=0.05,
                           generations=6, repeats_all=1, repeats_parents=1,
                           master_seed=5, init_scale=0.1)
    snapshots = []
    evo.run(config, envs.MiniGridEnv(5, bond_dim=4),
            on_generation=lambda stats, snapshot: snapshots.append(snapshot))
    last = snapshots[-1]
    return ref.spawn_children(last.parents, last.elite, config, last.generation)


@pytest.mark.parametrize("size", sorted(GRID_MODELS))
def test_cell_tables_match_contract_rows_on_a_trained_population(trained_population, size):
    assert_grid_policy_matches(trained_population, 4, GRID_MODELS[size])


@settings(max_examples=60, deadline=None)
@given(n_cells=st.integers(1, 7), channels=st.integers(1, 3), n_symbols=st.integers(1, 4),
       bond_dim=st.integers(1, 3), out_dim=st.integers(1, 3),
       scale=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_cell_tables_match_contract_rows_on_any_chain(n_cells, channels, n_symbols,
                                                      bond_dim, out_dim, scale, seed):
    # any cell geometry: the output core inside, before or after a cell's
    # sites, in the first or the last cell, with or without agreed cells
    assume(n_cells * channels >= 2)
    rng = np.random.default_rng(seed)
    alphabet = rng.choice([0.0, 1.0, rng.random()], size=(n_symbols, channels))
    words = rng.integers(0, n_symbols, (rng.integers(1, 9), n_cells))
    words[:, :rng.integers(0, n_cells + 1)] = words[0, 0]
    offsets = rng.standard_normal((3, mps.param_count(n_cells * channels, bond_dim,
                                                      out_dim))) * scale
    tables = mps.cell_tables(offsets, bond_dim, out_dim, alphabet, words)
    # the cells every word agrees on, from cell 0 up to the middle cell, fold
    # into `start` and are not swept
    agreed = next((c for c in range(n_cells) if len(set(words[:, c])) > 1), n_cells)
    mid = (n_cells * channels + 1) // 2 // channels
    assert tables.n_left == mid - min(agreed, mid)
    rows = np.repeat(np.arange(len(offsets)), len(words))
    states = np.tile(np.arange(len(words)), len(offsets))
    features = mps.contract_states(tables, rows, states)
    assert_features_match(features, offsets, rows,
                          alphabet[words[states]].reshape(len(rows), -1),
                          bond_dim, out_dim)


@pytest.mark.parametrize("size", [5, 8])
@pytest.mark.parametrize("bond_dim", [1, 2, 3, 4, 5])
def test_features_and_tables_do_not_depend_on_the_batch(size, bond_dim):
    # what --workers invariance rests on: a (genome, state) row's features
    # are the same bits alone as in a batch, and the tables of a slice of
    # genomes are the whole population's
    model = GRID_MODELS[size]
    rng = np.random.default_rng(size * 10 + bond_dim)
    length = mps.param_count(agents.TNVQC_SITES, bond_dim, agents.TNVQC_QUBITS)
    offsets = rng.standard_normal((7, length)) * 0.3
    tables = mps.cell_tables(offsets, bond_dim, agents.TNVQC_QUBITS, model.alphabet,
                             model.words)
    rows = rng.integers(0, len(offsets), 40)
    states = rng.integers(0, len(model.words), 40)
    batched = mps.contract_states(tables, rows, states)
    for i in range(len(rows)):
        alone = mps.contract_states(tables, rows[i:i + 1], states[i:i + 1])
        assert alone.tobytes() == batched[i:i + 1].tobytes()
    for lo, hi in [(0, 1), (1, 4), (4, 7)]:
        part = mps.cell_tables(offsets[lo:hi], bond_dim, agents.TNVQC_QUBITS,
                               model.alphabet, model.words)
        for name in ("start", "cells", "middle"):
            assert getattr(part, name).tobytes() == getattr(tables, name)[lo:hi].tobytes()
        assert np.array_equal(part.pairs, tables.pairs)
        assert np.array_equal(part.cores, tables.cores)
        assert part.n_left == tables.n_left
