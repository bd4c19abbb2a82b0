"""Policy tests: parameter counts, circuit equivalence, action selection."""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevo import agents, envs, mps

import reference as ref


def cartpole_logits_via_simulator(genome, obs):
    """Step-by-step statevector route, no cached unitary."""
    agent = ref.CartPoleAgent(genome)
    norm = np.linalg.norm(obs)
    amps = obs / norm if norm > 0 else np.full(4, 0.5)
    state = ref.assign_amplitudes(amps)
    for block in agent.block_params:
        ref.apply_cnot(state, 0, 1)
        ref.apply_rot(state, 0, *block[0])
        ref.apply_rot(state, 1, *block[1])
    return np.array([ref.expectation_z(state, 0) + agent.bias[0],
                     ref.expectation_z(state, 1) + agent.bias[1]])


def tnvqc_logits_via_simulator(agent, features):
    state = ref.new_zero_state(agents.TNVQC_QUBITS)
    for q in range(agents.TNVQC_QUBITS):
        ref.apply_h(state, q)
        ref.apply_ry(state, q, math.atan(features[q]))
        ref.apply_rz(state, q, math.atan(features[q] ** 2))
    for q in range(agents.TNVQC_QUBITS - 1):
        ref.apply_cnot(state, q, q + 1)
    ref.apply_cnot(state, agents.TNVQC_QUBITS - 1, 0)
    for q in range(agents.TNVQC_QUBITS):
        ref.apply_rot(state, q, *agent.vqc_params[q])
    return np.array([ref.expectation_z(state, q)
                     for q in range(agents.TNVQC_MEASURED)])


# ---------------------------------------------------------------------------
# cart-pole agent

def test_genome_length_is_26():
    assert agents.CARTPOLE_GENOME_LENGTH == 26
    assert envs.CartPoleEnv().genome_length == 26
    ref.CartPoleAgent(np.zeros(26))
    for bad in (25, 27):
        with pytest.raises(ValueError, match="length"):
            ref.CartPoleAgent(np.zeros(bad))


def test_basis_observation_tie_broken_by_bias():
    # obs (1,0,0,0) loads |00>; zero-angle blocks leave both <Z> at +1,
    # so the bias alone decides
    obs = np.array([1.0, 0.0, 0.0, 0.0])
    genome = np.zeros(26)
    genome[24] = 1.0  # bias (1, 0)
    assert ref.CartPoleAgent(genome).act(obs) == 0
    genome = np.zeros(26)
    genome[25] = 1.0  # bias (0, 1)
    assert ref.CartPoleAgent(genome).act(obs) == 1


def test_equal_logits_tie_breaks_low():
    agent = ref.CartPoleAgent(np.zeros(26))
    assert agent.act(np.array([1.0, 0.0, 0.0, 0.0])) == 0


def test_cached_unitary_matches_simulator_route():
    rng = np.random.default_rng(8)
    for _ in range(20):
        genome = rng.standard_normal(26)
        obs = rng.standard_normal(4)
        agent = ref.CartPoleAgent(genome)
        np.testing.assert_allclose(agent.logits(obs),
                                   cartpole_logits_via_simulator(genome, obs),
                                   atol=1e-12)


@given(st.integers(0, 2 ** 31), st.floats(0.1, 100.0))
@settings(max_examples=50, deadline=None)
def test_action_invariant_under_observation_scaling(seed, scale):
    rng = np.random.default_rng(seed)
    genome = rng.standard_normal(26)
    obs = rng.standard_normal(4)
    agent = ref.CartPoleAgent(genome)
    assert agent.act(obs) == agent.act(scale * obs)


def test_zero_observation_uses_uniform_amplitudes():
    rng = np.random.default_rng(3)
    agent = ref.CartPoleAgent(rng.standard_normal(26))
    zero_logits = agent.logits(np.zeros(4))
    uniform_logits = agent.logits(np.full(4, 1e-9))  # any positive uniform obs
    assert np.all(np.isfinite(zero_logits))
    np.testing.assert_allclose(zero_logits, uniform_logits, atol=1e-9)


def test_pre_bias_logits_are_bounded_expectations():
    rng = np.random.default_rng(11)
    for _ in range(20):
        genome = rng.standard_normal(26)
        genome[24:] = 0.0  # strip the bias to expose raw <Z>
        logits = ref.CartPoleAgent(genome).logits(
            rng.standard_normal(4))
        assert np.all(np.abs(logits) <= 1.0 + 1e-12)


def test_rejects_non_finite_observation():
    agent = ref.CartPoleAgent(np.zeros(26))
    with pytest.raises(ValueError, match="finite"):
        agent.act(np.array([np.nan, 0.0, 0.0, 0.0]))


def test_cartpole_agent_aliases_genome():
    genome = np.random.default_rng(4).standard_normal(26)
    agent = ref.CartPoleAgent(genome)
    for params in (agent.block_params, agent.bias):
        assert np.shares_memory(params, genome)
        assert not params.flags.writeable
    np.testing.assert_array_equal(
        np.concatenate([agent.block_params.ravel(), agent.bias]), genome)
    assert genome.flags.writeable  # the caller's array is left as it was


# ---------------------------------------------------------------------------
# tn-vqc agent

def test_tnvqc_genome_length_identity():
    for bond_dim in (1, 2, 4):
        env = envs.MiniGridEnv(5, bond_dim=bond_dim)
        assert env.genome_length == 24 + mps.param_count(147, bond_dim, 8)
    with pytest.raises(ValueError, match="length"):
        ref.TnVqcAgent(np.zeros(100), bond_dim=2)


def test_zero_features_tie_to_action_zero():
    # zero rotations leave |+>^8; the CNOT ring maps it to itself and
    # every <Z> is exactly 0, so the tie must break to action 0
    env = envs.MiniGridEnv(5, bond_dim=2)
    agent = ref.build_agent(env, np.zeros(env.genome_length))
    logits = agent.feature_logits(np.zeros(8))
    np.testing.assert_array_equal(logits, np.zeros(6))
    # MPS offsets of minus the identity base zero every core, so every
    # observation contracts to zero features
    genome = np.zeros(env.genome_length)
    genome[agents.TNVQC_CIRCUIT_PARAMS:] = -mps.identity_base(147, 2, 8)
    agent = ref.build_agent(env, genome)
    obs = np.random.default_rng(0).uniform(0, 1, 147)
    np.testing.assert_array_equal(ref.contract(agent.extractor, obs), np.zeros(8))
    assert agent.act(obs) == 0


def test_zero_genome_extractor_is_identity_base():
    env = envs.MiniGridEnv(5, bond_dim=3)
    agent = ref.build_agent(env, np.zeros(env.genome_length))
    obs = np.random.default_rng(0).uniform(0, 1, 147)
    np.testing.assert_allclose(ref.contract(agent.extractor, obs), np.ones(8),
                               atol=1e-12)


def test_tnvqc_circuit_matches_simulator_route():
    rng = np.random.default_rng(9)
    env = envs.MiniGridEnv(5, bond_dim=2)
    for _ in range(5):
        genome = 0.2 * rng.standard_normal(env.genome_length)
        agent = ref.build_agent(env, genome)
        features = rng.standard_normal(8)
        np.testing.assert_allclose(agent.feature_logits(features),
                                   tnvqc_logits_via_simulator(agent, features),
                                   atol=1e-12)


# I, X, Y, Z, indexed as in agents._RING_PAULIS
PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def test_ring_pauli_strings_match_dense_conjugation():
    n = agents.TNVQC_QUBITS
    # indices, not just rows of PAULIS: a negative one would wrap round to a Pauli
    assert agents._RING_PAULIS.min() >= 0 and agents._RING_PAULIS.max() <= 3
    ring = np.eye(1 << n, dtype=np.complex128)  # C, one column per basis state
    for q in range(n):
        ref.apply_cnot_kernel(ring, n, q, (q + 1) % n)
    for q in range(agents.TNVQC_MEASURED):
        for a in range(3):
            single = reduce(np.kron, [PAULIS[a + 1] if k == q else PAULIS[0] for k in range(n)])
            string = reduce(np.kron, PAULIS[agents._RING_PAULIS[q, a]])
            np.testing.assert_array_equal(ring.conj().T @ single @ ring, string)


FEATURES = st.one_of(st.sampled_from([0.0, 1e-8, -1e-8, 1.0, -1e77, 1e154, -1e300, 1e300]),
                     st.floats(-1e300, 1e300))
ANGLES = st.one_of(st.just(0.0), st.floats(-100.0, 100.0))


@settings(max_examples=100, deadline=None)
@given(features=st.lists(FEATURES, min_size=8, max_size=8),
       angles=st.lists(ANGLES, min_size=24, max_size=24))
def test_closed_form_logits_match_statevector(features, angles):
    features = np.array([features])
    circuit = np.array(angles).reshape(1, agents.TNVQC_QUBITS, 3)
    logits = agents._tnvqc_logits(features, agents._measured_axes(circuit))
    assert np.isfinite(logits).all()  # np.argmax would pick a NaN
    with np.errstate(over="ignore"):  # x^2 overflows to inf, and atan(inf) is fine
        expected = ref._tnvqc_logits(features, ref.rot_matrix(*np.moveaxis(circuit, -1, 0)))
    np.testing.assert_allclose(logits, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("bond_dim", [1, 4])
def test_closed_form_argmax_matches_statevector_on_ties(bond_dim):
    env = envs.MiniGridEnv(8, bond_dim)
    genomes = np.zeros((2, env.genome_length))  # row 1: the identity extractor
    # row 0: offsets of -identity_base zero every core, so every feature is 0
    genomes[0, agents.TNVQC_CIRCUIT_PARAMS:] = -mps.identity_base(
        agents.TNVQC_SITES, bond_dim, agents.TNVQC_QUBITS)
    model = env.model
    tables = mps.cell_tables(genomes[:, agents.TNVQC_CIRCUIT_PARAMS:], bond_dim,
                             agents.TNVQC_QUBITS, model.alphabet, model.words)
    rows = np.repeat([0, 1], len(model.words))
    features = mps.contract_states(tables, rows, np.tile(np.arange(len(model.words)), 2))
    circuit = genomes[:, :agents.TNVQC_CIRCUIT_PARAMS].reshape(-1, agents.TNVQC_QUBITS, 3)
    closed = agents._tnvqc_logits(features, agents._measured_axes(circuit)[rows])
    expected = ref._tnvqc_logits(features, ref.rot_matrix(*np.moveaxis(circuit, -1, 0))[rows])
    assert closed.argmax(axis=1).tolist() == expected.argmax(axis=1).tolist()
    assert not closed[:len(model.words)].any()  # every logit ties at 0


def test_action_set_and_determinism():
    rng = np.random.default_rng(10)
    env = ref.MiniGridEnv(5, bond_dim=2)
    agent = ref.build_agent(env, 0.05 * rng.standard_normal(env.genome_length))
    obs = env.reset()
    actions = {agent.act(obs) for _ in range(5)}
    assert len(actions) == 1  # pure function of the observation
    assert actions.pop() in range(6)


def test_tnvqc_rejects_wrong_observation_length():
    env = envs.MiniGridEnv(5, bond_dim=2)
    agent = ref.build_agent(env, np.zeros(env.genome_length))
    with pytest.raises(ValueError, match="components"):
        agent.act(np.zeros(146))


def test_tnvqc_agent_aliases_genome():
    rng = np.random.default_rng(13)
    env = envs.MiniGridEnv(5, bond_dim=2)
    genome = rng.standard_normal(env.genome_length)
    agent = ref.build_agent(env, genome)
    assert np.shares_memory(agent.vqc_params, genome)
    assert not agent.vqc_params.flags.writeable
    np.testing.assert_array_equal(agent.vqc_params.ravel(), genome[:24])
    # the MPS entries are the identity base plus the genome's offsets
    np.testing.assert_array_equal(
        agent.extractor.flat, mps.identity_base(147, 2, 8) + genome[24:])


def test_logits_expectations_bounded():
    rng = np.random.default_rng(14)
    env = envs.MiniGridEnv(5, bond_dim=2)
    agent = ref.build_agent(env, rng.standard_normal(env.genome_length))
    logits = agent.feature_logits(rng.standard_normal(8))
    assert np.all(np.abs(logits) <= 1.0 + 1e-12)



# ---------------------------------------------------------------------------
# both policies act on every finite genome, with no floating-point warning

HUGE = (1e308, -1e308, 1e150, -1e150, 1e10)


def huge_genomes(value: float, length: int) -> np.ndarray:
    """Rows of `value` everywhere, with alternating signs (so sums and
    differences of entries overflow), and in every third entry of a
    standard-normal row."""
    rng = np.random.default_rng(22)
    mixed = rng.standard_normal(length)
    mixed[::3] = value
    return np.stack([np.full(length, value), value * (-1.0) ** np.arange(length), mixed])


@pytest.mark.parametrize("value", HUGE)
def test_cartpole_policy_acts_on_huge_genomes(value):
    genomes = huge_genomes(value, agents.CARTPOLE_GENOME_LENGTH)
    obs = np.random.default_rng(23).standard_normal((20, 4))
    obs[0] = 0.0
    act = agents.CartPolePolicy(genomes)
    actions = act(np.repeat(np.arange(len(genomes)), len(obs)), np.tile(obs, (3, 1)))
    assert actions.dtype == np.intp and set(actions.tolist()) <= {0, 1}
    if abs(value) > 1e300:  # the alternating row's b0 - b1 overflows to +-inf
        assert set(actions[len(obs):2 * len(obs)].tolist()) == {0 if value > 0 else 1}


@pytest.mark.parametrize("value", HUGE)
def test_tnvqc_policy_acts_on_huge_genomes(value):
    env = envs.MiniGridEnv(5, bond_dim=2)
    genomes = huge_genomes(value, env.genome_length)
    states = np.arange(len(env.model.words))
    actions = env.policy(genomes)(np.repeat(np.arange(len(genomes)), len(states)),
                                  np.tile(states, len(genomes)))
    assert set(actions.tolist()) <= set(range(agents.TNVQC_MEASURED))


def unreduced_rot(alpha, beta, gamma):
    """`agents._rot` without its reduction of the angles."""
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    plus, minus = np.exp(-0.5j * (alpha + gamma)), np.exp(0.5j * (alpha - gamma))
    return np.stack([c * plus, -s * minus, s * minus.conj(), c * plus.conj()],
                    axis=-1).reshape(c.shape + (2, 2))


PERIOD_ANGLES = st.floats(-4 * math.pi, 4 * math.pi, exclude_min=True, exclude_max=True)


@settings(max_examples=100, deadline=None)
@given(angles=st.lists(st.tuples(PERIOD_ANGLES, PERIOD_ANGLES, PERIOD_ANGLES),
                       min_size=1, max_size=8))
def test_rot_leaves_angles_within_its_period_unchanged(angles):
    alpha, beta, gamma = np.array(angles).T
    assert agents._rot(alpha, beta, gamma).tobytes() == unreduced_rot(alpha, beta, gamma).tobytes()
