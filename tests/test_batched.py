"""The batched evaluation path against the scalar reference, bit for bit.

Training scores every plan of (genome row, stream, repeats) rows through
`evo.batch_fitness`: lockstep rollouts (`env.rollouts`) driven by the
envs' batched policies (`env.policy`).
The scalar path in reference.py (`evaluate_fitness`, `play_episode`, the
agents' `act`, `contract`) is the oracle these tests compare against; equality
is exact, not approximate, because training must write the same bytes.
"""

from multiprocessing.sharedctypes import RawArray

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qevo import agents, envs, evo, mps

import reference as ref

BOND_DIMS = {"cartpole": 4, "minigrid-5": 2, "minigrid-6": 1, "minigrid-8": 2}  # cart-pole: unused


def random_genomes(rng, count, length, scale):
    return rng.standard_normal((count, length)) * scale


def scalar_fitness(genomes, env, rows, entropies, repeats):
    return np.array([ref.evaluate_fitness(genomes[r], env, k, e)
                     for r, e, k in zip(rows, entropies, repeats)])


# ---------------------------------------------------------------------------
# policies

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.0, 0.01, 0.3, 3.0, 100.0]))
def test_cartpole_policy_matches_act(seed, scale):
    rng = np.random.default_rng(seed)
    genomes = random_genomes(rng, 7, 26, scale)
    obs = rng.standard_normal((400, 4)) * rng.uniform(1e-6, 10.0, (400, 1))
    obs[:3] = 0.0  # no direction: the uniform state
    obs[3] = [1.0, 0.0, 0.0, 0.0]  # basis state: only the bias can break the tie
    obs[4] *= 1e200  # the norm overflows: amplitudes 0, only the bias decides
    obs[5] *= 1e-200  # the norm underflows to 0: the uniform state
    rows = rng.integers(0, len(genomes), len(obs))
    built = [ref.CartPoleAgent(g) for g in genomes]
    with np.errstate(over="ignore"):
        actions = agents.CartPolePolicy(genomes)(rows, obs)
        assert actions.tolist() == [built[r].act(o) for r, o in zip(rows, obs)]


class CountingPolicy(agents.CartPolePolicy):
    """The cart-pole policy, recording the agents of each batched call and
    counting its scalar decisions."""

    def __init__(self, genomes):
        super().__init__(genomes)
        self.calls = []
        self.decisions = 0

    def __call__(self, agents, obs):
        self.calls.append(agents.tolist())
        return super().__call__(agents, obs)

    def decide(self, agent, state):
        self.decisions += 1
        return super().decide(agent, state)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 100.0))
def test_cartpole_decide_matches_batched_actions(seed, scale):
    # genomes 0-3: random, 1e308 angles, b0 - b1 overflowing to +inf and to
    # -inf; genomes 4-7 each hold a threshold within 1e-12 of one state's
    # a . F . a, a tie the scalar decision must leave to the batched policy
    rng = np.random.default_rng(seed)
    genomes = random_genomes(rng, 8, 26, scale)
    genomes[1, :24] = 1e308 * rng.choice([-1.0, 1.0], 24)
    genomes[2, 24:] = [1e308, -1e308]
    genomes[3, 24:] = [-1e308, 1e308]
    obs = rng.standard_normal((60, 4)) * rng.uniform(1e-3, 10.0, (60, 1))
    obs[0] = 0.0  # no direction
    obs[1] = [0.0, 0.0, 1.0, 0.0]  # basis state
    obs[2] *= 1e200  # |obs|^2 overflows
    obs[3] *= 1e-200  # |obs|^2 underflows
    rows = rng.integers(0, 4, len(obs))
    ties = np.arange(len(obs) - 4, len(obs))
    rows[ties] = np.arange(4, 8)
    amps = obs[ties] / np.linalg.norm(obs[ties], axis=1, keepdims=True)
    values = np.vecdot(amps, np.matvec(agents.cartpole_forms(genomes[4:]), amps))
    genomes[4:, 24] = values + rng.uniform(-1e-12, 1e-12, 4)
    genomes[4:, 25] = 0.0
    policy = CountingPolicy(genomes)
    with np.errstate(over="ignore"):  # the batched policy's |obs|^2 of row 2
        expected = agents.CartPolePolicy.__call__(policy, rows, obs)
        decided = [policy.decide(row, state) for row, state in zip(rows.tolist(), obs.tolist())]
    assert decided == expected.tolist()
    # only the rows without a trusted float value reach the batched policy
    assert policy.calls == [[row] for row in rows[[0, 2, 3, *ties]].tolist()]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.01, 0.3, 3.0]))
def test_cartpole_forms_match_logits(seed, scale):
    # a . F . a is <Z1> - <Z0> of the statevector route, to rounding
    rng = np.random.default_rng(seed)
    genomes = random_genomes(rng, 5, 26, scale)
    obs = rng.standard_normal((300, 4)) * rng.uniform(1e-6, 10.0, (300, 1))
    obs[0] = 0.0
    rows = rng.integers(0, len(genomes), len(obs))
    norm = np.linalg.norm(obs, axis=1, keepdims=True)
    norm[0] = 1.0
    amps = obs / norm
    amps[0] = 0.5  # no direction: the uniform state
    quadratic = np.vecdot(amps, np.matvec(agents.cartpole_forms(genomes)[rows], amps))
    built = [ref.CartPoleAgent(g) for g in genomes]
    expected = [np.diff(built[r].logits(o) - built[r].bias)[0] for r, o in zip(rows, obs)]
    np.testing.assert_allclose(quadratic, expected, rtol=0.0, atol=1e-12)


def test_cartpole_forms_are_the_unitaries_forms():
    genomes = random_genomes(np.random.default_rng(31), 20, 26, 2.0)
    forms = agents.cartpole_forms(genomes)
    assert np.array_equal(forms, forms.transpose(0, 2, 1))
    z1_minus_z0 = np.diag([0.0, -1.0, 1.0, 0.0])
    for unitary, form in zip(ref.cartpole_unitaries(genomes), forms):
        expected = 2.0 * (unitary.conj().T @ z1_minus_z0 @ unitary).real
        np.testing.assert_allclose(form, expected, rtol=0.0, atol=1e-13)
    # zero angles: the circuit is CNOT^4 = I
    assert np.array_equal(agents.cartpole_forms(np.zeros((1, 26)))[0],
                          np.diag([0.0, -2.0, 2.0, 0.0]))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.0, 0.1, 1.0, 30.0]))
def test_tnvqc_logits_match_feature_logits(seed, scale):
    rng = np.random.default_rng(seed)
    env = envs.MiniGridEnv(5, bond_dim=1)
    built = [ref.build_agent(env, g) for g in random_genomes(rng, 3, env.genome_length, scale)]
    features = rng.standard_normal((60, agents.TNVQC_QUBITS)) * rng.uniform(0.0, 20.0, (60, 1))
    features[0] = 0.0
    rows = rng.integers(0, len(built), len(features))
    rot_mats = np.stack([built[r]._rot_mats for r in rows])
    logits = ref._tnvqc_logits(features, rot_mats)
    expected = np.array([built[r].feature_logits(f) for r, f in zip(rows, features)])
    assert logits.tobytes() == expected.tobytes()


@pytest.mark.parametrize("size,bond_dim", [(5, 4), (6, 2), (8, 1), (8, 4)])
def test_tnvqc_policy_matches_act_on_every_state(size, bond_dim):
    env = envs.MiniGridEnv(size, bond_dim)
    rng = np.random.default_rng(size * 10 + bond_dim)
    genomes = random_genomes(rng, 4, env.genome_length, 0.3)
    # offsets of -identity_base zero every core: features 0, every logit ties
    genomes[0, :agents.TNVQC_CIRCUIT_PARAMS] = 0.0
    genomes[0, agents.TNVQC_CIRCUIT_PARAMS:] = -mps.identity_base(
        agents.TNVQC_SITES, bond_dim, agents.TNVQC_QUBITS)
    genomes[1] = 0.0  # the identity extractor
    model = env.model
    n_states = len(model.goal)
    rows = np.repeat(np.arange(len(genomes)), n_states)
    states = np.tile(np.arange(n_states), len(genomes))
    table = env.policy(genomes)(rows, states)
    built = [ref.build_agent(env, g) for g in genomes]
    views = ref.grid_views(model)
    assert table.tolist() == [built[r].act(views[s]) for r, s in zip(rows, states)]
    assert not table[:n_states].any()  # the tie case picks action 0


@settings(max_examples=25, deadline=None)
@given(n_sites=st.integers(2, 12), bond_dim=st.integers(1, 4),
       out_dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_contract_rows_matches_contract(n_sites, bond_dim, out_dim, seed):
    rng = np.random.default_rng(seed)
    offsets = rng.standard_normal((5, mps.param_count(n_sites, bond_dim, out_dim)))
    values = rng.random((30, n_sites))
    values[0] = 0.0
    values[1] = 1.0
    rows = rng.integers(0, len(offsets), len(values))
    batched = ref.contract_rows(offsets, rows, values, bond_dim, out_dim)
    base = mps.identity_base(n_sites, bond_dim, out_dim)
    for row, v, got in zip(rows, values, batched):
        extractor = ref.MpsFeatureExtractor(n_sites, bond_dim, out_dim, base + offsets[row])
        assert np.array_equal(ref.contract(extractor, v), got)


# ---------------------------------------------------------------------------
# returns and fitness

# a genome that, by the scalar reference, balances to the cap from five of
# stream [0]'s first 40 starts and falls from the others
BALANCER = np.random.default_rng(7).standard_normal((27, 26))[26:]
STARTS = evo.stream_uniforms([[0]], -0.05, 0.05, np.array([4 * 40])).reshape(40, 4)
STEP_ONE_FAILURE = [2.39, 1.0, 0.0, 0.0]  # x passes 2.4 on step 1


def reference_length(start):
    env, agent = ref.CartPoleEnv(), ref.CartPoleAgent(BALANCER[0])
    env._state, env._done, env.steps = np.array(start), False, 0
    while not env.step(agent.act(env._state)).done:
        pass
    return env.steps


@pytest.mark.parametrize("live", [0, 1, envs.TAIL_ROWS, envs.TAIL_ROWS + 1])
def test_cartpole_tail_matches_episodes(live):
    # plans whose lockstep ends with `live` rows: TAIL_ROWS + 1 copies of one
    # fall, step-1 failures beside a balancer and live - 1 of the starts,
    # and TAIL_ROWS + 1 balancers, which stay in the lockstep up to the cap
    balances = [start for start in STARTS if reference_length(start) == 500]
    if live == 0:
        starts = [STARTS[0]] * (envs.TAIL_ROWS + 1)
    elif live <= envs.TAIL_ROWS:
        starts = ([STEP_ONE_FAILURE] * (envs.TAIL_ROWS + 1 - live) + balances[:1]
                  + list(STARTS[:live - 1]))
    else:
        starts = (balances * live)[:live]
    policy = CountingPolicy(BALANCER)
    returns = envs.CartPoleEnv().rollouts(policy, np.zeros(len(starts), int),
                                          lambda low, high, counts: np.ravel(starts),
                                          np.ones(len(starts), int))
    expected = [reference_length(start) for start in starts]
    assert returns.tolist() == expected
    # the lockstep runs while more than TAIL_ROWS rows live, the tail asks
    # `decide` once per step it takes, and neither takes the cap step
    taken = len(policy.calls)
    assert all(len(call) > envs.TAIL_ROWS for call in policy.calls)
    if live > envs.TAIL_ROWS:  # the balancers' lockstep stops short of the cap step
        assert (taken, policy.decisions) == (499, 0)
    assert policy.decisions == sum(min(length, 499) - taken for length in expected
                                   if length > taken)
    assert sum(length > taken for length in expected) == live
    assert 500 in expected or live == 0


@settings(max_examples=12, deadline=None)
@given(env_name=st.sampled_from(sorted(BOND_DIMS)),
       plan=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 5),
                               st.sampled_from([evo.TAG_EVAL, evo.TAG_ELITE])),
                     min_size=1, max_size=8),
       scale=st.sampled_from([0.0, 0.01, 0.2, 1.0, 3.0]),
       seed=st.integers(0, 2**16))
def test_batch_fitness_matches_evaluate_fitness(env_name, plan, scale, seed):
    # a plan mixes genome rows, repeat counts and tags, and may name a row twice
    env = envs.make(env_name, BOND_DIMS[env_name])
    genomes = random_genomes(np.random.default_rng(seed), 4, env.genome_length, scale)
    rows, repeats, tags = (list(column) for column in zip(*plan))
    entropies = [[seed, tag, 3, i] for i, tag in enumerate(tags)]
    batched = evo.batch_fitness(genomes, env, rows, entropies, repeats)
    expected = scalar_fitness(genomes, ref.make_env(env_name, BOND_DIMS[env_name]), rows,
                              entropies, repeats)
    assert batched.tobytes() == expected.tobytes()


@pytest.mark.parametrize("env_name", ["cartpole", "minigrid-5"])
def test_episode_returns_match_play_episode(env_name):
    env = ref.make_env(env_name, BOND_DIMS[env_name])
    genomes = random_genomes(np.random.default_rng(41), 3, env.genome_length, 0.5)
    returns = evo.episode_returns(genomes, env, range(3), [[9, i] for i in range(3)],
                                  [4] * 3).reshape(3, 4)
    for i, genome in enumerate(genomes):
        rng = np.random.default_rng(np.random.SeedSequence([9, i]))
        agent = ref.build_agent(env, genome)
        memo: dict = {}
        assert returns[i].tolist() == [ref.play_episode(agent, env, rng, memo)
                                       for _ in range(4)]


def test_episode_returns_builds_the_policy_over_the_plan_rows_only():
    # a plan of rows 2..4 of 7 genomes builds its policy over those three alone
    env = envs.CartPoleEnv()
    genomes = random_genomes(np.random.default_rng(3), 7, env.genome_length, 0.5)
    built = []
    policy = env.policy
    env.policy = lambda rows: built.append(rows.copy()) or policy(rows)
    evo.episode_returns(genomes, env, [4, 2, 3], [[1, i] for i in range(3)], [2] * 3)
    assert len(built) == 1 and built[0].tobytes() == genomes[2:5].tobytes()


@pytest.mark.parametrize("env_name,generations", [("cartpole", 12), ("minigrid-5", 6)])
def test_trained_populations_match_evaluate_fitness(env_name, generations):
    """Populations captured from a short training run, not just random ones."""
    env = envs.make(env_name, BOND_DIMS[env_name])
    config = evo.EvoConfig(population=30, truncation=4, mutation_power=0.05,
                           generations=generations, repeats_all=3,
                           repeats_parents=2, master_seed=5, init_scale=0.1)
    populations = []

    def capture(stats, snapshot):
        if snapshot.generation % 3 == 2:
            populations.append((snapshot.generation, ref.spawn_children(
                snapshot.parents, snapshot.elite, config, snapshot.generation)))

    evo.run(config, env, on_generation=capture)
    assert len(populations) >= 2
    for generation, population in populations:
        rows, repeats = range(len(population)), [3] * len(population)
        entropies = [[5, evo.TAG_EVAL, generation + 1, i] for i in rows]
        batched = evo.batch_fitness(population, env, rows, entropies, repeats)
        expected = scalar_fitness(population, ref.make_env(env_name, BOND_DIMS[env_name]),
                                  rows, entropies, repeats)
        assert batched.tobytes() == expected.tobytes()


def test_pool_task_matches_serial_slice(monkeypatch, placements):
    env = envs.MiniGridEnv(5, BOND_DIMS["minigrid-5"])
    genomes = random_genomes(np.random.default_rng(51), 6, env.genome_length, 0.2)
    rows, entropies, repeats = np.arange(6), [[1, 0, 0, i] for i in range(6)], np.full(6, 3)
    shared = RawArray("d", genomes.size)
    np.frombuffer(shared, dtype=np.float64)[:] = genomes.ravel()
    monkeypatch.setattr(evo, "_WORKER_ENV", None)  # restored after the test
    monkeypatch.setattr(evo, "_WORKER_POPULATION", None)
    evo._init_worker(env, shared, genomes.shape)
    whole = evo.batch_fitness(genomes, env, rows, entropies, repeats)
    for cpu in (8, None):  # a task names the CPU its slice is scored on, if any
        sliced = evo._eval_task((cpu, rows[2:5], entropies[2:5], repeats[2:5]))
        assert sliced.tobytes() == whole[2:5].tobytes()
    assert placements == [("MainThread", 0, [8])]
