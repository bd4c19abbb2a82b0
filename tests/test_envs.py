"""Environment tests: hand-integrated physics, BFS path oracle, geometry."""

import math
import pickle
from collections import deque
from functools import partial

import numpy as np
import pytest

from qevo import envs, evo

import reference as ref


def scripted_balancer(obs):
    """Keeps the pole up and the cart centered; verified to reach 500 steps."""
    x, x_dot, theta, theta_dot = obs
    return 1 if 3.0 * theta + theta_dot + 0.05 * x + 0.2 * x_dot > 0 else 0


class ScriptedPolicy:
    """A cart-pole `act` of per-agent scalar policies, which records the row
    count of each batched call and counts its scalar decisions."""

    def __init__(self, policies):
        self.policies = policies
        self.calls = []
        self.decisions = 0

    def __call__(self, agents, obs):
        self.calls.append(len(obs))
        return np.array([self.policies[a](o) for a, o in zip(agents, obs)])

    def decide(self, agent, state):
        self.decisions += 1
        return self.policies[agent](state)


def run_episode(env, policy, rng):
    obs = env.reset(rng)
    total = 0.0
    steps = 0
    while True:
        transition = env.step(policy(obs))
        total += transition.reward
        steps += 1
        if transition.done:
            return total, steps
        obs = transition.observation


# ---------------------------------------------------------------------------
# cart-pole

def test_reset_bounds_and_determinism():
    env = ref.CartPoleEnv()
    for seed in range(50):
        obs = env.reset(np.random.default_rng(seed))
        assert np.all(np.abs(obs) <= 0.05)
    a = ref.CartPoleEnv().reset(np.random.default_rng(7))
    b = ref.CartPoleEnv().reset(np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


def test_observation_is_the_state_tuple():
    env = ref.CartPoleEnv()
    obs = env.reset(np.random.default_rng(0))
    np.testing.assert_array_equal(obs, env._state)


def test_single_step_hand_integration():
    # From the exact zero state, pushing right:
    #   temp      = 10 / 1.1
    #   theta_acc = (-10/1.1) / (0.5 * (4/3 - 0.1/1.1)) = -600/41
    #   x_acc     = 10/1.1 - 0.05 * theta_acc / 1.1     =  400/41
    # positions keep the old (zero) velocities; velocities pick up tau*acc
    env = ref.CartPoleEnv()
    env.reset(np.random.default_rng(0))
    env._state = np.zeros(4)
    transition = env.step(1)
    x, x_dot, theta, theta_dot = transition.observation
    assert x == 0.0 and theta == 0.0
    assert x_dot == pytest.approx(8 / 41, abs=1e-15)
    assert theta_dot == pytest.approx(-12 / 41, abs=1e-15)
    assert transition.reward == 1.0 and not transition.done
    # mirrored push
    env._state = np.zeros(4)
    transition = env.step(0)
    assert transition.observation[1] == pytest.approx(-8 / 41, abs=1e-15)
    assert transition.observation[3] == pytest.approx(12 / 41, abs=1e-15)


def test_terminates_outside_position_limit():
    env = ref.CartPoleEnv()
    env.reset(np.random.default_rng(0))
    env._state = np.array([2.405, 0.5, 0.0, 0.0])
    assert env.step(1).done  # x moves past 2.4


def test_terminates_outside_angle_limit():
    env = ref.CartPoleEnv()
    env.reset(np.random.default_rng(0))
    env._state = np.array([0.0, 0.0, math.radians(15.0) - 1e-4, 2.0])
    assert env.step(1).done


def test_full_survival_episode_scores_exactly_500():
    env = ref.CartPoleEnv()
    for seed in (0, 1, 2):
        total, steps = run_episode(env, scripted_balancer,
                                   np.random.default_rng(seed))
        assert total == 500.0 and steps == 500


def test_score_equals_episode_length():
    env = ref.CartPoleEnv()
    always_right = lambda obs: 1
    total, steps = run_episode(env, always_right, np.random.default_rng(3))
    assert total == steps <= 500


def test_step_after_done_raises():
    env = ref.CartPoleEnv()
    env.reset(np.random.default_rng(0))
    env._state = np.array([3.0, 0.0, 0.0, 0.0])
    assert env.step(1).done
    with pytest.raises(RuntimeError, match="finished"):
        env.step(1)
    with pytest.raises(RuntimeError, match="finished"):
        ref.CartPoleEnv().step(0)  # never reset


def test_rejects_bad_action():
    env = ref.CartPoleEnv()
    env.reset(np.random.default_rng(0))
    with pytest.raises(ValueError, match="action"):
        env.step(2)


# ---------------------------------------------------------------------------
# minigrid: BFS oracle over (position, direction)

def bfs_shortest_path(n):
    """Fewest turn/forward actions from ((1,1), east) to the goal cell."""
    goal = (n - 2, n - 2)
    start = ((1, 1), 0)
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        ((pos, direction), depth) = queue.popleft()
        if pos == goal:
            return depth
        moves = [((pos, (direction - 1) % 4)), ((pos, (direction + 1) % 4))]
        fx, fy = envs.DIR_VECTORS[direction]
        target = (pos[0] + fx, pos[1] + fy)
        if 1 <= target[0] <= n - 2 and 1 <= target[1] <= n - 2:
            moves.append((target, direction))
        for state in moves:
            if state not in seen:
                seen.add(state)
                queue.append((state, depth + 1))
    raise AssertionError("goal unreachable")


@pytest.mark.parametrize("n,expected", [(5, 5), (6, 7), (8, 11)])
def test_bfs_shortest_paths(n, expected):
    assert bfs_shortest_path(n) == expected


@pytest.mark.parametrize("n,expected_reward", [
    (5, 0.955), (6, 0.95625), (8, 1.0 - 0.9 * 11 / 256)])
def test_optimal_path_rewards(n, expected_reward):
    env = ref.MiniGridEnv(n)
    env.reset()
    straight = n - 3  # interior span from (1,1) to (n-2, 1)
    actions = [2] * straight + [1] + [2] * straight
    assert len(actions) == bfs_shortest_path(n)
    transition = None
    for action in actions:
        transition = env.step(action)
    assert transition.done
    assert transition.reward == pytest.approx(expected_reward, abs=1e-12)


def test_reset_geometry():
    env = ref.MiniGridEnv(5)
    obs = env.reset()
    assert env.agent_pos == (1, 1) and env.agent_dir == 0
    assert env.goal_pos == (3, 3)
    assert env.max_steps == 100
    assert obs.shape == (147,)
    np.testing.assert_array_equal(obs, env.reset())  # deterministic layout


def test_four_lefts_compose_to_identity():
    env = ref.MiniGridEnv(5)
    start = env.reset()
    for _ in range(4):
        transition = env.step(0)
    assert env.agent_dir == 0
    np.testing.assert_array_equal(transition.observation, start)


def test_forward_into_wall_is_blocked():
    env = ref.MiniGridEnv(5)
    env.reset()
    env.step(3)  # face north via left turn is dir 3; action 3 is a no-op
    assert env.agent_pos == (1, 1)
    env.step(0)  # now actually turn left -> north
    assert env.agent_dir == 3
    transition = env.step(2)  # forward into the top wall
    assert env.agent_pos == (1, 1)
    assert not transition.done


def test_noop_actions_consume_steps_only():
    env = ref.MiniGridEnv(5)
    env.reset()
    for action in (3, 4, 5):
        transition = env.step(action)
        assert env.agent_pos == (1, 1) and env.agent_dir == 0
        assert transition.reward == 0.0
    assert env.steps == 3


def test_timeout_gives_zero_reward():
    env = ref.MiniGridEnv(5)
    env.reset()
    transition = None
    for _ in range(env.max_steps):
        transition = env.step(0)  # spin in place
    assert transition.done and transition.reward == 0.0
    with pytest.raises(RuntimeError, match="finished"):
        env.step(0)


def test_reward_range_when_goal_reached():
    # slow goal-reaching episodes still land strictly inside (0.1, 1)
    env = ref.MiniGridEnv(5)
    env.reset()
    for _ in range(env.max_steps - 6):
        env.step(3)  # no-op keeps the heading
    for action in (2, 2, 1, 2, 2):
        transition = env.step(action)
    assert transition.done
    assert transition.reward == pytest.approx(1 - 0.9 * 99 / 100, abs=1e-12)
    assert 0.1 < transition.reward < 1.0


def test_goal_on_final_step_still_rewards():
    env = ref.MiniGridEnv(5)
    env.reset()
    for _ in range(env.max_steps - 5):
        env.step(3)
    for action in (2, 2, 1, 2, 2):
        transition = env.step(action)
    assert transition.done
    assert transition.reward == pytest.approx(0.1, abs=1e-12)
    assert transition.reward > 0.0


def test_rejects_bad_action_index():
    env = ref.MiniGridEnv(5)
    env.reset()
    with pytest.raises(ValueError, match="action"):
        env.step(6)


# ---------------------------------------------------------------------------
# minigrid observations

def view_channels(obs, row, col):
    base = (row * envs.VIEW_SIZE + col) * 3
    return obs[base], obs[base + 1], obs[base + 2]


def test_observation_entries_in_unit_interval():
    env = ref.MiniGridEnv(8)
    obs = env.reset()
    for _ in range(60):
        assert obs.min() >= 0.0 and obs.max() <= 1.0
        obs = env.step(np.random.default_rng(int(obs.sum() * 1e6) % 2**31)
                       .integers(0, 3)).observation
        if env._done:
            break


def test_wall_directly_ahead_is_visible():
    env = ref.MiniGridEnv(5)
    env.reset()
    env.step(0)  # face north; wall at (1, 0) is one cell ahead
    obs = env._observation()
    obj, color, state = view_channels(obs, row=5, col=3)
    assert obj == pytest.approx(envs.OBJECT_WALL / envs.OBJECT_SCALE)
    assert color == pytest.approx(envs.COLOR_GREY / envs.COLOR_SCALE)
    assert state == 0.0


def test_agent_cell_is_floor():
    env = ref.MiniGridEnv(5)
    obs = env.reset()
    obj, _, _ = view_channels(obs, row=6, col=3)
    assert obj == pytest.approx(envs.OBJECT_EMPTY / envs.OBJECT_SCALE)


def test_goal_visible_with_its_color():
    env = ref.MiniGridEnv(5)
    env.reset()
    env.step(2), env.step(2)  # stand at (3,1) facing east; goal at (3,3)
    env.step(1)  # face south: goal two cells ahead -> view row 4, col 3
    obs = env._observation()
    obj, color, _ = view_channels(obs, row=4, col=3)
    assert obj == pytest.approx(envs.OBJECT_GOAL / envs.OBJECT_SCALE)
    assert color == pytest.approx(envs.COLOR_GREEN / envs.COLOR_SCALE)


def test_cells_beyond_grid_read_unseen():
    env = ref.MiniGridEnv(5)
    obs = env.reset()  # facing east from (1,1): row 0 is 6 cells ahead, off-grid
    obj, color, state = view_channels(obs, row=0, col=3)
    assert obj == envs.OBJECT_UNSEEN and color == 0.0 and state == 0.0


def test_rotation_changes_view_not_position():
    env = ref.MiniGridEnv(6)
    before = env.reset()
    after = env.step(1).observation
    assert env.agent_pos == (1, 1)
    assert not np.array_equal(before, after)


# ---------------------------------------------------------------------------
# batched forms: cart-pole step arrays and the grid's finite model

def test_numpy_trig_matches_math_bitwise():
    # the batched cart-pole step uses np.cos/np.sin where step uses math's
    rng = np.random.default_rng(21)
    theta = np.concatenate([rng.uniform(-1.0, 1.0, 500_000),
                            rng.uniform(-1e4, 1e4, 500_000)])
    values = theta.tolist()
    assert np.array_equal(np.cos(theta), [math.cos(v) for v in values])
    assert np.array_equal(np.sin(theta), [math.sin(v) for v in values])


def test_batched_cartpole_step_matches_step():
    rng = np.random.default_rng(22)
    env = ref.CartPoleEnv()
    # random states, many of them past a bound after one step
    states = rng.uniform(-1.0, 1.0, (4000, 4)) * [2.5, 3.0, 0.3, 3.0]
    actions = rng.integers(0, 2, len(states))
    batched, failed = env.step_batch(states, actions)
    for row, (state, action) in enumerate(zip(states, actions)):
        env._state, env._done, env.steps = state.copy(), False, 0
        transition = env.step(int(action))
        assert np.array_equal(transition.observation, batched[row])
        assert transition.done == failed[row]
    assert 0 < failed.sum() < len(states)


def test_cartpole_rollouts_match_episodes():
    env = ref.CartPoleEnv()
    policies = [scripted_balancer, lambda obs: 0, lambda obs: int(obs[3] > 0)]
    act = ScriptedPolicy(policies)
    # rows name their agent and episode count; an agent may play several rows;
    # row i's stream [s] is default_rng(s)'s
    seeds, rows, repeats = [5, 6, 7, 8, 9], [0, 1, 2, 0, 1], [2, 2, 2, 1, 3]
    returns = env.rollouts(act, np.array(rows),
                           partial(evo.stream_uniforms, [[s] for s in seeds]), np.array(repeats))
    expected = []
    for agent, seed, count in zip(rows, seeds, repeats):
        rng = np.random.default_rng(seed)
        expected += [run_episode(env, policies[agent], rng)[0] for _ in range(count)]
    assert returns.tolist() == expected
    assert returns[:2].tolist() == [500.0, 500.0]


@pytest.mark.parametrize("repeats", [0, 1, 3])
def test_cartpole_rollouts_start_where_resets_do(repeats):
    # one draw of 4 * repeats values per row gives the bytes of one reset per
    # episode; `draw` is called once, for every row, the idle middle one too
    env = envs.CartPoleEnv()
    act = ScriptedPolicy([lambda obs: 0] * 3)
    draws = []
    seeds, counts = [3, 5, 4], [repeats, 0, repeats]

    def draw(low, high, counts):
        values = evo.stream_uniforms([[s] for s in seeds], low, high, counts)
        draws.append((low, high, counts.tolist(), values.copy()))
        return values

    env.rollouts(act, np.arange(len(seeds)), draw, np.array(counts))
    [(low, high, drawn, values)] = draws
    assert (low, high, drawn) == (-env.START_LIMIT, env.START_LIMIT, [4 * c for c in counts])
    resets = ref.CartPoleEnv()
    expected = [resets.reset(rng) for rng, count in zip(map(np.random.default_rng, seeds), counts)
                for _ in range(count)]
    assert values.tobytes() == np.array(expected).tobytes()
    if not repeats:  # no episode, no policy call
        assert act.calls == [] and act.decisions == 0


def fixed_starts(starts):
    """A `draw` whose values are the given start states, row by row."""
    starts = np.asarray(starts, dtype=float)

    def draw(low, high, counts):
        assert counts.tolist() == [4] * len(starts)
        return starts.ravel().copy()
    return draw


def test_cartpole_rollouts_skip_the_cap_step():
    # two step-1 failures (position, angle), three rows that fall on one
    # step, and two balancer survivors; the cap ends a survivor at step 500
    # whatever its 500th action, so it is asked for 499 actions only.  At
    # most TAIL_ROWS rows live from the start, so every action is a decision
    policies = [lambda obs: 0, scripted_balancer]
    limit = math.radians(15.0)
    starts = [[2.39, 1.0, 0.0, 0.0], [0.0, 0.0, limit - 0.01, 1.0],
              [0.01, 0.0, 0.02, 0.0], [0.01, 0.0, 0.02, 0.0], [0.01, 0.0, 0.02, 0.0],
              [0.03, -0.02, 0.01, 0.04], [-0.04, 0.01, -0.03, 0.02]]
    rows = np.array([0, 0, 0, 0, 0, 1, 1])
    act = ScriptedPolicy(policies)
    lengths = envs.CartPoleEnv().rollouts(act, rows, fixed_starts(starts), np.ones(len(rows), int))
    expected = []
    for agent, start in zip(rows, starts):
        env = ref.CartPoleEnv()
        env._state, env._done, env.steps = np.array(start), False, 0
        while not env.step(policies[agent](env._state)).done:
            pass
        expected.append(env.steps)
    assert lengths.tolist() == expected
    assert expected[:2] == [1, 1] and expected[5:] == [500, 500]
    assert 1 < expected[2] == expected[3] == expected[4] < 500
    assert len(rows) <= envs.TAIL_ROWS and act.calls == []
    assert act.decisions == sum(min(length, envs.CartPoleEnv.MAX_STEPS - 1) for length in expected)


def test_cartpole_step_one_matches_step_batch():
    env = envs.CartPoleEnv()
    rng = np.random.default_rng(24)
    states = rng.uniform(-1.0, 1.0, (4000, 4)) * [2.5, 3.0, 0.3, 3.0]
    # still states on each bound and one float past it: a step keeps x and theta
    at_bounds = np.zeros((8, 4))
    for block, (column, limit) in enumerate([(0, env.X_LIMIT), (2, env.THETA_LIMIT)]):
        edges = [limit, -limit, np.nextafter(limit, 3.0), np.nextafter(-limit, -3.0)]
        at_bounds[4 * block:4 * block + 4, column] = edges
    states = np.concatenate([states, at_bounds])
    actions = rng.integers(0, 2, len(states))
    batched, failed = env.step_batch(states, actions)
    for row, (state, action) in enumerate(zip(states.tolist(), actions.tolist())):
        after, done = env.step_one(state, action)
        assert np.array(after).tobytes() == batched[row].tobytes()
        assert done == failed[row]
    assert 0 < failed.sum() < len(states)
    assert failed[-8:].tolist() == [False, False, True, True] * 2


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 12])
def test_grid_model_matches_step(n):
    # n = 4 is the smallest room with an inner cell off the goal; at n = 12
    # some views lie wholly inside the room and show no unseen cell
    env = ref.MiniGridEnv(n)
    model = env.model
    assert model is env.model  # built once per env
    # a view spells its word over the alphabet: unseen, empty, wall (grey),
    # goal (green), and channel 2 (state) always 0
    assert model.words.shape == ((n - 2) ** 2 * 4, envs.VIEW_SIZE * envs.VIEW_SIZE)
    # every policy call shares the cached tables
    for table in (model.words, model.alphabet, model.successor, model.goal):
        assert not table.flags.writeable
    assert model.alphabet.tolist() == [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0],
                                       [0.2, 1.0, 0.0], [0.8, 0.2, 0.0]]
    views = ref.grid_views(model)
    assert model.goal.sum() == 4
    assert np.array_equal(views[model.start], env.reset())
    states = ref.grid_states(n)
    assert states[model.start] == ((1, 1), 0)
    # every (state, action) pair against the reference's own step
    probe = ref.MiniGridEnv(n)
    for s, (pos, direction) in enumerate(states):
        probe.reset()
        probe.agent_pos, probe.agent_dir = pos, direction
        # the reference env encodes its views cell by cell, straight from the grid
        assert np.array_equal(views[s], probe._observation())
        assert model.goal[s] == (pos == probe.goal_pos)
        for action in range(envs.N_ACTIONS):
            probe.reset()
            probe.agent_pos, probe.agent_dir = pos, direction
            probe.step(action)
            assert states[model.successor[s, action]] == (probe.agent_pos, probe.agent_dir)
    if n == 12:
        assert (model.words != envs.CELL_OBJECTS.index(envs.OBJECT_UNSEEN)).all(axis=1).any()


def no_draw(low, high, counts):
    """A `draw` for envs that must never call it."""
    raise AssertionError("a grid episode drew a start state")


def test_grid_rollouts_follow_the_table_and_cut_cycles():
    env = envs.MiniGridEnv(5)
    wall = envs.CELL_OBJECTS.index(envs.OBJECT_WALL)
    calls = []

    def act(agents, states):
        calls.append(agents)
        # agent 0 runs the optimal path, agent 1 spins, agent 2 hits the wall
        out = []
        for a, word in zip(agents, env.model.words[states]):
            if a == 0:
                ahead = word.reshape(envs.VIEW_SIZE, envs.VIEW_SIZE)[5, 3]
                out.append(envs.ACTION_RIGHT if ahead == wall else envs.ACTION_FORWARD)
            else:
                out.append(envs.ACTION_LEFT if a == 1 else envs.ACTION_FORWARD)
        return np.array(out)

    # agent 0 plays two rows, agent 1 one row of no episode
    returns = env.rollouts(act, np.array([2, 0, 1, 0]), no_draw,
                           np.array([4, 1, 0, 3]))
    assert returns.tolist() == [0.0] * 4 + [0.955] + [0.955] * 3
    # one policy row per env step of each row: agent 0 walks 5 steps to the
    # goal (twice), agent 1 turns 4 times back onto its start, agent 2 meets
    # the wall on step 3
    assert calls[0].tolist() == [2, 0, 1, 0]
    assert np.bincount(np.concatenate(calls)).tolist() == [10, 4, 3]


@pytest.mark.parametrize("n", [5, 6, 8])
def test_grid_rollouts_match_episodes_of_random_tables(n):
    # 200 agents, each with a random action per state that mostly heads
    # for the goal: many reach it, at many step counts; the rest loop
    env = ref.MiniGridEnv(n)
    model = env.model
    distance = np.where(model.goal, 0, 10**6)
    for _ in range(len(model.goal)):
        distance = np.minimum(distance, 1 + distance[model.successor].min(axis=1))
    toward = distance[model.successor].argmin(axis=1)
    rng = np.random.default_rng(n)
    shape = (200, len(model.goal))
    tables = np.where(rng.random(shape) < 0.75, toward,
                      rng.choice([envs.ACTION_LEFT, envs.ACTION_RIGHT, 4], size=shape))
    views = ref.grid_views(model)
    index = {obs.tobytes(): s for s, obs in enumerate(views)}

    rows = np.zeros(len(tables), dtype=int)

    def act(agents, states):
        np.add.at(rows, agents, 1)
        words = model.words[states]
        spelled = model.alphabet[words].reshape(len(words), -1)
        return tables[agents, [index[o.tobytes()] for o in spelled]]

    def walk_length(a):
        # steps from the start up to the goal or the first revisit
        state, seen, steps = model.start, set(), 0
        while not model.goal[state] and state not in seen:
            seen.add(state)
            action = tables[a, index[views[state].tobytes()]]
            state, steps = model.successor[state, action], steps + 1
        return steps

    returns = env.rollouts(act, np.arange(len(tables)), no_draw,
                           np.full(len(tables), 2)).reshape(len(tables), 2)
    assert rows.tolist() == [walk_length(a) for a in range(len(tables))]
    expected = [run_episode(env, lambda o: tables[a, index[o.tobytes()]], None)[0]
                for a in range(len(tables))]
    assert returns[:, 0].tolist() == expected
    assert returns[:, 1].tolist() == expected
    if n < 8:  # 8x8 views repeat (90 distinct of 144), and these walks get lost
        assert len({r for r in expected if r > 0.0}) >= 3


# ---------------------------------------------------------------------------
# the env as the task: genome length and policy


def test_make_builds_the_grid_policy_at_bond_dimension_4_by_default():
    env = envs.make("minigrid-5")
    assert env.bond_dim == 4 and env.genome_length == 4808


def test_made_envs_pickle_with_their_policy():
    # a process pool pickles the env into its workers' initargs, also after
    # the parent has built a grid's model
    built = envs.make("minigrid-6", bond_dim=2)
    assert built.model is not None
    rng = np.random.default_rng(23)
    for env in [*(envs.make(name, bond_dim=2) for name in envs.ENV_NAMES), built]:
        clone = pickle.loads(pickle.dumps(env))
        assert type(clone) is type(env)
        assert clone.genome_length == env.genome_length
        genomes = rng.standard_normal((3, env.genome_length)) * 0.3
        if isinstance(env, envs.MiniGridEnv):
            states = np.arange(len(env.model.goal))  # every state of the grid
        else:
            states = rng.uniform(-1.0, 1.0, (300, 4)) * [2.4, 3.0, 0.3, 3.0]
        rows = np.repeat(np.arange(len(genomes)), len(states))
        states = np.concatenate([states] * len(genomes))
        assert (clone.policy(genomes)(rows, states).tolist()
                == env.policy(genomes)(rows, states).tolist())
    assert "model" in vars(pickle.loads(pickle.dumps(built)))  # sent, not rebuilt
