"""Episodic environments, implemented from scratch, each with its policy.

An env is the whole task: the paper pairs each with one agent, so an env
knows its genome length and builds its policy over a (P, genome_length)
genome array, act = env.policy(genomes), both from `agents` (its only
qevo import).  Every episode returns a score in [0, env.max_return].
Both environments then play many episodes in lockstep:

    returns = env.rollouts(act, agents, draw, repeats)

Row i of a batch is played by agent agents[i] for repeats[i] episodes; an
agent may play several rows.  `draw(low, high, counts)` returns, row after
row, the first counts[i] uniforms in [low, high) of row i's random stream
(training passes `evo.stream_uniforms` bound to the plan's seed
entropies); an env with a random start calls it once for all rows, and
the others never call it.  Episode j of row i starts from that row's j-th
draw; the flat result holds each episode's undiscounted sum of
rewards, row by row, each row's episodes in order.  act(agents, obs) maps
agent indices, one observation each, to actions: a cart-pole state row
(act is a `CartPolePolicy`, whose `decide` also acts on one row), or a
grid state's id (a grid policy reads every state's word once, when it is
built).  `make(name, bond_dim)` builds an env by name.

CartPoleEnv: classic pole balancing.  Physics constants are fixed here so
results are reproducible without any external dependency: gravity 9.8,
cart mass 1.0, pole mass 0.1, half pole length 0.5, force magnitude 10.0,
time step 0.02, semi-implicit Euler integration.  The failure angle is
15 degrees.

MiniGridEnv: an empty n x n room (n in {5, 6, 8}) with a 1-cell wall
border.  The agent starts at (1, 1) facing east; the goal sits at
(n-2, n-2).  Observations are an egocentric 7 x 7 view of the cells ahead,
3 channels per cell (object id, color id, state id), scaled into [0, 1].
Every cell shows one of 4 objects (unseen, empty, wall, goal), and its
channels follow from the object, so a view is a word of 49 symbols over
that alphabet: `GridModel.words` holds each state's word and
`GridModel.alphabet` each symbol's channel values.  `MiniGridEnv.model`
builds every table of the grid at once, by index arithmetic over one array
of cell symbols.

Each env has only this batched path, except that cart-pole's last
TAIL_ROWS live episodes leave the lockstep and finish one at a time in
Python floats (`CartPoleEnv.step_one`, with `CartPolePolicy.decide`),
with the lockstep's bits.  The scalar episodes the tests hold both to,
one move at a time, are in tests/reference.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .agents import CARTPOLE_GENOME_LENGTH, CartPolePolicy, tnvqc_genome_length, tnvqc_policy


# ---------------------------------------------------------------------------
# cart-pole

# live episodes at or below which the lockstep ends and each finishes alone
TAIL_ROWS = 8


class CartPoleEnv:
    GRAVITY = 9.8
    CART_MASS = 1.0
    POLE_MASS = 0.1
    HALF_POLE_LENGTH = 0.5
    FORCE_MAG = 10.0
    TAU = 0.02
    X_LIMIT = 2.4
    THETA_LIMIT = math.radians(15.0)
    MAX_STEPS = 500
    START_LIMIT = 0.05
    genome_length = CARTPOLE_GENOME_LENGTH
    max_return = MAX_STEPS  # a reward of 1 per step
    # the step's constants as floats (step_one's), and step_batch's operands
    # as float64 arrays: a force per action (push left, push right) and 0-d
    # constants of the same values, which a ufunc takes without converting
    # a Python float on every call
    _FORCES = np.array([-FORCE_MAG, FORCE_MAG])
    _FLOATS = (GRAVITY, POLE_MASS, HALF_POLE_LENGTH, CART_MASS + POLE_MASS,
               POLE_MASS * HALF_POLE_LENGTH, 4.0 / 3.0, TAU, X_LIMIT, THETA_LIMIT)
    _CONSTANTS = tuple(map(np.array, _FLOATS))

    def policy(self, genomes: np.ndarray) -> CartPolePolicy:
        """act(agents, states) of the 2-qubit VQC over (P, 26) genomes."""
        return CartPolePolicy(genomes)

    def step_batch(self, states: np.ndarray,
                   actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One step of every row of a (n, 4) state array by actions 0 or 1.

        Returns the next states and where they leave the position or angle
        bounds; the step cap is the caller's to count.  np.cos/np.sin give
        the same bits as math's (a test keeps this so).
        """
        (gravity, pole_mass, half_length, total_mass, pole_mass_length, four_thirds,
         tau, x_limit, theta_limit) = self._CONSTANTS
        x, x_dot, theta, theta_dot = states.T
        force = self._FORCES[actions]
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        temp = (force + pole_mass_length * theta_dot ** 2 * sin_t) / total_mass
        theta_acc = (gravity * sin_t - cos_t * temp) / (
            half_length * (four_thirds - pole_mass * cos_t ** 2 / total_mass))
        x_acc = temp - pole_mass_length * theta_acc * cos_t / total_mass
        # semi-implicit Euler: positions advance with the old velocities
        out = np.empty_like(states)
        next_x, next_x_dot, next_theta, next_theta_dot = out.T
        np.add(x, tau * x_dot, out=next_x)
        np.add(theta, tau * theta_dot, out=next_theta)
        np.add(x_dot, tau * x_acc, out=next_x_dot)
        np.add(theta_dot, tau * theta_acc, out=next_theta_dot)
        return out, (np.abs(next_x) > x_limit) | (np.abs(next_theta) > theta_limit)

    def step_one(self, state: Sequence[float],
                 action: int) -> tuple[tuple[float, float, float, float], bool]:
        """`step_batch` of one state row in Python floats, in its operations
        and order, so with its bits: math.cos/math.sin give np.cos/np.sin's,
        and x * x is what NumPy computes for x ** 2."""
        (gravity, pole_mass, half_length, total_mass, pole_mass_length, four_thirds,
         tau, x_limit, theta_limit) = self._FLOATS
        x, x_dot, theta, theta_dot = state
        force = self.FORCE_MAG if action else -self.FORCE_MAG
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        temp = (force + pole_mass_length * (theta_dot * theta_dot) * sin_t) / total_mass
        theta_acc = (gravity * sin_t - cos_t * temp) / (
            half_length * (four_thirds - pole_mass * (cos_t * cos_t) / total_mass))
        x_acc = temp - pole_mass_length * theta_acc * cos_t / total_mass
        x, theta = x + tau * x_dot, theta + tau * theta_dot
        return ((x, x_dot + tau * x_acc, theta, theta_dot + tau * theta_acc),
                abs(x) > x_limit or abs(theta) > theta_limit)

    def rollouts(self, act, agents: np.ndarray, draw,
                 repeats: np.ndarray) -> np.ndarray:
        """Every row's episodes, stepped in lockstep, the last few alone.

        Every start state component is uniform in [-0.05, 0.05]: one call
        of `draw` takes 4 * repeats[i] values from row i's stream, the
        same values as one (repeats[i], 4) draw or one 4-value draw per
        episode.  The reward is 1.0 per step, so an episode's return is its
        length.  The cap ends every episode still live after step
        MAX_STEPS - 1 at MAX_STEPS, whatever its last action, so that step
        is not taken.  A lockstep step costs about the same at 1 live row
        as at 12, so once at most TAIL_ROWS remain, each finishes alone in
        `step_one`, asking `act.decide`.
        """
        states = draw(-self.START_LIMIT, self.START_LIMIT, 4 * repeats).reshape(-1, 4)
        lengths = np.full(len(states), float(self.MAX_STEPS))
        agent = np.repeat(agents, repeats)
        episode = np.arange(len(states))
        decide = act.decide
        taken = 0
        while len(episode) > TAIL_ROWS and taken < self.MAX_STEPS - 1:
            taken += 1
            states, failed = self.step_batch(states, act(agent, states))
            if np.count_nonzero(failed):
                lengths[episode[failed]] = taken
                going = ~failed
                states, agent, episode = states[going], agent[going], episode[going]
        for row, player, state in zip(episode.tolist(), agent.tolist(), states.tolist()):
            for step in range(taken + 1, self.MAX_STEPS):
                state, failed = self.step_one(state, decide(player, state))
                if failed:
                    lengths[row] = step
                    break
        return lengths


# ---------------------------------------------------------------------------
# empty gridworld

# object ids follow the common gridworld tables; the channel scales below
# are the table maxima, mapping every channel into [0, 1]
OBJECT_UNSEEN = 0
OBJECT_EMPTY = 1
OBJECT_WALL = 2
OBJECT_GOAL = 8
COLOR_NONE = 0
COLOR_GREEN = 1
COLOR_GREY = 5
OBJECT_SCALE = 10.0
COLOR_SCALE = 5.0

# the objects an empty room shows, in symbol order, and their colors
CELL_OBJECTS = (OBJECT_UNSEEN, OBJECT_EMPTY, OBJECT_WALL, OBJECT_GOAL)
CELL_COLORS = (COLOR_NONE, COLOR_NONE, COLOR_GREY, COLOR_GREEN)

VIEW_SIZE = 7
# the grid policy's MPS bond dimension where a config or genome file names none
BOND_DIM = 4

# direction index -> forward unit vector (x right, y down)
DIR_VECTORS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # east, south, west, north

ACTION_LEFT = 0
ACTION_RIGHT = 1
ACTION_FORWARD = 2
# 3 (pickup), 4 (drop), 5 (toggle): consume a step, change nothing here
N_ACTIONS = 6


@dataclass(frozen=True)
class GridModel:
    """A grid's finite model, as read-only tables indexed by state s.

    s = ((y - 1) * (n - 2) + x - 1) * 4 + dir numbers the agent's poses on
    the inner cells, row by row, four headings per cell.  words (S, 49): the
    symbol of every view cell in state s, row-major from the far left
    corner; alphabet (4, 3): each symbol's channel values, in [0, 1];
    successor (S, 6): the state after each action; goal (S,): s is on the
    goal cell; start: every episode's first state.
    """

    words: np.ndarray
    alphabet: np.ndarray
    successor: np.ndarray
    goal: np.ndarray
    start: int


class MiniGridEnv:
    """An n x n empty room, played by the TN-VQC with MPS bond dimension bond_dim."""

    max_return = 1.0  # reaching the goal pays 1 - 0.9 * steps / max_steps

    def __init__(self, grid_size: int, bond_dim: int = BOND_DIM):
        self.grid_size = grid_size
        self.bond_dim = bond_dim
        self.genome_length = tnvqc_genome_length(bond_dim)
        self.max_steps = 4 * grid_size * grid_size

    @cached_property
    def model(self) -> GridModel:
        """The whole (pos, dir) state space, by index arithmetic over one grid.

        The grid holds every cell's symbol, the room framed by VIEW_SIZE - 1
        unseen cells, so every view lands inside it.  The agent sits at view
        row 6, column 3: view cell (row, col) shows the cell pos + forward *
        (6 - row) + right * (col - 3), so row 0 is farthest ahead and columns
        grow to the agent's right.  A wall cell blocks a forward step.
        """
        n, pad = self.grid_size, VIEW_SIZE - 1
        symbol = CELL_OBJECTS.index
        grid = np.full((n + 2 * pad,) * 2, symbol(OBJECT_UNSEEN), dtype=np.intp)
        room = grid[pad:pad + n, pad:pad + n]
        room[:] = symbol(OBJECT_WALL)
        room[1:-1, 1:-1] = symbol(OBJECT_EMPTY)
        room[n - 2, n - 2] = symbol(OBJECT_GOAL)

        def cell(x, y):
            return grid[pad + y, pad + x]

        def index(x, y, d):
            return ((y - 1) * (n - 2) + x - 1) * 4 + d

        y, x, d = np.indices((n - 2, n - 2, 4), dtype=np.intp).reshape(3, -1)
        x, y = x + 1, y + 1
        fx, fy = np.array(DIR_VECTORS).T[:, d]
        ahead, side = np.divmod(np.arange(VIEW_SIZE * VIEW_SIZE), VIEW_SIZE)
        ahead, side = VIEW_SIZE - 1 - ahead, side - VIEW_SIZE // 2
        # the right-hand vector is (-fy, fx)
        words = cell(x[:, None] + np.outer(fx, ahead) - np.outer(fy, side),
                     y[:, None] + np.outer(fy, ahead) + np.outer(fx, side))
        # channel 2 (state) is 0 for every object of an empty room
        alphabet = np.array([(obj / OBJECT_SCALE, color / COLOR_SCALE, 0.0)
                             for obj, color in zip(CELL_OBJECTS, CELL_COLORS)])
        state = index(x, y, d)
        successor = np.repeat(state[:, None], N_ACTIONS, axis=1)  # the other actions stay
        successor[:, ACTION_LEFT] = index(x, y, (d - 1) % 4)
        successor[:, ACTION_RIGHT] = index(x, y, (d + 1) % 4)
        blocked = cell(x + fx, y + fy) == symbol(OBJECT_WALL)
        successor[:, ACTION_FORWARD] = np.where(blocked, state, index(x + fx, y + fy, d))
        goal = (x == n - 2) & (y == n - 2)
        for table in (words, alphabet, successor, goal):
            table.flags.writeable = False
        return GridModel(words, alphabet, successor, goal, index(1, 1, 0))

    def policy(self, genomes: np.ndarray):
        """act(agents, states) of the TN-VQC over (P, genome_length) genomes,
        with cell tables for the words of this grid's `model`."""
        return tnvqc_policy(genomes, self.bond_dim, self.model)

    def rollouts(self, act, agents: np.ndarray, draw,
                 repeats: np.ndarray) -> np.ndarray:
        """Every row's episodes, walked in lockstep over `model`.

        Every episode starts at `model.start` and the dynamics are
        deterministic, so a row's repeats are the same episode: each row
        walks it once, and each step asks `act` for every live row's
        action.  A walk ends at the goal or at its first revisit: a revisit
        without the goal means the walk cycles until the step cap, so it
        returns 0.  `draw` is never called.
        """
        model = self.model
        visited = np.zeros((len(agents), len(model.goal)), dtype=bool)
        returns = np.zeros(len(agents))
        row = np.arange(len(agents))
        state = np.full(len(agents), model.start)
        step = 0
        while row.size:  # at most one step per state, below max_steps
            step += 1
            visited[row, state] = True
            state = model.successor[state, act(agents[row], state)]
            reached = model.goal[state]
            returns[row[reached]] = 1.0 - 0.9 * step / self.max_steps
            going = ~reached & ~visited[row, state]
            row, state = row[going], state[going]
        return np.repeat(returns, repeats)


# ---------------------------------------------------------------------------
# by name

ENV_NAMES = ("cartpole", "minigrid-5", "minigrid-6", "minigrid-8")


def make(name: str, bond_dim: int = BOND_DIM):
    """The named environment; bond_dim is the minigrid policy's MPS bond dimension."""
    if name not in ENV_NAMES:
        raise ValueError(f"unknown environment {name!r}; choose from {ENV_NAMES}")
    if name == "cartpole":
        return CartPoleEnv()
    return MiniGridEnv(int(name.removeprefix("minigrid-")), bond_dim)
