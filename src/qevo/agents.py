"""The two circuit policies, batched over a population of flat genomes.

Cart-pole (2 qubits, 26 parameters): the 4-component observation is
L2-normalized and written directly into the amplitudes (signed entries
are legal there), then 4 blocks of [CNOT(0->1); Rot(q0); Rot(q1)] run,
each block with its own 6 angles.  The two logits are <Z0> + bias0 and
<Z1> + bias1; argmax picks the action (0 = push left, 1 = push right,
ties break low).  Genome layout: 24 circuit angles, block-major, qubit,
then (alpha, beta, gamma), followed by the 2 bias entries.  No state is
simulated: with U the circuit unitary and a the real unit amplitudes,
<Z1> - <Z0> = 2 (|(Ua)_2|^2 - |(Ua)_1|^2) = a . F . a for the real
symmetric F = 2 Re(U^dag diag(0, -1, 1, 0) U), built once per genome.  A
row pushes right where a . F . a > bias0 - bias1; the bias stays a
threshold, so a row whose norm overflows (a = 0) is decided by it alone.

TN-VQC (MPS front end + 8 qubits, 24 + mps.param_count parameters):
the MPS compresses the 147-component observation into 8 features x_i,
loaded as H, Ry(arctan x_i), Rz(arctan x_i^2) per qubit; then come the
CNOT ring C = 0->1 ... 6->7, 7->0 and one Rot(a, b, g) per qubit.  <Z> of
qubits 0..5 are the logits; argmax picks the action (ties break low; a
softmax would not change it).  No statevector is built: Rot^dag Z Rot =
n . (X, Y, Z) with n = (-sin b cos a, sin b sin a, cos b), each C^dag s C
is a Pauli string, and its expectation on the product state is the product
of the sites' I, X, Y, Z components (1, r, x^2 r, -x / sqrt(1 + x^2)),
r = 1 / sqrt((1 + x^2)(1 + x^4)).  So the logits depend only on a and b of
qubits 0..5, though the genome keeps its layout: the 24 circuit angles
(qubit-major, (alpha, beta, gamma)), then the MPS entries as offsets from
mps.identity_base.  A grid observation is a word of 49 cells, each one
of the grid model's 4 symbols, so the MPS is read through per-genome cell
tables (mps.cell_tables) built once per batch, for the (cell, symbol)
pairs the model's words hold; a row then costs one vector-matrix product
per cell (mps.contract_states).

Each policy reads a (P, L) genome array once and is act(agents, obs),
the action of each row's agent: `CartPolePolicy` on state rows, and
`tnvqc_policy`, which builds the cell tables for one grid model, on that
model's state ids.  `CartPolePolicy.decide` also decides one agent's
action on one state in Python floats, where it can tell that the batched
call would decide the same.  The envs take each task's policy and genome
length from here, their only qevo import; nothing here names an env.

Both policies act on every finite genome with no floating-point warning:
angles are reduced by their period, a threshold b0 - b1 may overflow to
+-inf, and MPS products may overflow to inf, which the feature clip
saturates, or to NaN, and argmax then picks the first NaN logit.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import mps

CARTPOLE_QUBITS = 2
CARTPOLE_BLOCKS = 4
CARTPOLE_GENOME_LENGTH = CARTPOLE_BLOCKS * CARTPOLE_QUBITS * 3 + 2  # 26

TNVQC_SITES = 147  # flattened 7x7x3 minigrid view
TNVQC_QUBITS = 8
TNVQC_MEASURED = 6
TNVQC_CIRCUIT_PARAMS = TNVQC_QUBITS * 3  # 24


def tnvqc_genome_length(bond_dim: int) -> int:
    """The 24 circuit angles plus the MPS entries at bond dimension bond_dim."""
    return TNVQC_CIRCUIT_PARAMS + mps.param_count(TNVQC_SITES, bond_dim, TNVQC_QUBITS)


def _rot(alpha: np.ndarray, beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(..., 2, 2) Rot(a, b, g) = Rz(g) Ry(b) Rz(a), multiplied out."""
    # 4 pi is every entry's period; fmod is exact and leaves (-4 pi, 4 pi) as is
    alpha, beta, gamma = (np.fmod(angle, 4.0 * np.pi) for angle in (alpha, beta, gamma))
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    plus, minus = np.exp(-0.5j * (alpha + gamma)), np.exp(0.5j * (alpha - gamma))
    return np.stack([c * plus, -s * minus, s * minus.conj(), c * plus.conj()],
                    axis=-1).reshape(c.shape + (2, 2))


def cartpole_forms(genomes: np.ndarray) -> np.ndarray:
    """(P, 4, 4) real symmetric F of (P, 26) genomes: <Z1> - <Z0> = a . F . a."""
    rots = _rot(*np.moveaxis(genomes[:, :24].reshape(
        -1, CARTPOLE_BLOCKS, CARTPOLE_QUBITS, 3), -1, 0))
    unitaries = np.broadcast_to(np.eye(4, dtype=np.complex128), (len(genomes), 4, 4))
    for block in range(CARTPOLE_BLOCKS):
        # CNOT(0->1) swaps rows |10> and |11>, then Rot on each qubit
        kron = np.einsum("pij,pkl->pikjl", rots[:, block, 0], rots[:, block, 1])
        unitaries = kron.reshape(-1, 4, 4) @ unitaries[:, [0, 1, 3, 2]]
    # 2 Re(U^dag diag(0, -1, 1, 0) U) from rows |10> and |01>, symmetric bit for bit
    def outer(v: np.ndarray) -> np.ndarray:
        return v[:, :, None] * v[:, None, :]

    plus, minus = unitaries[:, 2], unitaries[:, 1]
    return 2.0 * (outer(plus.real) + outer(plus.imag) - outer(minus.real) - outer(minus.imag))


# the scalar decision's trusted range: |obs|^2 whose amplitudes neither
# underflow nor overflow, and a distance from the threshold far beyond the
# < 1e-13 that separates its float value from the batched one (|F_ij| <= 2)
_SCALAR_NORMS = (1e-200, 1e200)
_SCALAR_MARGIN = 1e-9
# a . F . a as 10 terms: F's upper triangle, its off-diagonals doubled (exactly)
_UPPER_ROWS, _UPPER_COLS = np.triu_indices(4)
_UPPER_WEIGHTS = np.where(_UPPER_ROWS == _UPPER_COLS, 1.0, 2.0)


class CartPolePolicy:
    """act(agents, obs) for (P, 26) genomes, and `decide` for one state in floats."""

    def __init__(self, genomes: np.ndarray):
        self.forms = cartpole_forms(genomes)
        with np.errstate(over="ignore"):  # an infinite threshold decides every row alike
            self.threshold = genomes[:, 24] - genomes[:, 25]
        self._coefficients = (self.forms[:, _UPPER_ROWS, _UPPER_COLS] * _UPPER_WEIGHTS).tolist()
        self._thresholds = self.threshold.tolist()

    def __call__(self, agents: np.ndarray, obs: np.ndarray) -> np.ndarray:
        """Push right where a . F . a > b0 - b1 for each row's unit amplitudes a."""
        norm = np.sqrt(np.vecdot(obs, obs))
        if np.count_nonzero(norm) < len(norm):  # no direction: encode the uniform state
            zero = norm == 0.0
            obs = np.where(zero[:, None], 0.5, obs)
            norm[zero] = 1.0
        amps = obs / norm[:, None]
        value = np.vecdot(amps, np.matvec(self.forms[agents], amps))
        return (value > self.threshold[agents]).astype(np.intp)  # argmax: ties break low

    def decide(self, agent: int, state: Sequence[float]) -> int:
        """`self` on one agent and one state row, computed in Python floats.

        It decides alone only where |state|^2 lies in _SCALAR_NORMS and
        a . F . a is more than _SCALAR_MARGIN from the threshold, so its
        action is the batched one; any other row is passed to the batched
        policy.
        """
        x, x_dot, theta, theta_dot = state
        norm2 = x * x + x_dot * x_dot + theta * theta + theta_dot * theta_dot
        if _SCALAR_NORMS[0] <= norm2 <= _SCALAR_NORMS[1]:
            f00, f01, f02, f03, f11, f12, f13, f22, f23, f33 = self._coefficients[agent]
            value = (x * (f00 * x + f01 * x_dot + f02 * theta + f03 * theta_dot)
                     + x_dot * (f11 * x_dot + f12 * theta + f13 * theta_dot)
                     + theta * (f22 * theta + f23 * theta_dot)
                     + theta_dot * f33 * theta_dot) / norm2
            threshold = self._thresholds[agent]
            if abs(value - threshold) > _SCALAR_MARGIN:
                return 1 if value > threshold else 0
        return int(self(np.array([agent]), np.array([state]))[0])


# ---------------------------------------------------------------------------
# 8-qubit hybrid agent

def _ring_pauli_strings() -> np.ndarray:
    """(6, 3, 8) Pauli indices (I, X, Y, Z = 0..3) of C^dag s C.

    s runs over X, Y, Z of each measured qubit.  The strings are tracked as
    x and z bits under the stabilizer update rule of CNOT (Gottesman,
    arXiv:quant-ph/9807006; Aaronson & Gottesman, arXiv:quant-ph/0406196);
    all 18 have sign +, so none is tracked.
    """
    qubits = np.arange(TNVQC_MEASURED)
    x, z = np.zeros((2, TNVQC_MEASURED, 3, TNVQC_QUBITS), dtype=bool)
    x[qubits, :2, qubits] = True  # X and Y
    z[qubits, 1:, qubits] = True  # Y and Z
    for control in reversed(range(TNVQC_QUBITS)):  # C^dag s C: the last gate acts first
        target = (control + 1) % TNVQC_QUBITS
        x[..., target] ^= x[..., control]
        z[..., control] ^= z[..., target]
    return (x ^ z) + 2 * z.astype(np.intp)


_RING_PAULIS = _ring_pauli_strings()
# each string's factors as rows of the (4 * 8, n) local components
_RING_GATHER = (_RING_PAULIS * TNVQC_QUBITS + np.arange(TNVQC_QUBITS)).reshape(-1, TNVQC_QUBITS)
_FEATURE_LIMIT = 1e50  # keeps (1 + x^2)(1 + x^4) finite; moves no component by 1e-50


def _measured_axes(circuit: np.ndarray) -> np.ndarray:
    """(P, 6, 3) axes of Rot^dag Z Rot from (P, 8, 3) Rot angles."""
    alpha, beta = circuit[:, :TNVQC_MEASURED, 0], circuit[:, :TNVQC_MEASURED, 1]
    return np.stack([-np.sin(beta) * np.cos(alpha), np.sin(beta) * np.sin(alpha),
                     np.cos(beta)], axis=-1)


def _tnvqc_logits(features: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """<Z> of the 6 measured qubits per row: (n, 8) features, (n, 6, 3) axes."""
    x = np.clip(np.ascontiguousarray(features.T), -_FEATURE_LIMIT, _FEATURE_LIMIT)
    square = x * x
    r = 1.0 / np.sqrt((1.0 + square) * (1.0 + square * square))
    # (4 * 8, n): the I, X, Y, Z components of each site's Bloch vector
    local = np.concatenate([np.ones_like(x), r, square * r, -x / np.sqrt(1.0 + square)])
    strings = local[_RING_GATHER].prod(axis=1)
    products = strings * axes.reshape(len(features), TNVQC_MEASURED * 3).T
    return products.reshape(TNVQC_MEASURED, 3, len(features)).sum(axis=1).T


def _tnvqc_actions(axes: np.ndarray, tables: mps.CellTables,
                   agents: np.ndarray, states: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # see the module docstring
        features = mps.contract_states(tables, agents, states)
    return np.argmax(_tnvqc_logits(features, axes[agents]), axis=1)


def tnvqc_policy(genomes: np.ndarray, bond_dim: int,
                 model) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """act(agents, states) for (P, L) genomes on a grid model's state ids."""
    circuit = genomes[:, :TNVQC_CIRCUIT_PARAMS].reshape(-1, TNVQC_QUBITS, 3)
    with np.errstate(over="ignore", invalid="ignore"):  # see the module docstring
        tables = mps.cell_tables(genomes[:, TNVQC_CIRCUIT_PARAMS:], bond_dim, TNVQC_QUBITS,
                                 model.alphabet, model.words)
    return partial(_tnvqc_actions, _measured_axes(circuit), tables)
