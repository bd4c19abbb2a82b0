"""The two circuit policies, batched over a population of flat genomes.

Cart-pole (2 qubits, 26 parameters): the 4-component observation is
L2-normalized and written directly into the amplitudes (signed entries
are legal there), then 4 blocks of [CNOT(0->1); Rot(q0); Rot(q1)] run,
each block with its own 6 angles.  The two logits are <Z0> + bias0 and
<Z1> + bias1; argmax picks the action (0 = push left, 1 = push right,
ties break low).  Genome layout: 24 circuit angles, block-major, qubit,
then (alpha, beta, gamma), followed by the 2 bias entries.

TN-VQC (MPS front end + 8 qubits, 24 + mps.param_count parameters):
the 147-component observation is compressed by the MPS into 8 features
x_i, loaded variationally as H, Ry(arctan x_i), Rz(arctan x_i^2) per
qubit, followed by one variational block: the CNOT ring 0->1 ... 6->7,
7->0 and one Rot per qubit.  <Z> of qubits 0..5 are the action logits;
argmax picks the action (ties break low).  A softmax over the logits
would not change the argmax, so none is applied.  Genome layout: the 24
circuit angles (qubit-major, (alpha, beta, gamma)), then the MPS entries
as offsets from mps.identity_base.

`cartpole_policy` and `tnvqc_policy` read a (P, L) genome array once and
return policy(agents, observations), the action of each row's agent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from . import mps
from .qsim import apply_cnot_kernel, apply_single, rot_matrix, ry_matrix, rz_matrix

CARTPOLE_QUBITS = 2
CARTPOLE_BLOCKS = 4
CARTPOLE_GENOME_LENGTH = CARTPOLE_BLOCKS * CARTPOLE_QUBITS * 3 + 2  # 26

TNVQC_SITES = 147  # flattened 7x7x3 minigrid view
TNVQC_QUBITS = 8
TNVQC_MEASURED = 6
TNVQC_CIRCUIT_PARAMS = TNVQC_QUBITS * 3  # 24

_H_ON_ZERO = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)


def cartpole_unitaries(genomes: np.ndarray) -> np.ndarray:
    """(P, 4, 4) circuit unitaries of P cart-pole genomes, built together."""
    count = len(genomes)
    rots = rot_matrix(*np.moveaxis(genomes[:, :24].reshape(
        count, CARTPOLE_BLOCKS, CARTPOLE_QUBITS, 3), -1, 0))
    # columns of the identity, one (4, 4) block per genome along the last axis
    unitaries = np.repeat(np.eye(4, dtype=np.complex128)[:, :, None], count, axis=2)
    for block in range(CARTPOLE_BLOCKS):
        apply_cnot_kernel(unitaries, CARTPOLE_QUBITS, 0, 1)
        apply_single(unitaries, CARTPOLE_QUBITS, 0, rots[:, block, 0])
        apply_single(unitaries, CARTPOLE_QUBITS, 1, rots[:, block, 1])
    return np.ascontiguousarray(unitaries.transpose(2, 0, 1))


def _cartpole_logits(unitaries: np.ndarray, bias: np.ndarray,
                     obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two logits of each row: (n, 4, 4) unitaries, (n, 2) biases."""
    norm = np.sqrt(np.vecdot(obs, obs))
    zero = norm == 0.0
    if zero.any():  # no direction: encode the uniform state
        obs = np.where(zero[:, None], 0.5, obs)
        norm[zero] = 1.0
    amps = obs / norm[:, None]
    p0, p1, p2, p3 = (np.abs(np.matvec(unitaries, amps)) ** 2).T
    return p0 + p1 - p2 - p3 + bias[:, 0], p0 - p1 + p2 - p3 + bias[:, 1]


def _cartpole_actions(unitaries: np.ndarray, bias: np.ndarray,
                      agents: np.ndarray, obs: np.ndarray) -> np.ndarray:
    left, right = _cartpole_logits(unitaries[agents], bias[agents], obs)
    return (right > left).astype(np.intp)  # argmax: ties break low


def cartpole_policy(genomes: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """policy(agents, obs) for (P, 26) genomes."""
    genomes = _check_genomes(genomes, CARTPOLE_GENOME_LENGTH)
    return partial(_cartpole_actions, cartpole_unitaries(genomes), genomes[:, 24:])


def _check_genomes(genomes: np.ndarray, length: int) -> np.ndarray:
    genomes = np.asarray(genomes, dtype=np.float64)
    if genomes.ndim != 2 or genomes.shape[1] != length:
        raise ValueError(f"genomes must have shape (P, {length}), got {genomes.shape}")
    return genomes


# ---------------------------------------------------------------------------
# 8-qubit hybrid agent

@lru_cache(maxsize=1)
def _ring_gather_indices() -> np.ndarray:
    """Index map applying the CNOT ring: psi_out = psi_in[indices].

    The ring is a classical reversible map on basis states, so the whole
    layer is a fixed permutation, precomputed once.
    """
    n = TNVQC_QUBITS
    pairs = [(q, q + 1) for q in range(n - 1)] + [(n - 1, 0)]
    perm = np.empty(1 << n, dtype=np.intp)
    for basis in range(1 << n):
        bits = [(basis >> (n - 1 - q)) & 1 for q in range(n)]
        for control, target in pairs:
            bits[target] ^= bits[control]
        out = 0
        for bit in bits:
            out = (out << 1) | bit
        perm[basis] = out
    inverse = np.argsort(perm)
    inverse.flags.writeable = False
    return inverse


def _tnvqc_logits(features: np.ndarray, rot_mats: np.ndarray) -> np.ndarray:
    """<Z> of the 6 measured qubits per row: (n, 8) features, (n, 8, 2, 2) Rots."""
    count = len(features)
    # math.atan, not np.arctan: the two differ in the last bit on some inputs
    angles = np.array([math.atan(x) for x in features.ravel().tolist()])
    squares = np.array([math.atan(x) for x in (features * features).ravel().tolist()])
    local = np.matvec(rz_matrix(squares), np.matvec(ry_matrix(angles), _H_ON_ZERO))
    local = local.reshape(count, TNVQC_QUBITS, 2)
    psi = np.ones((count, 1), dtype=np.complex128)
    for qubit in range(TNVQC_QUBITS):
        psi = (psi[:, :, None] * local[:, qubit, None, :]).reshape(count, -1)
    # amplitudes along axis 0 and one column per row, as apply_single wants
    psi = np.ascontiguousarray(psi[:, _ring_gather_indices()].T)
    for qubit in range(TNVQC_QUBITS):
        apply_single(psi, TNVQC_QUBITS, qubit, rot_mats[:, qubit])
    probs = np.ascontiguousarray((np.abs(psi) ** 2).T)
    logits = np.empty((count, TNVQC_MEASURED))
    for qubit in range(TNVQC_MEASURED):
        shaped = probs.reshape((count, 1 << qubit, 2, -1))
        logits[:, qubit] = shaped[:, :, 0].sum(axis=(1, 2)) - shaped[:, :, 1].sum(axis=(1, 2))
    return logits


def _tnvqc_actions(rot_mats: np.ndarray, offsets: np.ndarray, bond_dim: int,
                   agents: np.ndarray, obs: np.ndarray) -> np.ndarray:
    features = mps.contract_rows(offsets, agents, obs, bond_dim, TNVQC_QUBITS)
    return np.argmax(_tnvqc_logits(features, rot_mats[agents]), axis=1)


def tnvqc_policy(genomes: np.ndarray,
                 bond_dim: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """policy(agents, obs) for (P, L) genomes."""
    length = TNVQC_CIRCUIT_PARAMS + mps.param_count(TNVQC_SITES, bond_dim, TNVQC_QUBITS)
    genomes = _check_genomes(genomes, length)
    circuit = genomes[:, :TNVQC_CIRCUIT_PARAMS].reshape(-1, TNVQC_QUBITS, 3)
    return partial(_tnvqc_actions, rot_matrix(*np.moveaxis(circuit, -1, 0)),
                   genomes[:, TNVQC_CIRCUIT_PARAMS:], bond_dim)


# ---------------------------------------------------------------------------
# architecture registry (picklable, so worker pools can rebuild policies)

@dataclass(frozen=True)
class AgentArchitecture:
    """A genome length and the policy over a (P, genome_length) array of genomes."""

    name: str
    genome_length: int
    policy: Callable[[np.ndarray], Callable[[np.ndarray, np.ndarray], np.ndarray]]


def cartpole_architecture() -> AgentArchitecture:
    return AgentArchitecture("cartpole", CARTPOLE_GENOME_LENGTH, cartpole_policy)


def tnvqc_architecture(bond_dim: int = 4) -> AgentArchitecture:
    length = TNVQC_CIRCUIT_PARAMS + mps.param_count(TNVQC_SITES, bond_dim, TNVQC_QUBITS)
    return AgentArchitecture(f"tnvqc-m{bond_dim}", length,
                             partial(tnvqc_policy, bond_dim=bond_dim))
