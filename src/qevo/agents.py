"""The two circuit policies and their flat-genome interface.

CartPoleAgent (2 qubits, 26 parameters): the 4-component observation is
L2-normalized and written directly into the amplitudes (signed entries
are legal there), then 4 blocks of [CNOT(0->1); Rot(q0); Rot(q1)] run,
each block with its own 6 angles.  The two logits are <Z0> + bias0 and
<Z1> + bias1; argmax picks the action (0 = push left, 1 = push right,
ties break low).  Genome layout: 24 circuit angles, block-major, qubit,
then (alpha, beta, gamma), followed by the 2 bias entries.

TnVqcAgent (MPS front end + 8 qubits, 24 + mps.param_count parameters):
the 147-component observation is compressed by the MPS into 8 features
x_i, loaded variationally as H, Ry(arctan x_i), Rz(arctan x_i^2) per
qubit, followed by one variational block: the CNOT ring 0->1 ... 6->7,
7->0 and one Rot per qubit.  <Z> of qubits 0..5 are the action logits;
argmax picks the action (ties break low).  A softmax over the logits
would not change the argmax, so none is applied.  Genome layout: the 24
circuit angles (qubit-major, (alpha, beta, gamma)), then the MPS entries
as offsets from mps.identity_base.

An agent is built straight from its genome, whose length it checks once.
Its circuit parameters are read-only views of the genome; the MPS entries
are the one derived array (identity base + offsets), which
mps.MpsFeatureExtractor views as cores.  Both forwards are pure functions
of (genome, observation).  Construction precomputes everything reusable: the
4x4 circuit unitary for cart-pole, the per-qubit Rot matrices and the
fixed CNOT-ring permutation for the 8-qubit agent.
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


class CartPoleAgent:
    def __init__(self, genome: np.ndarray):
        genome = np.asarray(genome, dtype=np.float64)
        if genome.shape != (CARTPOLE_GENOME_LENGTH,):
            raise ValueError(f"cart-pole genome must have length "
                             f"{CARTPOLE_GENOME_LENGTH}, got {genome.shape}")
        genome = genome.view()
        genome.flags.writeable = False
        self.block_params = genome[:24].reshape(CARTPOLE_BLOCKS, CARTPOLE_QUBITS, 3)
        self.bias = genome[24:]
        unitary = np.eye(4, dtype=np.complex128)
        for block in self.block_params:
            apply_cnot_kernel(unitary, CARTPOLE_QUBITS, 0, 1)
            apply_single(unitary, CARTPOLE_QUBITS, 0, rot_matrix(*block[0]))
            apply_single(unitary, CARTPOLE_QUBITS, 1, rot_matrix(*block[1]))
        self._unitary = unitary

    def logits(self, obs: np.ndarray) -> np.ndarray:
        obs = np.asarray(obs, dtype=np.float64)
        if obs.shape != (4,):
            raise ValueError(f"observation must have shape (4,), got {obs.shape}")
        if not np.all(np.isfinite(obs)):
            raise ValueError("observation must be finite")
        norm = float(np.linalg.norm(obs))
        # an all-zero observation has no direction; encode the uniform state
        amps = obs / norm if norm > 0.0 else np.full(4, 0.5)
        psi = self._unitary @ amps
        p = np.abs(psi) ** 2
        z0 = p[0] + p[1] - p[2] - p[3]
        z1 = p[0] - p[1] + p[2] - p[3]
        return np.array([z0 + self.bias[0], z1 + self.bias[1]])

    def act(self, obs: np.ndarray) -> int:
        return int(np.argmax(self.logits(obs)))


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


class TnVqcAgent:
    def __init__(self, genome: np.ndarray, bond_dim: int):
        genome = np.asarray(genome, dtype=np.float64)
        base = mps.identity_base(TNVQC_SITES, bond_dim, TNVQC_QUBITS)
        expected = TNVQC_CIRCUIT_PARAMS + base.size
        if genome.shape != (expected,):
            raise ValueError(f"genome must have length {expected}, got {genome.shape}")
        genome = genome.view()
        genome.flags.writeable = False
        self.vqc_params = genome[:TNVQC_CIRCUIT_PARAMS].reshape(TNVQC_QUBITS, 3)
        self.extractor = mps.MpsFeatureExtractor(
            TNVQC_SITES, bond_dim, TNVQC_QUBITS, base + genome[TNVQC_CIRCUIT_PARAMS:])
        self._rot_mats = [rot_matrix(*angles) for angles in self.vqc_params]

    def feature_logits(self, features: np.ndarray) -> np.ndarray:
        """<Z> of the 6 measured qubits for the given 8 MPS features."""
        features = np.asarray(features, dtype=np.float64)
        if features.shape != (TNVQC_QUBITS,):
            raise ValueError(f"expected {TNVQC_QUBITS} features, got {features.shape}")
        psi = np.ones(1, dtype=np.complex128)
        for x in features:
            # encoding layer is a product state: H, Ry(arctan x), Rz(arctan x^2)
            local = rz_matrix(math.atan(x * x)) @ (
                ry_matrix(math.atan(x)) @ _H_ON_ZERO)
            psi = np.kron(psi, local)
        psi = np.ascontiguousarray(psi[_ring_gather_indices()])
        for qubit, mat in enumerate(self._rot_mats):
            apply_single(psi, TNVQC_QUBITS, qubit, mat)
        probs = np.abs(psi) ** 2
        # same halves-difference as qsim.expectation_z, so symmetric states
        # cancel exactly and ties stay ties
        logits = np.empty(TNVQC_MEASURED)
        for qubit in range(TNVQC_MEASURED):
            shaped = probs.reshape((1 << qubit, 2, -1))
            logits[qubit] = shaped[:, 0].sum() - shaped[:, 1].sum()
        return logits

    def act(self, obs: np.ndarray) -> int:
        return int(np.argmax(self.feature_logits(mps.contract(self.extractor, obs))))


# ---------------------------------------------------------------------------
# architecture registry (picklable, so worker pools can rebuild agents)

@dataclass(frozen=True)
class AgentArchitecture:
    """A genome length and the agent class that reads genomes of it."""

    name: str
    genome_length: int
    agent: Callable[[np.ndarray], object]

    def build(self, genome: np.ndarray):
        return self.agent(genome)


def cartpole_architecture() -> AgentArchitecture:
    return AgentArchitecture("cartpole", CARTPOLE_GENOME_LENGTH, CartPoleAgent)


def tnvqc_architecture(bond_dim: int = 4) -> AgentArchitecture:
    length = TNVQC_CIRCUIT_PARAMS + mps.param_count(TNVQC_SITES, bond_dim, TNVQC_QUBITS)
    return AgentArchitecture(f"tnvqc-m{bond_dim}", length,
                             partial(TnVqcAgent, bond_dim=bond_dim))
