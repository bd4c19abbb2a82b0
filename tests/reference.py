"""The scalar reference: one agent plays one episode, one step at a time.

The library runs only the batched path, and the tests hold it to these forms
bit for bit.  The envs' scalar dynamics live here, not in the library: the
cart-pole's Euler step, and the grid's moves and cells, read one at a time
from the room's layout, so the model the library builds from arrays is
checked against a walk that shares none of its code.  The generation step
is here too, in the form that allocates a new population: the library
spawns in place, and must write the same bytes; and so is the generation
loop that scores the population and the elite trial as two batches: the
library fuses them, and must give the same runs.
This module imports the library; the library never imports it.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from qevo import envs
from qevo.evo import (ROLLING_WINDOW, TAG_ELITE, TAG_EVAL, TAG_INIT, TAG_MUTATE, EvoConfig,
                      GenerationSnapshot, GenerationStats, _window_stats, rank_indices)
from qevo.agents import (CARTPOLE_BLOCKS, CARTPOLE_GENOME_LENGTH, CARTPOLE_QUBITS,
                         TNVQC_CIRCUIT_PARAMS, TNVQC_MEASURED, TNVQC_QUBITS, TNVQC_SITES)
from qevo.envs import N_ACTIONS
from qevo.mps import LOCAL_DIM, _views, identity_base, param_count

# ---------------------------------------------------------------------------
# qsim: gate matrices, in-place gate kernels, the statevector API and
# amplitude encoding; the statevector oracle of both circuits
#
# Conventions, fixed once and relied on by every consumer:
#
# - Qubit 0 is the most significant bit of the amplitude index: for two
#   qubits the basis order is |00>, |01>, |10>, |11>.
# - Ry(t) = [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]].
# - Rz(t) = diag(exp(-it/2), exp(+it/2)).
# - Rot(a, b, g) = Rz(g) @ Ry(b) @ Rz(a), i.e. Rz(a) acts first.
#
# The kernels accept amplitude arrays of shape (2**n,) or
# (2**n, batch); trailing axes ride along untouched, so applying a circuit
# to the columns of np.eye(2**n) yields the circuit unitary.  The gate
# matrices take angle arrays too and return stacks of shape (..., 2, 2);
# `apply_single` applies such a stack along the last axis of the amplitudes,
# one matrix per column, which is how a whole population's circuits run at
# once.


# ---------------------------------------------------------------------------
# gate matrices

def ry_matrix(theta) -> np.ndarray:
    """Ry of an angle, or a (..., 2, 2) stack for an array of angles."""
    theta = np.asarray(theta, dtype=np.float64)
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    out = np.empty(theta.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def rz_matrix(theta) -> np.ndarray:
    """Rz of an angle, or a (..., 2, 2) stack for an array of angles."""
    p = np.exp(-0.5j * np.asarray(theta, dtype=np.float64))
    out = np.zeros(p.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = p
    out[..., 1, 1] = p.conjugate()
    return out


def rot_matrix(alpha, beta, gamma) -> np.ndarray:
    """General single-qubit rotation Rz(gamma) @ Ry(beta) @ Rz(alpha).

    Array arguments broadcast and give a (..., 2, 2) stack.
    """
    return rz_matrix(gamma) @ ry_matrix(beta) @ rz_matrix(alpha)


# ---------------------------------------------------------------------------
# array kernels (shape (2**n,) or (2**n, batch), mutated in place)

def _check_contiguous(amps: np.ndarray) -> None:
    if not amps.flags.c_contiguous:
        raise ValueError("amplitude array must be C-contiguous")


def _check_qubit(n_qubits: int, qubit: int) -> None:
    if not 0 <= qubit < n_qubits:
        raise ValueError(f"qubit index {qubit} out of range for {n_qubits} qubits")


def apply_single(amps: np.ndarray, n_qubits: int, qubit: int,
                 matrix: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit, in place.

    A stack of B matrices, shape (B, 2, 2), applies matrix b to the
    amplitudes amps[..., b], so the last axis of amps must have length B.
    """
    _check_contiguous(amps)
    _check_qubit(n_qubits, qubit)
    shaped = amps.reshape((1 << qubit, 2, -1) + matrix.shape[:-2])
    m00, m01, m10, m11 = (matrix[..., i, j] for i in (0, 1) for j in (0, 1))
    top = shaped[:, 0].copy()
    bot = shaped[:, 1]
    shaped[:, 0] = m00 * top + m01 * bot
    shaped[:, 1] = m10 * top + m11 * bot
    return amps


def apply_cnot_kernel(amps: np.ndarray, n_qubits: int, control: int,
                      target: int) -> np.ndarray:
    """Flip `target` where `control` is 1, in place."""
    _check_contiguous(amps)
    _check_qubit(n_qubits, control)
    _check_qubit(n_qubits, target)
    if control == target:
        raise ValueError("control and target must differ")
    lo, hi = (control, target) if control < target else (target, control)
    shaped = amps.reshape((1 << lo, 2, 1 << (hi - lo - 1), 2, -1))
    if control < target:
        tmp = shaped[:, 1, :, 0].copy()
        shaped[:, 1, :, 0] = shaped[:, 1, :, 1]
        shaped[:, 1, :, 1] = tmp
    else:
        tmp = shaped[:, 0, :, 1].copy()
        shaped[:, 0, :, 1] = shaped[:, 1, :, 1]
        shaped[:, 1, :, 1] = tmp
    return amps


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


# ---------------------------------------------------------------------------
# the statevector API and amplitude encoding

MAX_QUBITS = 20

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def h_matrix() -> np.ndarray:
    return np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]],
                    dtype=np.complex128)


@dataclass
class Statevector:
    """Pure state of an n-qubit register as 2**n complex amplitudes."""

    n_qubits: int
    amps: np.ndarray

    def copy(self) -> "Statevector":
        return Statevector(self.n_qubits, self.amps.copy())

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))


def new_zero_state(n_qubits: int) -> Statevector:
    """|0...0> on `n_qubits` qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector(n_qubits, amps)


def random_state(rng: np.random.Generator, n_qubits: int) -> Statevector:
    """A normalized state of standard normal real and imaginary parts."""
    amps = rng.standard_normal(1 << n_qubits) + 1j * rng.standard_normal(1 << n_qubits)
    amps /= np.linalg.norm(amps)
    return Statevector(n_qubits, amps)


def apply_h(state: Statevector, qubit: int) -> Statevector:
    apply_single(state.amps, state.n_qubits, qubit, h_matrix())
    return state


def apply_ry(state: Statevector, qubit: int, theta: float) -> Statevector:
    apply_single(state.amps, state.n_qubits, qubit, ry_matrix(theta))
    return state


def apply_rz(state: Statevector, qubit: int, theta: float) -> Statevector:
    apply_single(state.amps, state.n_qubits, qubit, rz_matrix(theta))
    return state


def apply_rot(state: Statevector, qubit: int, alpha: float, beta: float,
              gamma: float) -> Statevector:
    apply_single(state.amps, state.n_qubits, qubit, rot_matrix(alpha, beta, gamma))
    return state


def apply_cnot(state: Statevector, control: int, target: int) -> Statevector:
    apply_cnot_kernel(state.amps, state.n_qubits, control, target)
    return state


@dataclass(frozen=True)
class ControlledRotationSpec:
    """Ry(angle) on `target`, active only where every control holds its bit.

    controls: tuple of (qubit index, required bit in {0, 1}); may be empty.
    """

    controls: tuple[tuple[int, int], ...]
    target: int
    angle: float

    def __post_init__(self) -> None:
        qubits = [q for q, _ in self.controls]
        if len(set(qubits)) != len(qubits):
            raise ValueError("control qubits must be distinct")
        if self.target in qubits:
            raise ValueError("control and target must differ")
        for _, bit in self.controls:
            if bit not in (0, 1):
                raise ValueError(f"control bit must be 0 or 1, got {bit}")


def apply_controlled_ry(state: Statevector, spec: ControlledRotationSpec) -> Statevector:
    """Apply Ry(spec.angle) to the subspace selected by spec.controls."""
    n = state.n_qubits
    _check_qubit(n, spec.target)
    for q, _ in spec.controls:
        _check_qubit(n, q)
    idx = np.arange(1 << n)
    mask = np.ones(idx.shape, dtype=bool)
    for q, bit in spec.controls:
        mask &= ((idx >> (n - 1 - q)) & 1) == bit
    t_bit = 1 << (n - 1 - spec.target)
    rows0 = idx[mask & ((idx & t_bit) == 0)]
    rows1 = rows0 | t_bit
    m = ry_matrix(spec.angle)
    a = state.amps[rows0].copy()
    b = state.amps[rows1]
    state.amps[rows0] = m[0, 0] * a + m[0, 1] * b
    state.amps[rows1] = m[1, 0] * a + m[1, 1] * b
    return state


def expectation_z(state: Statevector, qubit: int) -> float:
    """<Z> of one qubit: +1 weight where its bit is 0, -1 where it is 1."""
    _check_qubit(state.n_qubits, qubit)
    probs = np.abs(state.amps) ** 2
    shaped = probs.reshape((1 << qubit, 2, -1))
    return float(shaped[:, 0].sum() - shaped[:, 1].sum())


def _check_normalized(values: np.ndarray, tol: float = 1e-9) -> None:
    norm = float(np.linalg.norm(values))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"input must be L2-normalized, got norm {norm!r}")


def beta_angle(alphas: np.ndarray, s: int, j: int) -> float:
    """Rotation angle of the disentangling cascade, level s, index j (1-based).

    beta_j^s = 2*arcsin( ||alphas[(2j-1)*2^(s-1) : (2j-1)*2^(s-1) + 2^(s-1)]||
                       / ||alphas[(j-1)*2^s   : (j-1)*2^s + 2^s]|| )

    Returns 0 when the denominator vanishes: the rotation then acts on a
    zero-amplitude subspace where any angle works, and 0 is cheapest.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    _check_normalized(alphas)
    if s < 1 or j < 1:
        raise ValueError("cascade level and rotation index are 1-based")
    half = 1 << (s - 1)
    block = 1 << s
    if (j - 1) * block + block > alphas.size:
        raise ValueError(f"(s={s}, j={j}) out of range for length {alphas.size}")
    num = float(np.linalg.norm(alphas[(2 * j - 1) * half:(2 * j - 1) * half + half]))
    den = float(np.linalg.norm(alphas[(j - 1) * block:(j - 1) * block + block]))
    if den == 0.0:
        return 0.0
    # rounding can push the ratio a hair above 1
    return 2.0 * math.asin(min(num / den, 1.0))


def cascade_rotations(values: np.ndarray) -> list[ControlledRotationSpec]:
    """Multi-controlled Ry cascade that disentangles `values` to |0...0>.

    Specs are listed in disentangling order; apply each with angle negated
    to map the encoded state to |0...0>.  Level s rotates qubit n-s,
    controlled on all more-significant qubits matching the binary pattern
    of j-1.
    """
    values = np.asarray(values, dtype=np.float64)
    n = _n_qubits_for(values.size)
    specs = []
    for s in range(1, n + 1):
        target = n - s
        for j in range(1, (1 << (n - s)) + 1):
            pattern = j - 1
            controls = tuple(
                (q, (pattern >> (n - s - 1 - q)) & 1) for q in range(n - s)
            )
            specs.append(ControlledRotationSpec(controls, target,
                                                beta_angle(values, s, j)))
    return specs


def _n_qubits_for(length: int) -> int:
    n = int(length).bit_length() - 1
    if length < 2 or (1 << n) != length:
        raise ValueError(f"input length must be a power of two >= 2, got {length}")
    return n


def amplitude_encode(values: np.ndarray) -> Statevector:
    """Prepare a state whose amplitudes equal the non-negative vector `values`.

    Inverts the disentangling cascade: each rotation is applied with its
    original (positive) angle, in reverse order, to |0...0>.
    """
    values = np.asarray(values, dtype=np.float64)
    _check_normalized(values)
    if np.any(values < 0.0):
        raise ValueError("cascade encoding requires non-negative amplitudes")
    state = new_zero_state(_n_qubits_for(values.size))
    for spec in reversed(cascade_rotations(values)):
        apply_controlled_ry(state, spec)
    return state


def assign_amplitudes(values: np.ndarray) -> Statevector:
    """Prepare a state by writing `values` directly into the amplitudes.

    Unlike the cascade this handles signed inputs exactly; it is the
    preparation mode used for signed normalized observations.
    """
    values = np.asarray(values, dtype=np.float64)
    _check_normalized(values)
    n = _n_qubits_for(values.size)
    return Statevector(n, values.astype(np.complex128))


# ---------------------------------------------------------------------------
# mps: the scalar sweep

def feature_map(v: float) -> tuple[float, float]:
    """Lift a scalar in [0, 1] to the local 2-vector (1 - v, v)."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"feature map input must lie in [0, 1], got {v!r}")
    return (1.0 - v, v)


class MpsFeatureExtractor:
    """Read-only views of the cores over one flat vector of entries.

    `flat` holds the cores in chain order, each row-major, so the interior
    cores on either side of the output core are one contiguous slice:

    - `first` (d, m) and `last` (m, d): the boundary cores;
    - `left` (k, m, d, m): the k = output_pos - 1 cores before the output;
    - `output` (m, out_dim, m);
    - `right` (k', m, d, m): the k' = n_sites - 1 - output_pos cores after it.

    A float64 `flat` is not copied: the views alias it, and are read-only
    so that the extractor cannot write to it.
    """

    def __init__(self, n_sites: int, bond_dim: int, out_dim: int,
                 flat: np.ndarray):
        flat = np.asarray(flat, dtype=np.float64)
        expected = param_count(n_sites, bond_dim, out_dim)
        if flat.shape != (expected,):
            raise ValueError(f"expected {expected} entries, got {flat.shape}")
        self.n_sites = n_sites
        self.bond_dim = bond_dim
        self.out_dim = out_dim
        self.flat = flat.view()
        self.flat.flags.writeable = False
        self.first, self.left, self.output, self.right, self.last = _views(
            self.flat, n_sites, bond_dim, out_dim)

    @property
    def output_pos(self) -> int:
        return (self.n_sites + 1) // 2


def contract(extractor: MpsFeatureExtractor, values: np.ndarray) -> np.ndarray:
    """Left-to-right sweep; peak intermediate is (out_dim, bond_dim).

    values: the n_sites input components, each in [0, 1].
    Returns the out_dim-vector with the output leg left open.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (extractor.n_sites,):
        raise ValueError(
            f"expected {extractor.n_sites} input components, got {values.shape}")
    if np.any(values < 0.0) or np.any(values > 1.0):
        raise ValueError("input components must lie in [0, 1]")

    phi = np.empty((extractor.n_sites, LOCAL_DIM))
    phi[:, 0] = 1.0 - values
    phi[:, 1] = values

    pos = extractor.output_pos
    vec = np.einsum("d,db->b", phi[0], extractor.first)  # (m,)
    for mat in np.einsum("kd,kadb->kab", phi[1:pos], extractor.left):
        vec = np.einsum("a,ab->b", vec, mat)
    carry = np.einsum("a,aob->ob", vec, extractor.output)  # (out_dim, m)
    for mat in np.einsum("kd,kadb->kab", phi[pos:extractor.n_sites - 1],
                         extractor.right):
        carry = np.einsum("oa,ab->ob", carry, mat)
    out = np.einsum("oa,a->o", carry, np.einsum("ad,d->a", extractor.last, phi[-1]))
    assert np.all(np.isfinite(out)), "non-finite MPS contraction intermediate"
    return out


def exhaustive_contract(extractor: MpsFeatureExtractor, values: np.ndarray) -> np.ndarray:
    """Sum over every physical index tuple; exponential, small cases only.

    Cores before the output core carry input sites equal to their chain
    position; cores after it carry position - 1.
    """
    n = extractor.n_sites
    pos = extractor.output_pos
    cores = [extractor.first, *extractor.left, extractor.output,
             *extractor.right, extractor.last]
    out = np.zeros(extractor.out_dim)
    phis = [feature_map(v) for v in values]
    for assignment in itertools.product(range(LOCAL_DIM), repeat=n):
        weight = 1.0
        for site, idx in enumerate(assignment):
            weight *= phis[site][idx]
        left = cores[0][assignment[0]]  # (m,)
        for core_index in range(1, pos):
            left = left @ cores[core_index][:, assignment[core_index], :]
        right = cores[-1][:, assignment[-1]]  # (m,)
        for core_index in range(len(cores) - 2, pos, -1):
            right = cores[core_index][:, assignment[core_index - 1], :] @ right
        out += weight * np.einsum("a,aob,b->o", left, cores[pos], right)
    return out


_BLOCK_ENTRIES = 1 << 16  # core entries gathered per step of contract_rows


def contract_rows(offsets: np.ndarray, rows: np.ndarray, values: np.ndarray,
                  bond_dim: int, out_dim: int) -> np.ndarray:
    """Left-to-right sweeps of many (cores, input) pairs at once.

    Pair i contracts the chain with entries identity_base +
    offsets[rows[i]] against the input values[i] (n_sites components, each
    in [0, 1]; not checked here).  Returns (n, out_dim).  Core entries are
    gathered a block of sites at a time, about _BLOCK_ENTRIES floats, so no
    pair's full set of cores is ever copied.  It is the oracle of
    `mps.cell_tables` and `mps.contract_states`, on float views.  Like
    `contract`, whose bits it must equal, it contracts through np.einsum,
    not BLAS, since some OpenBLAS kernels round a dot product by its
    operands' alignment.
    """
    count, n_sites = values.shape
    m = bond_dim
    pos = (n_sites + 1) // 2
    site_size = m * LOCAL_DIM * m
    # (base, offsets) views of each core: first, left, output, right, last
    cores = list(zip(_views(identity_base(n_sites, m, out_dim), n_sites, m, out_dim),
                     _views(offsets, n_sites, m, out_dim)))

    def entries(core: int, sites: slice = slice(None)) -> np.ndarray:
        base, offset = cores[core]
        return base[sites] + offset[rows, sites]

    def site_matrices(stack: int, first_site: int):
        """(count, m, m) per site of a stack of interior cores: phi(v)
        contracted with the physical leg."""
        per_block = max(1, _BLOCK_ENTRIES // (count * site_size))
        for lo in range(0, len(cores[stack][0]), per_block):
            block = entries(stack, slice(lo, lo + per_block))
            start = first_site + lo
            v = values[:, start:start + block.shape[1], None, None]
            mats = (1.0 - v) * block[:, :, :, 0] + v * block[:, :, :, 1]
            yield from np.ascontiguousarray(mats.transpose(1, 0, 2, 3))

    first_phi = np.stack([1.0 - values[:, 0], values[:, 0]], axis=1)
    vec = np.einsum("nd,ndb->nb", first_phi, entries(0))
    for mat in site_matrices(1, 1):
        vec = np.einsum("na,nab->nb", vec, mat)
    carry = np.einsum("na,naob->nob", vec, entries(2))
    for mat in site_matrices(3, pos):
        carry = np.einsum("noa,nab->nob", carry, mat)
    last_phi = np.stack([1.0 - values[:, -1], values[:, -1]], axis=1)
    return np.einsum("noa,na->no", carry, np.einsum("nad,nd->na", entries(4), last_phi))


# ---------------------------------------------------------------------------
# agents

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
        self._unitary = cartpole_unitaries(genome[None])[0]

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


_H_ON_ZERO = np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)


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
    """<Z> of the 6 measured qubits per row: (n, 8) features, (n, 8, 2, 2) Rots.

    The batched statevector readout: one 256-amplitude state per row.
    """
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


class TnVqcAgent:
    def __init__(self, genome: np.ndarray, bond_dim: int):
        genome = np.asarray(genome, dtype=np.float64)
        base = identity_base(TNVQC_SITES, bond_dim, TNVQC_QUBITS)
        expected = TNVQC_CIRCUIT_PARAMS + base.size
        if genome.shape != (expected,):
            raise ValueError(f"genome must have length {expected}, got {genome.shape}")
        genome = genome.view()
        genome.flags.writeable = False
        self.vqc_params = genome[:TNVQC_CIRCUIT_PARAMS].reshape(TNVQC_QUBITS, 3)
        self.extractor = MpsFeatureExtractor(
            TNVQC_SITES, bond_dim, TNVQC_QUBITS, base + genome[TNVQC_CIRCUIT_PARAMS:])
        self._rot_mats = rot_matrix(*self.vqc_params.T)

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
        # same halves-difference as expectation_z, so symmetric states
        # cancel exactly and ties stay ties
        logits = np.empty(TNVQC_MEASURED)
        for qubit in range(TNVQC_MEASURED):
            shaped = probs.reshape((1 << qubit, 2, -1))
            logits[qubit] = shaped[:, 0].sum() - shaped[:, 1].sum()
        return logits

    def act(self, obs: np.ndarray) -> int:
        return int(np.argmax(self.feature_logits(contract(self.extractor, obs))))


def build_agent(env, genome: np.ndarray):
    """The reference agent of one genome for an env's policy."""
    if isinstance(env, envs.CartPoleEnv):
        return CartPoleAgent(genome)
    return TnVqcAgent(genome, env.bond_dim)


# ---------------------------------------------------------------------------
# envs with episode state

@dataclass
class EnvTransition:
    observation: np.ndarray
    reward: float
    done: bool


class CartPoleEnv(envs.CartPoleEnv):
    """`envs.CartPoleEnv` holding one episode: `reset` draws the state `step` advances."""

    _state: np.ndarray | None = None
    _done = True
    steps = 0

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        """An episode's start state: all four components uniform in [-0.05, 0.05]."""
        self._state = rng.uniform(-self.START_LIMIT, self.START_LIMIT, size=4)
        self._done = False
        self.steps = 0
        return self._state.copy()

    def step(self, action: int) -> EnvTransition:
        if self._done or self._state is None:
            raise RuntimeError("episode is finished; call reset() first")
        if action not in (0, 1):
            raise ValueError(f"action must be 0 (left) or 1 (right), got {action}")

        x, x_dot, theta, theta_dot = self._state
        force = self.FORCE_MAG if action == 1 else -self.FORCE_MAG
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        total_mass = self.CART_MASS + self.POLE_MASS
        pole_mass_length = self.POLE_MASS * self.HALF_POLE_LENGTH
        temp = (force + pole_mass_length * theta_dot ** 2 * sin_t) / total_mass
        theta_acc = (self.GRAVITY * sin_t - cos_t * temp) / (
            self.HALF_POLE_LENGTH * (4.0 / 3.0 - self.POLE_MASS * cos_t ** 2 / total_mass))
        x_acc = temp - pole_mass_length * theta_acc * cos_t / total_mass
        # semi-implicit Euler: positions advance with the old velocities
        x, theta = x + self.TAU * x_dot, theta + self.TAU * theta_dot
        x_dot, theta_dot = x_dot + self.TAU * x_acc, theta_dot + self.TAU * theta_acc

        self._state = np.array([x, x_dot, theta, theta_dot])
        self.steps += 1
        self._done = (abs(x) > self.X_LIMIT or abs(theta) > self.THETA_LIMIT
                      or self.steps >= self.MAX_STEPS)
        return EnvTransition(self._state.copy(), 1.0, self._done)


class MiniGridEnv(envs.MiniGridEnv):
    """`envs.MiniGridEnv` holding one episode: the agent's pose and step count.

    It moves the agent and reads each cell from the room's layout, cell by
    cell, without the library's model.
    """

    def __init__(self, grid_size: int, bond_dim: int = envs.BOND_DIM):
        super().__init__(grid_size, bond_dim)
        self.goal_pos = (grid_size - 2, grid_size - 2)
        self.agent_pos = (1, 1)
        self.agent_dir = 0
        self.steps = 0
        self._done = True
        self._obs_cache: dict[tuple[tuple[int, int], int], np.ndarray] = {}

    def reset(self, rng: np.random.Generator | None = None) -> np.ndarray:
        """Deterministic layout: agent at (1, 1) facing east; rng unused."""
        self.agent_pos = (1, 1)
        self.agent_dir = 0
        self.steps = 0
        self._done = False
        return self._observation()

    def step(self, action: int) -> EnvTransition:
        if self._done:
            raise RuntimeError("episode is finished; call reset() first")
        if not 0 <= action < N_ACTIONS:
            raise ValueError(f"action must be in [0, {N_ACTIONS - 1}], got {action}")

        self.steps += 1
        reward = 0.0
        self.agent_pos, self.agent_dir = self._move(self.agent_pos, self.agent_dir, action)

        if self.agent_pos == self.goal_pos:
            reward = 1.0 - 0.9 * self.steps / self.max_steps
            self._done = True
        elif self.steps >= self.max_steps:
            self._done = True
        return EnvTransition(self._observation(), reward, self._done)

    def _move(self, pos: tuple[int, int], direction: int,
              action: int) -> tuple[tuple[int, int], int]:
        if action == envs.ACTION_LEFT:
            direction = (direction - 1) % 4
        elif action == envs.ACTION_RIGHT:
            direction = (direction + 1) % 4
        elif action == envs.ACTION_FORWARD:
            fx, fy = envs.DIR_VECTORS[direction]
            target = (pos[0] + fx, pos[1] + fy)
            if self._cell_object(*target) != envs.OBJECT_WALL:
                pos = target
        return pos, direction

    def _cell_object(self, x: int, y: int) -> int:
        n = self.grid_size
        if not (0 <= x < n and 0 <= y < n):
            return envs.OBJECT_UNSEEN
        if x == 0 or y == 0 or x == n - 1 or y == n - 1:
            return envs.OBJECT_WALL
        if (x, y) == self.goal_pos:
            return envs.OBJECT_GOAL
        return envs.OBJECT_EMPTY

    def _observation(self) -> np.ndarray:
        key = (self.agent_pos, self.agent_dir)
        cached = self._obs_cache.get(key)
        if cached is None:
            cached = self._encode_view(*key)
            cached.flags.writeable = False
            self._obs_cache[key] = cached
        return cached

    def _encode_view(self, pos: tuple[int, int], direction: int) -> np.ndarray:
        """Egocentric view, 3 scaled channels per cell, straight from the grid.

        The agent sits at view row 6, column 3.  View cell (row, col) maps
        to the world cell pos + forward * (6 - row) + right * (col - 3), so
        row 0 is farthest ahead and columns grow to the agent's right.
        """
        fx, fy = envs.DIR_VECTORS[direction]
        rx, ry = -fy, fx  # right-hand vector
        px, py = pos
        view = np.zeros((envs.VIEW_SIZE, envs.VIEW_SIZE, 3))
        for row in range(envs.VIEW_SIZE):
            ahead = envs.VIEW_SIZE - 1 - row
            for col in range(envs.VIEW_SIZE):
                side = col - 3
                obj = self._cell_object(px + fx * ahead + rx * side,
                                        py + fy * ahead + ry * side)
                if obj == envs.OBJECT_WALL:
                    color = envs.COLOR_GREY
                elif obj == envs.OBJECT_GOAL:
                    color = envs.COLOR_GREEN
                else:
                    color = envs.COLOR_NONE
                view[row, col, 0] = obj / envs.OBJECT_SCALE
                view[row, col, 1] = color / envs.COLOR_SCALE  # channel 2 (state): 0 in an empty room
        return view.reshape(-1)


def grid_states(n: int) -> list[tuple[tuple[int, int], int]]:
    """The (pos, dir) pose of each state s of an n x n grid's model: the inner
    cells row by row, four headings per cell."""
    inner = range(1, n - 1)
    return [((x, y), d) for y in inner for x in inner for d in range(4)]


def grid_views(model: envs.GridModel) -> np.ndarray:
    """(S, 147): the flattened float view of every state, spelled from its word."""
    return model.alphabet[model.words].reshape(len(model.words), -1)


def make_env(name: str, bond_dim: int = envs.BOND_DIM):
    """The reference env of a library env name."""
    if name == "cartpole":
        return CartPoleEnv()
    return MiniGridEnv(int(name.removeprefix("minigrid-")), bond_dim)


# ---------------------------------------------------------------------------
# episodes and fitness

def stream_uniforms(entropies: Sequence[Sequence[int]], low: float, high: float,
                    counts: Sequence[int]) -> np.ndarray:
    """One Generator per row, each drawing its counts[i] uniforms in turn.

    The reference for `evo.stream_uniforms(entropies, low, high, counts)`,
    which training hands the envs' `rollouts` as their `draw`.
    """
    return np.concatenate(
        [np.random.default_rng(np.random.SeedSequence(list(entropy))).uniform(low, high, count)
         for entropy, count in zip(entropies, counts)] + [np.empty(0)])


def play_episode(agent, env, rng: np.random.Generator, memo: dict) -> float:
    """One rollout; returns the undiscounted sum of rewards.

    `memo` caches observation -> action per agent: the policy is a pure
    function of the observation, so repeat states skip the circuit.
    """
    obs = env.reset(rng)
    total = 0.0
    while True:
        key = obs.tobytes()
        action = memo.get(key)
        if action is None:
            action = agent.act(obs)
            memo[key] = action
        transition = env.step(action)
        total += transition.reward
        if transition.done:
            return total
        obs = transition.observation


def evaluate_fitness(genome: np.ndarray, env, repeats: int,
                     seed_entropy: Sequence[int]) -> float:
    """Mean score of `repeats` episodes, all seeded from `seed_entropy`.

    The scalar reference for `evo.batch_fitness`.
    """
    rng = np.random.default_rng(np.random.SeedSequence(list(seed_entropy)))
    agent = build_agent(env, genome)
    memo: dict = {}
    total = 0.0
    for _ in range(repeats):
        total += play_episode(agent, env, rng, memo)
    return total / repeats


# ---------------------------------------------------------------------------
# the generation step, allocating

def init_population(config: EvoConfig, genome_length: int) -> np.ndarray:
    """N genomes, entries Normal(0, 1) * init_scale, one stream per agent."""
    rows = [
        np.random.default_rng(
            np.random.SeedSequence([config.master_seed, TAG_INIT, 0, i])
        ).standard_normal(genome_length)
        for i in range(config.population)
    ]
    return config.init_scale * np.stack(rows)


def spawn_children(parents: np.ndarray, elite: np.ndarray, config: EvoConfig,
                   generation: int) -> np.ndarray:
    """Next population from ranked parents: N-1 mutants plus the elite last.

    The reference for `evo.spawn_children`, which writes the mutants (rows
    0..N-2), and for the elite that `evo._evolve` then places in row N-1.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([config.master_seed, TAG_MUTATE, generation]))
    n_children = config.population - 1
    picks = rng.integers(0, len(parents), size=n_children)
    children = parents[picks] + config.mutation_power * rng.standard_normal(
        (n_children, parents.shape[1]))
    return np.concatenate([children, elite[None, :]], axis=0)


# ---------------------------------------------------------------------------
# the generation loop, two batches per generation

def evolve(config: EvoConfig, fitness: Callable[[np.ndarray, list[int], int], float],
           genome_length: int,
           on_generation: Callable[[GenerationStats, GenerationSnapshot], None] | None = None,
           resume: GenerationSnapshot | None = None) -> list[GenerationStats]:
    """The oracle of `evo._evolve`; fitness(genome, entropy, repeats) scores one row.

    Each generation scores its population on the TAG_EVAL streams, then
    its ranked parents on the TAG_ELITE streams, and spawns the next
    population after `on_generation`, even after the last generation.
    """
    def scores(genomes, generation, tag, repeats):
        return np.array([fitness(genome, [config.master_seed, tag, generation, i], repeats)
                         for i, genome in enumerate(genomes)])

    if resume is None:
        population = init_population(config, genome_length)
        start = 0
        window: deque = deque(maxlen=ROLLING_WINDOW)
        best_genome: np.ndarray | None = None
        best_score = -math.inf
    else:
        population = spawn_children(resume.parents, resume.elite, config, resume.generation)
        start = resume.generation + 1
        window = deque(resume.window, maxlen=ROLLING_WINDOW)
        best_genome = resume.best_genome
        best_score = resume.best_score

    history: list[GenerationStats] = []
    for generation in range(start, config.generations):
        fitness_ = scores(population, generation, TAG_EVAL, config.repeats_all)
        order = rank_indices(fitness_)
        parents = population[order[:config.truncation]]
        elite_scores = scores(parents, generation, TAG_ELITE, config.repeats_parents)
        elite_index = int(np.argmax(elite_scores))
        elite = parents[elite_index].copy()
        elite_score = float(elite_scores[elite_index])

        window.append((fitness_.size, float(fitness_.sum()),
                       float(np.square(fitness_).sum())))
        rolling_mean, rolling_std = _window_stats(window)
        top_k = min(5, fitness_.size)
        stats = GenerationStats(
            generation=generation,
            top5_avg=float(fitness_[order[:top_k]].mean()),
            pop_mean=float(fitness_.mean()),
            pop_std=float(fitness_.std()),
            elite_score=elite_score,
            rolling_mean_100=rolling_mean,
            rolling_std_100=rolling_std,
        )
        history.append(stats)
        if elite_score > best_score:
            best_genome = elite.copy()
            best_score = elite_score
        if on_generation is not None:
            on_generation(stats, GenerationSnapshot(
                generation, parents, elite, tuple(window), best_genome, best_score))
        population = spawn_children(parents, elite, config, generation)
    return history
