"""Dense statevector simulation for few-qubit circuits.

Conventions, fixed once and relied on by every consumer:

- Qubit 0 is the most significant bit of the amplitude index: for two
  qubits the basis order is |00>, |01>, |10>, |11>.
- Ry(t) = [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]].
- Rz(t) = diag(exp(-it/2), exp(+it/2)).
- Rot(a, b, g) = Rz(g) @ Ry(b) @ Rz(a), i.e. Rz(a) acts first.

The low-level kernels accept amplitude arrays of shape (2**n,) or
(2**n, batch); trailing axes ride along untouched, so applying a circuit
to the columns of np.eye(2**n) yields the circuit unitary.  The gate
matrices take angle arrays too and return stacks of shape (..., 2, 2);
`apply_single` applies such a stack along the last axis of the amplitudes,
one matrix per column, which is how a whole population's circuits run at
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 20

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# gate matrices

def h_matrix() -> np.ndarray:
    return np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]],
                    dtype=np.complex128)


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


# ---------------------------------------------------------------------------
# statevector API

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


# ---------------------------------------------------------------------------
# amplitude encoding

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
