"""Gate matrices and in-place gate kernels for few-qubit statevectors.

Conventions, fixed once and relied on by every consumer:

- Qubit 0 is the most significant bit of the amplitude index: for two
  qubits the basis order is |00>, |01>, |10>, |11>.
- Ry(t) = [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]].
- Rz(t) = diag(exp(-it/2), exp(+it/2)).
- Rot(a, b, g) = Rz(g) @ Ry(b) @ Rz(a), i.e. Rz(a) acts first.

The kernels accept amplitude arrays of shape (2**n,) or
(2**n, batch); trailing axes ride along untouched, so applying a circuit
to the columns of np.eye(2**n) yields the circuit unitary.  The gate
matrices take angle arrays too and return stacks of shape (..., 2, 2);
`apply_single` applies such a stack along the last axis of the amplitudes,
one matrix per column, which is how a whole population's circuits run at
once.
"""

from __future__ import annotations

import numpy as np


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
