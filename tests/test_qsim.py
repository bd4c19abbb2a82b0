"""Simulator unit tests: gates, expectations, amplitude encoding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref


# ---------------------------------------------------------------------------
# zero state

def test_zero_state_one_qubit():
    assert np.array_equal(ref.new_zero_state(1).amps, [1, 0])


def test_zero_state_two_qubits():
    assert np.array_equal(ref.new_zero_state(2).amps, [1, 0, 0, 0])


def test_zero_state_shape_and_norm():
    state = ref.new_zero_state(3)
    assert state.amps.shape == (8,)
    assert state.norm() == 1.0


@pytest.mark.parametrize("bad", [0, -1, 21])
def test_zero_state_rejects_bad_sizes(bad):
    with pytest.raises(ValueError, match="n_qubits"):
        ref.new_zero_state(bad)


# ---------------------------------------------------------------------------
# single gates

def test_h_on_zero_gives_uniform():
    state = ref.apply_h(ref.new_zero_state(1), 0)
    np.testing.assert_allclose(state.amps, [1 / math.sqrt(2)] * 2, atol=1e-15)


def test_rz_changes_no_magnitudes():
    state = ref.apply_rz(ref.new_zero_state(3), 1, 0.7)
    np.testing.assert_allclose(np.abs(state.amps), ref.new_zero_state(3).amps.real,
                               atol=1e-15)


def test_ry_pi_flips_zero_to_one():
    state = ref.apply_ry(ref.new_zero_state(1), 0, math.pi)
    np.testing.assert_allclose(state.amps, [0, 1], atol=1e-15)


def test_rot_is_rz_ry_rz_in_order():
    # Rz(a) first, then Ry(b), then Rz(g)
    a, b, g = 0.3, -1.1, 2.0
    want = ref.rz_matrix(g) @ ref.ry_matrix(b) @ ref.rz_matrix(a)
    np.testing.assert_allclose(ref.rot_matrix(a, b, g), want, atol=1e-15)
    rng = np.random.default_rng(0)
    state = ref.random_state(rng, 2)
    by_rot = ref.apply_rot(state.copy(), 1, a, b, g)
    by_parts = ref.apply_rz(ref.apply_ry(ref.apply_rz(state.copy(), 1, a), 1, b), 1, g)
    np.testing.assert_allclose(by_rot.amps, by_parts.amps, atol=1e-14)


def _reference_rot(alpha, beta, gamma):
    """Rz(g) Ry(b) Rz(a) from math.cos/math.sin and one complex exp each."""
    def ry(t):
        c, s = math.cos(t / 2.0), math.sin(t / 2.0)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)

    def rz(t):
        p = np.exp(-0.5j * t)
        return np.array([[p, 0.0], [0.0, p.conjugate()]], dtype=np.complex128)

    return rz(gamma) @ ry(beta) @ rz(alpha)


EDGE_ANGLES = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 1e-300, 5e-324,
               1e6, -1e9, 1e15, 1e22, -1e300]


def test_stacked_gates_match_scalar_matrices_bitwise():
    rng = np.random.default_rng(11)
    angles = rng.uniform(-50.0, 50.0, (20_000, 3))
    edges = np.array(EDGE_ANGLES)
    grid = np.stack(np.meshgrid(edges, edges, edges, indexing="ij"), -1).reshape(-1, 3)
    angles = np.concatenate([grid, angles])
    stacked = ref.rot_matrix(angles[:, 0], angles[:, 1], angles[:, 2])
    assert stacked.shape == (len(angles), 2, 2)
    reference = np.array([_reference_rot(*row) for row in angles.tolist()])
    assert np.array_equal(stacked.view(np.float64), reference.view(np.float64))
    # an angle array of any shape gives that shape of matrices
    assert ref.ry_matrix(np.zeros((3, 4))).shape == (3, 4, 2, 2)
    assert ref.rz_matrix(0.5).shape == (2, 2)


def test_stacked_apply_single_matches_column_by_column():
    rng = np.random.default_rng(12)
    n_qubits, batch = 3, 7
    amps = rng.standard_normal((1 << n_qubits, batch)) \
        + 1j * rng.standard_normal((1 << n_qubits, batch))
    mats = ref.rot_matrix(*rng.uniform(-3, 3, (3, batch)))
    for qubit in range(n_qubits):
        stacked = ref.apply_single(amps.copy(), n_qubits, qubit, mats)
        for col in range(batch):
            single = ref.apply_single(amps[:, col].copy(), n_qubits, qubit, mats[col])
            assert np.array_equal(stacked[:, col], single)


def test_cnot_truth_table():
    # qubit 0 is the most significant bit: CNOT(0 -> 1) swaps |10> and |11>
    for source, target in [(0, 0), (1, 1), (2, 3), (3, 2)]:
        amps = np.zeros(4, dtype=np.complex128)
        amps[source] = 1.0
        state = ref.apply_cnot(ref.Statevector(2, amps), 0, 1)
        assert state.amps[target] == 1.0


def test_cnot_reversed_control():
    # CNOT(1 -> 0) swaps |01> and |11>
    for source, target in [(0, 0), (1, 3), (2, 2), (3, 1)]:
        amps = np.zeros(4, dtype=np.complex128)
        amps[source] = 1.0
        state = ref.apply_cnot(ref.Statevector(2, amps), 1, 0)
        assert state.amps[target] == 1.0


def test_cnot_rejects_equal_control_target():
    with pytest.raises(ValueError, match="control and target"):
        ref.apply_cnot(ref.new_zero_state(2), 1, 1)


def test_gate_rejects_out_of_range_qubit():
    with pytest.raises(ValueError, match="out of range"):
        ref.apply_h(ref.new_zero_state(2), 2)


# ---------------------------------------------------------------------------
# controlled rotations

def test_controlled_ry_matches_matrix_oracle():
    # controls=[(0,1)], target=1, angle pi on |10>: q0 stays 1, q1 flips
    amps = np.zeros(4, dtype=np.complex128)
    amps[2] = 1.0
    spec = ref.ControlledRotationSpec(((0, 1),), 1, math.pi)
    state = ref.apply_controlled_ry(ref.Statevector(2, amps), spec)
    oracle = np.zeros((4, 4), dtype=np.complex128)
    oracle[:2, :2] = np.eye(2)
    oracle[2:, 2:] = ref.ry_matrix(math.pi)
    np.testing.assert_allclose(state.amps, oracle @ np.eye(4)[2], atol=1e-15)


def test_controlled_ry_inactive_when_control_unmet():
    amps = np.zeros(4, dtype=np.complex128)
    amps[2] = 1.0  # |10>
    spec = ref.ControlledRotationSpec(((0, 0),), 1, 1.234)
    state = ref.apply_controlled_ry(ref.Statevector(2, amps), spec)
    np.testing.assert_array_equal(state.amps, amps)


def test_controlled_ry_empty_controls_is_plain_ry():
    rng = np.random.default_rng(1)
    state = ref.random_state(rng, 3)
    spec = ref.ControlledRotationSpec((), 0, 0.9)
    via_spec = ref.apply_controlled_ry(state.copy(), spec)
    via_ry = ref.apply_ry(state.copy(), 0, 0.9)
    np.testing.assert_allclose(via_spec.amps, via_ry.amps, atol=1e-15)


def test_controlled_ry_spec_validation():
    with pytest.raises(ValueError, match="distinct"):
        ref.ControlledRotationSpec(((0, 1), (0, 0)), 1, 0.5)
    with pytest.raises(ValueError, match="differ"):
        ref.ControlledRotationSpec(((1, 1),), 1, 0.5)
    with pytest.raises(ValueError, match="bit"):
        ref.ControlledRotationSpec(((0, 2),), 1, 0.5)


# ---------------------------------------------------------------------------
# expectation values

def test_expectation_z_eigenstates():
    assert ref.expectation_z(ref.new_zero_state(1), 0) == 1.0
    flipped = ref.apply_ry(ref.new_zero_state(1), 0, math.pi)
    assert ref.expectation_z(flipped, 0) == pytest.approx(-1.0, abs=1e-12)


def test_expectation_z_uniform_superposition():
    state = ref.apply_h(ref.new_zero_state(1), 0)
    assert abs(ref.expectation_z(state, 0)) < 1e-12


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
def test_expectation_z_is_cos_theta(theta):
    state = ref.apply_ry(ref.new_zero_state(1), 0, theta)
    assert ref.expectation_z(state, 0) == pytest.approx(math.cos(theta), abs=1e-9)


@given(st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_expectation_z_bounded(n_qubits, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    state = ref.random_state(rng, n_qubits)
    for q in range(n_qubits):
        assert -1.0 <= ref.expectation_z(state, q) <= 1.0


# ---------------------------------------------------------------------------
# norm preservation and unitarity

@given(st.lists(st.tuples(st.integers(0, 4), st.floats(-4, 4)), min_size=1,
                max_size=12), st.integers(0, 2 ** 31))
@settings(max_examples=50, deadline=None)
def test_random_gate_sequences_preserve_norm(moves, seed):
    rng = np.random.default_rng(seed)
    state = ref.random_state(rng, 3)
    for kind, angle in moves:
        if kind == 0:
            ref.apply_h(state, rng.integers(3))
        elif kind == 1:
            ref.apply_ry(state, rng.integers(3), angle)
        elif kind == 2:
            ref.apply_rz(state, rng.integers(3), angle)
        elif kind == 3:
            ref.apply_rot(state, rng.integers(3), angle, -angle, 0.5 * angle)
        else:
            q = int(rng.integers(3))
            ref.apply_cnot(state, q, (q + 1) % 3)
    assert abs(state.norm() - 1.0) < 1e-9


@given(st.floats(-6, 6), st.integers(0, 2 ** 31))
@settings(max_examples=50, deadline=None)
def test_gate_inverse_roundtrips(theta, seed):
    rng = np.random.default_rng(seed)
    original = ref.random_state(rng, 2)

    state = original.copy()
    ref.apply_h(state, 0), ref.apply_h(state, 0)
    np.testing.assert_allclose(state.amps, original.amps, atol=1e-10)

    state = original.copy()
    ref.apply_cnot(state, 0, 1), ref.apply_cnot(state, 0, 1)
    np.testing.assert_allclose(state.amps, original.amps, atol=1e-10)

    state = original.copy()
    ref.apply_ry(state, 1, theta), ref.apply_ry(state, 1, -theta)
    np.testing.assert_allclose(state.amps, original.amps, atol=1e-10)

    state = original.copy()
    ref.apply_rz(state, 0, theta), ref.apply_rz(state, 0, -theta)
    np.testing.assert_allclose(state.amps, original.amps, atol=1e-10)

    state = original.copy()
    ref.apply_rot(state, 1, theta, 2 * theta, -theta)
    ref.apply_rot(state, 1, theta, -2 * theta, -theta)
    np.testing.assert_allclose(state.amps, original.amps, atol=1e-10)


# ---------------------------------------------------------------------------
# beta angles

def test_beta_angle_basis_state_is_zero():
    basis = np.array([1.0, 0.0, 0.0, 0.0])
    assert ref.beta_angle(basis, 1, 1) == 0.0
    assert ref.beta_angle(basis, 1, 2) == 0.0  # zero denominator branch
    assert ref.beta_angle(basis, 2, 1) == 0.0


def test_beta_angle_uniform_examples():
    uniform = np.full(4, 0.5)
    assert ref.beta_angle(uniform, 2, 1) == pytest.approx(math.pi / 2, abs=1e-12)
    assert ref.beta_angle(uniform, 1, 1) == pytest.approx(math.pi / 2, abs=1e-12)


def test_beta_angle_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        ref.beta_angle(np.array([1.0, 1.0]), 1, 1)


def test_beta_angle_rejects_out_of_range_indices():
    uniform = np.full(4, 0.5)
    with pytest.raises(ValueError, match="out of range"):
        ref.beta_angle(uniform, 3, 1)
    with pytest.raises(ValueError, match="1-based"):
        ref.beta_angle(uniform, 0, 1)


# ---------------------------------------------------------------------------
# amplitude encoding

def test_encode_basis_state():
    state = ref.amplitude_encode([1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(state.amps, [1, 0, 0, 0], atol=1e-12)


def test_encode_uniform():
    state = ref.amplitude_encode([0.5, 0.5, 0.5, 0.5])
    np.testing.assert_allclose(state.amps, [0.5] * 4, atol=1e-12)


def test_cascade_disentangles_back_to_zero():
    rng = np.random.default_rng(3)
    values = np.abs(rng.standard_normal(8))
    values /= np.linalg.norm(values)
    state = ref.amplitude_encode(values)
    for spec in ref.cascade_rotations(values):
        flipped = ref.ControlledRotationSpec(spec.controls, spec.target, -spec.angle)
        ref.apply_controlled_ry(state, flipped)
    want = np.zeros(8)
    want[0] = 1.0
    np.testing.assert_allclose(state.amps, want, atol=1e-9)


@pytest.mark.parametrize("length", [2, 4, 8, 16])
def test_encode_matches_direct_assignment(length):
    rng = np.random.default_rng(length)
    for _ in range(25):
        values = np.abs(rng.standard_normal(length))
        values /= np.linalg.norm(values)
        cascade = ref.amplitude_encode(values)
        direct = ref.assign_amplitudes(values)
        assert np.abs(cascade.amps - direct.amps).max() < 1e-9


def test_encode_handles_zero_blocks():
    values = np.array([0.0, 0.0, 3.0, 4.0]) / 5.0
    state = ref.amplitude_encode(values)
    np.testing.assert_allclose(state.amps, values, atol=1e-12)


def test_encode_rejects_bad_inputs():
    with pytest.raises(ValueError, match="normalized"):
        ref.amplitude_encode([0.5, 0.5, 0.5, 0.6])
    with pytest.raises(ValueError, match="non-negative"):
        ref.amplitude_encode([-0.6, 0.8, 0.0, 0.0])
    with pytest.raises(ValueError, match="power of two"):
        ref.amplitude_encode([1.0, 0.0, 0.0])


def test_assign_amplitudes_allows_signs():
    values = np.array([-0.6, 0.8, 0.0, 0.0])
    state = ref.assign_amplitudes(values)
    np.testing.assert_array_equal(state.amps.real, values)
    with pytest.raises(ValueError, match="normalized"):
        ref.assign_amplitudes([0.9, 0.9, 0.0, 0.0])
