import gc
import math
import weakref

import numpy as np
import pytest

from svsched import (
    CapacityError,
    Circuit,
    GateMatrix,
    GateOp,
    MAX_QUBITS,
    StateVector,
    Strategy,
    apply_gate,
    gate_h,
    gate_rm,
    gate_x,
    gate_y,
    gate_z,
    new_state,
    norm_sq,
)
from svsched.core import PAGE_BYTES
from svsched.sched import _matrix_scalars, _update_pairs
from conftest import basis_state, placed


def update_one_pair(state, p1, p2, matrix, view=False):
    """Update the one pair (p1, p2) through the kernels' executed pair update,
    selected by index arrays (a gather) or, with ``view``, by basic slices."""
    amps = state.amplitudes
    key = slice(p1, p1 + 1) if view else [p1]
    _update_pairs(amps, amps[p2 - p1:], key, _matrix_scalars(matrix, amps.dtype))


class TestNewState:
    def test_ground_state_one_qubit(self):
        state = new_state(1)
        np.testing.assert_array_equal(state.amplitudes, [1, 0])

    def test_ground_state_three_qubits(self):
        state = new_state(3)
        assert state.amplitudes.shape == (8,)
        assert state.amplitudes[0] == 1.0
        assert np.count_nonzero(state.amplitudes) == 1

    def test_norm_of_large_state(self):
        assert norm_sq(new_state(20)) == 1.0

    @pytest.mark.parametrize("n", [0, -1, MAX_QUBITS + 1])
    def test_out_of_range_rejected(self, n):
        with pytest.raises(CapacityError):
            new_state(n)

    def test_single_precision_storage(self):
        state = new_state(4, precision="single")
        assert state.amplitudes.dtype == np.complex64
        assert state.precision == "single"

    def test_unknown_precision_rejected(self):
        with pytest.raises(ValueError):
            new_state(4, precision="half")

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            StateVector(2, np.zeros(5, dtype=np.complex128))

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_negative_stride_and_stepped_inputs_are_copied(self, rng, dtype):
        n = 6
        buf = (rng.normal(size=2 << n) + 1j * rng.normal(size=2 << n)).astype(dtype)
        kept = buf.copy()
        for view in (buf[: 1 << n][::-1], buf[::2]):
            state = StateVector(n, view)
            amps = state.amplitudes
            assert amps.flags.c_contiguous and not np.shares_memory(amps, buf)
            assert amps.dtype == dtype and amps.tobytes() == view.copy().tobytes()
            for strategy in Strategy:
                apply_gate(state, GateOp(gate_h(), 2, (0,)), strategy)
                apply_gate(state, GateOp(gate_x(), 3, (5,)), strategy)
            assert buf.tobytes() == kept.tobytes()

    def test_zero_d_input_rejected(self):
        # a 0-d array is not made a one-amplitude state
        for amps in (np.array(1 + 0j), np.complex64(1)):
            with pytest.raises(ValueError):
                StateVector(0, amps)


def root(array):
    """The array that owns ``array``'s memory, at the end of its bases."""
    while array.base is not None:
        array = array.base
    return array


class TestPlacement:
    """Every state the simulator allocates starts on a page, so on a 64-byte
    line; one it is handed whole stays where it is."""

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("n", [1, 3, 12, 17])
    def test_new_state_starts_on_a_page(self, n, precision):
        amps = new_state(n, precision).amplitudes
        assert amps.ctypes.data % PAGE_BYTES == 0
        assert amps.shape == (1 << n,) and amps.flags.c_contiguous and amps.flags.writeable
        assert amps[0] == 1 and not amps[1:].any()

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_copies_start_on_a_page(self, rng, dtype):
        n = 12
        buf = (rng.normal(size=2 << n) + 1j * rng.normal(size=2 << n)).astype(dtype)
        given = placed(buf[: 1 << n], 16)
        copies = [StateVector(n, given).copy(), StateVector(n, buf[::2])]
        for state, want in zip(copies, (given, buf[::2])):
            amps = state.amplitudes
            assert amps.ctypes.data % PAGE_BYTES == 0
            assert amps.flags.c_contiguous and amps.flags.writeable
            assert not np.shares_memory(amps, buf) and not np.shares_memory(amps, given)
            assert amps.dtype == dtype and amps.tobytes() == want.tobytes()

    def test_real_input_is_copied_onto_a_page(self):
        amps = StateVector(2, np.array([0.5, 0.5, 0.5, -0.5])).amplitudes
        assert amps.ctypes.data % PAGE_BYTES == 0 and amps.flags.c_contiguous
        assert amps.dtype == np.complex128 and amps.tolist() == [0.5, 0.5, 0.5, -0.5]

    @pytest.mark.parametrize("make", ["new_state", "copy", "strided"])
    def test_the_buffer_lives_as_long_as_the_array(self, make):
        n = 12
        state = new_state(n)
        if make == "copy":
            state = state.copy()
        elif make == "strided":
            state = StateVector(n, np.zeros(2 << n, np.complex128)[::2])
        amps = state.amplitudes
        owner = weakref.ref(root(amps))
        del state
        gc.collect()
        churn = [np.ones(1 << k) for k in range(8, 18)]  # reuses what was freed
        amps[...] = np.arange(1 << n)
        assert owner() is not None
        assert amps.tolist() == list(range(1 << n))
        del amps, churn
        gc.collect()
        assert owner() is None

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("offset", [0, 16, 48])
    def test_a_whole_input_is_kept_where_it_is(self, dtype, offset):
        given = placed(np.zeros(1 << 10, dtype), offset)
        given[0] = 1
        state = StateVector(10, given)
        assert state.amplitudes is given and np.shares_memory(state.amplitudes, given)
        assert state.amplitudes.ctypes.data % PAGE_BYTES == offset
        apply_gate(state, GateOp(gate_x(), 3), Strategy.OPTIMIZED)
        assert given[8] == 1


class TestNormSq:
    def test_fresh_state(self):
        assert norm_sq(new_state(4)) == pytest.approx(1.0, abs=1e-12)

    def test_after_hadamard(self):
        state = new_state(1)
        apply_gate(state, GateOp(gate_h(), 0), Strategy.OPTIMIZED)
        assert norm_sq(state) == pytest.approx(1.0, abs=1e-12)

    def test_hand_built_state(self):
        # 0.6^2 + 0.8^2 = 0.36 + 0.64
        state = StateVector(1, np.array([0.6, 0.8j]))
        assert norm_sq(state) == pytest.approx(1.0, abs=1e-15)


class TestGateMatrices:
    def test_x_flips_ground(self):
        state = basis_state(1, 0)
        update_one_pair(state, 0, 1, gate_x())
        np.testing.assert_array_equal(state.amplitudes, [0, 1])

    def test_h_makes_uniform_superposition(self):
        state = basis_state(1, 0)
        update_one_pair(state, 0, 1, gate_h())
        s = 1 / math.sqrt(2)
        np.testing.assert_allclose(state.amplitudes, [s, s], atol=1e-15)

    def test_rm1_is_z(self):
        # exp(2*pi*i / 2) == -1
        rm1 = gate_rm(1)
        z = gate_z()
        for got, want in zip(
            (rm1.a, rm1.b, rm1.c, rm1.d), (z.a, z.b, z.c, z.d)
        ):
            assert got == pytest.approx(want, abs=1e-15)

    def test_rm_rejects_bad_order(self):
        with pytest.raises(ValueError):
            gate_rm(0)

    @pytest.mark.parametrize("build", [gate_h, gate_x, gate_y, gate_z])
    def test_constructors_unitary(self, build):
        assert build().is_unitary(1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 20])
    def test_rm_unitary(self, m):
        assert gate_rm(m).is_unitary(1e-12)

    def test_rm_huge_order_degrades_to_identity(self):
        rm = gate_rm(10_000)
        assert rm.d == 1.0 + 0.0j

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            GateMatrix(1, 1, 1, 1)
        with pytest.raises(ValueError):
            GateMatrix(float("nan"), 0, 0, 1)


class TestGateOp:
    def test_controls_sorted_at_construction(self):
        gate = GateOp(gate_x(), 0, (3, 1, 2))
        assert gate.controls == (1, 2, 3)

    def test_duplicate_controls_rejected(self):
        with pytest.raises(ValueError):
            GateOp(gate_x(), 0, (1, 1))

    def test_control_colliding_with_target_rejected(self):
        with pytest.raises(ValueError):
            GateOp(gate_x(), 2, (1, 2))

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            GateOp(gate_x(), -1)
        with pytest.raises(ValueError):
            GateOp(gate_x(), 0, (-2,))


class TestCircuit:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            Circuit(2, [GateOp(gate_x(), 5)])
        circuit = Circuit(2)
        with pytest.raises(ValueError):
            circuit.append(GateOp(gate_x(), 0, (3,)))

    def test_append(self):
        circuit = Circuit(2)
        circuit.append(GateOp(gate_h(), 1))
        assert len(circuit) == 1


class TestApplyPairUpdate:
    def test_identity_leaves_state_alone(self):
        state = basis_state(3, 5)
        before = state.amplitudes.copy()
        update_one_pair(state, 2, 6, GateMatrix(1, 0, 0, 1))
        np.testing.assert_array_equal(state.amplitudes, before)

    def test_x_swaps_pair(self):
        state = StateVector(2, np.array([1, 0, 0, 0], dtype=np.complex128))
        update_one_pair(state, 0, 1, gate_x())
        np.testing.assert_array_equal(state.amplitudes, [0, 1, 0, 0])

    def test_h_on_stride_four_pair(self):
        # Hand expansion: new[2] = a*old[2] + b*old[6], new[6] = c*old[2] + d*old[6]
        state = basis_state(3, 2)
        update_one_pair(state, 2, 6, gate_h())
        s = 1 / math.sqrt(2)
        expected = np.zeros(8, dtype=np.complex128)
        expected[2] = s
        expected[6] = s
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_touches_exactly_two_amplitudes(self, rng):
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        amps /= np.linalg.norm(amps)
        for matrix in (gate_h(), gate_x()):  # the general update and the swap
            for view in (False, True):
                state = StateVector(4, amps.copy())
                update_one_pair(state, 3, 11, matrix, view)
                changed = np.nonzero(state.amplitudes != amps)[0]
                assert set(changed) <= {3, 11}
                assert len(changed) == 2

    def test_norm_preserved_per_pair(self, rng):
        from svsched.verify import random_gate_matrix, random_state

        for _ in range(50):
            state = random_state(rng, 4)
            before = norm_sq(state)
            update_one_pair(state, 1, 9, random_gate_matrix(rng))
            assert norm_sq(state) == pytest.approx(before, abs=1e-12)

    def test_finite_amplitudes_after_updates(self, rng):
        from svsched.verify import random_gate_matrix

        state = new_state(3)
        for _ in range(100):
            p1 = int(rng.integers(0, 4))
            update_one_pair(state, p1, p1 + 4, random_gate_matrix(rng))
        assert np.all(np.isfinite(state.amplitudes.view(np.float64)))
