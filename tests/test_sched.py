import os
import signal
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import as_strided

from svsched import (
    Circuit,
    GateOp,
    StateVector,
    Strategy,
    active_set_oracle,
    adjusted_control,
    apply_circuit,
    apply_gate,
    baseline_apply,
    control_satisfied,
    gate_h,
    gate_x,
    gen_qft,
    gen_squaring,
    gen_streaming,
    iteration_count,
    ith_cleared,
    new_state,
    norm_sq,
    optimized_apply,
    pair_indices,
    reduced_to_global,
)
from svsched import sched
from svsched.oracle import dense_apply, gate_to_dense
from svsched.sched import _BLOCK, _MIN_CHUNK, _worker_count
from svsched.verify import all_geometries, random_gate_matrix, random_state
from conftest import basis_state


def brute_force_pairs(n, t):
    """Stride-2**t pairing straight from the definition, for cross-checking."""
    return {(k, k + (1 << t)) for k in range(1 << n) if not (k >> t) & 1}


class TestIthCleared:
    @pytest.mark.parametrize("t", range(6))
    def test_zero_maps_to_zero(self, t):
        assert ith_cleared(0, t) == 0

    def test_derived_values_for_t1(self):
        # n=3, t=1 pairs by brute force: {(0,2), (1,3), (4,6), (5,7)}
        assert ith_cleared(1, 1) == 1
        assert ith_cleared(2, 1) == 4

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute_force_pairing(self, n):
        for t in range(n):
            got = {pair_indices(i, t) for i in range(1 << (n - 1))}
            assert got == brute_force_pairs(n, t)

    def test_result_has_target_bit_clear(self):
        for t in range(5):
            for i in range(64):
                assert not (ith_cleared(i, t) >> t) & 1

    def test_vectorized_matches_scalar(self):
        i = np.arange(128, dtype=np.int64)
        for t in range(4):
            expected = [ith_cleared(int(k), t) for k in i]
            np.testing.assert_array_equal(ith_cleared(i, t), expected)


class TestPairIndices:
    def test_contiguous_at_target_zero(self):
        assert pair_indices(0, 0) == (0, 1)

    def test_stride_four_pair(self):
        # n=3, t=2: brute-force stride-4 pairing puts iteration 1 on (1, 5)
        assert pair_indices(1, 2) == (1, 5)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_pairs_partition_register(self, n):
        for t in range(n):
            seen = []
            for i in range(1 << (n - 1)):
                p1, p2 = pair_indices(i, t)
                assert (p1 >> t) & 1 == 0
                assert (p2 >> t) & 1 == 1
                assert p2 == p1 + (1 << t)
                seen.extend((p1, p2))
            assert sorted(seen) == list(range(1 << n))


class TestControlSatisfied:
    def test_bit_tests(self):
        assert control_satisfied(3, 0) is True
        assert control_satisfied(4, 0) is False

    def test_same_answer_on_both_pair_elements(self):
        # both elements differ only in bit t, so any c != t agrees
        for n, t, _ in all_geometries(2, 5):
            for c in range(n):
                if c == t:
                    continue
                for i in range(1 << (n - 1)):
                    p1, p2 = pair_indices(i, t)
                    assert control_satisfied(p1, c) == control_satisfied(p2, c)


class TestAdjustedControl:
    def test_control_below_target_unchanged(self):
        assert adjusted_control(0, 1) == 0

    def test_control_above_target_shifts_down(self):
        assert adjusted_control(2, 1) == 1

    def test_formula_at_target_zero(self):
        assert adjusted_control(1, 0) == 0

    def test_control_equal_target_rejected(self):
        with pytest.raises(ValueError):
            adjusted_control(3, 3)

    def test_skip_steps_are_powers_of_two(self):
        # each control skips 2**adjusted_control iterations; controls above
        # the target shift down by one
        assert [1 << adjusted_control(c, 2) for c in (0, 1, 3, 4)] == [1, 2, 4, 8]


class TestReducedToGlobal:
    def test_single_low_control(self):
        # second and fourth global iterations
        assert [reduced_to_global(i, 1, (0,)) for i in (0, 1)] == [1, 3]

    def test_single_high_control(self):
        # last two global iterations
        assert [reduced_to_global(i, 1, (2,)) for i in (0, 1)] == [2, 3]

    def test_two_controls(self):
        # only the final global iteration survives both controls
        assert reduced_to_global(0, 1, (0, 2)) == 3

    def test_non_ascending_controls_rejected(self):
        with pytest.raises(ValueError):
            reduced_to_global(0, 1, (2, 0))
        with pytest.raises(ValueError):
            reduced_to_global(0, 3, (1, 1))

    def test_strictly_increasing_in_reduced_index(self):
        for n, t, controls in all_geometries(2, 6):
            i_r = np.arange(1 << (n - 1 - len(controls)), dtype=np.int64)
            image = reduced_to_global(i_r, t, controls)
            assert np.all(np.diff(np.atleast_1d(image)) > 0)

    def test_image_equals_active_set_for_small_registers(self):
        # the full n in [2, 8] sweep lives in the acceptance suite
        for n, t, controls in all_geometries(2, 6):
            i_r = np.arange(1 << (n - 1 - len(controls)), dtype=np.int64)
            image = set(int(i) for i in np.atleast_1d(reduced_to_global(i_r, t, controls)))
            assert image == active_set_oracle(n, t, controls), (n, t, controls)


class TestActiveSetOracle:
    def test_no_controls_keeps_everything(self):
        assert active_set_oracle(3, 1, ()) == {0, 1, 2, 3}

    def test_single_control_skip_pattern(self):
        assert active_set_oracle(3, 1, (0,)) == {1, 3}

    def test_three_controls_leave_one_iteration(self):
        active = active_set_oracle(4, 2, (0, 1, 3))
        assert len(active) == 1  # forced: 2**(4-3-1)

    def test_each_control_halves_the_active_set(self):
        for n, t, controls in all_geometries(2, 6):
            before = len(active_set_oracle(n, t, controls))
            for c in range(n):
                if c == t or c in controls:
                    continue
                after = len(active_set_oracle(n, t, tuple(sorted(controls + (c,)))))
                assert after * 2 == before


class TestIterationCounts:
    def test_baseline_count(self):
        assert iteration_count(Strategy.BASELINE, 29, GateOp(gate_x(), 3, (1,))) == 1 << 28

    def test_optimized_count_one_control(self):
        assert iteration_count(Strategy.OPTIMIZED, 29, GateOp(gate_x(), 3, (1,))) == 1 << 27

    def test_optimized_count_saturated_controls(self):
        assert iteration_count(Strategy.OPTIMIZED, 4, GateOp(gate_x(), 0, (1, 2, 3))) == 1

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("target, controls", [(4, ()), (0, (4,)), (1, (0, 2, 3, 4))])
    def test_gate_outside_register_rejected(self, strategy, target, controls):
        with pytest.raises(ValueError, match="qubit 4 out of range"):
            iteration_count(strategy, 4, GateOp(gate_x(), target, controls))

    def test_apply_return_values_match_plans(self):
        state = new_state(6)
        gate = GateOp(gate_h(), 2, (0, 5))
        assert baseline_apply(state, gate) == 1 << 5
        assert optimized_apply(state, gate) == 1 << 3


class TestBaselineApply:
    def test_uncontrolled_x(self):
        state = new_state(3)
        baseline_apply(state, GateOp(gate_x(), 0))
        np.testing.assert_array_equal(state.amplitudes, basis_state(3, 1).amplitudes)

    def test_unmet_control_is_identity(self):
        state = new_state(3)
        baseline_apply(state, GateOp(gate_x(), 0, (1,)))
        np.testing.assert_array_equal(state.amplitudes, basis_state(3, 0).amplitudes)

    def test_met_control_flips_target(self):
        state = basis_state(3, 0b010)
        baseline_apply(state, GateOp(gate_x(), 0, (1,)))
        np.testing.assert_array_equal(state.amplitudes, basis_state(3, 0b011).amplitudes)

    def test_matches_dense_oracle(self, rng):
        for n, t, controls in all_geometries(2, 5):
            gate = GateOp(random_gate_matrix(rng), t, controls)
            state = random_state(rng, n)
            expected = dense_apply(gate_to_dense(gate, n), state)
            baseline_apply(state, gate)
            np.testing.assert_allclose(
                state.amplitudes, expected.amplitudes, atol=1e-10
            )

    def test_out_of_range_gate_rejected(self):
        state = new_state(2)
        with pytest.raises(ValueError):
            baseline_apply(state, GateOp(gate_x(), 5))


class TestOptimizedApply:
    def test_no_controls_equals_baseline(self, rng):
        gate = GateOp(random_gate_matrix(rng), 3)
        a = random_state(rng, 5)
        b = a.copy()
        baseline_apply(a, gate)
        optimized_apply(b, gate)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_worked_two_control_case_runs_one_iteration(self, rng):
        gate = GateOp(random_gate_matrix(rng), 1, (0, 2))
        a = random_state(rng, 3)
        b = a.copy()
        assert optimized_apply(a, gate) == 1
        baseline_apply(b, gate)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_bit_exact_equivalence_random_controlled_gates(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            t = int(rng.integers(n))
            others = [q for q in range(n) if q != t]
            n_c = int(rng.integers(0, n))
            controls = (
                tuple(sorted(rng.choice(others, size=n_c, replace=False))) if n_c else ()
            )
            gate = GateOp(random_gate_matrix(rng), t, controls)
            a = random_state(rng, n)
            b = a.copy()
            baseline_apply(a, gate)
            optimized_apply(b, gate)
            assert np.array_equal(a.amplitudes, b.amplitudes), (n, t, controls)

    def test_single_precision_equivalence(self, rng):
        gate = GateOp(random_gate_matrix(rng), 1, (3,))
        amps = (rng.normal(size=32) + 1j * rng.normal(size=32)).astype(np.complex64)
        amps /= np.linalg.norm(amps)
        from svsched import StateVector

        a = StateVector(5, amps.copy())
        b = StateVector(5, amps.copy())
        baseline_apply(a, gate)
        optimized_apply(b, gate)
        assert a.amplitudes.dtype == np.complex64
        assert np.array_equal(a.amplitudes, b.amplitudes)


class TestInvariants:
    def test_norm_preserved_per_gate(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            t = int(rng.integers(n))
            gate = GateOp(random_gate_matrix(rng), t)
            state = random_state(rng, n)
            optimized_apply(state, gate)
            assert norm_sq(state) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_hadamard_twice_is_identity(self, rng, strategy):
        from svsched import apply_gate

        state = random_state(rng, 5)
        before = state.amplitudes.copy()
        gate = GateOp(gate_h(), 3)
        apply_gate(state, gate, strategy)
        apply_gate(state, gate, strategy)
        np.testing.assert_allclose(state.amplitudes, before, atol=1e-12)


class TestThreading:
    # 2**17 iterations clears the chunking threshold, so several chunks
    # really run; results must not depend on the partition.

    @pytest.mark.parametrize("threads", [2, 3, 7])
    def test_baseline_partition_is_bit_identical(self, rng, threads):
        gate = GateOp(random_gate_matrix(rng), 9, (2, 14))
        a = random_state(rng, 18)
        b = a.copy()
        baseline_apply(a, gate, threads=1)
        baseline_apply(b, gate, threads=threads)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    @pytest.mark.parametrize("threads", [2, 5])
    def test_optimized_partition_is_bit_identical(self, rng, threads):
        gate = GateOp(random_gate_matrix(rng), 0, (17,))
        a = random_state(rng, 19)
        b = a.copy()
        optimized_apply(a, gate, threads=1)
        optimized_apply(b, gate, threads=threads)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_gates_share_one_pool(self, monkeypatch, strategy):
        # ten two-worker gates start the threads of one pool, not two each
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        sched._pool.cache_clear()
        try:
            state = new_state(18)
            for _ in range(10):
                apply_gate(state, GateOp(gate_h(), 9), strategy, threads=2)
        finally:
            sched._pool().shutdown()
            sched._pool.cache_clear()
        assert 0 < len(started) <= 2

    # Python 3.12+ warns on any fork of a threaded process; here the fork
    # of a process with pool threads is what is under test.
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded")
    def test_forked_child_runs_threaded_gates(self, monkeypatch):
        # the child inherits the parent's pool object but none of its threads
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        gate = GateOp(gate_h(), 9)
        apply_gate(new_state(18), gate, threads=2)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                state = new_state(18)
                apply_gate(state, gate, threads=2)
                code = 0 if abs(norm_sq(state) - 1) < 1e-12 else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 10
        done, status = os.waitpid(pid, os.WNOHANG)
        while not done and time.monotonic() < deadline:
            time.sleep(0.01)
            done, status = os.waitpid(pid, os.WNOHANG)
        if not done:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung on a threaded gate")
        assert os.waitstatus_to_exitcode(status) == 0


class TestBlocks:
    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        # computed only: no thread is started
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _worker_count(1 << 29, 1 << 14) == 4
        assert _worker_count(1 << 29, 3) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count(1 << 29, 1 << 14) == 1

    def test_small_gates_run_on_one_worker(self):
        assert _worker_count(_MIN_CHUNK * 2 - 1, 8) == 1
        assert _worker_count(0, 8) == 1

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("controls", [(), (11,)])
    def test_gate_memory_is_bounded_by_the_block(self, strategy, controls):
        # a 16 MiB state; whole-range temporaries would take 20-40 MiB
        state = new_state(20)
        gate = GateOp(gate_h() if not controls else gate_x(), 7, controls)
        tracemalloc.start()
        try:
            apply_gate(state, gate, strategy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize(
        "circuit", [gen_qft(16), gen_streaming(18)], ids=["qft16", "stream18"]
    )
    def test_circuit_threads_are_bit_identical(
        self, rng, monkeypatch, circuit, dtype, threads
    ):
        # enough CPUs that 3 workers split the 32 windows of 2**17 iterations
        # into ranges of different sizes
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert (1 << 17) // _BLOCK % 3
        n = circuit.num_qubits
        state = StateVector(n, random_state(rng, n).amplitudes.astype(dtype))
        ref = state.copy()
        assert apply_circuit(state, circuit, threads=threads) == apply_circuit(ref, circuit)
        assert state.amplitudes.dtype == dtype
        assert np.array_equal(state.amplitudes, ref.amplitudes)


def strided_reference(amps, n, gate):
    """Independent reference for one gate: the state as an n-axis array,
    the control axes fixed at 1 and the target axis updated. It runs no
    mapping, and it updates contiguous copies, as the kernels do."""
    psi = amps.reshape((2,) * n)  # qubit q is axis n - 1 - q
    sel = [slice(None)] * n
    for c in gate.controls:
        sel[n - 1 - c] = 1
    sel0, sel1 = list(sel), list(sel)
    sel0[n - 1 - gate.target], sel1[n - 1 - gate.target] = 0, 1
    x, y = psi[tuple(sel0)].copy(), psi[tuple(sel1)].copy()
    m = gate.matrix
    a, b, c, d = (amps.dtype.type(v) for v in (m.a, m.b, m.c, m.d))
    psi[tuple(sel0)] = a * x + b * y
    psi[tuple(sel1)] = c * x + d * y


def random_gate(rng, n) -> GateOp:
    """A random matrix or an x, on a random target with 0-4 random controls."""
    t = int(rng.integers(n))
    others = [q for q in range(n) if q != t]
    n_c = int(rng.integers(0, min(4, n - 1) + 1))
    controls = rng.choice(others, size=n_c, replace=False)
    matrix = gate_x() if rng.integers(2) else random_gate_matrix(rng)
    return GateOp(matrix, t, tuple(int(c) for c in controls))


class TestStridedReference:
    """A second oracle for registers the dense one cannot hold (it stops at
    12 qubits). On states with no zero component the general update of an
    x gives the swap's bytes, so every comparison is bit for bit."""

    def test_reference_matches_dense_oracle(self, rng):
        for n, t, controls in all_geometries(2, 6):
            gate = GateOp(random_gate_matrix(rng), t, controls)
            state = random_state(rng, n)
            expected = dense_apply(gate_to_dense(gate, n), state).amplitudes
            strided_reference(state.amplitudes, n, gate)
            np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize(
        "circuit",
        [gen_streaming(20), gen_qft(16), gen_squaring(5)],
        ids=["stream20", "qft16", "sq5"],
    )
    def test_circuits_are_bit_identical(self, rng, circuit, strategy, dtype):
        n = circuit.num_qubits
        state = StateVector(n, random_state(rng, n).amplitudes.astype(dtype))
        want = state.amplitudes.copy()
        for gate in circuit.gates:
            strided_reference(want, n, gate)
        apply_circuit(state, circuit, strategy)
        assert state.amplitudes.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_random_gates_are_bit_identical(self, rng, dtype):
        for _ in range(16):
            n = int(rng.integers(14, 19))
            gate = random_gate(rng, n)
            amps = random_state(rng, n).amplitudes.astype(dtype)
            want = amps.copy()
            strided_reference(want, n, gate)
            for strategy in Strategy:
                state = StateVector(n, amps.copy())
                apply_gate(state, gate, strategy)
                assert state.amplitudes.tobytes() == want.tobytes(), (n, gate, strategy)


class TestStridedAndThreadedStates:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize(
        "circuit", [gen_qft(12), gen_streaming(12)], ids=["qft12", "stream12"]
    )
    def test_non_contiguous_state_gives_the_same_bytes(
        self, rng, monkeypatch, circuit, strategy, threads
    ):
        # 64-iteration windows and chunks: 2 workers on most gates
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(sched, "_BLOCK", 64)
        monkeypatch.setattr(sched, "_MIN_CHUNK", 64)
        n = circuit.num_qubits
        amps = random_state(rng, n).amplitudes
        buf = np.zeros(2 << n, dtype=amps.dtype)
        buf[::2] = amps
        strided = StateVector(n, buf[::2])
        assert not strided.amplitudes.flags.c_contiguous
        dense = StateVector(n, amps.copy())
        apply_circuit(strided, circuit, strategy, threads=threads)
        apply_circuit(dense, circuit, strategy, threads=threads)
        assert strided.amplitudes.tobytes() == dense.amplitudes.tobytes()
        assert not buf[1::2].any()

    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_random_circuits_across_threads(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        n = data.draw(st.integers(2, 9), label="n")
        size = data.draw(st.integers(1, 6), label="gates")
        threads = data.draw(st.sampled_from([1, 2, 3]), label="threads")
        dtype = data.draw(st.sampled_from([np.complex128, np.complex64]), label="dtype")
        strategy = data.draw(st.sampled_from(list(Strategy)), label="strategy")
        rng = np.random.default_rng(seed)
        circuit = Circuit(n, [random_gate(rng, n) for _ in range(size)])
        amps = random_state(rng, n).amplitudes.astype(dtype)
        with pytest.MonkeyPatch.context() as mp:
            # 4-iteration windows and chunks, so up to 3 workers split gates
            mp.setattr(os, "cpu_count", lambda: 4)
            mp.setattr(sched, "_BLOCK", 4)
            mp.setattr(sched, "_MIN_CHUNK", 4)
            want, got = StateVector(n, amps.copy()), StateVector(n, amps.copy())
            apply_circuit(want, circuit, Strategy.BASELINE)
            apply_circuit(got, circuit, strategy, threads=threads)
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


class PairRecorder:
    """Records, at the pair update, the basis indices of both elements of
    every pair the kernels update on ``amps``, one entry per window run.

    A kernel selects the pairs of a window from an array ``arr`` by index
    arrays (the baseline, on the state itself) or by basic indices into a
    strided view of the state (the optimized kernel). Either way the same
    key on ``arr``'s data offset and strides, laid over ``arange`` instead
    of the amplitudes, gives the basis indices.
    """

    def __init__(self, monkeypatch):
        self.amps = None
        self.seen = []  # (first indices, second indices) per update
        update = sched._update_pairs

        def spy(arr, k1, k2, mat):
            self.seen.append((self.indices(arr, k1), self.indices(arr, k2)))
            update(arr, k1, k2, mat)

        monkeypatch.setattr(sched, "_update_pairs", spy)

    def indices(self, arr, key) -> np.ndarray:
        es = self.amps.strides[0]
        offset = arr.__array_interface__["data"][0] - self.amps.__array_interface__["data"][0]
        assert offset % es == 0 and all(st % es == 0 for st in arr.strides)
        ids = np.arange(self.amps.shape[0], dtype=np.int64)[offset // es :]
        lay = as_strided(ids, arr.shape, [st // es * ids.itemsize for st in arr.strides])
        return np.array(lay[key]).ravel()

    def first_indices(self, stride) -> np.ndarray:
        """The first pair elements in update order; checks every partner."""
        for p1, p2 in self.seen:
            assert np.array_equal(p2, p1 + stride)
        return np.concatenate([p1 for p1, _ in self.seen] or [np.empty(0, np.int64)])


def expected_pair_indices(strategy, n, t, controls) -> np.ndarray:
    """First pair indices a gate must update, ascending: the mapped reduced
    range (optimized) or the brute-force active set (baseline)."""
    if strategy is Strategy.OPTIMIZED:
        reduced = np.arange(1 << (n - 1 - len(controls)), dtype=np.int64)
        return np.atleast_1d(ith_cleared(reduced_to_global(reduced, t, controls), t))
    return np.array(sorted(ith_cleared(i, t) for i in active_set_oracle(n, t, controls)))


class TestExecutedIndices:
    """The indices the kernels actually run, recorded at the pair update."""

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_every_geometry_runs_its_pairs_once(self, monkeypatch, strategy):
        # 8-iteration blocks: every gate with n >= 5 runs several windows
        monkeypatch.setattr(sched, "_BLOCK", 8)
        rec = PairRecorder(monkeypatch)
        for n, t, controls in all_geometries(2, 8):
            rec.seen.clear()
            state = new_state(n)
            rec.amps = state.amplitudes
            gate = GateOp(gate_h(), t, controls)
            count = apply_gate(state, gate, strategy)
            assert count == iteration_count(strategy, n, gate)
            got = rec.first_indices(1 << t)
            want = expected_pair_indices(strategy, n, t, controls)
            assert np.array_equal(got, want), (n, t, controls)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_threaded_workers_run_whole_windows(self, monkeypatch, strategy):
        # 3 workers split the 32 (baseline) or 8 (optimized) windows of the
        # gate; 3 divides neither count, so the ranges differ in size
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(sched, "_MIN_CHUNK", _BLOCK)
        rec = PairRecorder(monkeypatch)
        submitted, ran = [], []
        run_blocks = sched._run_blocks

        def spy_run(count, threads, body):
            def traced(w):
                ran.append(w)
                body(w)

            return run_blocks(count, threads, traced)

        class Pool(ThreadPoolExecutor):
            def submit(self, fn, *args):
                submitted.append(args)  # a worker's range of windows
                return super().submit(fn, *args)

        monkeypatch.setattr(sched, "_run_blocks", spy_run)
        n, t, controls = 18, 9, (2, 14)
        gate = GateOp(gate_h(), t, controls)
        count = iteration_count(strategy, n, gate)
        windows = count // _BLOCK
        assert _worker_count(count, 3) == 3 and windows % 3
        state = new_state(n)
        rec.amps = state.amplitudes
        with Pool(max_workers=3) as pool:
            monkeypatch.setattr(sched, "_pool", lambda: pool)
            assert apply_gate(state, gate, strategy, threads=3) == count
        bounds = [windows * k // 3 for k in range(4)]
        assert submitted == list(zip(bounds, bounds[1:]))
        assert sorted(ran) == list(range(windows))
        got = np.sort(rec.first_indices(1 << t))
        assert np.array_equal(got, expected_pair_indices(strategy, n, t, controls))

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_x_cx_ccx_match_dense_oracle(self, rng, monkeypatch, strategy, dtype):
        monkeypatch.setattr(sched, "_BLOCK", 8)
        n = 7
        for _, t, controls in all_geometries(n, n):
            if len(controls) > 2:
                continue
            gate = GateOp(gate_x(), t, controls)
            state = StateVector(n, random_state(rng, n).amplitudes.astype(dtype))
            expected = dense_apply(gate_to_dense(gate, n), state).amplitudes
            apply_gate(state, gate, strategy)
            assert state.amplitudes.dtype == dtype
            np.testing.assert_array_equal(state.amplitudes, expected.astype(dtype))

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_swap_is_bytes_of_the_general_update(self, rng, monkeypatch, strategy, dtype):
        # On a state with no zero component, 0*x + 1*y is y bit for bit.
        monkeypatch.setattr(sched, "_BLOCK", 8)
        n, t, controls = 8, 2, (5,)
        amps = random_state(rng, n).amplitudes.astype(dtype)
        assert np.all(amps.view(amps.real.dtype) != 0)
        zero, one = dtype(0), dtype(1)
        p1 = expected_pair_indices(Strategy.OPTIMIZED, n, t, controls)
        p2 = p1 + (1 << t)
        want = amps.copy()
        want[p1] = zero * amps[p1] + one * amps[p2]
        want[p2] = one * amps[p1] + zero * amps[p2]
        state = StateVector(n, amps.copy())
        apply_gate(state, GateOp(gate_x(), t, controls), strategy)
        assert state.amplitudes.tobytes() == want.tobytes()


class TestApplyCircuit:
    def test_iteration_total_and_sequencing(self):
        circuit = gen_streaming(6)
        state = new_state(6)
        executed = apply_circuit(state, circuit, Strategy.OPTIMIZED)
        assert executed == (1 << 6) - 1  # sum over gates of 2**(n-k-1)
        assert executed == sum(
            iteration_count(Strategy.OPTIMIZED, 6, g) for g in circuit.gates
        )

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_circuit(new_state(3), gen_streaming(4))
