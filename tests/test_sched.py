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
    CapacityError,
    Circuit,
    GateMatrix,
    GateOp,
    StateVector,
    Strategy,
    active_set_oracle,
    adjusted_control,
    apply_circuit,
    apply_gate,
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
    pair_indices,
    reduced_to_global,
)
import svsched.cli
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
        assert apply_gate(state, gate, Strategy.BASELINE) == 1 << 5
        assert apply_gate(state, gate, Strategy.OPTIMIZED) == 1 << 3


class TestBaselineApply:
    def test_uncontrolled_x(self):
        state = new_state(3)
        apply_gate(state, GateOp(gate_x(), 0), Strategy.BASELINE)
        np.testing.assert_array_equal(state.amplitudes, basis_state(3, 1).amplitudes)

    def test_unmet_control_is_identity(self):
        state = new_state(3)
        apply_gate(state, GateOp(gate_x(), 0, (1,)), Strategy.BASELINE)
        np.testing.assert_array_equal(state.amplitudes, basis_state(3, 0).amplitudes)

    def test_met_control_flips_target(self):
        state = basis_state(3, 0b010)
        apply_gate(state, GateOp(gate_x(), 0, (1,)), Strategy.BASELINE)
        np.testing.assert_array_equal(state.amplitudes, basis_state(3, 0b011).amplitudes)

    def test_matches_dense_oracle(self, rng):
        for n, t, controls in all_geometries(2, 5):
            gate = GateOp(random_gate_matrix(rng), t, controls)
            state = random_state(rng, n)
            expected = dense_apply(gate_to_dense(gate, n), state)
            apply_gate(state, gate, Strategy.BASELINE)
            np.testing.assert_allclose(
                state.amplitudes, expected.amplitudes, atol=1e-10
            )

    def test_out_of_range_gate_rejected(self):
        state = new_state(2)
        with pytest.raises(ValueError):
            apply_gate(state, GateOp(gate_x(), 5), Strategy.BASELINE)


class TestOptimizedApply:
    def test_no_controls_equals_baseline(self, rng):
        gate = GateOp(random_gate_matrix(rng), 3)
        a = random_state(rng, 5)
        b = a.copy()
        apply_gate(a, gate, Strategy.BASELINE)
        apply_gate(b, gate, Strategy.OPTIMIZED)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_worked_two_control_case_runs_one_iteration(self, rng):
        gate = GateOp(random_gate_matrix(rng), 1, (0, 2))
        a = random_state(rng, 3)
        b = a.copy()
        assert apply_gate(a, gate, Strategy.OPTIMIZED) == 1
        apply_gate(b, gate, Strategy.BASELINE)
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
            apply_gate(a, gate, Strategy.BASELINE)
            apply_gate(b, gate, Strategy.OPTIMIZED)
            assert np.array_equal(a.amplitudes, b.amplitudes), (n, t, controls)

    def test_single_precision_equivalence(self, rng):
        gate = GateOp(random_gate_matrix(rng), 1, (3,))
        amps = (rng.normal(size=32) + 1j * rng.normal(size=32)).astype(np.complex64)
        amps /= np.linalg.norm(amps)
        from svsched import StateVector

        a = StateVector(5, amps.copy())
        b = StateVector(5, amps.copy())
        apply_gate(a, gate, Strategy.BASELINE)
        apply_gate(b, gate, Strategy.OPTIMIZED)
        assert a.amplitudes.dtype == np.complex64
        assert np.array_equal(a.amplitudes, b.amplitudes)


class TestInvariants:
    def test_norm_preserved_per_gate(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            t = int(rng.integers(n))
            gate = GateOp(random_gate_matrix(rng), t)
            state = random_state(rng, n)
            apply_gate(state, gate, Strategy.OPTIMIZED)
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
        apply_gate(a, gate, Strategy.BASELINE, threads=1)
        apply_gate(b, gate, Strategy.BASELINE, threads=threads)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    @pytest.mark.parametrize("threads", [2, 5])
    def test_optimized_partition_is_bit_identical(self, rng, threads):
        gate = GateOp(random_gate_matrix(rng), 0, (17,))
        a = random_state(rng, 19)
        b = a.copy()
        apply_gate(a, gate, Strategy.OPTIMIZED, threads=1)
        apply_gate(b, gate, Strategy.OPTIMIZED, threads=threads)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_gates_share_one_pool(self, monkeypatch, strategy):
        # ten two-worker gates start the threads of one pool, not two each
        monkeypatch.setattr(sched, "usable_cpus", lambda: 2)
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
        monkeypatch.setattr(sched, "usable_cpus", lambda: 2)
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
        monkeypatch.setattr(sched, "usable_cpus", lambda: 4)
        assert _worker_count(1 << 29, 1 << 14) == 4
        assert _worker_count(1 << 29, 3) == 3
        monkeypatch.setattr(sched, "usable_cpus", lambda: 1)
        assert _worker_count(1 << 29, 1 << 14) == 1

    def test_usable_cpus_follow_the_affinity_mask(self, monkeypatch):
        # computed only: the mask and the count are patched, no thread runs
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert sched.usable_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert sched.usable_cpus() == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert sched.usable_cpus() == 1

    def test_every_cpu_budget_reads_the_usable_cpus(self, monkeypatch):
        # one usable CPU of eight: no site may fall back to os.cpu_count
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(sched, "usable_cpus", lambda: 1)
        monkeypatch.setattr(svsched.cli, "usable_cpus", lambda: 1)
        monkeypatch.delenv(svsched.cli.THREADS_ENV_VAR, raising=False)
        assert svsched.cli.default_threads() == 1
        assert _worker_count(1 << 29, 8) == 1
        # the pool's size, recorded instead of starting the pool
        sizes = []
        monkeypatch.setattr(
            sched, "ThreadPoolExecutor", lambda max_workers: sizes.append(max_workers)
        )
        sched._pool.cache_clear()
        try:
            sched._pool()
        finally:
            sched._pool.cache_clear()
        assert sizes == [1]
        # 16 MiB of state, a 6 MiB output chunk and one worker's 1 MiB
        needed = (16 << 20) + (6 << 20) + (1 << 20)
        monkeypatch.setattr(svsched.cli, "_mem_available", lambda: needed)
        svsched.cli._check_memory(20, "double", 0, 8)
        monkeypatch.setattr(svsched.cli, "_mem_available", lambda: needed - 1)
        with pytest.raises(CapacityError):
            svsched.cli._check_memory(20, "double", 0, 8)

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
        # enough CPUs that 3 workers split the 8 windows of 2**17 iterations,
        # each of 4 * _BLOCK, into ranges of different sizes
        monkeypatch.setattr(sched, "usable_cpus", lambda: 4)
        assert (1 << 17) // (4 * _BLOCK) % 3
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
        monkeypatch.setattr(sched, "usable_cpus", lambda: 4)
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
            mp.setattr(sched, "usable_cpus", lambda: 4)
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
    of the amplitudes, gives the basis indices. An element of a swap's view
    may be a run of several amplitudes; it stands for all of them, in order.
    """

    def __init__(self, monkeypatch):
        self.amps = None
        self.seen = []  # (first indices, second indices) per update
        self.widths = set()  # amplitudes per element of the arrays updated
        update = sched._update_pairs

        def spy(arr, k1, k2, mat):
            self.seen.append((self.indices(arr, k1), self.indices(arr, k2)))
            self.widths.add(arr.itemsize // self.amps.itemsize)
            update(arr, k1, k2, mat)

        monkeypatch.setattr(sched, "_update_pairs", spy)

    def indices(self, arr, key) -> np.ndarray:
        es = self.amps.strides[0]
        offset = arr.__array_interface__["data"][0] - self.amps.__array_interface__["data"][0]
        assert offset % es == 0 and all(st % es == 0 for st in arr.strides)
        width, rem = divmod(arr.itemsize, self.amps.itemsize)
        assert rem == 0 and (width == 1 or es == self.amps.itemsize)
        ids = np.arange(self.amps.shape[0], dtype=np.int64)[offset // es :]
        lay = as_strided(ids, arr.shape, [st // es * ids.itemsize for st in arr.strides])
        return (np.array(lay[key])[..., None] + np.arange(width)).ravel()

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
        # 8-iteration blocks: every gate with n >= 5 runs several windows.
        # h takes the general update, x the swap, on runs of up to 8 pairs.
        monkeypatch.setattr(sched, "_BLOCK", 8)
        rec = PairRecorder(monkeypatch)
        for matrix in (gate_h(), gate_x()):
            for n, t, controls in all_geometries(2, 8):
                rec.seen.clear()
                state = new_state(n)
                rec.amps = state.amplitudes
                gate = GateOp(matrix, t, controls)
                count = apply_gate(state, gate, strategy)
                assert count == iteration_count(strategy, n, gate)
                got = rec.first_indices(1 << t)
                want = expected_pair_indices(strategy, n, t, controls)
                assert np.array_equal(got, want), (matrix, n, t, controls)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_threaded_workers_run_whole_windows(self, monkeypatch, strategy):
        # 3 workers split the 8 (baseline) or 2 (optimized) windows of the
        # gate, each of 4 * _BLOCK iterations, as work on several workers;
        # 3 divides neither count, so the ranges differ in size
        monkeypatch.setattr(sched, "usable_cpus", lambda: 4)
        monkeypatch.setattr(sched, "_MIN_CHUNK", _BLOCK)
        rec = PairRecorder(monkeypatch)
        steps = StepRecorder(monkeypatch)
        submitted = []

        class Pool(ThreadPoolExecutor):
            def submit(self, fn, *args):
                submitted.append(args)  # a worker's range of windows
                return super().submit(fn, *args)

        n, t, controls = 18, 9, (2, 14)
        gate = GateOp(gate_h(), t, controls)
        count = iteration_count(strategy, n, gate)
        windows = count // (4 * _BLOCK)
        assert _worker_count(count, 3) == 3 and windows % 3
        state = new_state(n)
        rec.amps = state.amplitudes
        with Pool(max_workers=3) as pool:
            monkeypatch.setattr(sched, "_pool", lambda: pool)
            assert apply_gate(state, gate, strategy, threads=3) == count
        bounds = [windows * k // 3 for k in range(4)]
        assert submitted == list(zip(bounds, bounds[1:]))
        assert sorted(w for _, _, _, _, w in steps.steps) == list(range(windows))
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


class TestPlan:
    """The per-gate plan: one per geometry and window size, state-free."""

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_each_window_size_gets_its_own_plan(self, monkeypatch, strategy):
        # the same gates under 8- and 4096-iteration windows in one process
        n, t, controls = 14, 5, (2, 9)
        rec = PairRecorder(monkeypatch)
        want = expected_pair_indices(strategy, n, t, controls)
        sched._plan.cache_clear()
        for block in (8, 4096):
            monkeypatch.setattr(sched, "_BLOCK", block)
            misses = sched._plan.cache_info().misses
            for matrix in (gate_h(), gate_x()):
                rec.seen.clear()
                state = new_state(n)
                rec.amps = state.amplitudes
                apply_gate(state, GateOp(matrix, t, controls), strategy)
                assert np.array_equal(rec.first_indices(1 << t), want), (block, matrix)
            assert sched._plan.cache_info().misses > misses

    def test_thirty_qubit_plan_holds_o_n_ints(self):
        # built without a state; the mapping runs on 29 - 2 reduced bits only
        n, t, controls = 30, 7, (3, 20)
        tracemalloc.start()
        try:
            plan = sched._plan(n, t, controls, _BLOCK, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        ints = [plan.window, plan.base, plan.run, *plan.steps, *plan.shape, *plan.strides,
                *plan.starts]
        assert all(type(v) is int for v in ints)
        assert len(ints) <= 3 * n
        assert plan.base == (1 << 3) | (1 << 20)
        assert plan.steps == tuple(1 << q for q in range(n) if q not in (t, *controls))
        assert plan.run == 3  # qubits 0-2 are free: runs of 8 amplitudes
        # the first of 2**15 windows, in elements of 8 amplitudes
        first = np.arange(sched._KEPT_STARTS, dtype=np.int64) * _BLOCK
        want = ith_cleared(reduced_to_global(first, t, controls), t) >> 3
        assert plan.starts == tuple(want.tolist())

    def test_cache_is_bounded(self):
        # every cache of per-gate work, not only the plans
        for cache in CACHES:
            assert 0 < cache.cache_info().maxsize <= 4096


CACHES = (sched._plan, sched._cast, sched._template)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


class TestWarmGates:
    """A gate on a geometry seen before pays only the per-call floor."""

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_second_call_builds_nothing(self, monkeypatch, strategy):
        # 16 baseline or 4 optimized windows: the plan keeps all their starts
        calls = []

        def spy(name):
            real = getattr(sched, name)

            def wrapper(*args):
                out = real(*args)
                calls.append((name, args, out))
                return out

            monkeypatch.setattr(sched, name, wrapper)

        for name in ("reduced_to_global", "ith_cleared", "_window_starts", "_matrix_scalars"):
            spy(name)
        for matrix in (gate_h(), gate_x()):
            gate = GateOp(matrix, 3, (0, 7))
            state = new_state(17)
            apply_gate(state, gate, strategy)
            first = [out for name, _, out in calls if name == "_matrix_scalars"]
            calls.clear()
            misses = [cache.cache_info().misses for cache in CACHES]
            apply_gate(state, gate, strategy)
            assert [cache.cache_info().misses for cache in CACHES] == misses
            names = [name for name, _, _ in calls]
            assert names == ["_matrix_scalars", "_window_starts"], matrix
            (_, _, mat), (_, (plan,), starts) = calls
            assert mat is first[0] and starts is plan.starts
            calls.clear()

    def test_high_targets_share_one_template(self):
        clear_caches()
        for t in (12, 14, 16):
            apply_gate(new_state(17), GateOp(gate_h(), t, (3,)), Strategy.BASELINE)
        assert sched._template.cache_info().currsize == 1
        apply_gate(new_state(17), GateOp(gate_h(), 5), Strategy.BASELINE)
        assert sched._template.cache_info().currsize == 2

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_zero_sign_of_an_equal_matrix_is_kept(self, rng, strategy, dtype):
        # equal matrices, hashed alike, that differ in the sign of b's zero
        plus, minus = GateMatrix(1, 0.0, 0, 1), GateMatrix(1, -0.0, 0, 1)
        assert plus == minus and hash(plus) == hash(minus)
        amps = random_state(rng, 6).amplitudes.astype(dtype)
        amps.real[::2] = -0.0

        def run(matrix):
            state = StateVector(6, amps.copy())
            apply_gate(state, GateOp(matrix, 2, (4,)), strategy)
            return state.amplitudes.tobytes()

        want = []
        for matrix in (plus, minus):
            clear_caches()
            want.append(run(matrix))
        assert want[0] != want[1]
        for order in ((0, 1), (1, 0)):
            clear_caches()
            for k in order:
                assert run((plus, minus)[k]) == want[k], order


def index_swap(amps, n, t, controls):
    """X by index arrays: swap every pair the optimized kernel schedules."""
    p1 = expected_pair_indices(Strategy.OPTIMIZED, n, t, controls)
    p2 = p1 + (1 << t)
    amps[p1], amps[p2] = amps[p2], amps[p1]


class TestWideSwaps:
    """A swap on a unit-stride state moves runs of pairs as single elements."""

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_x_cx_ccx_give_the_index_swap_bytes(self, rng, monkeypatch, strategy, dtype):
        rec = PairRecorder(monkeypatch)
        for block in (8, 4096):
            monkeypatch.setattr(sched, "_BLOCK", block)
            for n, t, controls in all_geometries(2, 8):
                if len(controls) > 2:
                    continue
                amps = random_state(rng, n).amplitudes.astype(dtype)
                want = amps.copy()
                index_swap(want, n, t, controls)
                gate = GateOp(gate_x(), t, controls)
                dense = StateVector(n, amps.copy())
                rec.amps, rec.widths = dense.amplitudes, set()
                apply_gate(dense, gate, strategy)
                assert dense.amplitudes.tobytes() == want.tobytes(), (n, t, controls)
                run = min(t, *controls, block.bit_length() - 1)
                assert rec.widths == {1 << run if strategy is Strategy.OPTIMIZED else 1}
                # every other amplitude of a buffer: a stride of two elements
                buf = rng.normal(size=2 << n).astype(dtype)
                gap = buf[1::2].copy()
                buf[::2] = amps
                strided = StateVector(n, buf[::2])
                rec.amps, rec.widths = strided.amplitudes, set()
                apply_gate(strided, gate, strategy)
                assert strided.amplitudes.tobytes() == want.tobytes(), (n, t, controls)
                assert rec.widths == {1}
                assert buf[1::2].tobytes() == gap.tobytes()


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


def tiny_tiles(mp, bits, dtype):
    """Patch tiles of ``2**bits`` amplitudes and 2-iteration windows and
    chunks, so small registers run tiled runs on up to 4 workers."""
    mp.setattr(sched, "usable_cpus", lambda: 4)
    mp.setattr(sched, "_BLOCK", 2)
    mp.setattr(sched, "_MIN_CHUNK", 2)
    mp.setattr(sched, "_TILE_BYTES", np.dtype(dtype).itemsize << bits)


class StepRecorder:
    """Wraps ``sched._resolve``: records the block size, tile, gate,
    iterations and index of every window the resolved gates run."""

    def __init__(self, monkeypatch):
        self.steps = []
        resolve = sched._resolve

        def spy(amps, bits, gate, strategy, window):
            step = resolve(amps, bits, gate, strategy, window)

            def traced(w, tile):
                step(w, tile)
                self.steps.append((bits, tile, gate, window, w))

            return traced

        monkeypatch.setattr(sched, "_resolve", spy)

    def runs(self):
        """(bits, tile, gate, iterations) of each unbroken run of windows of
        one gate on one tile, in the order run; for a single thread."""
        runs = []
        for bits, tile, gate, window, _ in self.steps:
            if runs and runs[-1][:2] == [bits, tile] and runs[-1][2] is gate:
                runs[-1][3] += window
            else:
                runs.append([bits, tile, gate, window])
        return [tuple(run) for run in runs]

    def totals(self) -> dict:
        """Iterations per (bits, tile, id(gate)), from any number of threads."""
        totals = {}
        for bits, tile, gate, window, _ in self.steps:
            key = bits, tile, id(gate)
            totals[key] = totals.get(key, 0) + window
        return totals


class TestTiledRuns:
    """Runs of low-qubit gates applied tile by tile by apply_circuit."""

    def test_which_gates_join_a_run(self, monkeypatch):
        # 32-iteration windows: a gate joins from 32 >> 3 = 4 iterations per
        # tile, so every gate below joins with less than one window per tile
        monkeypatch.setattr(sched, "_BLOCK", 32)
        gates = [
            GateOp(gate_h(), 0),
            GateOp(gate_x(), 1, (0,)),
            GateOp(gate_h(), 5),  # a qubit above the tile breaks the run
            GateOp(gate_h(), 2),
            # 2 optimized iterations per 4-qubit tile: under an eighth of a window
            GateOp(gate_x(), 3, (0, 1)),
            GateOp(gate_h(), 0),
            GateOp(gate_h(), 1),
        ]
        g0, g1, g2, g3, g4, g5, g6 = gates
        assert sched._tile_groups(gates, Strategy.OPTIMIZED, 4) == [
            [g0, g1], [g2], [g3], [g4], [g5, g6]
        ]
        # the baseline schedules 8 iterations per tile for every gate
        assert sched._tile_groups(gates, Strategy.BASELINE, 4) == [
            [g0, g1], [g2], [g3, g4, g5, g6]
        ]
        # runs go tile by tile, single gates whole; 4 tiles of 6 qubits
        rec = StepRecorder(monkeypatch)
        monkeypatch.setattr(sched, "_TILE_BYTES", 16 << 4)
        apply_circuit(new_state(6), Circuit(6, gates), Strategy.OPTIMIZED)
        index = {id(gate): i for i, gate in enumerate(gates)}
        order = [(bits, tile, index[id(gate)]) for bits, tile, gate, _ in rec.runs()]
        assert order == [
            *[(4, tile, g) for tile in range(4) for g in (0, 1)],
            (6, 0, 2), (6, 0, 3), (6, 0, 4),
            *[(4, tile, g) for tile in range(4) for g in (5, 6)],
        ]
        # a register no larger than a tile is one tile
        rec.steps.clear()
        apply_circuit(new_state(4), Circuit(4, gates[:2]), Strategy.OPTIMIZED)
        assert [(bits, tile) for bits, tile, _, _ in rec.runs()] == [(4, 0), (4, 0)]

    def test_default_tile_is_one_mib(self, monkeypatch):
        # 2**16 double or 2**17 single amplitudes. Stream's gate k schedules
        # 2**(bits-1-k) iterations per tile, so gates 0-6 or 0-7 schedule at
        # least an eighth of a 4096-iteration window and join.
        rec = StepRecorder(monkeypatch)
        for dtype, bits, joined in ((np.complex128, 16, 7), (np.complex64, 17, 8)):
            rec.steps.clear()
            state = StateVector(18, np.zeros(1 << 18, dtype))
            apply_circuit(state, gen_streaming(18), Strategy.OPTIMIZED)
            runs = rec.runs()
            tiled = [(tile, gate.target) for n, tile, gate, _ in runs if n == bits]
            assert tiled == [(tile, k) for tile in range(1 << (18 - bits)) for k in range(joined)]
            assert [n for n, _, _, _ in runs].count(18) == 18 - joined

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_stream_is_a_roll(self, rng, monkeypatch, dtype, strategy, threads):
        # with 16-amplitude tiles, and with the default tile on 18 qubits
        for n, bits in ((10, 4), (18, None)):
            amps = random_state(rng, n).amplitudes.astype(dtype)
            state = StateVector(n, amps.copy())
            with pytest.MonkeyPatch.context() as mp:
                if bits is not None:
                    tiny_tiles(mp, bits, dtype)
                tile = (sched._TILE_BYTES // np.dtype(dtype).itemsize).bit_length() - 1
                run, *rest = sched._tile_groups(gen_streaming(n).gates, strategy, tile)
                assert len(rest) < n - 1
                # the optimized run takes gates below one window per tile
                least = min(iteration_count(strategy, tile, gate) for gate in run)
                assert least < sched._BLOCK or strategy is Strategy.BASELINE
                apply_circuit(state, gen_streaming(n), strategy, threads=threads)
            assert state.amplitudes.tobytes() == np.roll(amps, -1).tobytes(), n

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_iterations_summed_over_tiles_follow_the_law(self, monkeypatch, strategy):
        n = 12
        circuit = Circuit(n, [*gen_qft(5).gates, *gen_streaming(n).gates, *gen_qft(4).gates])
        tiny_tiles(monkeypatch, 5, np.complex128)
        # 16-iteration windows: gates of 2 to 8 iterations per tile join too
        monkeypatch.setattr(sched, "_BLOCK", 16)
        groups = sched._tile_groups(circuit.gates, strategy, 5)
        tiled = [gate for group in groups if len(group) > 1 for gate in group]
        least = min(iteration_count(strategy, 5, gate) for gate in tiled)
        assert least < 16 or strategy is Strategy.BASELINE
        rec = StepRecorder(monkeypatch)
        total = apply_circuit(new_state(n), circuit, strategy, threads=2)
        per_gate, calls = {}, {}
        for (size, _, gate), executed in rec.totals().items():
            per_gate[gate] = per_gate.get(gate, 0) + executed
            calls[gate, size] = calls.get((gate, size), 0) + 1
        assert [per_gate[id(g)] for g in circuit.gates] == [
            iteration_count(strategy, n, g) for g in circuit.gates
        ]
        assert total == sum(per_gate.values())
        # every (tile, gate) of a run runs its windows; others run whole
        untiled = [gate for group in groups if len(group) == 1 for gate in group]
        assert calls == {
            **{(id(g), 5): 1 << (n - 5) for g in tiled},
            **{(id(g), n): 1 for g in untiled},
        }

    def test_workers_take_contiguous_ranges_of_whole_tiles(self, rng, monkeypatch):
        # 32 tiles of 16 amplitudes on 3 workers: ranges of 10, 11 and 11
        n, bits = 9, 4
        gates = [GateOp(gate_h(), 0), GateOp(gate_x(), 3, (1,)), GateOp(gate_h(), 2)]
        circuit = Circuit(n, gates)
        amps = random_state(rng, n).amplitudes
        want = StateVector(n, amps.copy())
        for gate in circuit.gates:
            apply_gate(want, gate)
        submitted = []

        class Pool(ThreadPoolExecutor):
            def submit(self, fn, *args):
                submitted.append(args)
                return super().submit(fn, *args)

        tiny_tiles(monkeypatch, bits, amps.dtype)
        rec = StepRecorder(monkeypatch)
        got = StateVector(n, amps.copy())
        with Pool(max_workers=3) as pool:
            monkeypatch.setattr(sched, "_pool", lambda: pool)
            executed = apply_circuit(got, circuit, threads=3)
        assert executed == sum(iteration_count(Strategy.OPTIMIZED, n, g) for g in circuit.gates)
        assert submitted == [(0, 10), (10, 21), (21, 32)]
        totals = rec.totals()
        assert len(totals) == 3 * 32 and {size for size, _, _ in totals} == {bits}
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_tiles_are_views(self, strategy):
        # a 16 MiB state: tiled like a single gate, in O(block) memory
        gates = [GateOp(gate_h(), 0), GateOp(gate_x(), 1, (0,)), GateOp(gate_h(), 15)]
        circuit = Circuit(20, gates)
        assert len(sched._tile_groups(circuit.gates, strategy, 16)) == 1
        state = new_state(20)
        tracemalloc.start()
        try:
            apply_circuit(state, circuit, strategy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_random_circuits_equal_gate_by_gate(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        bits = data.draw(st.integers(3, 5), label="tile bits")
        n = data.draw(st.integers(bits, 9), label="n")
        size = data.draw(st.integers(2, 8), label="gates")
        threads = data.draw(st.sampled_from([1, 2, 3]), label="threads")
        dtype = data.draw(st.sampled_from([np.complex128, np.complex64]), label="dtype")
        strategy = data.draw(st.sampled_from(list(Strategy)), label="strategy")
        strided = data.draw(st.booleans(), label="strided")
        rng = np.random.default_rng(seed)
        # each gate on the tile's qubits or on the whole register
        gates = [random_gate(rng, bits if rng.integers(2) else n) for _ in range(size)]
        amps = random_state(rng, n).amplitudes.astype(dtype)
        buf = rng.normal(size=2 << n).astype(dtype)
        gap = buf[1::2].copy()
        with pytest.MonkeyPatch.context() as mp:
            tiny_tiles(mp, bits, dtype)
            want = StateVector(n, amps.copy())
            for gate in gates:
                apply_gate(want, gate, strategy)
            if strided:
                buf[::2] = amps
                got = StateVector(n, buf[::2])
            else:
                got = StateVector(n, amps.copy())
            apply_circuit(got, Circuit(n, gates), strategy, threads=threads)
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert buf[1::2].tobytes() == gap.tobytes()


class TestWorkerWindows:
    """Work on one worker runs in windows of _BLOCK iterations, work on
    several in windows of 4 * _BLOCK, with the real constants."""

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_plans_get_the_window_of_the_workers(self, monkeypatch, strategy):
        monkeypatch.setattr(sched, "usable_cpus", lambda: 2)
        windows = []
        plan = sched._plan

        def spy(num_qubits, target, controls, window, swap):
            windows.append((num_qubits, controls, window))
            return plan(num_qubits, target, controls, window, swap)

        monkeypatch.setattr(sched, "_plan", spy)
        # one untiled gate of 2**17 iterations, then stream:18, whose gates
        # 0-6 (optimized) or 0-15 (baseline) form a run on 16-qubit tiles
        joined = 7 if strategy is Strategy.OPTIMIZED else 16
        for threads, widest in ((1, _BLOCK), (2, 4 * _BLOCK)):
            windows.clear()
            apply_gate(new_state(18), GateOp(gate_h(), 9), strategy, threads=threads)
            assert windows == [(18, (), widest)]
            windows.clear()
            apply_circuit(new_state(18), gen_streaming(18), strategy, threads=threads)
            tiled = [w for n, _, w in windows if n == 16]
            assert len(tiled) == joined and max(tiled) == widest
            for n, controls, window in windows:
                # an untiled gate of fewer than 2 * _MIN_CHUNK iterations
                # runs on one worker
                count = 1 << (n - 1 - len(controls))
                several = n == 16 or count >= 2 * _MIN_CHUNK
                assert window == min(count, widest if several else _BLOCK)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_tile_groups_do_not_depend_on_threads(self, monkeypatch, strategy):
        monkeypatch.setattr(sched, "usable_cpus", lambda: 2)
        groups = []
        tile_groups = sched._tile_groups

        def spy(*args):
            groups.append(tile_groups(*args))
            return groups[-1]

        monkeypatch.setattr(sched, "_tile_groups", spy)
        for circuit in (gen_streaming(18), gen_qft(17)):
            groups.clear()
            for threads in (1, 2):
                apply_circuit(new_state(circuit.num_qubits), circuit, strategy, threads=threads)
            assert len(groups) == 2 and groups[0] == groups[1]
            assert any(len(group) > 1 for group in groups[0])

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize(
        "circuit", [gen_streaming(18), gen_qft(17)], ids=["stream18", "qft17"]
    )
    def test_one_and_two_threads_give_the_same_bytes(self, rng, monkeypatch, circuit, strategy):
        monkeypatch.setattr(sched, "usable_cpus", lambda: 2)
        n = circuit.num_qubits
        amps = random_state(rng, n).amplitudes
        one, two = StateVector(n, amps.copy()), StateVector(n, amps.copy())
        assert apply_circuit(one, circuit, strategy, threads=1) == apply_circuit(
            two, circuit, strategy, threads=2
        )
        assert one.amplitudes.tobytes() == two.amplitudes.tobytes()
