import concurrent.futures
import os
import signal
import threading
import time
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

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
    gate_y,
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
from svsched.core import PAGE_BYTES
from svsched.oracle import dense_apply, gate_to_dense
from svsched.sched import _BLOCK, _MIN_CHUNK, _worker_count
from svsched.verify import all_geometries, random_gate_matrix, random_state, verify_plans
from conftest import basis_state, placed


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

    @pytest.mark.parametrize("n", [4, 14])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_value_strings_run_as_their_members(self, rng, strategy, n):
        gate = GateOp(random_gate_matrix(rng), 0, (1,))
        circuit = Circuit(n, [gate, GateOp(gate_h(), 2), GateOp(gate_x(), 1, (3,))])
        start = random_state(rng, n)
        for run in (
            lambda state, how: apply_gate(state, gate, how),
            lambda state, how: apply_circuit(state, circuit, how),
        ):
            a, b = start.copy(), start.copy()
            assert run(a, strategy) == run(b, strategy.value)
            assert a.amplitudes.tobytes() == b.amplitudes.tobytes()
        assert iteration_count(strategy.value, n, gate) == iteration_count(strategy, n, gate)

    def test_a_public_call_coerces_its_strategy_once(self, monkeypatch):
        # a member runs every gate of a call without a coercion, and a value
        # string is coerced once at the public entry it is passed to
        calls = []
        meta = type(Strategy)
        coerce = meta.__call__

        def spy(cls, *args, **kwargs):
            if cls is Strategy:
                calls.append(args)
            return coerce(cls, *args, **kwargs)

        monkeypatch.setattr(meta, "__call__", spy)
        circuit = gen_squaring(3)  # tiled runs and gates run whole
        gate = circuit.gates[-1]
        for strategy in Strategy:
            for how, want in ((strategy, []), (strategy.value, [(strategy.value,)])):
                for run in (
                    lambda: apply_circuit(new_state(circuit.num_qubits), circuit, how),
                    lambda: apply_gate(new_state(circuit.num_qubits), gate, how),
                    lambda: iteration_count(how, circuit.num_qubits, gate),
                ):
                    calls.clear()
                    run()
                    assert calls == want, (how, run)

    def test_unknown_strategy_name_raises(self):
        gate = GateOp(gate_x(), 0, (1,))
        with pytest.raises(ValueError, match="bogus"):
            apply_gate(new_state(4), gate, "bogus")
        with pytest.raises(ValueError, match="bogus"):
            apply_circuit(new_state(4), Circuit(4, [gate]), "bogus")
        with pytest.raises(ValueError, match="bogus"):
            iteration_count("bogus", 4, gate)


class TestBaselineApply:
    @pytest.mark.parametrize("matrix", [gate_h(), gate_x()], ids=["h", "x"])
    def test_an_index_past_the_state_raises_and_writes_nothing(self, rng, monkeypatch, matrix):
        # the gather onto the scratch wraps an index past the state, and the
        # write-back with the same key must raise before it writes any pair
        template = sched._template

        def past(width, target):
            tpl = template(width, target).copy()
            tpl[-1] += 1 << 10
            return tpl

        monkeypatch.setattr(sched, "_template", past)
        state = random_state(rng, 10)
        before = state.amplitudes.tobytes()
        with pytest.raises(IndexError):
            apply_gate(state, GateOp(matrix, 3), Strategy.BASELINE)
        assert state.amplitudes.tobytes() == before

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
        # the pool's size, recorded instead of starting the pool; _pool
        # imports the executor when it first builds the pool
        sizes = []
        monkeypatch.setattr(
            concurrent.futures, "ThreadPoolExecutor", lambda max_workers: sizes.append(max_workers)
        )
        sched._pool.cache_clear()
        try:
            sched._pool()
        finally:
            sched._pool.cache_clear()
        assert sizes == [1]
        # 16 MiB of state and its 4 KiB page, a 6 MiB output chunk and one
        # worker's 1 MiB
        needed = (16 << 20) + 4096 + (6 << 20) + (1 << 20)
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

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_a_high_control_keeps_the_window_within_the_block(self, strategy):
        # control 19 is iteration bit 18, above the bits of any window, so
        # a baseline window of 4 * _BLOCK iterations would keep all its pairs
        state = new_state(20)
        tracemalloc.start()
        try:
            apply_gate(state, GateOp(gate_h(), 7, (19,)), strategy)
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
        # enough CPUs that 3 workers take shares of different sizes, 2, 1
        # and 1 tiles, of stream:18's run of 4 tiles of 2**16 amplitudes
        monkeypatch.setattr(sched, "usable_cpus", lambda: 4)
        assert (1 << (18 - 16)) % 3
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
        assert strided.amplitudes.flags.c_contiguous  # a copy of the input
        dense = StateVector(n, amps.copy())
        apply_circuit(strided, circuit, strategy, threads=threads)
        apply_circuit(dense, circuit, strategy, threads=threads)
        assert strided.amplitudes.tobytes() == dense.amplitudes.tobytes()
        assert not buf[1::2].any()
        assert buf[::2].tobytes() == amps.tobytes()

    @pytest.mark.parametrize("matrix", [gate_h(), gate_x()], ids=["h", "x"])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_strided_amplitudes_assigned_later_are_refused(self, rng, dtype, matrix):
        # the optimized kernel serves the C-contiguous layout StateVector keeps
        n = 8
        state = StateVector(n, np.zeros(1 << n, dtype))
        buf = (rng.normal(size=2 << n) + 1j * rng.normal(size=2 << n)).astype(dtype)
        kept = buf.copy()
        state.amplitudes = buf[::2]
        with pytest.raises(ValueError):
            apply_gate(state, GateOp(matrix, 3, (1,)), Strategy.OPTIMIZED)
        assert buf.tobytes() == kept.tobytes()

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

    A kernel selects the pairs of a window with one key into two arrays,
    ``xs`` and ``ys``: an index array into the state (the baseline) or a
    basic index into a strided view of it (the optimized kernel). Either way
    the key on an array's data offset and strides, laid over ``arange``
    instead of the amplitudes, gives the basis indices. An element of a
    swap's view may be a run of several amplitudes; it stands for all of
    them, in order.
    """

    def __init__(self, monkeypatch):
        self.amps = None
        self.seen = []  # (first indices, second indices, bytes from xs to ys) per update
        self.widths = set()  # amplitudes per element of the arrays updated
        update = sched._update_pairs

        def spy(xs, ys, key, mat):
            # one pair definition: ys is xs laid over the state higher up
            assert (ys.shape, ys.dtype, ys.strides) == (xs.shape, xs.dtype, xs.strides)
            # an index array is gathered by take, never from a plan's view
            assert isinstance(key, int) or (xs.ndim == 1 and xs.flags.c_contiguous)
            gap = ys.__array_interface__["data"][0] - xs.__array_interface__["data"][0]
            self.seen.append((self.indices(xs, key), self.indices(ys, key), gap))
            self.widths.add(xs.itemsize // self.amps.itemsize)
            update(xs, ys, key, mat)

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
        """The first pair elements in update order; checks every partner,
        and that each update's ys starts ``stride`` amplitudes past its xs."""
        for p1, p2, gap in self.seen:
            assert np.array_equal(p2, p1 + stride) and gap == stride * self.amps.itemsize
        return np.concatenate([p1 for p1, _, _ in self.seen] or [np.empty(0, np.int64)])


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
        # 3 workers, as the gate's 2**16 pairs call for under either
        # scheduler, take interleaved shares of its 16 (baseline) or 4
        # (optimized) windows, each of 4 * _BLOCK iterations, as work on
        # several workers; 3 divides neither count, so the shares differ
        monkeypatch.setattr(sched, "usable_cpus", lambda: 4)
        monkeypatch.setattr(sched, "_MIN_CHUNK", _BLOCK)
        rec = PairRecorder(monkeypatch)
        steps = StepRecorder(monkeypatch)
        submitted = []

        class Pool(ThreadPoolExecutor):
            def submit(self, fn, *args):
                submitted.append(args)  # a worker's share of windows
                return super().submit(fn, *args)

        n, t, controls = 19, 9, (2, 14)
        gate = GateOp(gate_h(), t, controls)
        count = iteration_count(strategy, n, gate)
        windows = count // (4 * _BLOCK)
        pairs = iteration_count(Strategy.OPTIMIZED, n, gate)
        assert _worker_count(pairs, 3) == 3 and windows % 3
        state = new_state(n)
        rec.amps = state.amplitudes
        with Pool(max_workers=3) as pool:
            monkeypatch.setattr(sched, "_pool", lambda: pool)
            assert apply_gate(state, gate, strategy, threads=3) == count
        assert submitted == [(range(j, windows, 3),) for j in range(3)]
        assert sorted(w for _, _, _, _, w in steps.steps) == list(range(windows))
        got = np.sort(rec.first_indices(1 << t))
        assert np.array_equal(got, expected_pair_indices(strategy, n, t, controls))

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_one_worker_runs_every_window_in_order_on_the_caller(
        self, monkeypatch, strategy, threads
    ):
        # 8-iteration blocks: the gate runs windows of 16 iterations, 8
        # (baseline, whose control lies above a 32-iteration window's bits)
        # or 4 (optimized), too few iterations for a second worker at any
        # thread count
        monkeypatch.setattr(sched, "_BLOCK", 8)
        monkeypatch.setattr(sched, "_pool", lambda: pytest.fail("a one-worker gate used the pool"))
        resolve = sched._resolve
        ran = []

        def spy(amps, gate, strategy, window):
            step = resolve(amps, gate, strategy, window)

            def traced(w):
                ran.append((threading.get_ident(), w))
                step(w)

            return traced

        monkeypatch.setattr(sched, "_resolve", spy)
        n, gate = 8, GateOp(gate_h(), 3, (6,))
        count = iteration_count(strategy, n, gate)
        window = 16
        assert apply_gate(new_state(n), gate, strategy, threads=threads) == count
        assert ran == [(threading.get_ident(), w) for w in range(count // window)]

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
    def test_baseline_windows_of_several_rows_match_dense_oracle(self, rng, monkeypatch, dtype):
        # 2-iteration blocks: from 3 qubits a baseline window is 2 or 4
        # rows of the template, each at its own start. x swaps, h takes
        # the general update, whose bytes the strided reference gives.
        monkeypatch.setattr(sched, "_BLOCK", 2)
        windows = StepRecorder(monkeypatch).resolved
        rows = set()
        for n, t, controls in all_geometries(2, 6):
            amps = random_state(rng, n).amplitudes.astype(dtype)
            x = GateOp(gate_x(), t, controls)
            state = StateVector(n, amps.copy())
            expected = dense_apply(gate_to_dense(x, n), state).amplitudes.astype(dtype)
            windows.clear()
            apply_gate(state, x, Strategy.BASELINE)
            assert state.amplitudes.tobytes() == expected.tobytes(), (n, t, controls)
            rows.add(windows[0][2] // 2)
            h = GateOp(gate_h(), t, controls)
            state = StateVector(n, amps.copy())
            expected = amps.copy()
            strided_reference(expected, n, h)
            apply_gate(state, h, Strategy.BASELINE)
            assert state.amplitudes.tobytes() == expected.tobytes(), (n, t, controls)
        assert rows == {1, 2, 4}

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
        # the same gates under 8- and 4096-iteration blocks in one process;
        # the baseline's plan is its gate's without the controls, beside its
        # index template
        n, t, controls = 14, 5, (2, 9)
        rec = PairRecorder(monkeypatch)
        want = expected_pair_indices(strategy, n, t, controls)
        caches = [sched._plan] if strategy is Strategy.OPTIMIZED else list(CACHES)
        clear_caches()
        for block in (8, 4096):
            monkeypatch.setattr(sched, "_BLOCK", block)
            misses = [cache.cache_info().misses for cache in caches]
            for matrix in (gate_h(), gate_x()):
                rec.seen.clear()
                state = new_state(n)
                rec.amps = state.amplitudes
                apply_gate(state, GateOp(matrix, t, controls), strategy)
                assert np.array_equal(rec.first_indices(1 << t), want), (block, matrix)
            for cache, missed in zip(caches, misses):
                assert cache.cache_info().misses > missed, cache

    def test_thirty_qubit_plan_holds_o_n_ints(self):
        # built without a state; the mapping runs on 29 - 2 reduced bits only
        n, t, controls = 30, 7, (3, 20)
        dtype = np.dtype(np.complex128)
        tracemalloc.start()
        try:
            plan = sched._plan(n, t, controls, _BLOCK, True, dtype)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        # 2**15 windows: the half tables hold 2**8 and 2**7 starts
        free = [q for q in range(n) if q not in (t, *controls)]
        hops = [1 << q >> 3 for q in free[_BLOCK.bit_length() - 1 :]]
        assert len(hops) == 15
        assert len(plan.lo) + len(plan.hi) <= 2 * 2 ** ((len(hops) + 1) // 2)
        ints = [*plan.lo, *plan.hi, *plan.shape, *plan.strides]
        assert all(type(v) is int for v in ints)
        assert len(plan.shape) + len(plan.strides) <= 2 * n
        # qubits 0-2 are free: runs of 8 amplitudes, and the plan counts them;
        # lo folds in the fixed bits, and each half steps by its hops
        assert plan.dtype.itemsize == 8 * dtype.itemsize
        assert plan.lo[0] == ((1 << 3) | (1 << 20)) >> 3 and plan.hi[0] == 0
        h = len(plan.lo).bit_length() - 1
        steps = [plan.lo[1 << k] - plan.lo[0] for k in range(h)]
        assert steps + [plan.hi[1 << k] for k in range(len(hops) - h)] == hops
        # windows in and past the low table, in elements of 8 amplitudes,
        # started as _resolve starts them: Python ints, which _update_pairs
        # takes as a basic key
        ws = [*range(16), (1 << h) - 1, 1 << h, (1 << h) + 1, (1 << 15) - 1]
        starts = [plan.start(w) for w in ws]
        assert all(type(s) is int for s in starts)
        first = np.array(ws, dtype=np.int64) * _BLOCK
        want = ith_cleared(reduced_to_global(first, t, controls), t) >> 3
        assert starts == want.tolist()

    def test_thirty_qubit_call_tables(self):
        # Besides its windows, a gate call holds its plan, built here from
        # cold caches: two half tables of window starts, 256 + 256 for an
        # uncontrolled gate on 30 qubits in windows of 2 * _BLOCK
        # iterations, and no table over the whole register. The optimized
        # kernel's call adds two views of the state to it, traced here
        # without a state; the baseline's, over a zero-stride stand-in for
        # a 30-qubit state, its template and its rows' offsets.
        n, dtype = 30, np.dtype(np.complex128)
        window = sched._window(1, Strategy.OPTIMIZED, GateOp(gate_h(), 7))
        assert window == 2 * _BLOCK
        clear_caches()
        tracemalloc.start()
        try:
            plan = sched._plan(n, 7, (), window, False, dtype)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(plan.lo) == len(plan.hi) == 1 << 8
        assert held < 64 << 10
        del plan
        amps = np.broadcast_to(dtype.type(0), (1 << n,))
        for window, controls in ((2 * _BLOCK, ()), (4 * _BLOCK, (0,))):
            clear_caches()
            tracemalloc.start()
            try:
                gate = GateOp(gate_h(), 7, controls)
                step = sched._resolve(amps, gate, Strategy.BASELINE, window)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert held < 64 << 10 and peak < 192 << 10, (held, peak)
            del step

    def test_plans_at_every_register_size_place_sampled_pairs(self):
        # Without a state: at every register size the CLI accepts, sampled
        # pairs of the first, last and seeded windows of each plan either
        # kernel runs, read from its half tables, shape, byte strides and
        # element size alone, are the pairs the mapping gives, and its
        # lattice stays in the state also 2**t higher (verify.check_plan).
        tracemalloc.start()
        try:
            assert verify_plans(22) == (792, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_cache_is_bounded(self):
        # every cache of per-gate work, not only the plans
        for cache in CACHES:
            assert 0 < cache.cache_info().maxsize <= 4096


CACHES = (sched._plan, sched._template)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


class TestWarmGates:
    """A gate on a geometry seen before pays only the per-call floor."""

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_second_call_builds_nothing(self, monkeypatch, strategy):
        # 4 windows of 4 * _BLOCK iterations (baseline, whose control 0
        # halves every window) or 2 of 2 * _BLOCK (optimized); each looks up
        # its plan, the baseline's without the controls, and only the
        # baseline calls ith_cleared, once on its window's row offsets, not
        # on every row of the register
        calls = []

        def spy(name):
            real = getattr(sched, name)

            def wrapper(*args):
                out = real(*args)
                calls.append((name, args, out))
                return out

            monkeypatch.setattr(sched, name, wrapper)

        for name in ("reduced_to_global", "ith_cleared", "_plan", "_matrix_scalars"):
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
            (_, _, mat), *rest = calls
            if mat is None:
                assert first[0] is None
            else:
                assert np.array(mat).tobytes() == np.array(first[0]).tobytes()
            (name, args, _), *rest = rest
            assert name == "_plan", matrix
            if strategy is Strategy.OPTIMIZED:
                assert args[:4] == (17, 3, (0, 7), 2 * _BLOCK) and not rest, matrix
            else:
                assert args[:5] == (17, 3, (), 4 * _BLOCK, False)
                (name, (rows, t), _), = rest
                assert name == "ith_cleared" and t == 3
                assert rows.tolist() == list(range(0, 4 * _BLOCK, _BLOCK))
            calls.clear()

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_warm_windows_allocate_no_pair_copies(self, strategy, precision):
        # an h and an x on target 9 of 2**18 iterations on one worker, whose
        # copies and products go on the thread's scratch under either kernel,
        # so a warm call allocates less than one window's pairs, or under the
        # baseline only one window's index arrays: its first pair indices,
        # and for a controlled gate their masked bits, the mask, and the
        # survivors with their indices. Control 0 flips the mask on every
        # iteration, control 12 does not; both halve a window of 4 * _BLOCK
        # iterations. 8 KiB more covers the call's row offsets and objects.
        state = new_state(19, precision)
        for controls in ((), (0,), (12,)):
            window = one_worker_window(strategy, controls)
            kept = window >> len(controls)
            arrays = 8 * window + (9 * window + 16 * kept if controls else 0)
            bound = {
                Strategy.OPTIMIZED: 2 * _BLOCK * state.amplitudes.itemsize,
                Strategy.BASELINE: arrays + (8 << 10),
            }[strategy]
            for matrix in (gate_h(), gate_x()):
                gate = GateOp(matrix, 9, controls)
                apply_gate(state, gate, strategy)
                tracemalloc.start()
                try:
                    apply_gate(state, gate, strategy)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < bound, (matrix, controls)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_a_swap_keeps_two_copies_and_h_four(self, monkeypatch, strategy):
        # warm swap-only windows, of x, cx and ccx in turn, hold their two
        # halves on a fresh scratch; an h then grows it to four copies, its
        # halves and products. 8 KiB more covers the buffer's views
        state = new_state(19)
        pairs = 2 * _BLOCK * state.amplitudes.itemsize  # one copy of a window
        swaps = [GateOp(gate_x(), 9, controls) for controls in ((), (0,), (0, 12))]
        h = GateOp(gate_h(), 9)
        for gate in (*swaps, h):
            apply_gate(state, gate, strategy)
        monkeypatch.setattr(sched, "_scratch", sched._Scratch())
        tracemalloc.start()
        try:
            for gate in swaps:
                apply_gate(state, gate, strategy)
            two = tracemalloc.get_traced_memory()[0]
            apply_gate(state, h, strategy)
            four = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 2 * pairs <= two < 2 * pairs + (8 << 10)
        assert 4 * pairs <= four < 4 * pairs + (8 << 10)

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_the_scratch_starts_on_a_page(self, monkeypatch, strategy, precision):
        # an x's two copies of a window, then an h's four, each grow a
        # fresh scratch's buffer, which starts on a page as the state does
        state = new_state(19, precision)
        monkeypatch.setattr(sched, "_scratch", sched._Scratch())
        for gate in (GateOp(gate_x(), 9), GateOp(gate_h(), 9)):
            size = sched._scratch.buf.size
            apply_gate(state, gate, strategy)
            assert sched._scratch.buf.size > size
            assert sched._scratch.buf.ctypes.data % PAGE_BYTES == 0, gate

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


class TestMatrixScalars:
    """A gate's matrix is cast on every call, and an X resolves to None,
    which every window of the gate runs as a swap."""

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_x_is_none_and_other_matrices_are_cast(self, dtype):
        assert sched._matrix_scalars(gate_x(), dtype) is None
        # decided on the cast scalars: -0.0 == 0, and 1 + 1e-12 is 1 in single
        assert sched._matrix_scalars(GateMatrix(-0.0, 1, 1, -0.0), dtype) is None
        near = sched._matrix_scalars(GateMatrix(0, 1 + 1e-12, 1, 0), dtype)
        assert (near is None) == (dtype is np.complex64)
        for matrix in (gate_h(), gate_y()):
            mat = sched._matrix_scalars(matrix, dtype)
            assert type(mat) is tuple and all(type(v) is dtype for v in mat)
            want = np.array((matrix.a, matrix.b, matrix.c, matrix.d), dtype)
            assert np.array(mat).tobytes() == want.tobytes()

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_every_window_of_x_cx_ccx_swaps(self, monkeypatch, strategy):
        # 8-iteration blocks on 9 qubits: 16, 8 and 4 optimized windows of
        # 16 iterations; 16 baseline windows of 16 iterations, then 8 of 32,
        # of which the ccx's control 6 leaves 4 with pairs to update
        monkeypatch.setattr(sched, "_BLOCK", 8)
        mats = []
        update = sched._update_pairs

        def spy(xs, ys, key, mat):
            mats.append(mat)
            update(xs, ys, key, mat)

        monkeypatch.setattr(sched, "_update_pairs", spy)
        updates = (16, 8, 4)
        for controls, want in zip(((), (1,), (1, 6)), updates):
            mats.clear()
            apply_gate(new_state(9), GateOp(gate_x(), 3, controls), strategy)
            assert len(mats) == want and all(mat is None for mat in mats), controls


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
                run = min(t, *controls, (2 * block).bit_length() - 1)
                assert rec.widths == {1 << run if strategy is Strategy.OPTIMIZED else 1}
                # every other amplitude of a buffer: a stride of two elements
                buf = rng.normal(size=2 << n).astype(dtype)
                gap = buf[1::2].copy()
                buf[::2] = amps
                strided = StateVector(n, buf[::2])
                rec.amps, rec.widths = strided.amplitudes, set()
                apply_gate(strided, gate, strategy)
                assert strided.amplitudes.tobytes() == want.tobytes(), (n, t, controls)
                # the state holds a contiguous copy, so it takes the wide swap
                assert rec.widths == {1 << run if strategy is Strategy.OPTIMIZED else 1}
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
    """Wraps ``sched._apply_run`` and ``sched._resolve``: records the tile
    bits, tile, gate, iterations and index within the tile of every window
    the resolved gates run, and the tile bits, iterations per tile and
    window of every gate resolved."""

    def __init__(self, monkeypatch):
        self.steps = []
        self.resolved = []
        apply_run, resolve = sched._apply_run, sched._resolve
        run_bits = []

        def run_spy(state, gates, strategy, threads, bits):
            run_bits.append(bits)
            return apply_run(state, gates, strategy, threads, bits)

        def spy(amps, gate, strategy, window):
            step = resolve(amps, gate, strategy, window)
            bits = run_bits[-1]
            count = iteration_count(strategy, bits, gate)
            self.resolved.append((bits, count, window))
            k = count // window  # windows per tile

            def traced(w):
                step(w)
                self.steps.append((bits, w // k, gate, window, w % k))

            return traced

        monkeypatch.setattr(sched, "_apply_run", run_spy)
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
        # 32-iteration blocks: a gate joins from 32 >> 3 = 4 iterations per
        # tile, so every gate below joins with less than one window per tile
        monkeypatch.setattr(sched, "_BLOCK", 32)
        gates = [
            GateOp(gate_h(), 0),
            GateOp(gate_x(), 1, (0,)),
            GateOp(gate_h(), 5),  # a qubit above the tile breaks the run
            GateOp(gate_h(), 2),
            # 2 optimized iterations per 4-qubit tile: under the 4 to join
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
        # least 512 iterations per tile and join.
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
        # 16-iteration blocks: gates of 2 to 8 iterations per tile join too
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

    def test_workers_take_interleaved_whole_tiles(self, rng, monkeypatch):
        # 32 tiles of 16 amplitudes on 3 workers: worker j takes every third
        # tile from tile j, 11, 11 and 10 tiles
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
        assert submitted == [(range(0, 32, 3),), (range(1, 32, 3),), (range(2, 32, 3),)]
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


class TestPlacement:
    """Where a state starts does not change what a gate writes or how many
    iterations it runs: a state handed in whole is kept where it is, here
    at every whole amplitude past a 64-byte line."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_every_offset_in_a_line_gives_the_bytes_on_a_page(
        self, monkeypatch, precision, strategy, threads
    ):
        # tiles of 2**12 amplitudes on 16 qubits, and chunks of 2**10
        # iterations, so two workers split both tiled runs and whole gates
        n, bits = 16, 12
        state = new_state(n, precision)
        dtype = state.amplitudes.dtype
        monkeypatch.setattr(sched, "usable_cpus", lambda: 2)
        monkeypatch.setattr(sched, "_MIN_CHUNK", 1 << 10)
        monkeypatch.setattr(sched, "_TILE_BYTES", dtype.itemsize << bits)
        rng = np.random.default_rng(27)
        gates = [random_gate(rng, bits if k % 3 else n) for k in range(12)]
        groups = sched._tile_groups(gates, strategy, bits)
        assert any(len(g) > 1 for g in groups) and any(len(g) == 1 for g in groups)
        psi0 = random_state(rng, n).amplitudes.astype(dtype)
        state.amplitudes[...] = psi0
        circuit = Circuit(n, gates)
        want = apply_circuit(state, circuit, strategy, threads=threads)
        offsets = range(0, 64, dtype.itemsize)
        assert len(offsets) == {"double": 4, "single": 8}[precision]
        for offset in offsets:
            got = StateVector(n, placed(psi0, offset))
            assert got.amplitudes.ctypes.data % 64 == offset
            assert apply_circuit(got, circuit, strategy, threads=threads) == want
            assert got.amplitudes.tobytes() == state.amplitudes.tobytes(), offset


def one_worker_window(strategy, controls) -> int:
    """The window of a gate on one worker, with the real constants, for
    controls that halve every window of 4 * _BLOCK iterations, or none."""
    if controls and strategy is Strategy.BASELINE:
        return 4 * _BLOCK
    return 2 * _BLOCK


class TestWorkerWindows:
    """Work on several workers runs in windows of 4 * _BLOCK iterations.
    On one worker a window of either kernel keeps at most 2 * _BLOCK
    pairs: 2 * _BLOCK iterations, or 4 * _BLOCK where the baseline masks a
    control that halves every window. With the real constants."""

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_plans_get_the_window_of_the_workers(self, monkeypatch, strategy):
        monkeypatch.setattr(sched, "usable_cpus", lambda: 2)
        windows = StepRecorder(monkeypatch).resolved
        # one untiled gate of 2**17 pairs, then stream:18, whose gate k has
        # controls 0..k-1 and whose gates 0-6 (optimized) or 0-15 (baseline)
        # form a run on 16-qubit tiles
        joined = 7 if strategy is Strategy.OPTIMIZED else 16
        circuit = gen_streaming(18)
        for threads in (1, 2):
            widest = 4 * _BLOCK if threads > 1 else one_worker_window(strategy, ())
            windows.clear()
            apply_gate(new_state(18), GateOp(gate_h(), 9), strategy, threads=threads)
            assert windows == [(18, 1 << 17, widest)]
            windows.clear()
            apply_circuit(new_state(18), circuit, strategy, threads=threads)
            assert [n for n, _, _ in windows].count(16) == joined
            for k, ((n, count, window), gate) in enumerate(zip(windows, circuit.gates)):
                # the run's 4 tiles of 2**16 amplitudes run on several
                # workers, and an untiled gate of fewer than 2 * _MIN_CHUNK
                # pairs, under either scheduler, on one
                pairs = iteration_count(Strategy.OPTIMIZED, n, gate)
                several = threads > 1 and (n == 16 or pairs >= 2 * _MIN_CHUNK)
                widest = 4 * _BLOCK if several else one_worker_window(strategy, range(k))
                assert window == min(count, widest), k

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_baseline_windows_keep_at_most_two_blocks_of_pairs(self, monkeypatch, strategy):
        # gates of 2**17 iterations or more: several workers at 2 threads, one at 1
        monkeypatch.setattr(sched, "usable_cpus", lambda: 2)
        windows = StepRecorder(monkeypatch).resolved
        kept = []  # pairs each baseline window updates, from its index array
        update = sched._update_pairs

        def spy(xs, ys, key, mat):
            kept.append(np.size(key))
            update(xs, ys, key, mat)

        monkeypatch.setattr(sched, "_update_pairs", spy)
        gates = (
            GateOp(gate_x(), 7, (0,)),  # control 0 halves every window
            GateOp(gate_h(), 7),
            GateOp(gate_h(), 7, (19,)),  # iteration bit 18: all pairs or none
            GateOp(gate_h(), 7, (14,)),  # iteration bit 13, the widest window's last
            GateOp(gate_h(), 7, (0, 15)),  # bit 14 is above the widest window's bits
        )
        for threads in (1, 2):
            for gate, halved in zip(gates, (True, False, False, True, True)):
                windows.clear()
                kept.clear()
                apply_gate(new_state(20), gate, strategy, threads=threads)
                want = 4 * _BLOCK if threads > 1 else one_worker_window(strategy, halved)
                assert windows == [(20, iteration_count(strategy, 20, gate), want)], gate
                if strategy is Strategy.BASELINE and threads == 1:
                    assert max(kept) == 2 * _BLOCK, gate

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
    def test_workers_keep_their_own_scratch(self, rng, monkeypatch, strategy):
        # four workers on a pool of their own: a spy on the scratch records
        # the threads that get each buffer, and holds each thread's first
        # window until a second thread has asked too, so at least two
        # threads share the work whatever the host's scheduling; a scratch
        # shared between threads gives one buffer a second owner
        monkeypatch.setattr(sched, "usable_cpus", lambda: 4)
        amps = random_state(rng, 18).amplitudes
        gates = (GateOp(gate_h(), 9), GateOp(gate_x(), 3, (0,)))
        want = StateVector(18, amps.copy())
        for gate in gates:
            apply_gate(want, gate, strategy)
        owners, kept, lock, two = {}, [], threading.Lock(), threading.Event()
        call = sched._Scratch.__call__

        def spy(self, shape, dtype, copies):
            views = call(self, shape, dtype, copies)
            with lock:
                kept.append(self.buf)  # so no buffer's id is reused
                owners.setdefault(id(self.buf), set()).add(threading.get_ident())
                if len(set().union(*owners.values())) > 1:
                    two.set()
            assert two.wait(10), "a second thread never asked for a scratch"
            return views

        monkeypatch.setattr(sched._Scratch, "__call__", spy)
        pool = ThreadPoolExecutor(max_workers=4)
        monkeypatch.setattr(sched, "_pool", lambda: pool)
        got = StateVector(18, amps.copy())
        try:
            for gate in gates:
                apply_gate(got, gate, strategy, threads=4)
        finally:
            pool.shutdown()
        assert len(set().union(*owners.values())) > 1
        assert all(len(threads) == 1 for threads in owners.values()), owners
        assert got.amplitudes.tobytes() == want.amplitudes.tobytes()

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


class InlinePool:
    """Stands in for ``sched._pool()``: runs each submission at once on the
    calling thread, and records its arguments."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, *args):
        self.submitted.append(args)
        future = Future()
        future.set_result(fn(*args))
        return future


class TestWorkerRule:
    """The workers of a gate, or of a tiled run, follow the pairs it updates
    under either scheduler, and worker j of W takes the units j, j+W, ...;
    with the real constants, usable_cpus patched and no thread started."""

    @pytest.mark.parametrize(
        "circuit", [gen_qft(16), gen_streaming(18), gen_squaring(3)], ids=["qft16", "stream18", "sq3"]
    )
    def test_both_schedulers_run_on_the_same_workers(self, monkeypatch, circuit):
        monkeypatch.setattr(sched, "usable_cpus", lambda: 4)
        pool = InlinePool()
        monkeypatch.setattr(sched, "_pool", lambda: pool)
        split, splits = sched._split, []

        def spy(units, workers, walk):
            splits.append((units, workers))
            return split(units, workers, walk)

        monkeypatch.setattr(sched, "_split", spy)
        n = circuit.num_qubits
        bits = min(n, (sched._TILE_BYTES // 16).bit_length() - 1)
        # every gate run whole, and every tiled run either scheduler forms
        runs = [([gate], n) for gate in circuit.gates] + [
            (group, bits)
            for strategy in Strategy
            for group in sched._tile_groups(circuit.gates, strategy, bits)
            if len(group) > 1
        ]
        state, seen = new_state(n), {}
        for strategy in Strategy:
            splits.clear()
            pool.submitted.clear()
            for gates, b in runs:
                for threads in range(1, 5):
                    sched._apply_run(state, gates, strategy, threads, b)
            seen[strategy] = list(splits), list(pool.submitted)
        (base, _), (opt, _) = seen.values()
        assert [w for _, w in base] == [w for _, w in opt]
        # a lone gate of fewer than 2 * _MIN_CHUNK pairs, at any thread count
        small = [
            len(gates) == 1 and iteration_count(Strategy.OPTIMIZED, b, gates[0]) < 2 * _MIN_CHUNK
            for gates, b in runs for _ in range(4)
        ]
        assert len(small) == len(base) and [w for (_, w), s in zip(base, small) if s] == [1] * sum(small)
        # worker j of W takes every W-th unit from unit j, and each takes one
        for strategy, (done, submitted) in seen.items():
            assert all(w <= units for units, w in done), strategy
            assert submitted == [
                (range(j, units, w),) for units, w in done if w > 1 for j in range(w)
            ], strategy

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_every_worker_gets_units(self, monkeypatch, strategy):
        # 4 threads on 4 CPUs. A run of 2 tiles of 2**16 amplitudes runs on
        # 2 workers, one tile each. An h of 2**16 pairs, controlled by the
        # top qubit, runs on 2 workers: its 4 (optimized) or 8 (baseline)
        # windows of 4 * _BLOCK iterations, where the baseline's first 4
        # fail the control, go to each worker in turn.
        monkeypatch.setattr(sched, "usable_cpus", lambda: 4)
        pool = InlinePool()
        monkeypatch.setattr(sched, "_pool", lambda: pool)
        run = Circuit(17, [GateOp(gate_h(), 0), GateOp(gate_x(), 3, (1,))])
        assert len(sched._tile_groups(run.gates, strategy, 16)) == 1
        executed = apply_circuit(new_state(17), run, strategy, threads=4)
        assert executed == sum(iteration_count(strategy, 17, g) for g in run.gates)
        assert pool.submitted == [(range(0, 2, 2),), (range(1, 2, 2),)]
        pool.submitted.clear()
        gate = GateOp(gate_h(), 5, (17,))
        count = iteration_count(strategy, 18, gate)
        windows = count // (4 * _BLOCK)
        assert apply_gate(new_state(18), gate, strategy, threads=4) == count
        assert pool.submitted == [(range(0, windows, 2),), (range(1, windows, 2),)]
        assert all(len(share) for share, in pool.submitted)
