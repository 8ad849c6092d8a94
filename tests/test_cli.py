import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import svsched.bench
import svsched.cli
import svsched.sched
import svsched.verify
from svsched import (
    CapacityError,
    Circuit,
    GateOp,
    Strategy,
    apply_circuit,
    apply_gate,
    gate_x,
    iteration_count,
    named_gate,
    new_state,
    parse_circuit,
)
from svsched.circuits import parse_int
from svsched.cli import (
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    build_parser,
    main,
    top_amplitudes,
    top_indices,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_qft5_writes_fifteen_gates(self, capsys, tmp_path):
        out_file = tmp_path / "qft5.qc"
        code, _, _ = run_cli(capsys, "gen", "qft:5", "-o", str(out_file))
        assert code == EXIT_OK
        circuit = parse_circuit(out_file.read_text())
        assert len(circuit) == 15

    def test_stream4_controls(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "stream:4")
        assert code == EXIT_OK
        circuit = parse_circuit(out)
        assert [g.num_controls for g in circuit.gates] == [0, 1, 2, 3]

    def test_zero_width_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gen", "qft:0")
        assert code == EXIT_USAGE
        assert "qft:0" in err

    def test_unknown_spec_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "warp:9")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["gen", "run"])
    @pytest.mark.parametrize("spec", ["qft:0_4", "qft: 4", "stream:4 ", "sq:\u0662"])
    def test_spec_parameter_is_ascii_decimal(self, capsys, command, spec):
        code, out, err = run_cli(capsys, command, spec)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: bad generator parameter in {spec!r}\n"

    def test_signed_spec_parameter_keeps_its_message(self, capsys):
        code, _, err = run_cli(capsys, "gen", "qft:-1")
        assert code == EXIT_USAGE
        assert err == "error: bad generator spec 'qft:-1': gen_qft needs at least one qubit\n"

    def test_file_integers_are_ascii_decimal(self, capsys, tmp_path):
        # int() read these as qubits 12, h 10 and a target of 3
        for text in ("qubits 1_2\nh 0\n", "qubits 12\nh 1_0\n", "qubits 4\nrm:3 \u0663 1\n"):
            path = tmp_path / "c.qc"
            path.write_text(text, encoding="utf-8")
            code, out, err = run_cli(capsys, "gen", str(path))
            assert code == EXIT_USAGE
            assert out == ""
            assert err.startswith("error: line ") and "malformed" in err


class TestRun:
    def test_qft_norm_and_iterations(self, capsys):
        code, out, _ = run_cli(capsys, "run", "qft:5", "--scheduler", "optimized")
        assert code == EXIT_OK
        assert "norm: 1.000000000" in out
        assert "iterations executed:" in out

    def test_run_from_file(self, capsys, tmp_path):
        path = tmp_path / "c.qc"
        path.write_text("qubits 2\nh 0\ncx 0 1\n")
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == EXIT_OK
        assert "2 qubits, 2 gates" in out

    def test_streaming_lands_on_single_basis_state(self, capsys):
        code, out, _ = run_cli(capsys, "run", "stream:4", "--top-k", "1")
        assert code == EXIT_OK
        # |0> decrements to |1111>
        assert "|1111>" in out
        assert "p=1.000000" in out

    def test_squaring_with_input(self, capsys):
        code, out, _ = run_cli(capsys, "run", "sq:2", "--input", "3")
        assert code == EXIT_OK
        assert "input register: 3, output register: 9" in out

    def test_input_out_of_register_range(self, capsys):
        code, _, err = run_cli(capsys, "run", "sq:2", "--input", "4")
        assert code == EXIT_USAGE
        assert "input" in err

    def test_input_needs_squaring_layout(self, capsys):
        code, _, err = run_cli(capsys, "run", "qft:4", "--input", "1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("source", ["qft:5", "stream:8"])
    def test_input_needs_a_squaring_spec(self, capsys, source):
        # qft:5 and stream:8 have 3k+2 qubits, but are no squaring circuits
        code, out, err = run_cli(capsys, "run", source, "--input", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: --input needs a squaring circuit, sq:<k>, not {source!r}\n"

    @pytest.mark.parametrize(
        "source, value, message",
        [
            ("qft:29", "1", "--input needs a squaring circuit, sq:<k>, not 'qft:29'"),
            ("sq:9", "999999", "--input 999999 does not fit a 9-bit input register"),
        ],
    )
    def test_input_is_refused_before_the_memory_check_and_the_state(
        self, capsys, monkeypatch, source, value, message
    ):
        # too little memory for the 29-qubit state, and no state to allocate
        def no_state(num_qubits, precision="double"):
            raise AssertionError("new_state called")

        monkeypatch.setattr(svsched.cli, "new_state", no_state)
        monkeypatch.setattr(svsched.cli, "_mem_available", lambda: 123456)
        code, out, err = run_cli(capsys, "run", source, "--input", value)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_capacity_error_names_limit(self, capsys):
        code, _, err = run_cli(capsys, "run", "qft:31")
        assert code == EXIT_CAPACITY
        assert "30" in err

    @pytest.mark.parametrize("message", ["Unable to allocate 4.00 GiB", ""])
    def test_out_of_memory_is_capacity_error(self, capsys, monkeypatch, message):
        def no_memory(num_qubits, precision="double"):
            raise MemoryError(message)

        monkeypatch.setattr(svsched.cli, "new_state", no_memory)
        code, out, err = run_cli(capsys, "run", "qft:4")
        assert code == EXIT_CAPACITY
        assert out == ""
        assert err == f"capacity error: out of memory{': ' + message if message else ''}\n"

    def test_dump_writes_full_state(self, capsys, tmp_path):
        dump = tmp_path / "state.txt"
        code, _, _ = run_cli(capsys, "run", "stream:3", "--dump", str(dump))
        assert code == EXIT_OK
        lines = dump.read_text().strip().split("\n")
        assert len(lines) == 8
        idx, re, im = lines[7].split()
        assert (idx, float(re), float(im)) == ("7", 1.0, 0.0)

    def test_dump_capped(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "qft:17", "--dump", str(tmp_path / "s.txt")
        )
        assert code == EXIT_CAPACITY
        assert "16" in err

    def test_dump_over_cap_refused_before_any_work(self, capsys, monkeypatch, tmp_path):
        def no_work(*args, **kwargs):
            raise AssertionError("simulation work started")

        monkeypatch.setattr(svsched.cli, "_check_memory", no_work)
        monkeypatch.setattr(svsched.cli, "new_state", no_work)
        dump = tmp_path / "s.txt"
        code, out, err = run_cli(
            capsys, "run", "stream:17", "--threads", "1", "--top-k", "1", "--dump", str(dump)
        )
        assert code == EXIT_CAPACITY
        assert out == ""
        assert err == "capacity error: state dump capped at 16 qubits, circuit has 17\n"
        assert not dump.exists()

    def test_memory_check_refuses_before_allocating(self, capsys, monkeypatch):
        def no_state(num_qubits, precision="double"):
            raise AssertionError("new_state called")

        monkeypatch.setattr(svsched.cli, "new_state", no_state)
        monkeypatch.setattr(svsched.cli, "_mem_available", lambda: 123456)
        code, out, err = run_cli(capsys, "run", "qft:20", "--threads", "1")
        assert code == EXIT_CAPACITY
        assert out == ""
        # 16 MiB of state and its 4 KiB page of slack, 6 MiB for the
        # output chunk, 1 MiB for one worker
        state = (16 << 20) + 4096
        needed = state + (6 << 20) + (1 << 20)
        assert err == (
            f"capacity error: run needs {needed} bytes ({state} of state), "
            "123456 bytes are available\n"
        )

    @pytest.mark.parametrize(
        "n, precision, top_k, threads, needed",
        [
            # the state, and the 4 KiB page new_state allocates beyond it
            (10, "double", 8, 1, (16 << 10) + 4096 + (6 << 20) + (1 << 20)),
            # several workers take 2 MiB each, for their wider windows
            (10, "single", 8, 3, (8 << 10) + 4096 + (6 << 20) + (6 << 20)),
            # k is capped at the register; a larger k widens the chunk
            (10, "double", 70000, 1, (16 << 10) + 4096 + (6 << 20) + (1 << 20)),
            (17, "double", 70000, 1, (16 << 17) + 4096 + 70000 * 96 + (1 << 20)),
            # never more workers than CPUs
            (17, "single", 0, 8, (8 << 17) + 4096 + (6 << 20) + (8 << 20)),
        ],
    )
    def test_memory_check_counts_state_chunk_and_workers(
        self, monkeypatch, n, precision, top_k, threads, needed
    ):
        monkeypatch.setattr(svsched.sched, "usable_cpus", lambda: 4)
        monkeypatch.setattr(svsched.cli, "_mem_available", lambda: needed)
        svsched.cli._check_memory(n, precision, top_k, threads)
        monkeypatch.setattr(svsched.cli, "_mem_available", lambda: needed - 1)
        with pytest.raises(CapacityError, match=f"run needs {needed} bytes"):
            svsched.cli._check_memory(n, precision, top_k, threads)

    def test_memory_check_skipped_when_unreadable(self, capsys, monkeypatch):
        monkeypatch.setattr(svsched.cli, "_mem_available", lambda: None)
        assert run_cli(capsys, "run", "qft:4")[0] == EXIT_OK

    def test_memory_check_leaves_the_cap_to_new_state(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(svsched.cli, "_mem_available", lambda: 0)
        path = tmp_path / "big.qc"
        path.write_text("qubits 31\nh 0\n")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == EXIT_CAPACITY
        assert "outside supported range [1, 30]" in err

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("MemTotal:  8000 kB\nMemAvailable:    7756688 kB\n", 7756688 * 1024),
            ("MemTotal:  8000 kB\n", None),
            ("MemAvailable: lots\n", None),
            (None, None),
        ],
    )
    def test_mem_available_reader(self, tmp_path, text, expected):
        path = tmp_path / "meminfo"
        if text is not None:
            path.write_text(text)
        assert svsched.cli._mem_available(str(path)) == expected

    def test_working_set_figures_bound_the_traced_peaks(self, monkeypatch):
        # the pre-flight figures must stay above what the code allocates
        # beyond the state: each worker's gate, on one worker and on two
        # with their wider windows, under each kernel and under both in
        # turn, as a process running both does, and the output pass per
        # chunk amplitude, with k small and with k filling the chunk, on a
        # random state and on one where every probability ties
        monkeypatch.setattr(svsched.sched, "usable_cpus", lambda: 2)
        rng = np.random.default_rng(7)
        kernels = [(s,) for s in Strategy] + [(Strategy.OPTIMIZED, Strategy.BASELINE)]
        for precision in ("double", "single"):
            state = new_state(18, precision)
            apply_circuit(state, Circuit(18, [named_gate("h", q) for q in range(18)]))
            for gate in (named_gate("h", 9), named_gate("x", 9, (0, 3)), named_gate("x", 17)):
                for strategies in kernels:
                    for threads in (1, 2):
                        # a fresh scratch buffer, so the call pays what a cold one does
                        monkeypatch.setattr(svsched.sched, "_scratch", svsched.sched._Scratch())
                        tracemalloc.start()
                        try:
                            for strategy in strategies:
                                apply_gate(state, gate, strategy, threads=threads)
                            peak = tracemalloc.get_traced_memory()[1]
                        finally:
                            tracemalloc.stop()
                        assert peak <= svsched.sched.window_bytes(threads), (gate, strategies, threads)
            dtype = state.amplitudes.dtype
            random = rng.standard_normal(1 << 18).astype(dtype)
            tied = np.full(1 << 18, 2**-9, dtype=dtype)  # every entry ties
            for amps in (random, tied):
                for k in (8, 1 << 16):
                    tracemalloc.start()
                    try:
                        top_amplitudes(amps, k)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    assert peak <= max(1 << 16, k) * svsched.cli._CHUNK_BYTES

    def test_schedulers_agree_on_state_summary(self, capsys):
        _, base, _ = run_cli(capsys, "run", "qft:6", "--scheduler", "baseline")
        _, opt, _ = run_cli(capsys, "run", "qft:6", "--scheduler", "optimized")

        def summary(text):
            # iteration counts legitimately differ; amplitudes must not
            return [l for l in text.split("\n") if not l.startswith(("iterations", "scheduler"))]

        assert summary(base) == summary(opt)


GOLDEN_RUNS = json.loads((Path(__file__).parent / "golden" / "run.json").read_text())


class TestRunGoldenBytes:
    """``run``'s exact stdout, stderr, exit code and ``--dump`` bytes, frozen
    from an earlier implementation: ties, exact zeros of either sign, top-k
    of 0, 1, 64 and more than 2**n, both precisions, registers larger than
    one output chunk, and failing commands. A change to any of these bytes is
    a change of the CLI's output and must be made deliberately, never by
    re-capturing this file.

    A ``source`` that starts with ``qubits`` is circuit text, written to a
    file; ``--dump`` is followed by a path to a fresh file.
    """

    @pytest.mark.parametrize("case", GOLDEN_RUNS, ids=[c["name"] for c in GOLDEN_RUNS])
    def test_run_bytes(self, capsys, tmp_path, case):
        source = case["source"]
        if source.startswith("qubits"):
            path = tmp_path / "circuit.qc"
            path.write_text(source)
            source = str(path)
        argv = ["run", source, *case["args"]]
        if "--dump" in argv:
            argv.insert(argv.index("--dump") + 1, str(tmp_path / "dump.txt"))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (
            case["exit"], "".join(case["stdout"]), "".join(case["stderr"])
        )
        if case["dump"] is not None:
            assert (tmp_path / "dump.txt").read_text() == "".join(case["dump"])


class TestVerify:
    def test_small_verify_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n-max", "4", "--cases", "25", "--seed", "7"
        )
        assert code == EXIT_OK
        assert "all geometries verified" in out

    def test_output_is_deterministic(self, capsys):
        args = ("verify", "--n-max", "3", "--cases", "10", "--seed", "3")
        code1, out1, err1 = run_cli(capsys, *args)
        code2, out2, err2 = run_cli(capsys, *args)
        assert (code1, code2) == (EXIT_OK, EXIT_OK)
        assert out1 == out2
        assert err1 == err2

    def test_corrupted_mapping_is_reported(self, capsys, monkeypatch):
        real = svsched.verify.reduced_to_global

        def corrupted(i_r, target, controls):
            mapped = real(i_r, target, controls)
            # break exactly the 3-qubit, target-1, control-{0} geometry
            if target == 1 and tuple(controls) == (0,) and np.size(i_r) == 2:
                return mapped[::-1] * 0
            return mapped

        monkeypatch.setattr(svsched.verify, "reduced_to_global", corrupted)
        code, out, _ = run_cli(capsys, "verify", "--n-max", "4", "--cases", "1")
        assert code == EXIT_VERIFY
        assert "mismatch at (n=3, t=1, C={0})" in out

    def test_a_plan_whose_last_hop_is_off_by_one_is_reported(self, capsys, monkeypatch):
        # the mapping suite reads the plans the kernels run: the last entry
        # of the high half table one element low moves the last windows'
        # pairs, which the suite must name, not an exception
        real = svsched.sched._plan

        def mutant(*args):
            plan = real(*args)
            return plan._replace(hi=(*plan.hi[:-1], plan.hi[-1] - 1))

        monkeypatch.setattr(svsched.sched, "_plan", mutant)
        checked, mismatches = svsched.verify.verify_mappings(4)
        assert checked == 2 * 2 + 3 * 4 + 4 * 8 and mismatches
        assert "plan of 1-iteration windows updates " in mismatches[0].detail
        assert not any("raised" in miss.detail for miss in mismatches)
        code, out, err = run_cli(capsys, "verify", "--cases", "0")
        assert code == EXIT_VERIFY
        assert "mapping mismatch at (n=2, t=0, C={}): plan of 1-iteration windows updates " in out
        assert "Traceback" not in err

    def test_verify_reads_the_view_the_kernel_builds(self, capsys, monkeypatch):
        # one method lays a plan over a buffer, for the kernel and the suite
        real = svsched.sched._Plan.view
        calls = []

        def reversed_view(plan, buf):
            calls.append(plan)
            return real(plan, buf)[::-1]

        monkeypatch.setattr(svsched.sched._Plan, "view", reversed_view)
        code, out, _ = run_cli(capsys, "verify", "--n-max", "3", "--cases", "0")
        assert code == EXIT_VERIFY and calls
        assert "mapping mismatch at (n=2, t=0, C={}): plan of 1-iteration windows" in out
        calls.clear()
        apply_gate(new_state(3), GateOp(gate_x(), 0), Strategy.OPTIMIZED)
        assert len(calls) == 2  # one view per half of the pairs

    @pytest.mark.parametrize(
        "wrong, where",
        [
            (lambda n, dtype: 25 <= n <= 29, "(n=25, "),
            (lambda n, dtype: n == 30 and dtype == np.complex64, "(n=30, "),
        ],
        ids=["25-29", "single-30"],
    )
    def test_a_plan_wrong_only_at_large_registers_is_reported(
        self, capsys, monkeypatch, wrong, where
    ):
        # the last entry of the high half table one element low, at sizes
        # no test can hold a state of: the last window's pairs move
        real = svsched.sched._plan

        def mutant(n, t, controls, window, swap, dtype):
            plan = real(n, t, controls, window, swap, dtype)
            if wrong(n, dtype):
                plan = plan._replace(hi=(*plan.hi[:-1], plan.hi[-1] - 1))
            return plan

        monkeypatch.setattr(svsched.sched, "_plan", mutant)
        mismatches = svsched.verify.verify_plans(22)[1]
        assert mismatches and all(" places window " in miss.detail for miss in mismatches)
        code, out, err = run_cli(capsys, "verify", "--cases", "0")
        assert code == EXIT_VERIFY and "Traceback" not in err
        assert f"\nplan mismatch at {where}" in out
        assert " places window " in out

    def test_baseline_window_starts_wrong_only_at_large_registers_are_reported(
        self, capsys, monkeypatch
    ):
        # the baseline runs the plan of its gate without the controls; every
        # window but the first starts one pair low from 25 qubits up
        real = svsched.sched._plan

        def mutant(n, t, controls, window, swap, dtype):
            plan = real(n, t, controls, window, swap, dtype)
            if n >= 25 and not controls and not swap:
                plan = plan._replace(lo=(plan.lo[0], *(s - 1 for s in plan.lo[1:])))
            return plan

        monkeypatch.setattr(svsched.sched, "_plan", mutant)
        checked, mismatches = svsched.verify.verify_plans(22)
        assert checked == 792 and all(" places window " in miss.detail for miss in mismatches)
        assert min(miss.num_qubits for miss in mismatches) == 25
        # 6 sizes, 3 geometries each, 1 and 2 workers, both precisions
        baseline = [miss for miss in mismatches if " (baseline) " in miss.detail]
        assert len(baseline) == 6 * 3 * 2 * 2
        code, out, err = run_cli(capsys, "verify", "--cases", "0")
        assert code == EXIT_VERIFY and "Traceback" not in err
        assert "\nplan mismatch at (n=25, " in out

    def test_a_scheduler_that_raises_is_a_mismatch(self, capsys, monkeypatch):
        # the optimized scheduler fails on the first geometry it is given
        real = svsched.verify.apply_gate
        failed = []

        def flaky(state, gate, strategy):
            if strategy is Strategy.OPTIMIZED and not failed:
                failed.append((state.num_qubits, gate.target, gate.controls))
                raise IndexError("index 57345 is out of bounds")
            return real(state, gate, strategy)

        monkeypatch.setattr(svsched.verify, "apply_gate", flaky)
        code, out, err = run_cli(capsys, "verify", "--n-max", "3", "--cases", "5", "--seed", "7")
        assert code == EXIT_VERIFY
        (n, t, controls), = failed
        where = f"equivalence mismatch at (n={n}, t={t}, C={{{', '.join(map(str, controls))}}})"
        assert f"{where}: optimized scheduler raised IndexError: index 57345" in out
        assert "Traceback" not in err

    def test_default_draw_runs_x_gates_of_several_windows(self, monkeypatch):
        # the swap path and its wide elements, over more than one window
        seen = []
        real = svsched.verify.apply_gate

        def spy(state, gate, strategy):
            seen.append((state.num_qubits, gate, strategy))
            return real(state, gate, strategy)

        monkeypatch.setattr(svsched.verify, "apply_gate", spy)
        assert svsched.verify.verify_equivalence() == (1000, [])
        assert any(
            gate.matrix == gate_x() and iteration_count(strategy, n, gate) > 2 * svsched.sched._BLOCK
            for n, gate, strategy in seen
        )

    def test_bad_n_max(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--n-max", "12")
        assert code == EXIT_USAGE

    def test_negative_seed_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--seed", "-1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --seed must be >= 0\n"


class TestBench:
    def test_both_schedulers_two_rows_and_ratio(self, capsys, tmp_path):
        out_file = tmp_path / "report.csv"
        code, _, err = run_cli(
            capsys,
            "bench", "stream:8", "--schedulers", "both", "--reps", "2",
            "--power", "fpga", "-o", str(out_file),
        )
        assert code == EXIT_OK
        lines = out_file.read_text().strip().split("\n")
        assert len(lines) == 3
        assert "optimized/baseline time ratio:" in err

    def test_iterations_column_for_qft(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "qft:10", "--schedulers", "baseline", "--reps", "1"
        )
        assert code == EXIT_OK
        row = out.strip().split("\n")[1].split(",")
        assert int(row[6]) == (10 + 45) * (1 << 9)  # gate count * 2**(n-1)

    def test_json_format(self, capsys):
        import json

        code, out, _ = run_cli(
            capsys, "bench", "qft:4", "--schedulers", "optimized", "--reps", "1",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert len(payload["reports"]) == 1

    def test_power_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "power.cfg"
        cfg.write_text("lab.power_watts = 5\n")
        code, out, _ = run_cli(
            capsys,
            "bench", "qft:4", "--schedulers", "optimized", "--reps", "1",
            "--power", "lab", "--power-config", str(cfg),
        )
        assert code == EXIT_OK
        assert ",lab,5," in out

    def test_unknown_power_model(self, capsys):
        code, _, err = run_cli(capsys, "bench", "qft:4", "--power", "toaster")
        assert code == EXIT_USAGE
        assert "toaster" in err

    def test_memory_check_refuses_before_allocating(self, capsys, monkeypatch):
        def no_state(num_qubits, precision="double"):
            raise AssertionError("new_state called")

        monkeypatch.setattr(svsched.bench, "new_state", no_state)
        monkeypatch.setattr(svsched.cli, "_mem_available", lambda: 1000)
        code, out, err = run_cli(capsys, "bench", "stream:16", "--reps", "1")
        assert code == EXIT_CAPACITY
        assert out == ""
        assert err.startswith("capacity error: bench needs ")

    def test_memory_check_leaves_out_the_output_chunk(self, capsys, monkeypatch):
        # bench prints no amplitudes: the state with its 4 KiB page and one
        # worker's 1 MiB only, without run's 6 MiB output chunk
        monkeypatch.setattr(svsched.sched, "usable_cpus", lambda: 4)
        needed = (16 << 10) + 4096 + (1 << 20)
        monkeypatch.setattr(svsched.cli, "_mem_available", lambda: needed)
        svsched.cli._check_memory(10, "double", None, 1)
        code, _, _ = run_cli(capsys, "bench", "qft:10", "--threads", "1", "--reps", "1")
        assert code == EXIT_OK
        assert run_cli(capsys, "run", "qft:10", "--threads", "1")[0] == EXIT_CAPACITY
        monkeypatch.setattr(svsched.cli, "_mem_available", lambda: needed - 1)
        with pytest.raises(CapacityError, match=f"^bench needs {needed} bytes"):
            svsched.cli._check_memory(10, "double", None, 1)

    def test_per_gate_timing_needs_json(self, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("bench work started")

        monkeypatch.setattr(svsched.cli, "load_circuit", no_work)
        # cmd_bench imports run_bench when it runs
        monkeypatch.setattr(svsched.bench, "run_bench", no_work)
        code, out, err = run_cli(
            capsys, "bench", "qft:4", "--per-gate-timing", "--format", "csv"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --per-gate-timing needs --format json\n"
        monkeypatch.undo()
        code, out, _ = run_cli(
            capsys, "bench", "qft:4", "--reps", "1", "--per-gate-timing", "--format", "json"
        )
        assert code == EXIT_OK
        assert all(len(r["per_gate_times"]) == 10 for r in json.loads(out)["reports"])

    def test_squaring_bench_completes(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "sq:4", "--schedulers", "optimized", "--reps", "1"
        )
        assert code == EXIT_OK
        assert ",sq4," in out


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == EXIT_USAGE

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "run", "does-not-exist.qc")
        assert code == EXIT_USAGE

    def test_gen_spec_beyond_capacity(self, capsys):
        code, _, err = run_cli(capsys, "gen", "qft:31")
        assert code == EXIT_CAPACITY
        assert "30" in err
        code, _, _ = run_cli(capsys, "gen", "sq:10")  # 3*10+2 = 32 qubits
        assert code == EXIT_CAPACITY

    def test_malformed_circuit_file(self, capsys, tmp_path):
        path = tmp_path / "bad.qc"
        path.write_text("qubits 2\nh 9\n")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == EXIT_USAGE
        assert "line 2" in err

    def test_circuit_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.qc"
        path.write_bytes(b"qubits 2\nh 0\n\xff\n")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and str(path) in err and "UTF-8" in err

    def test_bad_power_config(self, capsys, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("nonsense\n")
        code, _, err = run_cli(
            capsys, "bench", "qft:3", "--reps", "1", "--power-config", str(cfg)
        )
        assert code == EXIT_USAGE

    def test_power_value_is_ascii_decimal(self, capsys, tmp_path):
        # float() read this as 25 W
        cfg = tmp_path / "p.cfg"
        cfg.write_text("fpga.power_watts = 2_5\n")
        code, out, err = run_cli(
            capsys, "bench", "qft:3", "--reps", "1", "--power-config", str(cfg)
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: bad power config {cfg}: line 1: malformed power value '2_5'\n"

    def test_bench_zero_reps(self, capsys):
        code, _, _ = run_cli(capsys, "bench", "qft:3", "--reps", "0")
        assert code == EXIT_USAGE

    def test_threads_env_override(self, capsys, monkeypatch):
        from svsched.cli import default_threads

        monkeypatch.setenv("SVSCHED_THREADS", "3")
        assert default_threads() == 3
        monkeypatch.setenv("SVSCHED_THREADS", "banana")
        code, _, err = run_cli(capsys, "run", "qft:3")
        assert code == EXIT_USAGE
        assert "SVSCHED_THREADS" in err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_threads_env_below_one(self, capsys, monkeypatch, value):
        monkeypatch.setenv("SVSCHED_THREADS", value)
        code, out, err = run_cli(capsys, "run", "qft:3")
        assert code == EXIT_USAGE
        assert out == ""
        assert "SVSCHED_THREADS must be >= 1" in err

    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threads_flag_below_one(self, capsys, command, value):
        code, out, err = run_cli(capsys, command, "qft:3", "--threads", value)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"--threads must be >= 1, got {value}" in err


def typed_actions():
    """(command, action, the positionals it needs) for every action of
    ``build_parser`` that converts its value: all of them integers."""
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    for command, parser in sub.choices.items():
        positionals = ["qft:3" for a in parser._actions if not a.option_strings]
        for action in parser._actions:
            if action.type is not None:
                yield command, action, positionals


INTEGER_OPTIONS = [(c, a.option_strings[-1], p) for c, a, p in typed_actions()]

# Strings near and far from a decimal integer: underscores, non-ASCII
# digits, whitespace, signs, the empty string and values of 30+ digits.
integer_like = st.one_of(
    st.from_regex(r"[+-]?[0-9]{1,40}", fullmatch=True),
    st.text(alphabet="0123456789_+- \t\n\u0662\u0663\u07c0\uff11", max_size=40),
    st.text(max_size=8),
)


def in_process(argv, monkeypatch):
    """``main(argv)`` with every command stubbed to record its arguments, so
    nothing runs; returns (exit code, stderr, parsed arguments or None)."""
    seen = []
    for name in ("cmd_gen", "cmd_run", "cmd_verify", "cmd_bench"):
        monkeypatch.setattr(svsched.cli, name, lambda args: seen.append(args) or EXIT_OK)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue(), seen[0] if seen else None


class TestIntegerInputs:
    """Every integer the CLI reads, from an option or SVSCHED_THREADS, is an
    optional sign and ASCII digits; anything else exits 2."""

    def test_every_integer_option_is_parsed_by_parse_int(self):
        assert all(action.type is parse_int for _, action, _ in typed_actions())
        found = {(command, option) for command, option, _ in INTEGER_OPTIONS}
        assert found >= {
            ("run", "--top-k"), ("run", "--input"), ("run", "--threads"),
            ("verify", "--n-max"), ("verify", "--cases"), ("verify", "--seed"),
            ("bench", "--reps"), ("bench", "--threads"),
        }

    @pytest.mark.parametrize(
        "command, option, positionals",
        INTEGER_OPTIONS,
        ids=[f"{c} {o}" for c, o, _ in INTEGER_OPTIONS],
    )
    @settings(max_examples=60, deadline=None)
    @given(value=integer_like)
    @example(value="1_0")
    @example(value="\u0662")
    @example(value=" 2")
    @example(value="")
    @example(value="9" * 40)
    @example(value="--")
    def test_only_ascii_decimal_is_accepted(self, command, option, positionals, value):
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv("SVSCHED_THREADS", raising=False)
            # the --option=value form hands a value that starts with - to
            # the option, not to argparse's option matching
            code, err, args = in_process([command, *positionals, f"{option}={value}"], mp)
        assert "Traceback" not in err
        decimal = re.fullmatch(r"[+-]?[0-9]+", value) is not None
        if value == "--":  # which argparse reads as no value at all
            assert code == EXIT_USAGE and args is None
            assert err.endswith("svsched: error: an option's value is '--'\n")
        elif not decimal:
            assert code == EXIT_USAGE and args is None
            assert f"argument {option}: invalid parse_int value: {value!r}" in err
        elif option == "--threads" and int(value) < 1:
            assert code == EXIT_USAGE and args is None
            assert err == f"error: --threads must be >= 1, got {int(value)}\n"
        else:
            assert (code, err) == (EXIT_OK, "")
            assert getattr(args, option[2:].replace("-", "_")) == int(value)

    @settings(max_examples=100, deadline=None)
    @given(
        value=st.one_of(
            integer_like.filter(lambda v: "\x00" not in v),
            st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")),
        )
    )
    @example(value="1_0")
    @example(value=" 2")
    @example(value="\u0662")
    @example(value="")
    def test_threads_variable_is_ascii_decimal(self, value):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("SVSCHED_THREADS", value)
            code, err, args = in_process(["run", "qft:3"], mp)
        assert "Traceback" not in err
        if value == "":  # an empty variable is an unset one
            assert code == EXIT_OK and args.threads >= 1
        elif re.fullmatch(r"[+-]?[0-9]+", value) is None:
            assert code == EXIT_USAGE
            assert err == f"error: SVSCHED_THREADS must be an integer, got {value!r}\n"
        elif int(value) < 1:
            assert code == EXIT_USAGE
            assert err == f"error: SVSCHED_THREADS must be >= 1, got {value!r}\n"
        else:
            assert (code, err, args.threads) == (EXIT_OK, "", int(value))

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "qft:3", "--top-k=--"),
            ("run", "qft:3", "--scheduler=--"),
            ("run", "qft:3", "--dump=--"),
            ("gen", "qft:3", "--output=--"),
            ("bench", "qft:3", "--power=--"),
            ("verify", "--n-max=--"),
        ],
    )
    def test_double_dash_as_a_value_is_a_usage_error(self, capsys, argv):
        # argparse left these options an empty list: tracebacks, or --dump
        # and --output silently ignored
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith("svsched: error: an option's value is '--'\n")

    def test_input_register_comes_from_the_circuit(self, capsys):
        code, out, _ = run_cli(capsys, "run", "sq:3", "--input", "5")
        assert code == EXIT_OK
        assert "input register: 5, output register: 25" in out
        code, _, err = run_cli(capsys, "run", "sq:+3", "--input", "8")
        assert code == EXIT_USAGE
        assert err == "error: --input 8 does not fit a 3-bit input register\n"


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedPipe:
    """A reader that closes the pipe early stops the command quietly, exit 0."""

    def test_run_into_a_reader_that_closes_at_once(self):
        # about 300 KB of amplitudes, more than a pipe holds
        src = str(Path(svsched.cli.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.Popen(
            [sys.executable, "-m", "svsched", "run", "qft:14", "--top-k", "5000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_OK
        assert err == ""

    @pytest.mark.parametrize(
        "argv", [("gen", "qft:5"), ("bench", "qft:3", "--reps", "1", "--schedulers", "optimized")]
    )
    def test_in_process(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(list(argv))
        monkeypatch.undo()
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert (captured.out, captured.err) == ("", "")


class TestTopIndices:
    @staticmethod
    def lexsort_order(probs, k):
        return np.lexsort((np.arange(probs.size), -probs))[:k]

    @pytest.mark.parametrize("k", [0, 1, 5, 16, 40])
    def test_all_tied_state_matches_lexsort(self, k):
        n = 4
        state = new_state(n)
        apply_circuit(state, Circuit(n, [named_gate("h", q) for q in range(n)]))
        probs = np.abs(state.amplitudes) ** 2
        assert np.all(probs == probs[0])
        got = top_indices(probs, k)
        np.testing.assert_array_equal(got, self.lexsort_order(probs, k))
        assert list(got) == list(range(min(k, 1 << n)))

    @pytest.mark.parametrize("k", range(8))
    def test_ties_at_the_kth_place_keep_smaller_indices(self, k):
        probs = np.array([0.1, 0.3, 0.1, 0.3, 0.2, 0.1])
        np.testing.assert_array_equal(top_indices(probs, k), self.lexsort_order(probs, k))

    @pytest.mark.parametrize("k", [1, 4, 9, 30, 37])
    def test_tie_scan_across_chunks(self, k):
        # three values over 37 entries: ties at the k-th place are spread
        # over the whole array
        probs = np.random.default_rng(k).choice([0.0, 0.1, 0.2], size=37)
        np.testing.assert_array_equal(top_indices(probs, k), self.lexsort_order(probs, k))


class TestTopAmplitudes:
    """top_amplitudes must select exactly what top_indices selects on the
    whole probability array, with the same probability bytes."""

    @pytest.mark.parametrize("chunk", [4, 8])
    @settings(max_examples=150, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_top_indices_on_the_whole_state(self, chunk, data):
        dtype = data.draw(st.sampled_from([np.complex128, np.complex64]), label="dtype")
        parts = st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.25, 1.0, 1e-3])
        values = data.draw(
            st.lists(st.tuples(parts, parts), min_size=1, max_size=40), label="values"
        )
        amps = np.array([complex(re, im) for re, im in values], dtype=dtype)
        k = data.draw(st.integers(0, amps.size + 3), label="k")
        probs = np.abs(amps) ** 2
        want = top_indices(probs, k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(svsched.cli, "_CHUNK", chunk)
            idx, got = top_amplitudes(amps, k)
        np.testing.assert_array_equal(idx, want)
        assert got.dtype == probs.dtype
        assert got.tobytes() == probs[want].tobytes()

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_chunked_probabilities_match_the_whole_array(self, dtype):
        # abs()**2 runs vectorised loops with scalar tails; chunking must not
        # change a single bit of any probability
        rng = np.random.default_rng(18)
        n = 1 << 18
        amps = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(dtype)
        chunk = svsched.cli._CHUNK
        chunked = np.concatenate(
            [np.abs(amps[lo : lo + chunk]) ** 2 for lo in range(0, n, chunk)]
        )
        assert chunked.tobytes() == (np.abs(amps) ** 2).tobytes()
