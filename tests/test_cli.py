import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import svsched.cli
import svsched.verify
from svsched import (
    CapacityError,
    Circuit,
    Strategy,
    apply_circuit,
    apply_gate,
    named_gate,
    new_state,
    parse_circuit,
)
from svsched.cli import (
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
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

    def test_memory_check_refuses_before_allocating(self, capsys, monkeypatch):
        def no_state(num_qubits, precision="double"):
            raise AssertionError("new_state called")

        monkeypatch.setattr(svsched.cli, "new_state", no_state)
        monkeypatch.setattr(svsched.cli, "_mem_available", lambda: 123456)
        code, out, err = run_cli(capsys, "run", "qft:20", "--threads", "1")
        assert code == EXIT_CAPACITY
        assert out == ""
        # 16 MiB of state, 6 MiB for the output chunk, 1 MiB for one worker
        needed = (16 << 20) + (6 << 20) + (1 << 20)
        assert err == (
            f"capacity error: run needs {needed} bytes ({16 << 20} of state), "
            "123456 bytes are available\n"
        )

    @pytest.mark.parametrize(
        "n, precision, top_k, threads, needed",
        [
            (10, "double", 8, 1, (16 << 10) + (6 << 20) + (1 << 20)),
            (10, "single", 8, 3, (8 << 10) + (6 << 20) + (3 << 20)),
            # k is capped at the register; a larger k widens the chunk
            (10, "double", 70000, 1, (16 << 10) + (6 << 20) + (1 << 20)),
            (17, "double", 70000, 1, (16 << 17) + 70000 * 96 + (1 << 20)),
            # never more workers than CPUs
            (17, "single", 0, 8, (8 << 17) + (6 << 20) + (4 << 20)),
        ],
    )
    def test_memory_check_counts_state_chunk_and_workers(
        self, monkeypatch, n, precision, top_k, threads, needed
    ):
        monkeypatch.setattr(svsched.cli.os, "cpu_count", lambda: 4)
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

    def test_working_set_figures_bound_the_traced_peaks(self):
        # the pre-flight figures must stay above what the code allocates
        # beyond the state: one worker's gate, and the output pass per
        # chunk amplitude, with k small and with k filling the chunk, on a
        # random state and on one where every probability ties
        rng = np.random.default_rng(7)
        for precision in ("double", "single"):
            state = new_state(18, precision)
            apply_circuit(state, Circuit(18, [named_gate("h", q) for q in range(18)]))
            for gate in (named_gate("h", 9), named_gate("x", 9, (0, 3))):
                for strategy in Strategy:
                    tracemalloc.start()
                    try:
                        apply_gate(state, gate, strategy, threads=1)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    assert peak <= svsched.cli._WORKER_BYTES
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

    def test_bad_power_config(self, capsys, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("nonsense\n")
        code, _, err = run_cli(
            capsys, "bench", "qft:3", "--reps", "1", "--power-config", str(cfg)
        )
        assert code == EXIT_USAGE

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
