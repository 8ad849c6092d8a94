"""Tests of the benchmark itself: its reference checks, its result line and
its refusal to run outside a full checkout. No timing is ever asserted.

    python3 -m pytest svbench/tests -q
"""

import io
import json
import shutil
import subprocess
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import svsched.cli  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import QFT_TOL, WORKLOADS, useful_pairs  # noqa: E402

SEED = 3


def final_state(w, drop=None):
    """The workload's seeded input and its optimized output, optionally with
    gate ``drop`` removed from the circuit."""
    circuit = w.circuit(svsched.circuits)
    if drop is not None:
        del circuit.gates[drop]
    state = svsched.new_state(circuit.num_qubits)
    w.fill_input(state.amplitudes, SEED)
    psi0 = state.amplitudes.copy()
    svsched.apply_circuit(state, circuit, svsched.Strategy.OPTIMIZED)
    return state.amplitudes, psi0


@pytest.mark.parametrize("name", WORKLOADS)
def test_reference_accepts_program_output(name):
    w = WORKLOADS[name]
    out, psi0 = final_state(w)
    assert w.matches(out, w.expected(psi0))


@pytest.mark.parametrize("drop", [0, "middle", -1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_reference_rejects_circuit_with_a_gate_dropped(name, drop):
    w = WORKLOADS[name]
    if drop == "middle":
        drop = len(w.circuit(svsched.circuits).gates) // 2
    out, psi0 = final_state(w, drop=drop)
    assert not w.matches(out, w.expected(psi0))


@pytest.mark.parametrize("name", [n for n, w in WORKLOADS.items() if w.exact])
def test_exact_reference_rejects_one_ulp(name):
    w = WORKLOADS[name]
    out, psi0 = final_state(w)
    k = int(np.argmax(np.abs(out)))
    out[k] = complex(np.nextafter(out[k].real, np.inf), out[k].imag)
    assert not w.matches(out, w.expected(psi0))


def test_qft_reference_tolerance():
    w = WORKLOADS["qft"]
    out, psi0 = final_state(w)
    want = w.expected(psi0)
    assert w.matches(out + QFT_TOL / 2, want)
    assert not w.matches(out + 2 * QFT_TOL, want)


def cli_stdout(w) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert svsched.cli.main(w.cli_argv(SEED)) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", WORKLOADS)
def test_cli_output_check(name):
    w = WORKLOADS[name]
    iterations = useful_pairs(w.circuit(svsched.circuits))
    text = cli_stdout(w)
    assert w.check_cli_output(text, SEED, iterations) == []
    assert w.check_cli_output(text.replace("norm: 1.0", "norm: 0.9"), SEED, iterations)
    assert w.check_cli_output(text, SEED, iterations + 1)


def test_cli_output_check_reads_the_answer():
    stream, sq = WORKLOADS["stream"], WORKLOADS["sq"]
    ones = "|" + "1" * stream.num_qubits + ">"
    text = cli_stdout(stream)
    assert ones in text
    wrong = text.replace(ones, "|" + "0" * stream.num_qubits + ">", 1)
    assert stream.check_cli_output(wrong, SEED, useful_pairs(stream.circuit(svsched.circuits)))
    a = sq.cli_input(SEED)
    text = cli_stdout(sq)
    wrong = text.replace(f"output register: {a * a}", f"output register: {a * a + 1}")
    assert sq.check_cli_output(wrong, SEED, useful_pairs(sq.circuit(svsched.circuits)))


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER.items())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sq", "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_self_time_excludes_children():
    module = types.SimpleNamespace(leaf=lambda x: x + 1)
    tracer = Tracer()
    with tracer.wrapping(module, "leaf", "leaf"), tracer.span("outer") as outer:
        assert module.leaf(1) == 2 and module.leaf(2) == 3
    assert module.leaf.__name__ == "<lambda>"  # restored
    leaves = tracer.children(outer.index)
    assert [s.result for s in leaves] == [2, 3]
    assert tracer.self_seconds(outer.index) == pytest.approx(
        outer.seconds - sum(s.seconds for s in leaves))
