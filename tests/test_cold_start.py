"""A cold process loads only the code it runs, and the package's public names
stay what they were when ``__init__`` imported every submodule.

Load checks run in fresh interpreters: pytest has already imported ``json``
and the other stdlib modules below, and every svsched submodule.
"""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import svsched

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules a one-thread ``run`` never needs.
NOT_RUN = (
    "svsched.bench",
    "svsched.verify",
    "svsched.oracle",
    "concurrent.futures",
    "statistics",
    "json",
    "csv",
)

#: The public names, each with its submodule, as ``__init__`` imported them
#: before they loaded on first use.
PUBLIC = {
    "core": [
        "CapacityError", "Circuit", "GateMatrix", "GateOp", "MAX_QUBITS",
        "StateVector", "gate_h", "gate_rm", "gate_x", "gate_y", "gate_z",
        "new_state", "norm_sq",
    ],
    "sched": [
        "Strategy", "active_set_oracle", "adjusted_control", "apply_circuit",
        "apply_gate", "control_satisfied", "iteration_count", "ith_cleared",
        "pair_indices", "reduced_to_global",
    ],
    "circuits": [
        "CircuitParseError", "CircuitStats", "gen_controlled_cuccaro_adder",
        "gen_cuccaro_adder", "gen_qft", "gen_squaring", "gen_streaming",
        "named_gate", "parse_circuit", "serialize_circuit", "stats",
    ],
    "oracle": [
        "DenseOperator", "bit_reversal_permutation", "circuit_to_dense",
        "dense_apply", "dft_reference", "gate_to_dense",
    ],
    "bench": [
        "BenchReport", "DEFAULT_POWER_MODELS", "PowerModel", "emit_report",
        "energy", "parse_power_config", "parse_report", "run_bench",
    ],
}


def loaded_by(body: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``body`` with
    its stdout captured; fails on a nonzero exit."""
    script = (
        "import contextlib, io, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + textwrap.indent(textwrap.dedent(body), "    ")
        + "\nprint(*sorted(sys.modules))\n"
    )
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def cli_loads(*argv: str) -> set[str]:
    return loaded_by(f"import svsched.cli\nassert svsched.cli.main({list(argv)!r}) == 0\n")


class TestColdLoads:
    def test_importing_the_package_loads_no_submodule(self):
        loaded = loaded_by("import svsched\n")
        assert "svsched" in loaded
        assert not {m for m in loaded if m.startswith("svsched.")}

    def test_a_one_thread_run_loads_only_what_it_runs(self):
        loaded = cli_loads("run", "sq:2", "--input", "1", "--threads", "1")
        assert {"svsched.cli", "svsched.core", "svsched.circuits", "svsched.sched"} <= loaded
        assert not loaded & set(NOT_RUN)

    def test_gen_loads_none_of_them_either(self):
        assert not cli_loads("gen", "qft:3") & set(NOT_RUN)

    def test_bench_and_verify_load_their_modules(self):
        assert "svsched.bench" in cli_loads("bench", "qft:3", "--reps", "1", "--threads", "1")
        verified = cli_loads("verify", "--n-max", "2", "--cases", "1")
        assert "svsched.verify" in verified

    def test_two_workers_load_the_pool_and_agree_with_one(self):
        loaded = loaded_by(
            """
            import numpy as np
            import svsched
            from svsched import sched

            sched.usable_cpus = lambda: 2
            circuit = svsched.gen_streaming(18)
            start = np.random.default_rng(5).standard_normal(2 << 18).view(np.complex128)
            finals = []
            for threads in (1, 2):
                state = svsched.new_state(18)
                state.amplitudes[:] = start
                svsched.apply_circuit(state, circuit, svsched.Strategy.OPTIMIZED, threads=threads)
                finals.append(state.amplitudes.tobytes())
                # the first run is the one-thread run
                assert ("concurrent.futures" in sys.modules) == (threads == 2), threads
            assert finals[0] == finals[1]
            """
        )
        assert "concurrent.futures" in loaded


class TestPublicNames:
    def test_all_lists_the_names_init_imported(self):
        assert svsched.__all__ == [name for names in PUBLIC.values() for name in names]

    def test_each_name_is_its_submodules_object(self):
        for module, names in PUBLIC.items():
            home = importlib.import_module(f"svsched.{module}")
            for name in names:
                assert getattr(svsched, name) is getattr(home, name), (module, name)

    def test_dir_lists_every_public_name(self):
        assert set(svsched.__all__) <= set(dir(svsched))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from svsched import *", namespace)
        assert {name: namespace.get(name) for name in svsched.__all__} == {
            name: getattr(svsched, name) for name in svsched.__all__
        }

    def test_an_unknown_name_raises_an_attribute_error_naming_the_package(self):
        with pytest.raises(AttributeError, match="module 'svsched' has no attribute 'no_such_name'"):
            svsched.no_such_name

    def test_submodules_resolve_as_attributes(self):
        for module in (*PUBLIC, "verify", "cli"):
            assert getattr(svsched, module) is importlib.import_module(f"svsched.{module}")
        assert svsched.sched is sys.modules["svsched.sched"]

    def test_a_fresh_package_resolves_names_and_modules_on_first_use(self):
        loaded = loaded_by(
            """
            import svsched

            assert set(svsched.__all__) <= set(dir(svsched))
            assert svsched.circuits.gen_qft is svsched.gen_qft
            assert svsched.sched.Strategy is svsched.Strategy
            """
        )
        assert {"svsched.circuits", "svsched.core", "svsched.sched"} <= loaded
        assert not loaded & {"svsched.bench", "svsched.oracle", "svsched.verify"}
