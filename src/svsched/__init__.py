"""Full-state-vector quantum circuit simulator with two interchangeable
gate-execution schedulers: a baseline that checks controls on every amplitude
pair, and an optimized scheduler that enumerates only control-satisfying pairs
through a reduced-to-global iteration index mapping.

A public name loads its submodule on first use (PEP 562), so ``import
svsched`` imports no submodule and a run pays only for the code it runs:
``svsched.new_state`` loads ``core``, ``svsched.run_bench`` loads ``bench``.
``from svsched import X``, ``svsched.X`` and ``from svsched import *`` bind
the same objects as the submodules' own names, and ``svsched.core``,
``svsched.sched`` and the other submodules resolve as attributes.
"""

import importlib

#: Each public name's submodule; ``__all__`` lists them in this order.
_EXPORTS = {
    "core": (
        "CapacityError",
        "Circuit",
        "GateMatrix",
        "GateOp",
        "MAX_QUBITS",
        "StateVector",
        "gate_h",
        "gate_rm",
        "gate_x",
        "gate_y",
        "gate_z",
        "new_state",
        "norm_sq",
    ),
    "sched": (
        "Strategy",
        "active_set_oracle",
        "adjusted_control",
        "apply_circuit",
        "apply_gate",
        "control_satisfied",
        "iteration_count",
        "ith_cleared",
        "pair_indices",
        "reduced_to_global",
    ),
    "circuits": (
        "CircuitParseError",
        "CircuitStats",
        "gen_controlled_cuccaro_adder",
        "gen_cuccaro_adder",
        "gen_qft",
        "gen_squaring",
        "gen_streaming",
        "named_gate",
        "parse_circuit",
        "serialize_circuit",
        "stats",
    ),
    "oracle": (
        "DenseOperator",
        "bit_reversal_permutation",
        "circuit_to_dense",
        "dense_apply",
        "dft_reference",
        "gate_to_dense",
    ),
    "bench": (
        "BenchReport",
        "DEFAULT_POWER_MODELS",
        "PowerModel",
        "emit_report",
        "energy",
        "parse_power_config",
        "parse_report",
        "run_bench",
    ),
}

_SUBMODULES = (*_EXPORTS, "verify", "cli")

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
