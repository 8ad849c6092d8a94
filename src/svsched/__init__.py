"""Full-state-vector quantum circuit simulator with two interchangeable
gate-execution schedulers: a baseline that checks controls on every amplitude
pair, and an optimized scheduler that enumerates only control-satisfying pairs
through a reduced-to-global iteration index mapping."""

from .core import (
    CapacityError,
    Circuit,
    GateMatrix,
    GateOp,
    MAX_QUBITS,
    StateVector,
    gate_h,
    gate_rm,
    gate_x,
    gate_y,
    gate_z,
    new_state,
    norm_sq,
)
from .sched import (
    Strategy,
    active_set_oracle,
    adjusted_control,
    apply_circuit,
    apply_gate,
    baseline_apply,
    control_satisfied,
    iteration_count,
    ith_cleared,
    optimized_apply,
    pair_indices,
    reduced_to_global,
)
from .circuits import (
    CircuitParseError,
    CircuitStats,
    gen_controlled_cuccaro_adder,
    gen_cuccaro_adder,
    gen_qft,
    gen_squaring,
    gen_streaming,
    named_gate,
    parse_circuit,
    serialize_circuit,
    stats,
)
from .oracle import (
    DenseOperator,
    bit_reversal_permutation,
    circuit_to_dense,
    dense_apply,
    dft_reference,
    gate_to_dense,
)
from .bench import (
    BenchReport,
    DEFAULT_POWER_MODELS,
    PowerModel,
    emit_report,
    energy,
    parse_power_config,
    parse_report,
    run_bench,
)

__version__ = "0.1.0"
