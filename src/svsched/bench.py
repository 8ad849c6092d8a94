"""Timing harness, constant-power energy model, and report emission.

Energy is modeled as wall-clock execution time multiplied by a device's rated
power draw. Bundled ratings: fpga 25 W, cpu 160 W, gpu 250 W; a config file of
``device.power_watts = <value>`` lines can add or override devices.

Report columns come from ``BenchReport``: every field but ``per_gate_times``
(JSON only), in order, each written and read back by its annotated type.
"""

from __future__ import annotations

import csv
import io
import json
import re
import statistics
import time
import typing
from dataclasses import dataclass

from .core import Circuit, new_state
from .sched import Strategy, apply_circuit, apply_gate, iteration_count

REPORT_SCHEMA_VERSION = "1"

@dataclass(frozen=True)
class PowerModel:
    device_name: str
    power_watts: float

    def __post_init__(self):
        w = self.power_watts
        if not (w > 0 and w == w and w != float("inf")):
            raise ValueError(f"power rating must be finite and positive, got {w}")


DEFAULT_POWER_MODELS = {
    "fpga": PowerModel("fpga", 25.0),
    "cpu": PowerModel("cpu", 160.0),
    "gpu": PowerModel("gpu", 250.0),
}


def energy(time_seconds: float, power: PowerModel) -> float:
    """Joules consumed: time * rated watts."""
    if time_seconds < 0:
        raise ValueError("time must be >= 0")
    return time_seconds * power.power_watts


def parse_power_config(text: str) -> dict[str, PowerModel]:
    """Parse ``device.power_watts = <value>`` lines; '#' starts a comment. A
    value is ASCII decimal, as in ``25``, ``-1.5``, ``.5`` or ``2e1``."""
    models: dict[str, PowerModel] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key.endswith(".power_watts") or not key[: -len(".power_watts")]:
            raise ValueError(
                f"line {line_no}: expected 'device.power_watts = <value>', got {raw!r}"
            )
        device = key[: -len(".power_watts")]
        if re.fullmatch(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?", value) is None:
            raise ValueError(f"line {line_no}: malformed power value {value!r}")
        models[device] = PowerModel(device, float(value))
    return models


@dataclass
class BenchReport:
    circuit_name: str
    num_qubits: int
    scheduler: str
    repetitions: int
    total_time_seconds: float  # median over repetitions
    iterations_executed: int
    device_name: str
    power_watts: float
    energy_joules: float  # always total_time_seconds * power_watts
    per_gate_times: list[float] | None = None  # per-gate medians, when timed


#: Each report column's type, in order, after schema_version.
_COLUMN_TYPES = typing.get_type_hints(BenchReport)
del _COLUMN_TYPES["per_gate_times"]  # carried by JSON only
CSV_COLUMNS = ("schema_version", *_COLUMN_TYPES)


def run_bench(
    circuit: Circuit,
    strategy: Strategy,
    reps: int,
    power: PowerModel,
    *,
    circuit_name: str = "circuit",
    precision: str = "double",
    threads: int = 1,
    per_gate_timing: bool = False,
) -> BenchReport:
    """Execute the circuit ``reps`` times from a fresh |0...0> state, timing
    each repetition's ``apply_circuit`` call on the monotonic wall clock, and
    report the median total. ``strategy`` is a member or its value.

    Each repetition's executed-iteration count, as the scheduler reports it
    from the work it ran, is checked against the law summed over the gates
    (the optimized scheduler must execute exactly 2**(n - n_c - 1)
    iterations per gate); a total off the law raises RuntimeError. With
    ``per_gate_timing``, each repetition then times every gate applied
    alone through ``apply_gate`` on the same state, and the report carries
    each gate's median.
    """
    if reps < 1:
        raise ValueError("need at least one repetition")
    strategy = Strategy(strategy)
    planned = sum(iteration_count(strategy, circuit.num_qubits, g) for g in circuit.gates)

    totals = []
    gate_times: list[list[float]] = [[] for _ in circuit.gates]
    for _ in range(reps):
        state = new_state(circuit.num_qubits, precision)
        t_start = time.perf_counter()
        executed = apply_circuit(state, circuit, strategy, threads=threads)
        totals.append(time.perf_counter() - t_start)
        if executed != planned:
            raise RuntimeError(f"executed {executed} iterations off its plan of {planned}")
        if per_gate_timing:
            for times, gate in zip(gate_times, circuit.gates):
                g_start = time.perf_counter()
                apply_gate(state, gate, strategy, threads=threads)
                times.append(time.perf_counter() - g_start)
        del state  # so the next repetition's state does not coexist with it

    total = statistics.median(totals)
    return BenchReport(
        circuit_name=circuit_name,
        num_qubits=circuit.num_qubits,
        scheduler=strategy.value,
        repetitions=reps,
        total_time_seconds=total,
        iterations_executed=executed,
        device_name=power.device_name,
        power_watts=power.power_watts,
        energy_joules=energy(total, power),
        per_gate_times=[statistics.median(ts) for ts in gate_times]
        if per_gate_timing
        else None,
    )


def _fmt(value: float) -> str:
    return format(value, ".6g")


def _row(report: BenchReport) -> dict:
    row = {"schema_version": REPORT_SCHEMA_VERSION}
    for name, kind in _COLUMN_TYPES.items():
        value = getattr(report, name)
        row[name] = _fmt(value) if kind is float else value
    return row


def emit_report(reports: list[BenchReport], fmt: str = "csv") -> str:
    """Render reports sorted by (circuit_name, scheduler); times and energies
    carry 6 significant digits."""
    if not reports:
        raise ValueError("no reports to emit")
    reports = sorted(reports, key=lambda r: (r.circuit_name, r.scheduler))
    rows = [_row(r) for r in reports]
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return out.getvalue()
    if fmt == "json":
        for row, report in zip(rows, reports):
            if report.per_gate_times is not None:
                row["per_gate_times"] = [_fmt(t) for t in report.per_gate_times]
        return json.dumps({"schema_version": REPORT_SCHEMA_VERSION, "reports": rows}, indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")


def parse_report(text: str, fmt: str = "csv") -> list[BenchReport]:
    """Read back an emitted report (values as written, 6 significant digits)."""
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
    elif fmt == "json":
        rows = json.loads(text)["reports"]
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return [
        BenchReport(
            **{name: kind(row[name]) for name, kind in _COLUMN_TYPES.items()},
            per_gate_times=[float(t) for t in row["per_gate_times"]]
            if row.get("per_gate_times")
            else None,
        )
        for row in rows
    ]
