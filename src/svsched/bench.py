"""Timing harness, constant-power energy model, and report emission.

Energy is modeled as wall-clock execution time multiplied by a device's rated
power draw. Bundled ratings: fpga 25 W, cpu 160 W, gpu 250 W; a config file of
``device.power_watts = <value>`` lines can add or override devices.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import time
from dataclasses import dataclass

from .core import Circuit, new_state
from .sched import Strategy, apply_gate, iteration_count

REPORT_SCHEMA_VERSION = "1"

#: Emitted columns, in order. per_gate_times is carried by JSON only.
CSV_COLUMNS = (
    "schema_version",
    "circuit_name",
    "num_qubits",
    "scheduler",
    "repetitions",
    "total_time_seconds",
    "iterations_executed",
    "device_name",
    "power_watts",
    "energy_joules",
)


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
    """Parse ``device.power_watts = <value>`` lines; '#' starts a comment."""
    models: dict[str, PowerModel] = {}
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key.endswith(".power_watts") or not key[: -len(".power_watts")]:
            raise ValueError(
                f"line {line_no}: expected 'device.power_watts = <value>', got {raw!r}"
            )
        device = key[: -len(".power_watts")]
        try:
            watts = float(value.strip())
        except ValueError:
            raise ValueError(f"line {line_no}: malformed power value {value.strip()!r}") from None
        models[device] = PowerModel(device, watts)
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
    each repetition on the monotonic wall clock, and report the median total.

    Every gate's executed-iteration count, as the scheduler reports it from
    the work it ran, is checked against its plan (the optimized scheduler
    must execute exactly 2**(n - n_c - 1) iterations); a gate off its plan
    raises RuntimeError. The report carries the executed counts.
    """
    if reps < 1:
        raise ValueError("need at least one repetition")
    planned = [iteration_count(strategy, circuit.num_qubits, g) for g in circuit.gates]

    totals = []
    gate_times: list[list[float]] = [[] for _ in circuit.gates]
    for _ in range(reps):
        state = new_state(circuit.num_qubits, precision)
        executed_total = 0
        t_start = time.perf_counter()
        for idx, gate in enumerate(circuit.gates):
            g_start = time.perf_counter()
            executed = apply_gate(state, gate, strategy, threads=threads)
            gate_times[idx].append(time.perf_counter() - g_start)
            if executed != planned[idx]:
                raise RuntimeError(
                    f"gate {idx} executed {executed} iterations off its plan "
                    f"of {planned[idx]}"
                )
            executed_total += executed
        totals.append(time.perf_counter() - t_start)

    total = statistics.median(totals)
    return BenchReport(
        circuit_name=circuit_name,
        num_qubits=circuit.num_qubits,
        scheduler=strategy.value,
        repetitions=reps,
        total_time_seconds=total,
        iterations_executed=executed_total,
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
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "circuit_name": report.circuit_name,
        "num_qubits": report.num_qubits,
        "scheduler": report.scheduler,
        "repetitions": report.repetitions,
        "total_time_seconds": _fmt(report.total_time_seconds),
        "iterations_executed": report.iterations_executed,
        "device_name": report.device_name,
        "power_watts": _fmt(report.power_watts),
        "energy_joules": _fmt(report.energy_joules),
    }


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
    reports = []
    for row in rows:
        reports.append(
            BenchReport(
                circuit_name=row["circuit_name"],
                num_qubits=int(row["num_qubits"]),
                scheduler=row["scheduler"],
                repetitions=int(row["repetitions"]),
                total_time_seconds=float(row["total_time_seconds"]),
                iterations_executed=int(row["iterations_executed"]),
                device_name=row["device_name"],
                power_watts=float(row["power_watts"]),
                energy_joules=float(row["energy_joules"]),
                per_gate_times=[float(t) for t in row["per_gate_times"]]
                if row.get("per_gate_times")
                else None,
            )
        )
    return reports
