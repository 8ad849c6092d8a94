"""svsched benchmark: end-to-end times and memory, or a traced per-layer split.

    python3 svbench/run.py --workload {stream,qft,sq,all} --seed N \
        --seconds S --trace {0,1}

Closed loop: this one process runs passes back to back, and starts one
child process at a time for cold measurements (set-up, the one-shot ``run``
command, peak RSS). No run uses more threads than ``nproc``. Every output
is checked against an independent numpy reference (``workloads.py``)
outside the timed region; the last line of stdout is the JSON result.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run, plus per-gate records under ``.svbench_out/``.
See METRICS.md for what each metric is and what should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from child import digest
from tracing import Tracer
from workloads import WORKLOADS, useful_pairs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".svbench_out"

END_TO_END = {
    "setup_s": "s",
    "first_s": "s",
    "opt_s": "s",
    "base_s": "s",
    "opt_mt_s": "s",
    "opt_rss_mib": "MiB",
    "base_rss_mib": "MiB",
    "pass_frac": "ratio",
}

_PER_STRATEGY = {
    "gate_s": "s",
    "gate_p50_ms": "ms",
    "gate_max_ms": "ms",
    "loop_s": "s",
    "iters": "count",
    "pairs": "count",
    "useful_frac": "ratio",
    "gbps": "GB/s",
    "roof_frac": "ratio",
    "faults": "count",
}
STRATEGIES = ("opt", "base", "opt_mt")

PER_LAYER = {
    "setup.import_s": "s",
    "setup.fill_s": "s",
    "circuits.gen_s": "s",
    "circuits.gates": "count",
    "core.new_state_s": "s",
    "core.state_mib": "MiB",
    **{f"sched.{s}.{k}": u for s in STRATEGIES for k, u in _PER_STRATEGY.items()},
    "sched.map_s": "s",
    "sched.map_frac": "ratio",
    "sched.floor_ms": "ms",
    "sched.floor_frac": "ratio",
    "sched.mt_speedup": "ratio",
    "sched.rss_over_state": "ratio",
    "sched.opt_over_base": "ratio",
    "cli.self_s": "s",
    "cli.faults": "count",
    "machine.copy_gbps": "GB/s",
    "machine.copy_mib": "MiB",
    "machine.nproc": "count",
    "machine.llc_mib": "MiB",
    "trace.overhead_frac": "ratio",
}

MIN_SAMPLES = 3  # per task, however short --seconds is
N_REPLAY = 3  # mapping replays in the traced run
N_FLOOR = 200  # one-iteration gates timed for the per-gate floor
CHILD_TIMEOUT_S = 120

MEASURED_SCOPE = (
    "only this benchmark's own processes were measured; huge pages, the page "
    "cache and cgroups were left alone"
)


class Checks:
    """Counts output checks; every failure is kept with what it checked."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", file=sys.stderr)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def llc_mib() -> float:
    """Size of the highest-level CPU cache, from sysfs; 0 when unknown."""
    best = (0, 0.0)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}.get(size[-1:], 1 / 1048576)
        best = max(best, (level, float(size.rstrip("KMG")) * scale))
    return best[1]


def copy_bandwidth(llc: float) -> tuple[float, int]:
    """np.copyto GB/s, counting bytes read plus written, on arrays of at
    least 4x the LLC (256 MiB when the LLC is unknown)."""
    mib = max(256, int(4 * llc) + 1)
    src = np.ones(mib << 17)  # float64: 2**17 per MiB
    dst = np.zeros_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9, mib


def child(*args) -> dict:
    """Run child.py to completion and return the JSON object it printed last."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *map(str, args)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Task:
    """Something measured repeatedly: a pass in this process or a cold child.

    ``run`` returns one sample; ``spent`` is the wall time the task has used,
    its checks included; ``share`` weighs its claim on the run's time. A
    pass task also keeps each pass's apply_circuit span (when traced) and
    its minor page faults.
    """

    def __init__(self, label: str, run=None, share: float = 1.0):
        self.label, self.run, self.share = label, run, share
        self.samples: list = []
        self.spans: list[int] = []
        self.faults: list[int] = []
        self.spent = 0.0


def measure(tasks: list[Task], seconds: float):
    """Run tasks until ``seconds`` of wall time is used, each step running
    the task that has used the least time for its share. Tasks are thus
    interleaved over the whole run, so a slow spell on a shared machine falls
    on all of them alike; each gets MIN_SAMPLES at least."""
    t_end = time.perf_counter() + seconds
    while True:
        short = [t for t in tasks if len(t.samples) < MIN_SAMPLES]
        if time.perf_counter() >= t_end:
            if not short:
                return
            task = short[0]
        else:
            task = min(tasks, key=lambda t: t.spent / t.share)
        t0 = time.perf_counter()
        task.samples.append(task.run())
        task.spent += time.perf_counter() - t0


class Session:
    """One workload in this process: circuit, seeded input, reference output."""

    def __init__(self, svsched, w, seed, checks):
        self.sv, self.w, self.seed, self.checks = svsched, w, seed, checks
        self.circuit = w.circuit(svsched.circuits)
        self.state = svsched.new_state(self.circuit.num_qubits)
        w.fill_input(self.state.amplitudes, seed)
        self.psi0 = self.state.amplitudes.copy()
        self.input_digest = digest(self.psi0)
        self.want = w.expected(self.psi0)
        self.tracer = Tracer()
        # The first pass's output, once checked, is what every later pass,
        # scheduler and child must reproduce bit for bit.
        self.first_out = None
        self.one_pass(Task("warm-up"), svsched.Strategy.OPTIMIZED, 1)
        self.first_out = self.state.amplitudes.copy()
        self.final_digest = digest(self.first_out)

    def one_pass(self, task: Task, strategy, threads, traced=False) -> float:
        """One checked pass from the seeded input; returns its wall time.

        When traced, every apply_gate call is recorded as a child of the
        pass's apply_circuit span, whose index goes to ``task.spans``.
        """
        sv, amps, label = self.sv, self.state.amplitudes, task.label
        np.copyto(amps, self.psi0)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if traced:
            with self.tracer.wrapping(sv.sched, "apply_gate", "sched.apply_gate"), \
                    self.tracer.span("sched.apply_circuit") as span:
                sv.sched.apply_circuit(self.state, self.circuit, strategy, threads=threads)
            task.spans.append(span.index)
            dt = span.seconds
        else:
            t0 = time.perf_counter()
            sv.sched.apply_circuit(self.state, self.circuit, strategy, threads=threads)
            dt = time.perf_counter() - t0
        task.faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
        self.checks.record(self.w.matches(amps, self.want), f"{label} pass matches reference")
        if self.first_out is not None:
            self.checks.record(np.array_equal(amps, self.first_out),
                               f"{label} pass bit-identical to the first optimized pass")
        return dt

    def pass_task(self, label, strategy, threads, traced=False) -> Task:
        """A task of passes, warmed up by one untimed pass.

        Threaded passes get twice the time: each gate builds a thread pool,
        and GIL handoffs make their times the most scattered of all.
        """
        task = Task(label, share=2.0 if threads > 1 else 1.0)
        self.one_pass(Task(label), strategy, threads)
        task.run = lambda: self.one_pass(task, strategy, threads, traced)
        return task

    def setup_task(self) -> Task:
        """Cold set-up children. Half a share: set-up time is compared only by
        its median, so its scatter matters least."""
        def run():
            r = child("setup", self.w.name, self.seed)
            self.checks.record(r["input_digest"] == self.input_digest,
                               "set-up child builds the same seeded input")
            return r
        return Task("setup", run, share=0.5)

    def first_task(self, traced: bool) -> Task:
        """Cold one-shot ``run`` children. Two shares: a cold process pays
        page faults and lazy imports, so these times scatter widely."""
        def run():
            r = child("first", self.w.name, self.seed, int(traced))
            problems = self.w.check_cli_output(r["stdout"], self.seed, useful_pairs(self.circuit))
            if r["rc"] != 0:
                problems.append(f"exit code {r['rc']}")
            self.checks.record(not problems, f"one-shot run output: {'; '.join(problems) or 'ok'}")
            return r
        return Task("first", run, share=2.0)

    def rss(self, strategy: str) -> float:
        r = child("rss", self.w.name, self.seed, strategy)
        self.checks.record(r["digest"] == self.final_digest,
                           f"{strategy} rss child final state bit-identical")
        return r["rss_mib"]


def end_to_end(svsched, w, seed, seconds, checks):
    s = Session(svsched, w, seed, checks)
    opt = svsched.Strategy.OPTIMIZED
    tasks = [
        s.setup_task(),
        s.first_task(traced=False),
        s.pass_task("opt", opt, 1),
        s.pass_task("base", svsched.Strategy.BASELINE, 1),
        s.pass_task("opt_mt", opt, nproc()),
    ]
    measure(tasks, seconds)
    setup, first, *passes = tasks
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in setup.samples),
        "first_s": statistics.median(r["first_s"] for r in first.samples),
        **{f"{t.label}_s": statistics.median(t.samples) for t in passes},
        "opt_rss_mib": s.rss("optimized"),
        "base_rss_mib": s.rss("baseline"),
    }
    samples = {f"{t.label}_s": len(t.samples) for t in tasks}
    return values, samples


def per_layer(svsched, w, seed, seconds, checks, machine):
    s = Session(svsched, w, seed, checks)
    circuit, n = s.circuit, s.circuit.num_qubits
    pairs = useful_pairs(circuit)
    itemsize = s.state.amplitudes.itemsize
    state_mib = s.state.amplitudes.nbytes / 2**20
    opt = svsched.Strategy.OPTIMIZED
    traced = [
        s.pass_task("opt", opt, 1, traced=True),
        s.pass_task("base", svsched.Strategy.BASELINE, 1, traced=True),
        s.pass_task("opt_mt", opt, nproc(), traced=True),
    ]
    untraced = s.pass_task("opt_untraced", opt, 1)
    setup, cli = s.setup_task(), s.first_task(traced=True)
    measure([setup, cli, untraced, *traced], seconds)

    tracer = s.tracer
    values = {
        "setup.import_s": statistics.median(r["import_s"] for r in setup.samples),
        "setup.fill_s": statistics.median(r["fill_s"] for r in setup.samples),
        "circuits.gen_s": statistics.median(r["gen_s"] for r in setup.samples),
        "circuits.gates": len(circuit.gates),
        "core.new_state_s": statistics.median(r["new_state_s"] for r in setup.samples),
        "core.state_mib": state_mib,
    }
    records = []
    for t in traced:
        per_pass = [tracer.children(i) for i in t.spans]
        gate_s = statistics.median(sum(g.seconds for g in gates) for gates in per_pass)
        iters = sum(g.result for g in per_pass[0])
        gbps = 4 * itemsize * pairs / gate_s / 1e9
        values.update({
            f"sched.{t.label}.gate_s": gate_s,
            f"sched.{t.label}.gate_p50_ms": 1e3 * statistics.median(
                g.seconds for gates in per_pass for g in gates),
            f"sched.{t.label}.gate_max_ms": 1e3 * statistics.median(
                max(g.seconds for g in gates) for gates in per_pass),
            f"sched.{t.label}.loop_s": statistics.median(
                tracer.self_seconds(i) for i in t.spans),
            f"sched.{t.label}.iters": iters,
            f"sched.{t.label}.pairs": pairs,
            f"sched.{t.label}.useful_frac": pairs / iters,
            f"sched.{t.label}.gbps": gbps,
            f"sched.{t.label}.roof_frac": gbps / machine["copy_gbps"],
            f"sched.{t.label}.faults": statistics.median(t.faults),
        })
        median_pass = sorted(zip(t.samples, per_pass), key=lambda p: p[0])[len(per_pass) // 2][1]
        for idx, (gate, g) in enumerate(zip(circuit.gates, median_pass)):
            gate_pairs = 1 << (n - gate.num_controls - 1)
            records.append({
                "workload": w.name, "strategy": t.label, "gate": idx, "name": gate.name,
                "target": gate.target, "controls": list(gate.controls),
                "iterations": g.result, "pairs": gate_pairs,
                "bytes": 4 * itemsize * gate_pairs, "seconds": g.seconds,
            })
    opt_gate_s = values["sched.opt.gate_s"]
    map_s = mapping_seconds(svsched, circuit)
    floor_s = floor_seconds(svsched, s.state)
    circuit_s = {t.label: statistics.median(t.samples) for t in (*traced, untraced)}
    values.update({
        "sched.map_s": map_s,
        "sched.map_frac": map_s / opt_gate_s,
        "sched.floor_ms": 1e3 * floor_s,
        "sched.floor_frac": len(circuit.gates) * floor_s / opt_gate_s,
        "sched.mt_speedup": opt_gate_s / values["sched.opt_mt.gate_s"],
        "sched.rss_over_state": s.rss("optimized") / state_mib,
        "sched.opt_over_base": circuit_s["opt"] / circuit_s["base"],
        "cli.self_s": statistics.median(r["cli_self_s"] for r in cli.samples),
        "cli.faults": statistics.median(r["faults"] for r in cli.samples),
        "machine.copy_gbps": machine["copy_gbps"],
        "machine.copy_mib": machine["copy_mib"],
        "machine.nproc": machine["nproc"],
        "machine.llc_mib": machine["llc_mib"],
        "trace.overhead_frac": circuit_s["opt"] / circuit_s["opt_untraced"] - 1,
    })
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{w.name}-seed{seed}.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    print(f"per-gate trace: {path.relative_to(ROOT)} ({len(records)} records)")
    samples = {f"sched.{t.label}.gate_s": len(t.samples) for t in traced}
    samples.update({"setup.import_s": len(setup.samples), "cli.self_s": len(cli.samples),
                    "trace.overhead_frac": len(untraced.samples)})
    return values, samples


def mapping_seconds(svsched, circuit) -> float:
    """Median over N_REPLAY replays of the time the public index mapping,
    reduced_to_global then ith_cleared, takes over every gate's reduced range."""
    n = circuit.num_qubits
    replays = []
    for _ in range(N_REPLAY):
        spent = 0.0
        for gate in circuit.gates:
            reduced = np.arange(1 << (n - 1 - gate.num_controls), dtype=np.int64)
            t0 = time.perf_counter()
            svsched.sched.ith_cleared(
                svsched.sched.reduced_to_global(reduced, gate.target, gate.controls),
                gate.target)
            spent += time.perf_counter() - t0
        replays.append(spent)
    return statistics.median(replays)


def floor_seconds(svsched, state) -> float:
    """Median time of apply_gate on a gate with one iteration: target 0 and
    every other qubit a control. This is the per-gate cost in Python."""
    gate = svsched.circuits.named_gate("x", 0, tuple(range(1, state.num_qubits)))
    times = []
    for _ in range(N_FLOOR):
        t0 = time.perf_counter()
        svsched.sched.apply_gate(state, gate, svsched.Strategy.OPTIMIZED)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def settle_malloc():
    """Start the steady-state passes from a fixed allocator state.

    glibc serves blocks above its mmap threshold with fresh mappings and
    raises the threshold to the largest such block freed, up to 32 MiB.
    Until it has risen, every per-gate temporary above 128 KiB is mapped and
    faulted in anew: about 31,000 minor faults per sq pass and 230,000 per
    qft pass, which doubles their times. Left alone, the threshold a run
    reaches depends on which arrays the benchmark's own checks happen to
    free first, and pass times jumped 2x between runs. Freeing one 31 MiB
    block puts the threshold where any long-lived process ends up after
    freeing a large array. The cold measurements (set-up, one-shot ``run``
    and peak-RSS children) keep glibc's defaults, and ``cli.faults`` counts
    the faults a cold run pays.
    """
    block = np.empty(31 << 20, dtype=np.uint8)
    del block


def import_svsched():
    """Import the checkout's own svsched from src/, never an installed copy."""
    if not (SRC / "svsched" / "__init__.py").is_file():
        raise SystemExit(f"error: no svsched package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import svsched

    if Path(svsched.__file__).resolve().parent != (SRC / "svsched").resolve():
        raise SystemExit(f"error: imported svsched from {svsched.__file__}, not {SRC}")
    return svsched


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="wall time to spend measuring, per workload")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    svsched = import_svsched()
    settle_malloc()
    machine = {
        "nproc": nproc(),
        "llc_mib": llc_mib(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scope": MEASURED_SCOPE,
    }
    if args.trace:
        machine["copy_gbps"], machine["copy_mib"] = copy_bandwidth(machine["llc_mib"])
    print("machine: " + json.dumps(machine))

    units = PER_LAYER if args.trace else END_TO_END
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    checks = Checks()
    metrics = {}
    for name in names:
        w = WORKLOADS[name]
        if args.trace:
            values, samples = per_layer(svsched, w, args.seed, args.seconds, checks, machine)
        else:
            values, samples = end_to_end(svsched, w, args.seed, args.seconds, checks)
            # Set after every check of this workload has been counted.
            values["pass_frac"] = 1 - len(checks.failures) / checks.attempted
        prefix = f"{name}." if len(names) > 1 else ""
        print(f"workload {name} ({w.spec}), seed {args.seed}:")
        for key, unit in units.items():
            n = samples.get(key)
            print(f"  {key:28s} {values[key]:.6g} {unit}" + (f"  (median of {n})" if n else ""))
            metrics[prefix + key] = {"value": values[key], "unit": unit}
    for what in checks.failures:
        print(f"failed check: {what}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
