"""One fresh process per cold measurement; ``run.py`` starts it and reads
the JSON object it prints as its last line.

    python3 svbench/child.py setup <workload> <seed>
    python3 svbench/child.py first <workload> <seed> <trace 0|1>
    python3 svbench/child.py rss   <workload> <seed> <baseline|optimized>

Only the standard library is imported before the clock starts, so ``setup``
pays for importing numpy and svsched as a user's first call would.
"""

import hashlib
import io
import json
import resource
import sys
import time
from contextlib import ExitStack, redirect_stdout
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def digest(amps) -> str:
    return hashlib.blake2b(memoryview(amps).cast("B"), digest_size=16).hexdigest()


def setup(name: str, seed: int) -> dict:
    t0 = time.perf_counter()
    import svsched
    from workloads import WORKLOADS

    t1 = time.perf_counter()
    w = WORKLOADS[name]
    circuit = w.circuit(svsched.circuits)
    t2 = time.perf_counter()
    state = svsched.new_state(circuit.num_qubits)
    t3 = time.perf_counter()
    w.fill_input(state.amplitudes, seed)
    t4 = time.perf_counter()
    return {
        "setup_s": t4 - t0,
        "import_s": t1 - t0,
        "gen_s": t2 - t1,
        "new_state_s": t3 - t2,
        "fill_s": t4 - t3,
        "input_digest": digest(state.amplitudes),
    }


def first(name: str, seed: int, traced: bool) -> dict:
    import svsched.cli
    from tracing import Tracer
    from workloads import WORKLOADS

    argv = WORKLOADS[name].cli_argv(seed)
    out = io.StringIO()
    tracer = Tracer()
    with ExitStack() as stack:
        if traced:
            # Children of the cli.main span: everything cmd_run calls through
            # svsched.cli globals, and the gates apply_circuit runs. What is
            # left is cli's own work: parsing, the top-k sort and printing.
            for module, attr, span in (
                (svsched.cli, "load_circuit", "cli.load_circuit"),
                (svsched.cli, "new_state", "core.new_state"),
                (svsched.cli, "apply_circuit", "sched.apply_circuit"),
                (svsched.sched, "apply_gate", "sched.apply_gate"),
            ):
                stack.enter_context(tracer.wrapping(module, attr, span))
        stack.enter_context(redirect_stdout(out))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with tracer.span("cli.main") as main:
            rc = svsched.cli.main(argv)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {
        "rc": rc,
        "stdout": out.getvalue(),
        "first_s": main.seconds,
        "cli_self_s": tracer.self_seconds(main.index),
        "faults": faults,
    }


def rss(name: str, seed: int, strategy: str) -> dict:
    import svsched
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    circuit = w.circuit(svsched.circuits)
    state = svsched.new_state(circuit.num_qubits)
    w.fill_input(state.amplitudes, seed)
    svsched.apply_circuit(state, circuit, svsched.Strategy(strategy), threads=1)
    return {"rss_mib": peak_rss_mib(), "digest": digest(state.amplitudes)}


def peak_rss_mib() -> float:
    """Peak RSS of this process image, from VmHWM.

    Not ``ru_maxrss``: Linux carries it across exec, and subprocess starts
    children with vfork, so it would report the parent's peak when that is
    higher than the child's own.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    mode, name, seed, *rest = argv
    if mode == "setup":
        result = setup(name, int(seed))
    elif mode == "first":
        result = first(name, int(seed), rest == ["1"])
    elif mode == "rss":
        result = rss(name, int(seed), rest[0])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
