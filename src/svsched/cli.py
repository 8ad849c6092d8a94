"""Command-line front end: generate circuits, run them, verify the schedulers
against brute force, and benchmark.

Circuit sources are either a path to a circuit text file or a generator spec
token: ``qft:<n>``, ``stream:<n>``, ``sq:<input_bits>``.

Exit codes: 0 success, 2 usage error, 3 capacity exceeded (also out of
memory), 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .bench import DEFAULT_POWER_MODELS, emit_report, parse_power_config, run_bench
from .circuits import (
    CircuitParseError,
    gen_qft,
    gen_squaring,
    gen_streaming,
    named_gate,
    parse_circuit,
    serialize_circuit,
)
from .core import MAX_QUBITS, PRECISION_DTYPES, CapacityError, Circuit, new_state, norm_sq
from .sched import Strategy, apply_circuit
from .verify import verify_equivalence, verify_mappings

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_VERIFY = 4

#: Largest register the run command will dump to a file.
DUMP_MAX_QUBITS = 16

THREADS_ENV_VAR = "SVSCHED_THREADS"

# Amplitudes per chunk of top_amplitudes' pass (1 MiB of complex128).
_CHUNK = 1 << 16

# Working memory of run beyond the state, for the pre-flight check. Traced
# with tracemalloc: top_amplitudes peaks at 16 bytes per chunk amplitude for
# a small k and at 88 when k fills the chunk (2k candidates are merged); one
# worker's window temporaries peak at 424 KiB (a double-precision h under
# the baseline).
_CHUNK_BYTES = 96
_WORKER_BYTES = 1 << 20

_GENERATORS = {"qft": gen_qft, "stream": gen_streaming, "sq": gen_squaring}

#: Register size a generator spec implies, checked against MAX_QUBITS upfront.
_SPEC_QUBITS = {"qft": lambda p: p, "stream": lambda p: p, "sq": lambda p: 3 * p + 2}


class UsageError(Exception):
    pass


def default_threads() -> int:
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            threads = int(env)
        except ValueError:
            raise UsageError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from None
        if threads < 1:
            raise UsageError(f"{THREADS_ENV_VAR} must be >= 1, got {env!r}")
        return threads
    return os.cpu_count() or 1


def top_indices(probs: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest probabilities, largest first; equal
    probabilities keep the smaller index first, also at the k-th place.

    Selects in linear time, then sorts only the survivors.
    """
    k = min(k, probs.size)
    if k == 0:
        return np.empty(0, dtype=np.intp)
    # The k-th largest value. Selecting from the front of -probs: selecting
    # from the back of probs took 10x longer on a basis state (one 1, all
    # other entries 0). The negated copy is partitioned in place and freed
    # before the scans below, so at most one state-sized float64 temporary
    # is alive at a time.
    neg = -probs
    neg.partition(k - 1)
    kth = -neg[k - 1]
    del neg
    above = np.flatnonzero(probs > kth)
    tied = np.flatnonzero(probs == kth)[: k - above.size]
    chosen = np.concatenate((above, tied))
    return chosen[np.lexsort((chosen, -probs[chosen]))]


def top_amplitudes(amps: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the ``k`` most probable amplitudes and their probabilities
    ``abs(amp) ** 2``, in top_indices' order, from one pass over ``amps``.

    Reads the state in chunks of ``max(_CHUNK, k)`` amplitudes and keeps at
    most k candidates, so its working memory is O(chunk), not O(state). Once
    k candidates are held, a chunk offers only probabilities strictly above
    the k-th: a later tie loses to the earlier index it would follow.
    """
    k = min(k, amps.size)
    chunk = max(_CHUNK, k)
    idx = np.empty(0, dtype=np.intp)
    probs = np.empty(0, dtype=amps.real.dtype)
    if k == 0:
        return idx, probs
    for lo in range(0, amps.size, chunk):
        p = np.abs(amps[lo : lo + chunk]) ** 2
        new = top_indices(p, k) if idx.size < k else np.flatnonzero(p > probs[-1])
        if new.size == 0:
            continue
        # Candidates stay in top_indices' order, and every new index is larger
        # than every held one, so equal probabilities keep index order here too.
        idx = np.concatenate((idx, new + lo))
        probs = np.concatenate((probs, p[new]))
        keep = top_indices(probs, k)
        idx, probs = idx[keep], probs[keep]
    return idx, probs


def _mem_available(path: str = "/proc/meminfo") -> int | None:
    """The kernel's estimate of memory available without swapping, in bytes,
    or None when it cannot be read."""
    try:
        with open(path, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_memory(num_qubits: int, precision: str, top_k: int, threads: int) -> None:
    """Raise CapacityError unless the state of a ``run``, its output chunk and
    every worker's window temporaries fit in MemAvailable; skipped when that
    cannot be read, and for registers above the cap, which new_state rejects."""
    if num_qubits > MAX_QUBITS:
        return
    state = np.dtype(PRECISION_DTYPES[precision]).itemsize << num_qubits
    needed = (
        state
        + max(_CHUNK, min(top_k, 1 << num_qubits)) * _CHUNK_BYTES
        + min(threads, os.cpu_count() or 1) * _WORKER_BYTES
    )
    available = _mem_available()
    if available is not None and needed > available:
        raise CapacityError(
            f"run needs {needed} bytes ({state} of state), "
            f"{available} bytes are available"
        )


def load_circuit(source: str) -> tuple[str, Circuit]:
    """Resolve a generator spec token or a circuit file path to (name, circuit)."""
    head, sep, tail = source.partition(":")
    if sep and head in _GENERATORS:
        try:
            param = int(tail)
        except ValueError:
            raise UsageError(f"bad generator parameter in {source!r}") from None
        if param >= 1 and _SPEC_QUBITS[head](param) > MAX_QUBITS:
            raise CapacityError(
                f"{source!r} implies {_SPEC_QUBITS[head](param)} qubits, "
                f"supported maximum is {MAX_QUBITS}"
            )
        try:
            circuit = _GENERATORS[head](param)
        except ValueError as exc:
            raise UsageError(f"bad generator spec {source!r}: {exc}") from None
        return source.replace(":", ""), circuit
    path = Path(source)
    if not path.is_file():
        raise UsageError(
            f"{source!r} is neither a circuit file nor a generator spec "
            f"({'/'.join(_GENERATORS)}:<n>)"
        )
    return path.stem, parse_circuit(path.read_text(encoding="utf-8"))


def _basis_label(index: int, n: int) -> str:
    return "|" + format(index, f"0{n}b") + ">"


def _squaring_width(num_qubits: int) -> int | None:
    k, rem = divmod(num_qubits - 2, 3)
    return k if rem == 0 and k >= 1 else None


def cmd_gen(args) -> int:
    _, circuit = load_circuit(args.spec)
    text = serialize_circuit(circuit)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_run(args) -> int:
    if args.top_k < 0:
        raise UsageError("--top-k must be >= 0")
    name, circuit = load_circuit(args.source)
    strategy = Strategy(args.scheduler)
    _check_memory(circuit.num_qubits, args.precision, args.top_k, args.threads)
    state = new_state(circuit.num_qubits, args.precision)

    if args.input is not None:
        k = _squaring_width(circuit.num_qubits)
        if k is None:
            raise UsageError(
                f"--input needs the squaring layout (3k+2 qubits), circuit has "
                f"{circuit.num_qubits}"
            )
        if not 0 <= args.input < (1 << k):
            raise UsageError(f"--input {args.input} does not fit a {k}-bit input register")
        # X-prep each set bit of the requested value; not counted as circuit work.
        prep = Circuit(
            circuit.num_qubits,
            [named_gate("x", bit) for bit in range(k) if (args.input >> bit) & 1],
        )
        apply_circuit(state, prep, strategy, threads=args.threads)

    executed = apply_circuit(state, circuit, strategy, threads=args.threads)

    print(f"circuit {name}: {circuit.num_qubits} qubits, {len(circuit)} gates")
    print(f"scheduler: {strategy.value}, precision: {args.precision}, threads: {args.threads}")
    print(f"iterations executed: {executed}")
    print(f"norm: {norm_sq(state):.9f}")

    # One pass serves both outputs: the first candidate is the smallest index
    # among the maxima, the dominant basis state.
    top, probs = top_amplitudes(state.amplitudes, max(args.top_k, 1))
    rows = top[: args.top_k]
    print(f"top {rows.size} amplitudes:")
    for idx, p in zip(rows, probs):
        amp = state.amplitudes[idx]
        print(
            f"  {_basis_label(int(idx), circuit.num_qubits)}  "
            f"{amp.real:+.6f}{amp.imag:+.6f}i  p={p:.6f}"
        )

    dominant = int(top[0])
    k = _squaring_width(circuit.num_qubits)
    if args.input is not None and k is not None:
        in_reg = dominant & ((1 << k) - 1)
        out_reg = (dominant >> k) & ((1 << (2 * k)) - 1)
        print(f"input register: {in_reg}, output register: {out_reg}")

    if args.dump:
        if circuit.num_qubits > DUMP_MAX_QUBITS:
            raise CapacityError(
                f"state dump capped at {DUMP_MAX_QUBITS} qubits, circuit has "
                f"{circuit.num_qubits}"
            )
        with open(args.dump, "w", encoding="utf-8") as fh:
            for idx, amp in enumerate(state.amplitudes):
                fh.write(f"{idx} {amp.real:.17g} {amp.imag:.17g}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    if not 2 <= args.n_max <= 8:
        raise UsageError("--n-max must be in [2, 8]")
    if args.cases < 0:
        raise UsageError("--cases must be >= 0")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    checked, mapping_misses = verify_mappings(args.n_max)
    print(f"mapping: checked {checked} geometries (n=2..{args.n_max})", end="")
    if mapping_misses:
        print(f"\nmapping mismatch at {mapping_misses[0]}")
        return EXIT_VERIFY
    print(": all match brute force")

    cases, equiv_misses = verify_equivalence(args.cases, args.seed)
    print(f"equivalence: {cases} random gate cases (seed={args.seed})", end="")
    if equiv_misses:
        print(f"\nequivalence mismatch at {equiv_misses[0]}")
        return EXIT_VERIFY
    print(": baseline and optimized bit-identical")

    print("all geometries verified")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise UsageError("--reps must be >= 1")
    name, circuit = load_circuit(args.source)
    models = dict(DEFAULT_POWER_MODELS)
    if args.power_config:
        try:
            models.update(
                parse_power_config(Path(args.power_config).read_text(encoding="utf-8"))
            )
        except ValueError as exc:
            raise UsageError(f"bad power config {args.power_config}: {exc}") from None
    if args.power not in models:
        raise UsageError(
            f"unknown power model {args.power!r}; have {', '.join(sorted(models))}"
        )
    power = models[args.power]

    strategies = (
        [Strategy.BASELINE, Strategy.OPTIMIZED]
        if args.schedulers == "both"
        else [Strategy(args.schedulers)]
    )
    reports = []
    by_strategy = {}
    for strategy in strategies:
        report = run_bench(
            circuit,
            strategy,
            args.reps,
            power,
            circuit_name=name,
            precision=args.precision,
            threads=args.threads,
            per_gate_timing=args.per_gate_timing,
        )
        reports.append(report)
        by_strategy[strategy] = report

    text = emit_report(reports, args.format)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)

    if len(strategies) == 2:
        ratio = (
            by_strategy[Strategy.OPTIMIZED].total_time_seconds
            / by_strategy[Strategy.BASELINE].total_time_seconds
        )
        print(f"optimized/baseline time ratio: {ratio:.4f}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svsched",
        description="Full-state-vector circuit simulator with baseline and "
        "reduced-iteration gate schedulers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a circuit file")
    p_gen.add_argument("spec", help="generator spec, e.g. qft:5, stream:24, sq:4")
    p_gen.add_argument("-o", "--output", help="output path (default: stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_run = sub.add_parser("run", help="simulate a circuit and summarize the final state")
    p_run.add_argument("source", help="circuit file or generator spec")
    p_run.add_argument(
        "--scheduler", choices=[s.value for s in Strategy], default=Strategy.OPTIMIZED.value
    )
    p_run.add_argument("--precision", choices=["double", "single"], default="double")
    p_run.add_argument("--top-k", type=int, default=8, help="amplitudes to print")
    p_run.add_argument(
        "--input",
        type=int,
        default=None,
        help="prepare a squaring circuit's input register to this value with X gates",
    )
    p_run.add_argument(
        "--dump", help=f"write the full state to a file (n <= {DUMP_MAX_QUBITS})"
    )
    p_run.add_argument("--threads", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser(
        "verify", help="check the reduced-iteration mapping against brute force"
    )
    p_verify.add_argument("--n-max", type=int, default=8, help="largest register (2..8)")
    p_verify.add_argument("--cases", type=int, default=1000, help="random equivalence cases")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time a circuit and report energy")
    p_bench.add_argument("source", help="circuit file or generator spec")
    p_bench.add_argument(
        "--schedulers", choices=["baseline", "optimized", "both"], default="both"
    )
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument(
        "--power", default="fpga", help="power model name (default models: fpga, cpu, gpu)"
    )
    p_bench.add_argument(
        "--power-config", help="file of device.power_watts = <value> lines"
    )
    p_bench.add_argument("--format", choices=["csv", "json"], default="csv")
    p_bench.add_argument("-o", "--output", help="report path (default: stdout)")
    p_bench.add_argument("--precision", choices=["double", "single"], default="double")
    p_bench.add_argument("--threads", type=int, default=None)
    p_bench.add_argument("--per-gate-timing", action="store_true")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if hasattr(args, "threads"):
        try:
            if args.threads is None:
                args.threads = default_threads()
            elif args.threads < 1:
                raise UsageError(f"--threads must be >= 1, got {args.threads}")
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"capacity error: out of memory{detail}", file=sys.stderr)
        return EXIT_CAPACITY
    except CircuitParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
