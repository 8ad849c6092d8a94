"""Circuit generators for the three benchmark families, plus a line-oriented
text format for circuit interchange.

Text format (UTF-8, LF or CRLF; the serializer emits LF):

    # comment, anywhere on a line
    qubits 3
    h 0
    x 2 0 1        # <name> <target> [controls...]
    rm:2 1 2
    cx 0 1         # c-prefixed alias: controls first, target last

Gate names are ``h``, ``x``, ``y``, ``z`` and ``rm:<m>`` (m >= 1). Each
leading ``c`` on a name adds one control and switches the qubit list to
controls-first order (``ccx 0 1 2`` == ``x 2 0 1``). The serializer always
emits the canonical target-first form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .core import Circuit, GateMatrix, GateOp, gate_h, gate_rm, gate_x, gate_y, gate_z

_GATE_BUILDERS = {"h": gate_h, "x": gate_x, "y": gate_y, "z": gate_z}


def parse_int(text: str) -> int:
    """``text`` as a base-10 int of ASCII digits and an optional sign only."""
    if re.fullmatch(r"[+-]?[0-9]+", text) is None:
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def named_gate(name: str, target: int, controls: tuple[int, ...] = ()) -> GateOp:
    """Build a GateOp from a text-format gate name (``h``/``x``/``y``/``z``/``rm:<m>``)."""
    if name in _GATE_BUILDERS:
        matrix = _GATE_BUILDERS[name]()
    elif name.startswith("rm:"):
        matrix = gate_rm(parse_int(name[3:]))
    else:
        raise ValueError(f"unknown gate name {name!r}")
    return GateOp(matrix, target, controls, name=name)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def gen_qft(num_qubits: int) -> Circuit:
    """Quantum Fourier transform: for each qubit q, one H followed by
    controlled rotations rm:m (m = 2 .. n-q) targeting q, controlled by
    qubit q+m-1. No terminal swap network is emitted, so the circuit equals
    the DFT matrix applied to the bit-reversed input (see the dense oracle).

    Gate count: n + n*(n-1)/2.
    """
    if num_qubits < 1:
        raise ValueError("gen_qft needs at least one qubit")
    gates = []
    for q in range(num_qubits):
        gates.append(named_gate("h", q))
        for m in range(2, num_qubits - q + 1):
            gates.append(named_gate(f"rm:{m}", q, (q + m - 1,)))
    return Circuit(num_qubits, gates)


def gen_streaming(num_qubits: int) -> Circuit:
    """Cascade of multi-controlled X gates: gate k targets qubit k and is
    controlled by all lower qubits. Acts on basis states as one cyclic
    decrement, k -> k-1 mod 2**n; gate k carries k controls, up to n-1.
    """
    if num_qubits < 1:
        raise ValueError("gen_streaming needs at least one qubit")
    gates = [named_gate("x", k, tuple(range(k))) for k in range(num_qubits)]
    return Circuit(num_qubits, gates)


def _adder_gates(
    a_wires: list[int],
    b_wires: list[int],
    carry_in: int,
    carry_out: int | None,
    extra_control: int | None = None,
) -> list[GateOp]:
    """Ripple-carry adder gate sequence: B <- A + B.

    A majority cascade folds the running carry into the A wires, the carry-out
    (if wired) is copied off the top A wire, and the unmajority cascade
    restores A while writing the sum bits into B. Gates use at most two
    controls; ``extra_control`` adds one control to every gate, which turns
    the whole sequence into its controlled version exactly.
    """
    gates = []
    extra = () if extra_control is None else (extra_control,)

    def cx(target: int, controls: tuple[int, ...]):
        gates.append(named_gate("x", target, controls + extra))

    def majority(c: int, b: int, a: int):
        cx(b, (a,))
        cx(c, (a,))
        cx(a, (c, b))

    def unmajority(c: int, b: int, a: int):
        cx(a, (c, b))
        cx(c, (a,))
        cx(b, (c,))

    for j in range(len(a_wires)):
        prev = carry_in if j == 0 else a_wires[j - 1]
        majority(prev, b_wires[j], a_wires[j])
    if carry_out is not None:
        cx(carry_out, (a_wires[-1],))
    for j in reversed(range(len(a_wires))):
        prev = carry_in if j == 0 else a_wires[j - 1]
        unmajority(prev, b_wires[j], a_wires[j])
    return gates


def gen_cuccaro_adder(bits: int) -> Circuit:
    """Ripple-carry adder |a>|b> -> |a>|a+b> over 2*bits + 2 qubits.

    Register layout (qubit 0 = least significant bit of the index):

        0                carry-in ancilla (starts and ends 0)
        1 .. bits        operand A (unchanged)
        bits+1 .. 2bits  operand B, replaced by the low sum bits
        2bits+1          carry-out (receives bit ``bits`` of the sum)

    Gates carry at most two controls.
    """
    if bits < 1:
        raise ValueError("adder width must be >= 1")
    a_wires = list(range(1, bits + 1))
    b_wires = list(range(bits + 1, 2 * bits + 1))
    gates = _adder_gates(a_wires, b_wires, 0, 2 * bits + 1)
    return Circuit(2 * bits + 2, gates)


def gen_controlled_cuccaro_adder(bits: int, extra_control: int) -> Circuit:
    """The adder of gen_cuccaro_adder with every gate additionally controlled
    by qubit ``extra_control`` (the minimal choice is wire 2*bits+2).

    With the control unmet the circuit is the identity on the operands.
    Gates carry at most three controls.
    """
    if bits < 1:
        raise ValueError("adder width must be >= 1")
    if extra_control <= 2 * bits + 1:
        raise ValueError(
            f"extra control {extra_control} collides with adder wires 0..{2 * bits + 1}"
        )
    a_wires = list(range(1, bits + 1))
    b_wires = list(range(bits + 1, 2 * bits + 1))
    gates = _adder_gates(a_wires, b_wires, 0, 2 * bits + 1, extra_control)
    return Circuit(extra_control + 1, gates)


def gen_squaring(input_bits: int) -> Circuit:
    """Squaring circuit |a>|0...0> -> |a>|a*a> over 3*input_bits + 2 qubits.

    Register layout (k = input_bits):

        0 .. k-1      input a (unchanged)
        k .. 3k-1     output, 2k bits, reads a*a afterwards
        3k            adder carry-in ancilla (returns to 0)
        3k+1          control-copy ancilla (returns to 0)

    Built as k controlled ripple-carry additions: for each input bit i, bit i
    is copied onto the control ancilla, the input register is added into
    output bits i..i+k-1 with carry-out into output bit i+k (always 0
    beforehand, since the partial sum stays below 2**(k+i)), and the ancilla
    is cleared again. The 2k-bit output register always fits a*a, so no
    overflow case exists. Gates carry at most three controls.
    """
    k = input_bits
    if k < 1:
        raise ValueError("squaring input width must be >= 1")
    carry_anc = 3 * k
    ctl_anc = 3 * k + 1
    a_wires = list(range(k))
    gates = []
    for i in range(k):
        gates.append(named_gate("x", ctl_anc, (i,)))
        b_wires = [k + i + j for j in range(k)]
        gates.extend(_adder_gates(a_wires, b_wires, carry_anc, 2 * k + i, ctl_anc))
        gates.append(named_gate("x", ctl_anc, (i,)))
    return Circuit(3 * k + 2, gates)


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------


@dataclass
class CircuitStats:
    gate_count: int
    depth: int
    max_controls: int
    controls_histogram: dict[int, int] = field(default_factory=dict)


def stats(circuit: Circuit) -> CircuitStats:
    """Gate count, control histogram, and depth by greedy left-packing of
    gates onto time slices of mutually exclusive qubits."""
    histogram: dict[int, int] = {}
    level = [0] * circuit.num_qubits
    depth = 0
    for gate in circuit.gates:
        n_c = gate.num_controls
        histogram[n_c] = histogram.get(n_c, 0) + 1
        slot = 1 + max(level[q] for q in gate.qubits)
        for q in gate.qubits:
            level[q] = slot
        depth = max(depth, slot)
    max_controls = max(histogram) if histogram else 0
    return CircuitStats(len(circuit.gates), depth, max_controls, histogram)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


class CircuitParseError(ValueError):
    """Parse failure with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(r"\S+")
_NAME_RE = re.compile(r"^(c*)(h|x|y|z|rm:(\S+))$")


def _parse_int(token: str, line_no: int, column: int, what: str) -> int:
    try:
        return parse_int(token)
    except ValueError:
        raise CircuitParseError(f"malformed {what} {token!r}", line_no, column) from None


def parse_circuit(text: str) -> Circuit:
    """Parse the text format; raises CircuitParseError with line/column on any
    malformed input, never anything else."""
    if not isinstance(text, str):
        raise CircuitParseError("input is not text", 1, 1)
    num_qubits = None
    circuit = None
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        tokens = [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(line)]
        if not tokens:
            continue
        head, head_col = tokens[0]
        if circuit is None:
            if head.lower() != "qubits":
                raise CircuitParseError(
                    f"expected 'qubits <n>' header, got {head!r}", line_no, head_col
                )
            if len(tokens) != 2:
                raise CircuitParseError("header takes exactly one count", line_no, head_col)
            num_qubits = _parse_int(tokens[1][0], line_no, tokens[1][1], "qubit count")
            if num_qubits < 1:
                raise CircuitParseError(
                    f"qubit count must be >= 1, got {num_qubits}", line_no, tokens[1][1]
                )
            circuit = Circuit(num_qubits)
            continue

        if head.lower() == "qubits":
            raise CircuitParseError("duplicate 'qubits' header", line_no, head_col)
        match = _NAME_RE.match(head.lower())
        if match is None:
            raise CircuitParseError(f"unknown gate name {head!r}", line_no, head_col)
        prefix_controls = len(match.group(1))
        base = match.group(2)
        if match.group(3) is not None:
            m = _parse_int(match.group(3), line_no, head_col, "rotation order")
            if m < 1:
                raise CircuitParseError(
                    f"rotation order must be >= 1, got {m}", line_no, head_col
                )

        args = tokens[1:]
        if prefix_controls:
            if len(args) != prefix_controls + 1:
                raise CircuitParseError(
                    f"{head!r} takes {prefix_controls} control(s) and one target",
                    line_no,
                    head_col,
                )
            target_tok = args[-1]
            control_toks = args[:-1]
        else:
            if not args:
                raise CircuitParseError(f"{head!r} needs a target qubit", line_no, head_col)
            target_tok = args[0]
            control_toks = args[1:]

        target = _parse_int(target_tok[0], line_no, target_tok[1], "qubit index")
        if not 0 <= target < num_qubits:
            raise CircuitParseError(
                f"qubit {target} out of range for 'qubits {num_qubits}'",
                line_no,
                target_tok[1],
            )
        controls = []
        for tok, col in control_toks:
            c = _parse_int(tok, line_no, col, "qubit index")
            if not 0 <= c < num_qubits:
                raise CircuitParseError(
                    f"qubit {c} out of range for 'qubits {num_qubits}'", line_no, col
                )
            if c == target:
                raise CircuitParseError(
                    f"control qubit {c} collides with the target", line_no, col
                )
            if c in controls:
                raise CircuitParseError(f"duplicate control qubit {c}", line_no, col)
            controls.append(c)
        circuit.append(named_gate(base, target, tuple(controls)))

    if circuit is None:
        raise CircuitParseError("empty input, expected 'qubits <n>' header", 1, 1)
    return circuit


def serialize_circuit(circuit: Circuit) -> str:
    """Emit the canonical text form (LF line endings, target-first gate lines).

    Only gates carrying a text-format name serialize; ad-hoc matrices are
    rejected.
    """
    lines = [f"qubits {circuit.num_qubits}"]
    for gate in circuit.gates:
        if not gate.name:
            raise ValueError("cannot serialize a gate without a text-format name")
        fields = [gate.name, str(gate.target), *map(str, gate.controls)]
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"
