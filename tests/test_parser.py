import numpy as np
import pytest

from svsched import (
    CircuitParseError,
    gen_cuccaro_adder,
    gen_qft,
    gen_squaring,
    gen_streaming,
    named_gate,
    parse_circuit,
    serialize_circuit,
)


class TestParse:
    def test_basic_circuit(self):
        circuit = parse_circuit("qubits 2\nh 0\ncx 1 0")
        assert circuit.num_qubits == 2
        assert len(circuit) == 2
        h, cx = circuit.gates
        assert (h.name, h.target, h.controls) == ("h", 0, ())
        # c-prefix alias lists controls first: cx 1 0 targets qubit 0
        assert (cx.name, cx.target, cx.controls) == ("x", 0, (1,))

    def test_canonical_form_is_target_first(self):
        circuit = parse_circuit("qubits 3\nx 0 1 2\n")
        gate = circuit.gates[0]
        assert (gate.target, gate.controls) == (0, (1, 2))

    def test_ccx_alias(self):
        gate = parse_circuit("qubits 3\nccx 0 1 2\n").gates[0]
        assert (gate.name, gate.target, gate.controls) == ("x", 2, (0, 1))

    def test_rotation_gate(self):
        gate = parse_circuit("qubits 2\nrm:3 1 0\n").gates[0]
        assert gate.name == "rm:3"
        assert gate.matrix.d == pytest.approx(np.exp(2j * np.pi / 8), abs=1e-15)

    def test_comments_blanks_and_whitespace(self):
        text = "# header comment\n\n  qubits   3 # trailing\n\th\t2\n  x 0 2 # note\n"
        circuit = parse_circuit(text)
        assert circuit.num_qubits == 3
        assert [g.name for g in circuit.gates] == ["h", "x"]

    def test_crlf_accepted(self):
        circuit = parse_circuit("qubits 2\r\nh 0\r\nx 1\r\n")
        assert len(circuit) == 2

    def test_case_insensitive_names(self):
        circuit = parse_circuit("QUBITS 2\nH 0\nCX 0 1\n")
        assert circuit.gates[1].target == 1


class TestParseErrors:
    def assert_error(self, text, line, fragment):
        with pytest.raises(CircuitParseError) as info:
            parse_circuit(text)
        assert info.value.line == line
        assert info.value.column >= 1
        assert fragment in str(info.value)

    def test_out_of_range_target(self):
        self.assert_error("qubits 3\nh 5", 2, "out of range")

    def test_unknown_gate(self):
        self.assert_error("qubits 2\nfoo 0", 2, "unknown gate")

    def test_missing_header(self):
        self.assert_error("h 0\n", 1, "header")

    def test_empty_input(self):
        self.assert_error("", 1, "empty input")
        self.assert_error("# only comments\n", 1, "empty input")

    def test_malformed_qubit_count(self):
        self.assert_error("qubits two\n", 1, "malformed")

    def test_malformed_qubit_index(self):
        self.assert_error("qubits 2\nx zero\n", 2, "malformed")

    def test_duplicate_control(self):
        self.assert_error("qubits 3\nx 0 1 1\n", 2, "duplicate control")

    def test_control_collides_with_target(self):
        self.assert_error("qubits 3\nx 0 0\n", 2, "collides")

    def test_missing_target(self):
        self.assert_error("qubits 2\nh\n", 2, "target")

    def test_alias_arity(self):
        self.assert_error("qubits 3\ncx 0\n", 2, "control")

    def test_bad_rotation_order(self):
        self.assert_error("qubits 2\nrm:0 0\n", 2, "rotation order")
        self.assert_error("qubits 2\nrm:x 0\n", 2, "malformed")

    @pytest.mark.parametrize(
        "text, line, column, token",
        [
            ("qubits 1_2\n", 1, 8, "1_2"),
            ("qubits \uff12\n", 1, 8, "\uff12"),
            ("qubits 12\nh 1_0\n", 2, 3, "1_0"),
            ("qubits 4\nrm:0_3 3 1\n", 2, 1, "0_3"),
            ("qubits 4\nrm:3 \u0663 1\n", 2, 6, "\u0663"),
            ("qubits 4\nx 0 \u0661\n", 2, 5, "\u0661"),
        ],
    )
    def test_integers_are_ascii_decimal(self, text, line, column, token):
        # int() would read these as 12, 2, 10, 3, 3 and 1
        with pytest.raises(CircuitParseError) as info:
            parse_circuit(text)
        assert (info.value.line, info.value.column) == (line, column)
        assert "malformed" in str(info.value) and repr(token) in str(info.value)

    def test_signed_integers_keep_their_messages(self):
        self.assert_error("qubits -1\n", 1, "qubit count must be >= 1, got -1")
        self.assert_error("qubits 2\nh -1\n", 2, "qubit -1 out of range")
        self.assert_error("qubits 2\nrm:-2 0\n", 2, "rotation order must be >= 1, got -2")
        gate = parse_circuit("qubits +2\nh +1\n").gates[0]
        assert gate.target == 1

    def test_named_gate_rotation_order_is_ascii_decimal(self):
        assert named_gate("rm:+3", 0).name == "rm:+3"
        for name in ("rm:0_3", "rm:\u0663", "rm: 3"):
            with pytest.raises(ValueError):
                named_gate(name, 0)

    def test_zero_qubits(self):
        self.assert_error("qubits 0\n", 1, ">= 1")

    def test_duplicate_header(self):
        self.assert_error("qubits 2\nqubits 3\n", 2, "duplicate 'qubits'")

    def test_error_column_points_at_offender(self):
        with pytest.raises(CircuitParseError) as info:
            parse_circuit("qubits 3\nx 0 7\n")
        assert (info.value.line, info.value.column) == (2, 5)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "circuit",
        [gen_qft(1), gen_qft(5), gen_streaming(4), gen_cuccaro_adder(2), gen_squaring(2)],
        ids=["qft1", "qft5", "stream4", "adder2", "sq2"],
    )
    def test_parse_serialize_identity(self, circuit):
        assert parse_circuit(serialize_circuit(circuit)) == circuit

    def test_serializer_emits_lf_and_header(self):
        text = serialize_circuit(gen_streaming(2))
        assert text == "qubits 2\nx 0\nx 1 0\n"

    def test_unnamed_gate_rejected(self):
        from svsched import Circuit, GateOp, gate_x

        circuit = Circuit(1, [GateOp(gate_x(), 0)])
        with pytest.raises(ValueError):
            serialize_circuit(circuit)


class TestFuzz:
    def test_random_bytes_never_crash(self):
        rng = np.random.default_rng(99)
        for _ in range(20_000):
            size = int(rng.integers(0, 80))
            text = rng.bytes(size).decode("latin-1")
            try:
                parse_circuit(text)
            except CircuitParseError:
                pass

    def test_random_token_soup_never_crashes(self):
        rng = np.random.default_rng(7)
        vocab = ["qubits", "h", "x", "cx", "rm:2", "rm:", "c", "#", "-1", "0", "3", "99", "\t", "ä"]
        for _ in range(5_000):
            words = rng.choice(vocab, size=rng.integers(0, 12))
            text = " ".join(words) + ("\n" if rng.integers(2) else "")
            try:
                parse_circuit(text)
            except CircuitParseError:
                pass
