"""The benchmark's three workloads: seeded inputs and independent reference checks.

Nothing here calls the simulator's kernels or its dense oracle. Each check
derives the expected final state from the input with plain numpy, so a
scheduler bug cannot hide by agreeing with itself.

Importing this module imports only numpy; ``svsched`` is imported by the
callers after they put the checkout's ``src`` on ``sys.path``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Absolute tolerance of the QFT check, against ifft(psi[bitrev]) * sqrt(N).
QFT_TOL = 1e-12


def random_state(amps: np.ndarray, rng: np.random.Generator) -> None:
    """Fill ``amps`` in place with a normalized complex Gaussian vector.

    Drawn straight into the array, so the input costs no temporaries and the
    peak RSS of a child holds one state, not three.
    """
    rng.standard_normal(out=amps.view(np.float64))
    amps *= 1.0 / np.sqrt(np.vdot(amps, amps).real)


def bit_reverse(n: int) -> np.ndarray:
    """rev[k] = k with its n-bit binary representation reversed."""
    idx = np.arange(1 << n, dtype=np.int64)
    rev = np.zeros_like(idx)
    for b in range(n):
        rev |= ((idx >> b) & 1) << (n - 1 - b)
    return rev


@dataclass(frozen=True)
class Workload:
    name: str
    spec: str  # generator spec token accepted by ``svsched run``
    generator: str  # public generator in svsched.circuits
    param: int
    num_qubits: int
    fill: Callable[[np.ndarray, np.random.Generator], None]
    expected: Callable[[np.ndarray], np.ndarray]
    exact: bool

    def circuit(self, circuits_module):
        return getattr(circuits_module, self.generator)(self.param)

    def fill_input(self, amps: np.ndarray, seed: int) -> None:
        """Overwrite a |0...0> state from ``svsched.new_state`` with the seeded input."""
        self.fill(amps, np.random.default_rng([seed, 0]))

    def matches(self, out: np.ndarray, want: np.ndarray) -> bool:
        """True iff ``out`` equals ``want = self.expected(psi0)``: bit for bit
        for the permutation circuits, within QFT_TOL for the QFT."""
        if self.exact:
            return bool(np.array_equal(out, want))
        return bool(np.max(np.abs(out - want)) <= QFT_TOL)

    def cli_input(self, seed: int) -> int | None:
        """The ``--input`` value of the one-shot ``run`` (squaring only).

        Drawn among the inputs with three bits set: ``run`` prepares the
        input with one X gate per set bit, so a fixed bit count keeps the
        one-shot's work, and its time, the same for every seed.
        """
        if self.name != "sq":
            return None
        choices = [a for a in range(1 << self.param) if a.bit_count() == 3]
        return choices[int(np.random.default_rng([seed, 1]).integers(len(choices)))]

    def cli_argv(self, seed: int) -> list[str]:
        argv = ["run", self.spec, "--threads", "1"]
        a = self.cli_input(seed)
        return argv if a is None else argv + ["--input", str(a)]

    def check_cli_output(self, text: str, seed: int, iterations: int) -> list[str]:
        """Problems found in the stdout of ``svsched run``; empty when correct.

        ``iterations`` is the optimized law's total, Σ 2**(n-n_c-1).
        """
        problems = []
        if "norm: 1.000000000\n" not in text:
            problems.append("norm line is not 'norm: 1.000000000'")
        if f"iterations executed: {iterations}\n" not in text:
            problems.append(f"iterations executed is not {iterations}")
        if self.name == "stream":
            top = re.search(r"^top \d+ amplitudes:\n  (\|[01]+>)", text, re.M)
            if top is None or top[1] != "|" + "1" * self.num_qubits + ">":
                problems.append("dominant basis state of stream from |0...0> is not |1...1>")
        if self.name == "sq":
            a = self.cli_input(seed)
            want = f"input register: {a}, output register: {a * a}\n"
            if want not in text:
                problems.append(f"decoded registers are not {want.strip()!r}")
        return problems


_SQ_BITS = 5


def _fill_sq(amps: np.ndarray, rng: np.random.Generator, k: int = _SQ_BITS) -> None:
    # A superposition over |a, 0> for every k-bit a; the output register,
    # the carry and the control-copy ancilla start at 0.
    amps[0] = 0
    random_state(amps[: 1 << k], rng)


def _expected_sq(psi0: np.ndarray, k: int = _SQ_BITS) -> np.ndarray:
    a = np.arange(1 << k, dtype=np.int64)
    want = np.zeros_like(psi0)
    want[a | ((a * a) << k)] = psi0[a]
    return want


def _expected_qft(psi0: np.ndarray) -> np.ndarray:
    n = psi0.size.bit_length() - 1
    return np.fft.ifft(psi0[bit_reverse(n)]) * np.sqrt(psi0.size)


# Why these three (see METRICS.md for what each should move):
# * stream: the paper's headline. 22 multi-controlled X (n_c 0..21) on a
#   64 MiB state; baseline wastes ~91% of its iterations, the gates are the
#   largest, so threads and memory show, and per-gate temporaries exceed L3.
# * qft: 171 gates (18 H, 153 one-control rm:m) on a 4 MiB state. The
#   amplitude update dominates and mapping is cheap; the scheduler barely
#   matters, so it is the no-change control for scheduler work.
# * sq: 165 small X gates with 1-4 controls on a cache-resident 2 MiB state.
#   The per-gate floor and multi-control mapping dominate; it never threads.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("stream", "stream:22", "gen_streaming", 22, 22,
                 random_state, lambda psi0: np.roll(psi0, -1), exact=True),
        Workload("qft", "qft:18", "gen_qft", 18, 18,
                 random_state, _expected_qft, exact=False),
        Workload("sq", f"sq:{_SQ_BITS}", "gen_squaring", _SQ_BITS, 3 * _SQ_BITS + 2,
                 _fill_sq, _expected_sq, exact=True),
    )
}


def useful_pairs(circuit) -> int:
    """Σ 2**(n - n_c - 1): the pairs a circuit's gates update."""
    n = circuit.num_qubits
    return sum(1 << (n - g.num_controls - 1) for g in circuit.gates)
