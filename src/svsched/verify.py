"""Self-verification suites behind the ``verify`` CLI command.

Two independent checks of the reduced-iteration scheduler:

* every gate geometry (register size, target, ascending control subset) maps
  its reduced iteration set onto exactly the brute-force active set;
* on random gates and random states, both schedulers produce bit-identical
  final state vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import GateMatrix, GateOp, StateVector
from .sched import Strategy, active_set_oracle, apply_gate, reduced_to_global


@dataclass(frozen=True)
class Mismatch:
    num_qubits: int
    target: int
    controls: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        c = "{" + ", ".join(map(str, self.controls)) + "}"
        return f"(n={self.num_qubits}, t={self.target}, C={c}): {self.detail}"


def all_geometries(n_min: int = 2, n_max: int = 8):
    """Yield (n, target, controls) for every ascending control subset,
    including the empty one."""
    for n in range(n_min, n_max + 1):
        for t in range(n):
            others = [q for q in range(n) if q != t]
            for size in range(len(others) + 1):
                for controls in combinations(others, size):
                    yield n, t, controls


def check_mapping(n: int, target: int, controls: tuple[int, ...]) -> Mismatch | None:
    """Exact set equality between the mapped reduced indices and the oracle."""
    reduced = np.arange(1 << (n - 1 - len(controls)), dtype=np.int64)
    image = reduced_to_global(reduced, target, controls)
    expected = active_set_oracle(n, target, controls)
    got = set(int(i) for i in np.atleast_1d(image))
    if got != expected:
        return Mismatch(n, target, controls, f"mapped {sorted(got)} != active {sorted(expected)}")
    if not np.all(np.diff(np.atleast_1d(image)) > 0):
        return Mismatch(n, target, controls, "mapping not strictly increasing")
    return None


def verify_mappings(n_max: int = 8) -> tuple[int, list[Mismatch]]:
    """Check every geometry with n in [2, n_max]; returns (checked, mismatches)."""
    checked = 0
    mismatches = []
    for n, t, controls in all_geometries(2, n_max):
        checked += 1
        miss = check_mapping(n, t, controls)
        if miss is not None:
            mismatches.append(miss)
    return checked, mismatches


def random_gate_matrix(rng: np.random.Generator) -> GateMatrix:
    """A Haar-ish random 2x2 unitary via QR of a complex Gaussian draw."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return GateMatrix(q[0, 0], q[0, 1], q[1, 0], q[1, 1])


def random_state(rng: np.random.Generator, n: int) -> StateVector:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps.astype(np.complex128))


def verify_equivalence(
    cases: int = 1000, seed: int = 0, n_max: int = 10
) -> tuple[int, list[Mismatch]]:
    """Random gates on random states: baseline and optimized final state
    vectors must match bit for bit."""
    rng = np.random.default_rng(seed)
    mismatches = []
    for _ in range(cases):
        n = int(rng.integers(2, n_max + 1))
        t = int(rng.integers(n))
        others = [q for q in range(n) if q != t]
        n_c = int(rng.integers(0, n))  # up to n-1 controls
        controls = tuple(sorted(rng.choice(others, size=n_c, replace=False))) if n_c else ()
        gate = GateOp(random_gate_matrix(rng), t, controls)
        state = random_state(rng, n)
        s_base = state.copy()
        s_opt = state.copy()
        apply_gate(s_base, gate, Strategy.BASELINE)
        apply_gate(s_opt, gate, Strategy.OPTIMIZED)
        if not np.array_equal(s_base.amplitudes, s_opt.amplitudes):
            worst = float(np.max(np.abs(s_base.amplitudes - s_opt.amplitudes)))
            mismatches.append(
                Mismatch(n, t, controls, f"schedulers disagree, max |diff| = {worst:.3e}")
            )
    return cases, mismatches
