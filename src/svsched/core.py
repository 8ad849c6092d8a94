"""State-vector storage and the single-qubit gate primitives shared by both schedulers.

Conventions used throughout the package:

* Qubit 0 is the least significant bit of a basis-state index, so the two
  amplitudes paired by a gate on target ``t`` sit ``2**t`` apart.
* Controls require the control bit of the basis index to be 1.
* Gate matrices are 2x2 row-major: ``[[a, b], [c, d]]``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

#: Hard register-size cap. 2**30 amplitudes is 16 GiB in double precision
#: (8 GiB single); available RAM is the practical bound below that.
MAX_QUBITS = 30

PRECISION_DTYPES = {"double": np.complex128, "single": np.complex64}

#: Every state the simulator allocates starts on a boundary of this many
#: bytes, a page and so a 64-byte cache line, and holds this much slack.
PAGE_BYTES = 4096

_UNITARY_TOL = 1e-10
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class CapacityError(ValueError):
    """Requested register size is outside the supported range."""


@dataclass(frozen=True)
class GateMatrix:
    """Row-major 2x2 complex matrix ``[[a, b], [c, d]]``; must be unitary."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for v in (self.a, self.b, self.c, self.d):
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError("gate matrix entries must be finite")
        if not self.is_unitary(_UNITARY_TOL):
            raise ValueError(f"gate matrix is not unitary within {_UNITARY_TOL}")

    def is_unitary(self, tol: float = _UNITARY_TOL) -> bool:
        """Check M @ M.conj().T == I entry-wise within tol."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return (
            abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= tol
            and abs(abs(c) ** 2 + abs(d) ** 2 - 1.0) <= tol
            and abs(a * c.conjugate() + b * d.conjugate()) <= tol
        )


@dataclass(frozen=True)
class GateOp:
    """A single-qubit gate on ``target``, optionally conditioned on control qubits.

    Controls are normalized to a strictly ascending tuple at construction;
    duplicates and control==target are rejected here, once, so every consumer
    can rely on the ascending order.

    ``name`` is a display/serialization label (e.g. ``"h"``, ``"rm:3"``); it is
    empty for ad-hoc matrices, which then cannot be serialized to text.
    """

    matrix: GateMatrix
    target: int
    controls: tuple[int, ...] = ()
    name: str = ""

    def __post_init__(self):
        if self.target < 0:
            raise ValueError(f"target qubit {self.target} is negative")
        controls = tuple(int(c) for c in self.controls)
        if len(set(controls)) != len(controls):
            raise ValueError(f"duplicate control qubits in {controls}")
        if self.target in controls:
            raise ValueError(f"control qubit {self.target} collides with the target")
        if any(c < 0 for c in controls):
            raise ValueError(f"negative control qubit in {controls}")
        object.__setattr__(self, "controls", tuple(sorted(controls)))

    @property
    def num_controls(self) -> int:
        return len(self.controls)

    @property
    def qubits(self) -> tuple[int, ...]:
        """All qubits the gate touches or reads (target plus controls)."""
        return tuple(sorted((self.target, *self.controls)))


@dataclass
class Circuit:
    """An ordered gate sequence over an ``num_qubits``-qubit register."""

    num_qubits: int
    gates: list[GateOp] = field(default_factory=list)

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("a circuit needs at least one qubit")
        for gate in self.gates:
            self._check_range(gate)

    def _check_range(self, gate: GateOp):
        for q in (gate.target, *gate.controls):
            if q >= self.num_qubits:
                raise ValueError(
                    f"qubit {q} out of range for {self.num_qubits}-qubit circuit"
                )

    def append(self, gate: GateOp):
        self._check_range(gate)
        self.gates.append(gate)

    def __len__(self) -> int:
        return len(self.gates)


def _zeros(count: int, dtype) -> np.ndarray:
    """``count`` zeros of ``dtype`` starting on a ``PAGE_BYTES`` boundary: a
    view of a byte buffer one page longer, which the view keeps alive."""
    nbytes = count * np.dtype(dtype).itemsize
    buf = np.zeros(nbytes + PAGE_BYTES, np.uint8)
    skip = -buf.ctypes.data % PAGE_BYTES
    return buf[skip: skip + nbytes].view(dtype)


class StateVector:
    """Dense array of 2**num_qubits complex amplitudes, indexed by basis state:
    one C-contiguous complex64 or complex128 array.

    An array handed in as such is kept as it is, wherever it starts, so the
    state shares its memory. Any other, strided or not complex, is copied,
    as complex128 unless it is complex64, onto a fresh array that starts on
    a page (``PAGE_BYTES``), as ``copy`` and ``new_state`` place theirs. A
    state on a 64-byte line has its runs of pairs span the fewest lines."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: np.ndarray):
        amplitudes = np.asarray(amplitudes)
        if amplitudes.shape != (1 << num_qubits,):
            raise ValueError(
                f"expected {1 << num_qubits} amplitudes for {num_qubits} qubits, "
                f"got shape {amplitudes.shape}"
            )
        is_complex = amplitudes.dtype in (np.complex64, np.complex128)
        if not (is_complex and amplitudes.flags.c_contiguous):
            given = amplitudes
            amplitudes = _zeros(given.size, given.dtype if is_complex else np.complex128)
            np.copyto(amplitudes, given, casting="unsafe")
        self.num_qubits = num_qubits
        self.amplitudes = amplitudes

    @property
    def precision(self) -> str:
        return "single" if self.amplitudes.dtype == np.complex64 else "double"

    def copy(self) -> "StateVector":
        """A state of the same amplitudes on a fresh array on a page."""
        amplitudes = _zeros(self.amplitudes.size, self.amplitudes.dtype)
        amplitudes[...] = self.amplitudes
        return StateVector(self.num_qubits, amplitudes)

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits}, precision={self.precision!r})"


def new_state(num_qubits: int, precision: str = "double") -> StateVector:
    """Allocate the |0...0> state, on an array that starts on a page
    (``PAGE_BYTES``, so also on a 64-byte cache line), whatever the
    allocator would have placed it at.

    Raises CapacityError unless 1 <= num_qubits <= MAX_QUBITS (=30).
    """
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise CapacityError(
            f"num_qubits={num_qubits} outside supported range [1, {MAX_QUBITS}]"
        )
    try:
        dtype = PRECISION_DTYPES[precision]
    except KeyError:
        raise ValueError(f"unknown precision {precision!r}") from None
    amplitudes = _zeros(1 << num_qubits, dtype)
    amplitudes[0] = 1.0
    return StateVector(num_qubits, amplitudes)


def norm_sq(state: StateVector) -> float:
    """Sum of |amplitude|^2 over the whole register (1.0 for any valid state)."""
    a = state.amplitudes
    return float(np.real(np.vdot(a, a)))


def gate_h() -> GateMatrix:
    """Hadamard: (1/sqrt 2) [[1, 1], [1, -1]]."""
    s = _INV_SQRT2
    return GateMatrix(s, s, s, -s)


def gate_x() -> GateMatrix:
    """Bit flip [[0, 1], [1, 0]]."""
    return GateMatrix(0, 1, 1, 0)


def gate_y() -> GateMatrix:
    return GateMatrix(0, -1j, 1j, 0)


def gate_z() -> GateMatrix:
    return GateMatrix(1, 0, 0, -1)


def gate_rm(m: int) -> GateMatrix:
    """Phase rotation diag(1, exp(2*pi*i / 2**m)); gate_rm(1) == Z.

    This is the rotation family the QFT generator composes. m must be >= 1;
    the angle is scaled with ldexp so absurdly large m degrades to the
    identity instead of overflowing.
    """
    if m < 1:
        raise ValueError(f"rotation order m must be >= 1, got {m}")
    return GateMatrix(1, 0, 0, cmath.exp(1j * math.ldexp(2.0 * math.pi, -m)))
