import numpy as np
import pytest

from svsched import StateVector
from svsched.core import PAGE_BYTES


def basis_state(num_qubits: int, index: int) -> StateVector:
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(num_qubits, amps)


def placed(amps: np.ndarray, offset: int) -> np.ndarray:
    """A copy of ``amps`` on a fresh array that starts ``offset`` bytes past a page."""
    raw = np.zeros(amps.nbytes + 2 * PAGE_BYTES, np.uint8)
    skip = -raw.ctypes.data % PAGE_BYTES + offset
    out = raw[skip: skip + amps.nbytes].view(amps.dtype)
    out[...] = amps
    return out


def dominant_basis_index(state: StateVector) -> int:
    idx = int(np.argmax(np.abs(state.amplitudes)))
    assert abs(abs(state.amplitudes[idx]) - 1.0) < 1e-9, "state is not a basis state"
    return idx


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
