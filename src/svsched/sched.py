"""The two gate-execution schedulers and their index arithmetic.

A gate on target ``t`` over ``n`` qubits touches the state vector in
``2**(n-1)`` amplitude pairs; pair ``i`` starts at ``ith_cleared(i, t)`` and
its partner sits ``2**t`` higher. Controls only ever veto whole pairs, and
each control halves the surviving set.

Two interchangeable strategies execute a gate:

* ``baseline_apply`` visits every one of the ``2**(n-1)`` iterations and
  tests the controls per iteration before touching memory.
* ``optimized_apply`` enumerates only the ``2**(n - n_c - 1)`` iterations
  whose pairs satisfy all ``n_c`` controls, by mapping a reduced iteration
  index back to the global one with per-control skip intervals
  (``reduced_to_global``), and updates memory unconditionally.

Both write each surviving amplitude exactly once per gate with the same
pair update (``_update_pairs``), so their results are bit-identical. Both run
a gate's iteration range through one block loop (``_run_blocks``) over
windows of at most ``_BLOCK`` iterations, and map the start of every window
once per gate (``_windows``). The optimized kernel updates a window through
two strided views of the state, whose strides the mapping gives once per
gate (``_pair_lattice``); the baseline gathers a window's pairs by index
arrays, a per-gate template plus the window's start. Each window's
temporaries are freed before the next, so a gate's working memory is
O(block) per thread whatever the register size. Windows within one gate
write disjoint pairs and may run on several threads; gates are sequential.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import contextmanager
from enum import Enum
from typing import Callable, Iterator

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import Circuit, GateMatrix, GateOp, StateVector

# Below this many iterations a gate is not worth splitting across threads.
_MIN_CHUNK = 1 << 15

# Iterations per block. The largest per-block temporary is then 64 KiB of
# complex128, under glibc's default 128 KiB mmap threshold, so blocks reuse
# heap memory instead of faulting in fresh pages. 2**13 raised page faults
# about threefold on small gates.
_BLOCK = 1 << 12


def ith_cleared(i, t: int):
    """Insert a 0 bit at position ``t`` of ``i``: ((i >> t) << (t+1)) | (i mod 2**t).

    Maps iteration index i to the first element of its amplitude pair (the
    basis index with bit t clear). Accepts an int or an integer ndarray.
    """
    return ((i >> t) << (t + 1)) | (i & ((1 << t) - 1))


def pair_indices(i, t: int):
    """Both basis indices of iteration i's pair: (p1, p1 + 2**t)."""
    p1 = ith_cleared(i, t)
    return p1, p1 + (1 << t)


def control_satisfied(p1, c: int):
    """True iff bit ``c`` of the pair's first basis index is 1.

    Because the two pair elements differ only in the target bit, testing p1
    decides the whole pair for any control c != t.
    """
    return (p1 >> c) & 1 == 1


def adjusted_control(c: int, t: int) -> int:
    """Re-index control ``c`` relative to target ``t``: c-1 if c > t, else c."""
    if c == t:
        raise ValueError("control equal to target has no adjusted index")
    return c - 1 if c > t else c


def reduced_to_global(i_r, target: int, controls: tuple[int, ...]):
    """Map a reduced iteration index to its global iteration index.

    For each control, taken in ascending qubit order, the index advances past
    the pairs that control rules out:

        i += ((i >> c_adj) + 1) << c_adj

    which is ``i += (i // 2**c_adj + 1) * 2**c_adj`` for non-negative i.
    Ascending control order is the validity condition of this formula and is
    enforced here. Accepts an int or an integer ndarray (left unmodified) and
    is strictly increasing in i_r, so distinct reduced indices map to distinct
    global ones.
    """
    if any(a >= b for a, b in zip(controls, controls[1:])):
        raise ValueError(f"controls must be strictly ascending, got {controls}")
    i = i_r
    for c in controls:
        c_adj = adjusted_control(c, target)
        i = i + (((i >> c_adj) + 1) << c_adj)
    return i


def active_set_oracle(n: int, target: int, controls: tuple[int, ...]) -> set[int]:
    """Ground truth by brute force: every global iteration whose pair satisfies
    all controls. Enumerates all 2**(n-1) iterations; small n only."""
    active = set()
    for i in range(1 << (n - 1)):
        p1 = ith_cleared(i, target)
        if all(control_satisfied(p1, c) for c in controls):
            active.add(i)
    return active


class Strategy(str, Enum):
    BASELINE = "baseline"
    OPTIMIZED = "optimized"


def iteration_count(strategy: Strategy, num_qubits: int, gate: GateOp) -> int:
    """Iterations a scheduler runs for ``gate``: 2**(n-1) baseline,
    2**(n-n_c-1) optimized.

    Raises ValueError if a qubit of the gate is outside the register.
    """
    top = max(gate.qubits)
    if top >= num_qubits:
        raise ValueError(f"qubit {top} out of range for a {num_qubits}-qubit register")
    n_c = gate.num_controls if strategy is Strategy.OPTIMIZED else 0
    return 1 << (num_qubits - 1 - n_c)


def _matrix_scalars(matrix: GateMatrix, dtype) -> tuple:
    # Cast once so single-precision states compute in single precision.
    s = dtype.type
    return s(matrix.a), s(matrix.b), s(matrix.c), s(matrix.d)


def _update_pairs(amps: np.ndarray, k1, k2, mat: tuple):
    """Apply [[a, b], [c, d]] to every pair (amps[k1], amps[k2]).

    A key is an index array, whose read is a gathered copy, or a basic
    index, whose read is a view of ``amps`` and is copied here. Either way
    the arithmetic runs on contiguous copies, so both kernels perform the
    same element operations. X is a pure swap: it equals ``0*x + 1*y`` bit
    for bit except for the sign of a zero component, which the product can
    flip.
    """
    a, b, c, d = mat
    x = amps[k1]
    if not x.flags.owndata:
        x = x.copy()
    if a == 0 and b == 1 and c == 1 and d == 0:
        amps[k1] = amps[k2]
        amps[k2] = x
        return
    y = amps[k2]
    if not y.flags.owndata:
        y = y.copy()
    amps[k1] = a * x + b * y
    amps[k2] = c * x + d * y


def _windows(count: int, p1_of: Callable) -> tuple[list[int], list[int]]:
    """Geometry of the ``_BLOCK``-iteration windows of ``[0, count)``, from
    one vectorised call of ``p1_of`` per gate: the first pair index of each
    window, and the step ``p1_of(2**b) - p1_of(0)`` of each bit ``b`` of an
    iteration's offset within its window.

    ``p1_of`` must be a bit deposit: it spreads the bits of ``i`` over fixed
    positions and ORs in fixed bits ``p1_of(0)``. For a window start ``L``
    and ``0 <= j < _BLOCK`` the bits of ``L`` and ``j`` are disjoint, so
    ``p1_of(L + j)`` is ``p1_of(L)`` plus the steps of the bits of ``j``.
    """
    window = min(count, _BLOCK)
    windows = count // window
    bits = window.bit_length() - 1
    at = p1_of(np.concatenate((np.arange(0, count, window), 1 << np.arange(bits))))
    return at[:windows].tolist(), (at[windows:] - at[0]).tolist()


def _pair_lattice(amps: np.ndarray, stride: int, steps: list[int]) -> np.ndarray:
    """A strided view ``lat`` of ``amps`` with ``lat[s, 0]`` the first and
    ``lat[s, 1]`` the second elements of the pairs of the window whose first
    pair index is ``s``, in iteration order.

    ``steps`` are the element steps of a window's iteration bits (see
    ``_windows``); runs of doubling steps form one axis. Axis 0 steps one
    amplitude, so ``lat[s]`` is the window at any start ``s``.
    """
    shape, strides = [], []
    for step in steps:
        if strides and step == strides[-1] * shape[-1]:
            shape[-1] *= 2
        else:
            shape.append(2)
            strides.append(step)
    if not strides:  # a one-iteration window
        shape, strides = [1], [1]
    reach = stride + sum((size - 1) * step for size, step in zip(shape, strides))
    es = amps.strides[0]
    return as_strided(
        amps,
        shape=(amps.shape[0] - reach, 2, *shape[::-1]),
        strides=(es, es * stride, *(es * step for step in strides[::-1])),
    )


def _worker_count(count: int, threads: int) -> int:
    """Threads one gate of ``count`` iterations runs on: at most ``threads``
    and the CPU count, and one per ``_MIN_CHUNK`` iterations."""
    if threads <= 1 or count < 2 * _MIN_CHUNK:
        return 1
    return min(threads, os.cpu_count() or 1, count // _MIN_CHUNK)


@contextmanager
def thread_pool(threads: int) -> Iterator[Executor | None]:
    """A pool for a run of gates, or None when only one thread would run."""
    workers = min(threads, os.cpu_count() or 1)
    if workers <= 1:
        yield None
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool


def _run_blocks(
    count: int,
    threads: int,
    pool: Executor | None,
    body: Callable[[int], None],
) -> int:
    """Run body(w) on every ``_BLOCK``-iteration window ``w`` of
    ``[0, count)``; returns the total size of the windows run.

    ``count`` is a power of two, so the windows tile ``[0, count)``. They are
    split into one contiguous range of whole windows per worker. Windows
    write disjoint pairs, so any split yields a bit-identical state. Without
    a ``pool``, a gate that uses several workers makes a pool for this call.
    """
    window = min(count, _BLOCK)

    def walk(lo: int, hi: int) -> int:
        for w in range(lo, hi):
            body(w)
        return (hi - lo) * window

    windows = count // window
    workers = _worker_count(count, threads)
    if workers == 1:
        return walk(0, windows)
    if pool is None:
        with thread_pool(workers) as own:
            return _run_blocks(count, workers, own, body)
    bounds = [windows * k // workers for k in range(workers + 1)]
    futures = [pool.submit(walk, bounds[k], bounds[k + 1]) for k in range(workers)]
    return sum(f.result() for f in futures)


def baseline_apply(
    state: StateVector, gate: GateOp, *, threads: int = 1, pool: Executor | None = None
) -> int:
    """Execute a gate by visiting all 2**(n-1) iterations and checking controls.

    Every iteration's pair is tested against the gate's control mask, so
    each control is evaluated on every iteration, as in a statically
    scheduled kernel, and only the pairs that satisfy all controls are
    updated. A window's first pair indices are a per-gate template plus the
    window's start.

    Returns the number of iterations visited (2**(n-1)), counted from the
    windows run.
    """
    count = iteration_count(Strategy.BASELINE, state.num_qubits, gate)
    t = gate.target
    stride = 1 << t
    cmask = sum(1 << c for c in gate.controls)
    mat = _matrix_scalars(gate.matrix, state.amplitudes.dtype)
    amps = state.amplitudes
    # ith_cleared is a bit deposit with ith_cleared(0) == 0, so a window
    # starting at L holds ith_cleared(L) + ith_cleared(arange(_BLOCK)).
    tpl = ith_cleared(np.arange(min(count, _BLOCK), dtype=np.int64), t)
    starts, _ = _windows(count, lambda i: ith_cleared(i, t))

    def body(w: int):
        p1 = tpl + starts[w]
        p1 = p1[(p1 & cmask) == cmask]
        if p1.size:
            _update_pairs(amps, p1, p1 + stride, mat)

    return _run_blocks(count, threads, pool, body)


def optimized_apply(
    state: StateVector, gate: GateOp, *, threads: int = 1, pool: Executor | None = None
) -> int:
    """Execute a gate scheduling only the control-satisfying iterations.

    Each of the 2**(n - n_c - 1) reduced indices is mapped to its global
    iteration index by ``reduced_to_global``, and the pair update runs
    unconditionally: every scheduled iteration does useful work. The mapping
    runs once per gate, on the start of every window and on one window's
    bits, which give the strides of two views of the state per window (see
    ``_pair_lattice``); the final state is bit-identical to
    ``baseline_apply``.

    Returns the number of iterations executed, counted from the windows run.
    """
    count = iteration_count(Strategy.OPTIMIZED, state.num_qubits, gate)
    t = gate.target
    controls = gate.controls
    mat = _matrix_scalars(gate.matrix, state.amplitudes.dtype)

    def p1_of(i):
        return ith_cleared(reduced_to_global(i, t, controls), t)

    starts, steps = _windows(count, p1_of)
    lattice = _pair_lattice(state.amplitudes, 1 << t, steps)

    def body(w: int):
        s = starts[w]
        _update_pairs(lattice, (s, 0), (s, 1), mat)

    return _run_blocks(count, threads, pool, body)


def apply_gate(
    state: StateVector,
    gate: GateOp,
    strategy: Strategy = Strategy.OPTIMIZED,
    *,
    threads: int = 1,
    pool: Executor | None = None,
) -> int:
    """Execute one gate with the chosen strategy; returns iterations executed.

    ``pool`` is a ``thread_pool`` shared by a run of gates; without one, a
    gate that uses several threads makes its own.
    """
    if strategy is Strategy.BASELINE:
        return baseline_apply(state, gate, threads=threads, pool=pool)
    return optimized_apply(state, gate, threads=threads, pool=pool)


def apply_circuit(
    state: StateVector,
    circuit: Circuit,
    strategy: Strategy = Strategy.OPTIMIZED,
    *,
    threads: int = 1,
) -> int:
    """Execute a circuit gate by gate (gates are strictly sequential).

    With ``threads > 1`` one thread pool serves every gate of the run.
    Returns the total number of iterations executed across all gates.
    """
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit is over {circuit.num_qubits} qubits, state over {state.num_qubits}"
        )
    executed = 0
    with thread_pool(threads) as pool:
        for gate in circuit.gates:
            # Looked up as a module global on every gate, so a wrapper
            # installed on sched.apply_gate sees each call.
            executed += apply_gate(state, gate, strategy, threads=threads, pool=pool)
    return executed
