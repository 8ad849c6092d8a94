"""The two gate-execution schedulers and their index arithmetic.

A gate on target ``t`` over ``n`` qubits touches the state vector in
``2**(n-1)`` amplitude pairs; pair ``i`` starts at ``ith_cleared(i, t)`` and
its partner sits ``2**t`` higher. Controls only ever veto whole pairs, and
each control halves the surviving set.

Two interchangeable strategies (``Strategy``) execute a gate:

* the baseline visits every one of the ``2**(n-1)`` iterations and tests
  the controls per iteration before touching memory;
* the optimized scheduler enumerates only the ``2**(n - n_c - 1)``
  iterations whose pairs satisfy all ``n_c`` controls, by mapping a reduced
  iteration index back to the global one with per-control skip intervals
  (``reduced_to_global``), and updates memory unconditionally.

Both write each surviving amplitude exactly once per gate with the same
pair update (``_update_pairs``), so their results are bit-identical. A gate
is resolved once (``_resolve``) into its scalars, window starts and plan
(``_plan``): the mapping of every reduced bit, run once per (register size,
target, controls, window size, swap) and kept in a cache of at most 1,024
plans of O(n) ints and 16 window starts each. The optimized kernel updates
a window through two strided views of the state, whose strides the plan
gives (``_pair_lattice``); a swap on a unit-stride state views each run of
contiguous pairs below the gate's qubits as one wide element, so numpy
copies runs instead of single amplitudes. The baseline gathers a window's
pairs by index arrays, a template cached per window size and target plus
the window's start. A gate on a warm geometry builds only its views.

A gate runs in windows sized by the number of workers that run at once
(``_window``): 4,096 iterations on one worker, four times that on several,
whose numpy calls then run longer between hand-overs of the interpreter
lock. Each window's temporaries are freed before the next, so a gate's
working memory is O(window) per worker whatever the register size. Windows
within one gate write disjoint pairs and may run on several workers.

One executor (``_apply_run``) runs a run of gates over the tiles of the
state: each gate's qubits are below ``b``, and a tile is ``2**b``
amplitudes. ``apply_gate`` runs one gate whole, a run of one gate at ``b``
equal to the register size, which is one tile. ``apply_circuit`` applies
gates in order, but groups each maximal run of two or more consecutive
gates that fit a tile: every qubit of the gate is below ``b``, the smaller
of the register size and the qubits of a ``_TILE_BYTES`` (1 MiB) tile, 16
in double and 17 in single precision, and the gate schedules at least an
eighth of a one-worker window per tile. Such a run is applied tile by
tile, every gate of the run to one contiguous slice of the state before the
next, so the state is swept once per run instead of once per gate. Each
gate of a run is resolved once for every tile, at the tile's
geometry, and reaches tile ``c`` at a fixed offset into the state. Each
gate's pairs lie within one tile, so every amplitude gets the same pair
updates in the same order and the result is bit-identical to gate-by-gate
application. Other gates run whole. Work that uses several workers is split
into one contiguous range per worker (``_split``) of whole units, the
windows of a one-gate run or the tiles of a longer run, on one pool of at
most one thread per usable CPU per process, made on first use (``_pool``).
"""

from __future__ import annotations

import functools
import os
import struct
from concurrent.futures import ThreadPoolExecutor, wait
from enum import Enum
from typing import Callable, NamedTuple

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

# Work on several workers at once runs in windows 2**_WIDE_SHIFT times wider,
# so the workers hand over the interpreter lock less often. Passes of
# stream:22 on two threads, same host: 40-42, 28-30, 23-26 and 25-26 ms at
# shifts 0-3 (medians of 21).
_WIDE_SHIFT = 2

# Bytes per tile of a tiled run of gates (see apply_circuit). On stream:22,
# one thread, on a host with 2 MiB of L2 per core, tiles of 1 MiB beat
# tiles of 256 KiB, 512 KiB, 2 MiB and 4 MiB.
_TILE_BYTES = 1 << 20

# A gate joins a tiled run when it schedules at least _BLOCK >> _JOIN_SHIFT
# iterations per tile (see _tile_groups). Passes of stream:22 on one thread,
# same host: 42.0, 36.3, 35.6, 35.5, 36.0 and 36.2 ms at shifts 0-5.
_JOIN_SHIFT = 3

# Window starts a plan keeps. A larger gate lists its starts on every call,
# at about 50 ns a window, a fraction of a percent of the window's update.
_KEPT_STARTS = 16


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
    """The two schedulers. Under either, ``apply_gate`` and
    ``apply_circuit`` return the iterations run, counted from the windows
    run, and the final states are bit-identical.

    ``BASELINE`` visits all ``2**(n-1)`` iterations and tests each pair
    against the gate's control mask, so each control is evaluated on every
    iteration, as in a statically scheduled kernel, and only the pairs that
    satisfy all controls are updated. A window's first pair indices are a
    cached template plus the window's start, from the plan of the
    uncontrolled gate.

    ``OPTIMIZED`` schedules only the ``2**(n - n_c - 1)`` control-satisfying
    iterations: each reduced index is mapped to its global iteration index
    by ``reduced_to_global``, and the pair update runs unconditionally, so
    every scheduled iteration does useful work. The mapping runs once per
    distinct geometry (``_plan``), and gives the window starts and the
    strides of two views of the state per window (``_pair_lattice``). A swap
    on a unit-stride state moves runs of contiguous pairs as single
    elements.
    """

    BASELINE = "baseline"
    OPTIMIZED = "optimized"


def iteration_count(strategy: Strategy, num_qubits: int, gate: GateOp) -> int:
    """Iterations a scheduler runs for ``gate``: 2**(n-1) baseline,
    2**(n-n_c-1) optimized.

    Raises ValueError if a qubit of the gate is outside the register.
    """
    top = max((gate.target, *gate.controls))
    if top >= num_qubits:
        raise ValueError(f"qubit {top} out of range for a {num_qubits}-qubit register")
    n_c = len(gate.controls) if strategy is Strategy.OPTIMIZED else 0
    return 1 << (num_qubits - 1 - n_c)


def _matrix_scalars(m: GateMatrix, dtype) -> tuple:
    """The entries of ``m`` as ``dtype`` scalars, so single-precision states
    compute in single precision. Cached by the entries' bytes: ``GateMatrix``
    equates -0.0 with 0.0, but a zero's sign can reach the result."""
    parts = (m.a.real, m.a.imag, m.b.real, m.b.imag, m.c.real, m.c.imag, m.d.real, m.d.imag)
    return _cast(struct.pack("8d", *parts), dtype)


@functools.lru_cache(maxsize=256)
def _cast(entries: bytes, dtype) -> tuple:
    return tuple(np.frombuffer(entries, np.complex128).astype(dtype))


def _is_swap(mat: tuple) -> bool:
    """True iff the matrix scalars are X, [[0, 1], [1, 0]]."""
    a, b, c, d = mat
    return a == 0 and b == 1 and c == 1 and d == 0


def _update_pairs(amps: np.ndarray, k1, k2, mat: tuple):
    """Apply [[a, b], [c, d]] to every pair (amps[k1], amps[k2]).

    A key is an index array, whose read is a gathered copy, or a basic
    index, whose read is a view of ``amps`` and is copied here. Either way
    the arithmetic runs on contiguous copies, so both kernels perform the
    same element operations. X is a pure swap: it equals ``0*x + 1*y`` bit
    for bit except for the sign of a zero component, which the product can
    flip. The swap, too, writes back from contiguous copies: numpy copies a
    strided view into a strided view several times slower than to or from a
    contiguous array.
    """
    x = amps[k1]
    if not x.flags.owndata:
        x = x.copy()
    y = amps[k2]
    if not y.flags.owndata:
        y = y.copy()
    if _is_swap(mat):
        amps[k1] = y
        amps[k2] = x
        return
    a, b, c, d = mat
    amps[k1] = a * x + b * y
    amps[k2] = c * x + d * y


class _Plan(NamedTuple):
    """A gate's geometry, in O(n) ints and independent of any state.

    ``base`` and ``steps`` place every scheduled iteration: iteration ``i``
    updates the pair whose first index is ``base`` plus the steps of the
    set bits of ``i`` (see ``_plan``). The other fields are in elements of
    ``2**run`` amplitudes: ``shape`` and ``strides`` lay one window of pairs
    over the state (see ``_pair_lattice``) and span ``reach`` elements past
    its first, and ``starts`` begin its first windows.
    """

    window: int
    base: int
    steps: tuple[int, ...]
    run: int
    shape: tuple[int, ...]
    strides: tuple[int, ...]
    reach: int
    starts: tuple[int, ...]


@functools.lru_cache(maxsize=1024)
def _plan(num_qubits: int, target: int, controls: tuple[int, ...], window: int,
          swap: bool) -> _Plan:
    """The plan of a gate scheduling ``2**(num_qubits - 1 - len(controls))``
    iterations in windows of ``window``, from one vectorised call of the
    mapping ``ith_cleared(reduced_to_global(i))`` per distinct geometry.

    The mapping is a bit deposit: it spreads the bits of ``i`` over fixed
    positions and ORs in fixed bits, ``base``. So ``steps[b]``, the mapping
    of ``2**b`` less ``base``, gives every index: a window start's bits and
    an in-window offset's bits are disjoint, and each window is one lattice.

    ``swap`` asks for wide elements, for a swap on a unit-stride state. The
    ``run`` lowest iteration bits then step 1, 2, 4, ... amplitudes, as
    qubits ``0..run-1`` are neither target nor control (and ``run`` is at
    most the window's bits), so each run of ``2**run`` pairs is one lattice
    element. Without ``swap``, ``run`` is 0. Lattice axes merge runs of
    doubling steps. The plan keeps the first ``_KEPT_STARTS`` window starts.
    """
    bits = window.bit_length() - 1
    reduced = num_qubits - 1 - len(controls)
    at = np.concatenate(([0], 1 << np.arange(reduced, dtype=np.int64)))
    base, *ends = ith_cleared(reduced_to_global(at, target, controls), target).tolist()
    steps = tuple(end - base for end in ends)
    run = min(target, *controls, bits) if swap else 0
    shape, strides = [], []
    for step in steps[run:bits]:
        step >>= run
        if strides and step == strides[-1] * shape[-1]:
            shape[-1] *= 2
        else:
            shape.append(2)
            strides.append(step)
    if not strides:  # a one-element window
        shape, strides = [1], [1]
    stride = 1 << (target - run)
    reach = stride + sum((size - 1) * step for size, step in zip(shape, strides))
    starts = [base >> run]
    for step in steps[bits : bits + _KEPT_STARTS.bit_length() - 1]:
        starts += [s + (step >> run) for s in starts]
    return _Plan(window, base, steps, run, (2, *shape[::-1]), (stride, *strides[::-1]), reach,
                 tuple(starts))


def _window_starts(plan: _Plan):
    """The first pair index of every window, in elements of ``2**run``
    amplitudes: ``base`` plus the steps of a window index's bits. A gate of
    at most ``_KEPT_STARTS`` windows gets the plan's own tuple."""
    starts = plan.starts
    for step in plan.steps[plan.window.bit_length() + len(starts).bit_length() - 2 :]:
        step >>= plan.run
        starts = [*starts, *[s + step for s in starts]]
    return starts


def _pair_lattice(amps: np.ndarray, plan: _Plan) -> np.ndarray:
    """A strided view ``lat`` of ``amps`` with ``lat[s, 0]`` the first and
    ``lat[s, 1]`` the second elements of the pairs of the window whose first
    pair index is ``s``, in iteration order.

    Axis 0 steps one element and spans all of ``amps``, even if larger than
    the plan's register, so ``lat[s]`` is the window at any start. A plan
    with ``run`` > 0 needs a unit-stride state; its elements are opaque runs
    of ``2**run`` amplitudes, copied whole. A view on a contiguous state's
    buffer costs about a tenth of ``as_strided``, which only a strided state
    needs.
    """
    es = amps.strides[0] << plan.run
    shape = ((amps.shape[0] >> plan.run) - plan.reach, *plan.shape)
    strides = (es, *[es * step for step in plan.strides])
    if not amps.flags.c_contiguous:
        return as_strided(amps, shape, strides)
    dtype = np.dtype((np.void, es)) if plan.run else amps.dtype
    return np.ndarray(shape, dtype, amps, 0, strides)


def usable_cpus() -> int:
    """CPUs this process may run on: the size of its affinity mask where
    the platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(count: int, threads: int) -> int:
    """Threads work of ``count`` iterations runs on: at most ``threads``
    and the usable CPUs, and one per ``_MIN_CHUNK`` iterations."""
    if threads <= 1 or count < 2 * _MIN_CHUNK:
        return 1
    return min(threads, usable_cpus(), count // _MIN_CHUNK)


def _window(workers: int) -> int:
    """Iterations per window of work that runs on ``workers`` workers at once."""
    return _BLOCK if workers == 1 else _BLOCK << _WIDE_SHIFT


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The process's pool for threaded work, made on first use."""
    return ThreadPoolExecutor(max_workers=usable_cpus())


# A forked child inherits the cached pool but not its threads.
os.register_at_fork(after_in_child=_pool.cache_clear)


def _split(units: int, workers: int, walk: Callable[[int, int], int]) -> int:
    """Run ``walk(lo, hi)`` over the units ``[0, units)`` and return the sum
    of what it returns.

    One worker walks every unit on the calling thread. Several get one
    contiguous range of whole units each, run on ``_pool()``; the call
    returns once every range has run.
    """
    if workers == 1:
        return walk(0, units)
    bounds = [units * k // workers for k in range(workers + 1)]
    futures = [_pool().submit(walk, bounds[k], bounds[k + 1]) for k in range(workers)]
    wait(futures)
    return sum(f.result() for f in futures)


@functools.lru_cache(maxsize=64)
def _template(window: int, target: int) -> np.ndarray:
    """The baseline's first pair indices of the window at 0, read-only. Callers
    pass ``min(target, bits)``: every higher target gives ``arange(window)``.
    With windows of at most 16,384 iterations the cache's 64 take 3.4 MiB at most."""
    tpl = ith_cleared(np.arange(window, dtype=np.int64), target)
    tpl.flags.writeable = False
    return tpl


def _resolve(amps: np.ndarray, bits: int, gate: GateOp, strategy: Strategy, window: int):
    """Resolve ``gate``, whose qubits are below ``bits``, once for every
    ``2**bits``-amplitude tile of ``amps``, in windows of ``window``
    iterations. Returns ``step(w, tile)``, which runs window ``w`` on tile
    ``tile``: the baseline adds the tile's offset to its indices, the
    optimized kernel to a window start on a lattice over all of ``amps``."""
    mat = _matrix_scalars(gate.matrix, amps.dtype)
    if strategy is Strategy.BASELINE:
        t = gate.target
        stride = 1 << t
        cmask = sum(1 << c for c in gate.controls)
        plan = _plan(bits, t, (), window, False)
        tpl = _template(window, min(t, window.bit_length() - 1))
        starts = _window_starts(plan)

        def step(w: int, tile: int):
            p1 = tpl + (starts[w] + (tile << bits))
            p1 = p1[(p1 & cmask) == cmask]
            if p1.size:
                _update_pairs(amps, p1, p1 + stride, mat)

        return step

    swap = _is_swap(mat) and amps.flags.c_contiguous
    plan = _plan(bits, gate.target, gate.controls, window, swap)
    starts = _window_starts(plan)
    lattice = _pair_lattice(amps, plan)
    shift = bits - plan.run

    def step(w: int, tile: int):
        s = starts[w] + (tile << shift)
        _update_pairs(lattice, (s, 0), (s, 1), mat)

    return step


def apply_gate(
    state: StateVector,
    gate: GateOp,
    strategy: Strategy = Strategy.OPTIMIZED,
    *,
    threads: int = 1,
) -> int:
    """Execute one gate with the chosen strategy; returns iterations executed."""
    return _apply_run(state, [gate], strategy, threads, state.num_qubits)


def _tile_groups(gates: list[GateOp], strategy: Strategy, bits: int) -> list[list[GateOp]]:
    """Split ``gates``, in order, into groups: each maximal run of two or
    more gates that fit a tile of ``bits`` qubits, and every other gate on
    its own.

    A gate fits when all its qubits are below ``bits`` and it schedules at
    least ``_BLOCK >> _JOIN_SHIFT`` iterations per tile, read on every call
    and the same for any number of workers.
    """
    groups: list[list[GateOp]] = []
    fits = False
    for gate in gates:
        joins = fits
        top = max((gate.target, *gate.controls))
        fits = top < bits and iteration_count(strategy, bits, gate) >= _BLOCK >> _JOIN_SHIFT
        if joins and fits:
            groups[-1].append(gate)
        else:
            groups.append([gate])
    return groups


def _apply_run(
    state: StateVector, gates: list[GateOp], strategy: Strategy, threads: int, bits: int
) -> int:
    """Apply ``gates`` to each ``2**bits``-amplitude tile of the state in
    turn, every gate to one tile before the next tile; returns the
    iterations executed. A gate run whole is a run of one gate at ``bits``
    equal to the register size: one tile.

    Every qubit of the gates is below ``bits``. Each gate is resolved once
    for all tiles (``_resolve``), in windows sized by the workers the run's
    iterations call for. Those workers split the run's units (``_split``).
    A one-gate run's units are its windows, which write disjoint pairs. A
    longer run's units are its tiles, so each tile's gates run in order on
    one thread, as a worker that waited on work it submitted to its own
    pool could wait forever.
    """
    amps = state.amplitudes
    tiles = amps.shape[0] >> bits
    counts = [iteration_count(strategy, bits, gate) for gate in gates]
    total = sum(counts)
    workers = _worker_count(total * tiles, threads)
    if len(gates) > 1:
        workers = min(workers, tiles)
    widest = _window(workers)
    runs = []
    for gate, count in zip(gates, counts):
        window = min(count, widest)
        runs.append((count // window, _resolve(amps, bits, gate, strategy, window)))
    if len(gates) == 1:
        (windows, step), = runs
        units = tiles * windows

        def walk(lo: int, hi: int) -> int:
            for unit in range(lo, hi):
                step(unit % windows, unit // windows)
            return (hi - lo) * (total // windows)

    else:
        units = tiles

        def walk(lo: int, hi: int) -> int:
            for tile in range(lo, hi):
                for windows, step in runs:
                    for w in range(windows):
                        step(w, tile)
            return (hi - lo) * total

    return _split(units, workers, walk)


def apply_circuit(
    state: StateVector,
    circuit: Circuit,
    strategy: Strategy = Strategy.OPTIMIZED,
    *,
    threads: int = 1,
) -> int:
    """Execute a circuit's gates in order; runs of gates that fit a tile are
    applied tile by tile (see the module docstring).

    Returns the total number of iterations executed across all gates.
    """
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit is over {circuit.num_qubits} qubits, state over {state.num_qubits}"
        )
    tile = (_TILE_BYTES // state.amplitudes.itemsize).bit_length() - 1
    bits = min(state.num_qubits, tile)
    executed = 0
    for group in _tile_groups(circuit.gates, strategy, bits):
        if len(group) > 1:
            executed += _apply_run(state, group, strategy, threads, bits)
        else:
            # Looked up as a module global on every gate, so a wrapper
            # installed on sched.apply_gate sees each gate run whole; the
            # gates of tiled runs do not pass through it.
            executed += apply_gate(state, group[0], strategy, threads=threads)
    return executed
