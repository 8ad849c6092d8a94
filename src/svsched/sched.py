"""The two gate-execution schedulers and their index arithmetic.

A gate on target ``t`` over ``n`` qubits touches the state vector in
``2**(n-1)`` amplitude pairs; pair ``i`` starts at ``ith_cleared(i, t)`` and
its partner sits ``2**t`` higher. Controls only ever veto whole pairs, and
each control halves the surviving set.

Two interchangeable strategies (``Strategy``) execute a gate:

* the baseline visits every one of the ``2**(n-1)`` iterations and tests
  the controls per iteration before touching memory (an uncontrolled gate
  has no test to run);
* the optimized scheduler enumerates only the ``2**(n - n_c - 1)``
  iterations whose pairs satisfy all ``n_c`` controls, by mapping a reduced
  iteration index back to the global one with per-control skip intervals
  (``reduced_to_global``), and updates memory unconditionally.

Both write each surviving amplitude exactly once per gate with one pair
update (``_update_pairs``), so their results are bit-identical: one key
selects a window's first elements in an array over the state's low
``2**n - 2**t`` amplitudes, and their partners in the same array ``2**t``
higher. A gate is resolved once (``_resolve``), and both kernels take
window ``w``'s start from one plan (``_plan``), cached per geometry, window
size, swap and dtype: ``start(w)``, the sum of two half tables of Python
ints, each of at most ``2**ceil(h / 2)`` entries for ``2**h`` windows (256
and 256 for an uncontrolled gate on 30 qubits on one worker). The optimized
kernel's plan is its gate's, and lays out those arrays as strided views; a
swap's view makes each run of contiguous pairs below the gate's qubits one
wide element, so numpy copies runs. The baseline runs the plan of its gate
without the controls, whose window ``w`` starts at ``ith_cleared(w *
window, t)``, as the paper's baseline walks every iteration: its key is an
index array, rows of at most 4,096 iterations, each a template cached per
row width and target plus the window's start and the row's offset in the
window, tested against the control mask. Its survivors are selected by the
cheaper primitive for the gate's controls, fixed when it is resolved:
``take`` of the mask's nonzero indices where a control's adjusted bit is
0, so that the mask flips on every iteration, else a boolean index; an
uncontrolled gate keeps every iteration untested. A warm gate builds only
its scalars, and its two views or its 1-4 row offsets.

A gate runs in windows sized by the number of workers that run at once,
by one rule for both kernels (``_window``). Both copy a window's pairs, and
compute its products, on a kept scratch buffer per thread (``_Scratch``), so
window temporaries are O(window) per worker whatever the register size. A
call holds no table over the whole register: its window starts are its
plan's, and the plan cache holds at most 1,024 plans of at most about 24
KiB each at 30 qubits (21 KiB held, traced). One gate's windows write
disjoint pairs.

One executor (``_apply_run``) runs a run of gates over the tiles of the
state: each gate's qubits are below ``b``, and a tile is ``2**b``
amplitudes. ``apply_gate`` runs one gate whole, a run of one gate at ``b``
equal to the register size, which is one tile. ``apply_circuit`` applies
gates in order, but groups each maximal run of two or more consecutive
gates that fit a tile: every qubit of the gate is below ``b``, the smaller
of the register size and the qubits of a ``_TILE_BYTES`` (1 MiB) tile, 16
in double and 17 in single precision, and the gate schedules at least 512
iterations per tile (``_tile_groups``). Such a run is applied tile by tile,
so the state is swept once per run instead of once per gate. Each gate's
pairs lie within one tile, so every amplitude gets the same pair updates in
the same order and the result is bit-identical to gate-by-gate application.
Other gates run whole.

Both schedulers run a gate, or a tiled run, on the same workers: their
number follows the pairs the gates update, ``2**(n - n_c - 1)`` a gate
under either scheduler, as threads share the bytes a pair update moves and
not the baseline's index work (``_worker_count``). Worker ``j`` of ``W``
takes the units ``j``, ``j + W``, ``j + 2W``, ..., so a high control that
masks out a run of the baseline's windows masks out some of every worker's
(``_split``). Work on several workers runs on one pool per process
(``_pool``).
"""

from __future__ import annotations

import functools
import os
import threading
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .core import Circuit, GateMatrix, GateOp, StateVector, _zeros

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

# Below this many pair updates work is not worth splitting across threads.
_MIN_CHUNK = 1 << 15

# Iterations per block: a baseline row (see _template), and half a window
# on one worker (see _window). A window's complex128 copy is then 128 KiB,
# glibc's initial mmap threshold: fresh copies each window had a cold baseline
# run qft:18 fault 219,431 times (0.47 s), against 1,704 (0.17 s) on _Scratch.
_BLOCK = 1 << 12

# Work on several workers at once runs in windows 2**_WIDE_SHIFT times wider,
# so the workers hand over the interpreter lock less often. Passes of
# stream:22 on two threads, same host: 40-42, 28-30, 23-26 and 25-26 ms at
# shifts 0-3 (medians of 21).
_WIDE_SHIFT = 2

# Bytes of window temporaries per worker (see window_bytes and _window):
# _Scratch's window copies, four or a swap's two, at most 512 KiB on one
# worker and 1 MiB on each of several, and the baseline's index arrays. A
# double-precision h on 18 qubits, run by both kernels in turn from a fresh
# scratch, peaks at 685 KiB on one worker and 2,503-2,647 KiB for two
# (tracemalloc). No table of starts comes on top: a gate's window starts
# come from its cached plan (see the module docstring).
_WORKER_BYTES = 1 << 20  # one worker
_WIDE_WORKER_BYTES = 2 << 20  # each of several workers

# Bytes per tile of a tiled run of gates (see apply_circuit). On stream:22,
# one thread, on a host with 2 MiB of L2 per core, tiles of 1 MiB beat
# tiles of 256 KiB, 512 KiB, 2 MiB and 4 MiB.
_TILE_BYTES = 1 << 20

# A gate joins a tiled run when it schedules at least _BLOCK >> _JOIN_SHIFT
# iterations per tile (see _tile_groups). Passes of stream:22 on one thread,
# same host: 42.0, 36.3, 35.6, 35.5, 36.0 and 36.2 ms at shifts 0-5.
_JOIN_SHIFT = 3


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
    """The two schedulers. Under either, ``apply_gate`` and ``apply_circuit``
    return the iterations run, summed over the windows that ran, and the
    final states are bit-identical. They and ``iteration_count`` take a
    member or its value; any other value raises ValueError.

    ``BASELINE`` tests every one of the ``2**(n-1)`` iterations against the
    gate's control mask, as a statically scheduled kernel does, and selects
    each window's survivors by ``take`` where a control's adjusted bit is 0,
    else by a boolean index (see the module docstring); an uncontrolled gate
    has no test to run, so every iteration survives. ``OPTIMIZED``
    schedules only the ``2**(n - n_c - 1)`` iterations that satisfy the
    controls (``reduced_to_global``), so every one does useful work.
    """

    BASELINE = "baseline"
    OPTIMIZED = "optimized"


def iteration_count(strategy: Strategy, num_qubits: int, gate: GateOp) -> int:
    """Iterations a scheduler runs for ``gate``: 2**(n-1) baseline,
    2**(n-n_c-1) optimized; ValueError if a qubit is outside the register."""
    top = max((gate.target, *gate.controls))
    if top >= num_qubits:
        raise ValueError(f"qubit {top} out of range for a {num_qubits}-qubit register")
    n_c = len(gate.controls) if _member(strategy) is Strategy.OPTIMIZED else 0
    return 1 << (num_qubits - 1 - n_c)


def _member(strategy) -> Strategy:
    """``strategy`` if a member, else the member of that value or ValueError."""
    return strategy if type(strategy) is Strategy else Strategy(strategy)


def _matrix_scalars(m: GateMatrix, dtype) -> tuple | None:
    """The entries of ``m`` as ``dtype`` scalars, so single-precision states
    compute in single precision, or None where they equal X's (0, 1, 1, 0),
    which ``_update_pairs`` runs as a swap."""
    mat = tuple(np.array((m.a, m.b, m.c, m.d), dtype))
    return None if mat == (0, 1, 1, 0) else mat


def _update_pairs(xs: np.ndarray, ys: np.ndarray, key, mat: tuple | None):
    """Apply [[a, b], [c, d]] to every pair (xs[key], ys[key]) (see the module
    docstring), or swap each where ``mat`` is None, an X (``_matrix_scalars``).

    Both halves and both products, or a swap's two halves, go on the thread's
    scratch (``_Scratch``), so both kernels run the same element operations
    on contiguous arrays: a basic key's view, such as a window start's, is
    copied onto it, and an index array, the baseline's key, gathers onto it
    by ``take`` ("wrap" checks no bounds; the write-back with the same key
    raises IndexError before it writes). X is a pure swap: it equals ``0*x + 1*y`` bit for bit
    but for the sign of a zero component, which the product can flip; it,
    too, writes back from the copies, as numpy copies strided to strided
    several times slower."""
    copies = 2 if mat is None else 4
    if isinstance(key, (int, slice)):
        vx, vy = xs[key], ys[key]
        x, y, *pq = _scratch(vx.shape, vx.dtype, copies)
        x[...], y[...] = vx, vy
    else:
        x, y, *pq = _scratch(np.shape(key), xs.dtype, copies)
        xs.take(key, 0, x, "wrap")
        ys.take(key, 0, y, "wrap")
    if mat is None:
        xs[key] = y
        ys[key] = x
        return
    p, q = pq
    a, b, c, d = mat
    xs[key] = np.add(np.multiply(a, x, p), np.multiply(b, y, q), p)
    ys[key] = np.add(np.multiply(c, x, p), np.multiply(d, y, q), p)


class _Scratch(threading.local):
    """A thread's buffer, and its views by shape, dtype and count, for the
    copies and products of either kernel's windows: grown to the largest
    window asked for, in the copies it uses (two for a swap, else four), and
    kept, so that a window allocates no copies (``_BLOCK``). The buffer
    starts on a page (``core._zeros``), as every state does."""

    def __init__(self):
        self.buf, self.views = np.empty(0, np.uint8), {}

    def __call__(self, shape: tuple, dtype: np.dtype, copies: int) -> tuple[np.ndarray, ...]:
        """``copies`` C-contiguous arrays of ``shape`` and ``dtype`` on the buffer."""
        views = self.views.get((shape, dtype, copies))
        if views is None:
            nbytes = copies * dtype.itemsize * int(np.prod(shape))
            if self.buf.size < nbytes or len(self.views) >= 256:
                self.buf = _zeros(max(self.buf.size, nbytes), np.uint8)
                self.views = {}
            views = tuple(np.ndarray((copies, *shape), dtype, self.buf))
            self.views[shape, dtype, copies] = views
        return views


_scratch = _Scratch()


class _Plan(NamedTuple):
    """A gate's view of a state of its register, in O(n) ints that count
    elements of ``dtype``: the state's, or a swap's run of ``2**run``
    amplitudes (see ``_plan``). Window ``w`` starts at ``start(w)``, the sum
    of two half tables: ``lo``, indexed by the low ``h`` bits of ``w``
    (``len(lo)`` is ``2**h``), and ``hi``, by the rest. They hold Python
    ints, so a start is a basic key to ``_update_pairs``. ``view(amps)``
    lays ``shape`` and ``strides`` (in bytes) over the state: a lattice
    ``lat`` whose ``lat[s]`` are the first elements of the pairs of the
    window at ``s``, in iteration order (for their partners, see the module
    docstring)."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]
    shape: tuple[int, ...]
    strides: tuple[int, ...]
    dtype: np.dtype

    def start(self, w: int) -> int:
        """Window ``w``'s first element, for either kernel and ``verify``."""
        return self.lo[w & (len(self.lo) - 1)] + self.hi[w >> (len(self.lo).bit_length() - 1)]

    def view(self, buf) -> np.ndarray:
        """The lattice over ``buf``, a C-contiguous state, or ValueError."""
        return np.ndarray(self.shape, self.dtype, buf, 0, self.strides)


def _sums(first: int, hops: list[int]) -> tuple[int, ...]:
    """``first`` plus the ``hops`` of the set bits of each index, in index order."""
    sums = [first]
    for hop in hops:
        sums += [s + hop for s in sums]
    return tuple(sums)


@functools.lru_cache(maxsize=1024)
def _plan(num_qubits: int, target: int, controls: tuple[int, ...], window: int,
          swap: bool, dtype: np.dtype) -> _Plan:
    """The plan of a gate scheduling ``2**(num_qubits - 1 - len(controls))``
    iterations in windows of ``window`` over a C-contiguous state of
    ``dtype``, from one vectorised call of ``ith_cleared(reduced_to_global(i))``.

    The mapping is a bit deposit: it spreads the bits of ``i`` over fixed
    positions and ORs in fixed bits, ``base``. So the step of bit ``b``, the
    mapping of ``2**b`` less ``base``, places each pair (module docstring):
    the window index's bits step by the hops, the steps of the bits above the
    window's, which the half tables sum with ``base`` folded into ``lo``; and
    each window is one lattice, whose axes merge runs of doubling steps. A
    swap's ``run`` lowest iteration bits step 1, 2, 4, ... amplitudes, as
    qubits ``0..run-1`` are neither target nor control (and ``run`` is at
    most the window's bits), so each run of ``2**run`` pairs is one opaque
    ``np.void`` element; else ``run`` is 0.
    """
    bits = window.bit_length() - 1
    reduced = num_qubits - 1 - len(controls)
    at = np.concatenate(([0], 1 << np.arange(reduced, dtype=np.int64)))
    base, *ends = ith_cleared(reduced_to_global(at, target, controls), target).tolist()
    run = min(target, *controls, bits) if swap else 0
    steps = [(end - base) >> run for end in ends]
    shape, strides = [], []
    for step in steps[run:bits]:
        if strides and step == strides[-1] * shape[-1]:
            shape[-1] *= 2
        else:
            shape.append(2)
            strides.append(step)
    if not strides:  # a one-element window
        shape, strides = [1], [1]
    reach = sum((size - 1) * step for size, step in zip(shape, strides))
    es = np.dtype(dtype).itemsize << run
    shape = (((1 << num_qubits) - (1 << target) >> run) - reach, *shape[::-1])
    strides = tuple(es * step for step in (1, *strides[::-1]))
    dtype = np.dtype((np.void, es)) if run else np.dtype(dtype)
    half = bits + (reduced - bits + 1) // 2
    lo, hi = _sums(base >> run, steps[bits:half]), _sums(0, steps[half:])
    return _Plan(lo, hi, shape, strides, dtype)


def usable_cpus() -> int:
    """CPUs this process may run on: the size of its affinity mask where
    the platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(pairs: int, threads: int) -> int:
    """Threads work of ``pairs`` pair updates runs on, under either
    scheduler: at most ``threads`` and the usable CPUs, and one per
    ``_MIN_CHUNK`` pairs, so below ``2 * _MIN_CHUNK`` (2**16) pairs one."""
    if threads <= 1 or pairs < 2 * _MIN_CHUNK:
        return 1
    return min(threads, usable_cpus(), pairs // _MIN_CHUNK)


def _window(workers: int, strategy: Strategy, gate: GateOp) -> int:
    """Iterations per window of ``gate`` in work on ``workers`` workers at
    once, under either kernel: the one window rule. Several run the wide
    window, ``_BLOCK << _WIDE_SHIFT`` (16,384 iterations). On one worker a
    window keeps at most ``2 * _BLOCK`` (8,192) pairs: ``2 * _BLOCK``
    iterations, or the wide window where the baseline masks a control whose
    iteration bit lies below the wide window's bits and so halves every
    window. The optimized kernel masks nothing: each iteration is a pair."""
    wide = _BLOCK << _WIDE_SHIFT
    if workers > 1:
        return wide
    bits = wide.bit_length() - 1
    masked = gate.controls if strategy is Strategy.BASELINE else ()
    halves = any(adjusted_control(c, gate.target) < bits for c in masked)
    return wide if halves else _BLOCK << 1


def window_bytes(threads: int) -> int:
    """An upper bound on the window temporaries of work given ``threads``
    threads: one worker's windows, or each of several workers' wider ones.
    A call's window starts come from its cached plan, so beside the plan
    cache (see the module docstring) this bounds all per-call memory but
    the state and ``run``'s output chunk."""
    workers = min(threads, usable_cpus())
    return workers * (_WORKER_BYTES if workers == 1 else _WIDE_WORKER_BYTES)


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The process's pool for threaded work, made on first use, which is
    also when ``concurrent.futures`` is imported: one-thread work never
    loads it."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=usable_cpus())


# A forked child inherits the cached pool but not its threads.
os.register_at_fork(after_in_child=_pool.cache_clear)


def _split(units: int, workers: int, walk: Callable[[range], int]) -> int:
    """Run ``walk`` over the units ``range(units)``, the tiles of a run or a
    threaded lone gate's windows, and return the sum of what it returns.

    One worker walks every unit on the calling thread. Of ``W`` workers,
    no more than the units, worker ``j`` walks the units ``range(j, units,
    W)`` on ``_pool()``; the call returns once every worker's units have run.
    """
    if workers == 1:
        return walk(range(units))
    from concurrent.futures import wait

    futures = [_pool().submit(walk, range(j, units, workers)) for j in range(workers)]
    wait(futures)
    return sum(f.result() for f in futures)


@functools.lru_cache(maxsize=64)
def _template(width: int, target: int) -> np.ndarray:
    """The baseline's first pair indices of the ``width`` iterations from 0,
    read-only: one row of a window. Callers pass ``min(target, bits)``, as
    every higher target gives ``arange(width)``. Rows are at most ``_BLOCK``
    wide, so the cache's 64 take 0.75 MiB at most: 13 targets at 4,096
    iterations, 12 at 2,048 and so on down."""
    tpl = ith_cleared(np.arange(width, dtype=np.int64), target)
    tpl.flags.writeable = False
    return tpl


def _resolve(amps: np.ndarray, gate: GateOp, strategy: Strategy, window: int):
    """Resolve ``gate`` once, in windows of ``window`` iterations over all of
    ``amps``. Returns ``step(w)``, which runs window ``w`` from the start
    its plan gives: the optimized kernel's plan of the gate, on the plan's
    views of ``amps``, which must be C-contiguous, as ``StateVector`` keeps
    it (numpy raises ValueError); the baseline's plan of the gate without
    its controls, whose window ``w`` starts at ``ith_cleared(w * window, t)``,
    plus the template's offsets of the window's rows (see the module
    docstring)."""
    mat = _matrix_scalars(gate.matrix, amps.dtype)
    t = gate.target
    lower, upper = amps[: amps.shape[0] - (1 << t)], amps[1 << t:]
    num_qubits = amps.shape[0].bit_length() - 1
    baseline = strategy is Strategy.BASELINE
    controls, swap = ((), False) if baseline else (gate.controls, mat is None)
    plan = _plan(num_qubits, t, controls, window, swap, amps.dtype)
    start = plan.start
    if baseline:
        cmask = sum(1 << c for c in gate.controls)
        # On a window of 16,384 iterations with one control, a boolean index
        # takes 66 us where the mask flips on every iteration (adjusted bit
        # 0) and take of its nonzero indices 19 us; at adjusted bit 3, 13 us
        # against 19 (timeit, numpy 2.4.6).
        flips = any(adjusted_control(c, t) == 0 for c in gate.controls)
        width = min(window, _BLOCK)
        tpl = _template(width, min(t, width.bit_length() - 1))
        # ith_cleared of disjoint bits is the sum of their images
        offsets = ith_cleared(np.arange(0, window, width, dtype=np.int64), t)[:, None]

        def step(w: int):
            p1 = (tpl + (offsets + start(w))).ravel()
            if cmask:
                met = (p1 & cmask) == cmask
                p1 = p1.take(met.nonzero()[0]) if flips else p1[met]
            if p1.size:
                _update_pairs(lower, upper, p1, mat)

        return step

    xs, ys = plan.view(lower), plan.view(upper)

    def step(w: int):
        _update_pairs(xs, ys, start(w), mat)

    return step


def apply_gate(
    state: StateVector,
    gate: GateOp,
    strategy: Strategy = Strategy.OPTIMIZED,
    *,
    threads: int = 1,
) -> int:
    """Execute one gate with the chosen strategy; returns iterations executed."""
    return _apply_run(state, [gate], _member(strategy), threads, state.num_qubits)


def _tile_groups(gates: list[GateOp], strategy: Strategy, bits: int) -> list[list[GateOp]]:
    """Split ``gates``, in order, into groups: each maximal run of two or
    more gates that fit a tile of ``bits`` qubits, and every other gate on
    its own.

    A gate fits when all its qubits are below ``bits`` and it schedules at
    least ``_BLOCK >> _JOIN_SHIFT`` (512) iterations per tile, read on every
    call and the same for any number of workers.
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
    iterations executed, summed over the windows that ran. A gate run whole
    is a run of one gate at ``bits`` equal to the register size: one tile.

    Every qubit of the gates is below ``bits``. The run's workers follow
    the pairs its gates update over all tiles, the optimized kernel's
    iterations under either scheduler (``_worker_count``). Each gate is
    resolved once over the whole state (``_resolve``), in windows sized by
    those workers and by the gate (``_window``), ``k`` windows per tile of
    the scheduler's own iterations. Tile ``c`` is a gate's windows ``c*k``
    to ``(c+1)*k - 1``: the reduced index's bits from the tile's iterations
    up map to the qubits at and above ``bits``. The workers take interleaved
    units of the run (``_split``), its tiles, so each tile's gates run in
    order on one thread, as a worker that waited on work it submitted to its
    own pool could wait forever. A lone gate on several workers has its
    windows as units, as they write disjoint pairs.
    """
    amps = state.amplitudes
    units = amps.shape[0] >> bits
    pairs = sum(iteration_count(Strategy.OPTIMIZED, bits, gate) for gate in gates)
    workers = _worker_count(pairs * units, threads)
    if len(gates) > 1:
        workers = min(workers, units)
    runs = []
    for gate in gates:
        count = iteration_count(strategy, bits, gate)
        window = min(count, _window(workers, strategy, gate))
        runs.append((count // window, _resolve(amps, gate, strategy, window), window))
    if workers > units:  # a lone gate's windows, split over the workers
        (k, step, window), = runs
        units, runs = units * k, [(1, step, window)]

    def walk(tiles: range) -> int:
        executed = 0
        for tile in tiles:
            for k, step, window in runs:
                for w in range(tile * k, (tile + 1) * k):
                    step(w)
                    executed += window
        return executed

    return _split(units, workers, walk)


def apply_circuit(
    state: StateVector,
    circuit: Circuit,
    strategy: Strategy = Strategy.OPTIMIZED,
    *,
    threads: int = 1,
) -> int:
    """Execute a circuit's gates in order, runs of gates that fit a tile
    tile by tile (see the module docstring); returns the iterations run."""
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit is over {circuit.num_qubits} qubits, state over {state.num_qubits}"
        )
    strategy = _member(strategy)
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
