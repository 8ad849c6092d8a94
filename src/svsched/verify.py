"""Self-verification suites behind the ``verify`` CLI command.

Three independent checks of the reduced-iteration scheduler:

* every gate geometry (register size, target, ascending control subset) maps
  its reduced iterations, also through the kernel's plans, onto the active set;
* at every larger register size, the plans both kernels run for sampled
  geometries in real windows place sampled pairs where the mapping does, by
  arithmetic alone;
* on random gates and random states, both schedulers produce bit-identical
  final state vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from . import sched
from .core import MAX_QUBITS, PRECISION_DTYPES, GateMatrix, GateOp, StateVector, gate_x
from .sched import Strategy, active_set_oracle, apply_gate, ith_cleared, reduced_to_global


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
    """Exact set equality between the mapped reduced indices and the oracle;
    then the kernel's plans of 1-iteration and whole-gate windows, a swap's
    too, read as ``sched._resolve`` reads them over a state of indices must
    give the active pairs, ascending. A plan that raises is a mismatch."""
    reduced = np.arange(1 << (n - 1 - len(controls)), dtype=np.int64)
    image = reduced_to_global(reduced, target, controls)
    expected = active_set_oracle(n, target, controls)
    got = set(int(i) for i in np.atleast_1d(image))
    if got != expected:
        return Mismatch(n, target, controls, f"mapped {sorted(got)} != active {sorted(expected)}")
    if not np.all(np.diff(np.atleast_1d(image)) > 0):
        return Mismatch(n, target, controls, "mapping not strictly increasing")
    ids = np.arange(1 << n, dtype=np.complex128)
    want = ith_cleared(np.array(sorted(expected)), target)
    for window, swap in ((1, False), (reduced.size, False), (reduced.size, True)):
        what = f"plan of {window}-iteration windows{' (swap)' if swap else ''}"
        try:
            plan = sched._plan(n, target, controls, window, swap, ids.dtype)
            starts = [plan.start(w) for w in range(len(plan.lo) * len(plan.hi))]
            got = [plan.view(ids[k << target:])[starts].view(ids.dtype).real.ravel()
                   for k in (0, 1)]
        except Exception as exc:
            return Mismatch(n, target, controls, f"{what} raised {type(exc).__name__}: {exc}")
        if not (np.array_equal(got[0], want) and np.array_equal(got[1], want + (1 << target))):
            return Mismatch(n, target, controls, f"{what} updates {got} != active {want}")
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


def check_plan(n: int, gate: GateOp, window: int, plan, itemsize: int, rng) -> str | None:
    """What is wrong with ``plan``, of ``gate`` in windows of ``window``
    iterations over ``2**n`` amplitudes of ``itemsize`` bytes, or None, by
    arithmetic on its fields alone: its lattice must fit the state also
    ``2**t`` higher, and sampled pairs of its first, last and three seeded
    windows must sit where the mapping puts them."""
    t, controls, windows = gate.target, gate.controls, len(plan.lo) * len(plan.hi)
    if windows * window != sched.iteration_count(Strategy.OPTIMIZED, n, gate):
        return f"lists {windows} windows"
    es = plan.dtype.itemsize
    per = es // itemsize  # amplitudes per element
    if es % itemsize or any(stride <= 0 or stride % es for stride in plan.strides):
        return f"has strides {plan.strides} of no whole {es}-byte elements"
    steps = [stride // es for stride in plan.strides]
    reach = sum((size - 1) * step for size, step in zip(plan.shape, steps))
    span = (reach + 1) * per + (1 << t)  # amplitudes, with the partners 2**t higher
    first, last = min(plan.lo) + min(plan.hi), max(plan.lo) + max(plan.hi)
    if not 0 <= first <= last < plan.shape[0] or span > 1 << n:
        return f"has lattice {plan.shape} at starts up to {last}, past the state"
    js = np.unique(np.concatenate(([0, window - 1], rng.integers(0, window, 6))))
    coords = np.unravel_index(js // per, plan.shape[1:])
    offset = sum(c * step for c, step in zip(coords, steps[1:]))
    for w in sorted({0, windows - 1, *rng.integers(0, windows, 3).tolist()}):
        got = (plan.start(w) + offset) * per + js % per
        want = ith_cleared(reduced_to_global(w * window + js, t, controls), t)
        if not np.array_equal(got, want):
            return f"places window {w}'s pairs {js.tolist()} at {got.tolist()} != {want.tolist()}"
    return None


def verify_plans(seed: int = 0) -> tuple[int, list[Mismatch]]:
    """``check_plan`` on three seeded geometries of up to three controls at
    every register size from 9 qubits to ``MAX_QUBITS``, in the windows of
    one and two workers (``sched._window``), both precisions: the optimized
    kernel's plans, swap and not, and the baseline's, of the gate without
    its controls in the baseline's windows, as ``sched._resolve`` looks them
    up. Returns (plans checked, mismatches); a plan that raises is a
    mismatch."""
    rng, mismatches = np.random.default_rng(seed), []
    geometries = [(n, int(rng.integers(n))) for n in range(9, MAX_QUBITS + 1) for _ in range(3)]
    runs = [(False, Strategy.OPTIMIZED), (True, Strategy.OPTIMIZED), (False, Strategy.BASELINE)]
    cases = [(*case, *run) for case in product((1, 2), PRECISION_DTYPES) for run in runs]
    for n, t in geometries:
        others = [q for q in range(n) if q != t]
        controls = tuple(sorted(map(int, rng.choice(others, rng.integers(4), False))))
        gate = GateOp(gate_x(), t, controls)
        for workers, precision, swap, strategy in cases:
            baseline = strategy is Strategy.BASELINE
            planned = GateOp(gate.matrix, t) if baseline else gate
            count = sched.iteration_count(Strategy.OPTIMIZED, n, planned)
            window = min(count, sched._window(workers, strategy, gate))
            dtype = np.dtype(PRECISION_DTYPES[precision])
            try:
                plan = sched._plan(n, t, planned.controls, window, swap, dtype)
                detail = check_plan(n, planned, window, plan, dtype.itemsize, rng)
            except Exception as exc:
                detail = f"raised {type(exc).__name__}: {exc}"
            if detail is not None:
                what = f"{precision}-precision plan of {window}-iteration windows"
                what += " (swap)" if swap else " (baseline)" if baseline else ""
                mismatches.append(Mismatch(n, t, controls, f"{what} {detail}"))
    return len(geometries) * len(cases), mismatches


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
    cases: int = 1000, seed: int = 0, n_max: int = 16
) -> tuple[int, list[Mismatch]]:
    """Random gates on random states: baseline and optimized final state
    vectors must match bit for bit. Half the gates are X, which both
    schedulers run as a swap; from 15 qubits up, a gate with few enough
    controls runs several windows. A scheduler that raises on a case is a
    mismatch that names it and the exception."""
    rng = np.random.default_rng(seed)
    mismatches = []
    for _ in range(cases):
        n = int(rng.integers(2, n_max + 1))
        t = int(rng.integers(n))
        others = [q for q in range(n) if q != t]
        n_c = int(rng.integers(0, n))  # up to n-1 controls
        controls = tuple(sorted(rng.choice(others, size=n_c, replace=False))) if n_c else ()
        matrix = gate_x() if rng.integers(2) else random_gate_matrix(rng)
        gate = GateOp(matrix, t, controls)
        state = random_state(rng, n)
        finals = []
        for strategy in (Strategy.BASELINE, Strategy.OPTIMIZED):
            final = state.copy()
            try:
                apply_gate(final, gate, strategy)
            except MemoryError:
                raise
            except Exception as exc:
                detail = f"{strategy.value} scheduler raised {type(exc).__name__}: {exc}"
                mismatches.append(Mismatch(n, t, controls, detail))
                break
            finals.append(final.amplitudes)
        else:
            base, opt = finals
            if not np.array_equal(base, opt):
                worst = float(np.max(np.abs(base - opt)))
                mismatches.append(
                    Mismatch(n, t, controls, f"schedulers disagree, max |diff| = {worst:.3e}")
                )
    return cases, mismatches
