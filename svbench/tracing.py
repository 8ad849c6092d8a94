"""In-memory spans recorded around the simulator's module-level call points.

The simulator has no tracing of its own. Its layers call each other through
module globals (``apply_circuit`` looks up ``svsched.sched.apply_gate`` on
every gate, ``cmd_run`` looks up ``svsched.cli.load_circuit``, ``new_state``
and ``apply_circuit``), so replacing those globals with timing wrappers for
the length of a traced run records every crossing without editing the
program. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(eq=False)
class Span:
    name: str
    index: int  # position in Tracer.spans
    parent: int | None  # index of the enclosing span
    start: float = 0.0
    end: float = 0.0
    result: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        """Record one span; spans opened inside it become its children."""
        parent = self._stack[-1] if self._stack else None
        s = Span(name, len(self.spans), parent)
        self.spans.append(s)
        self._stack.append(s.index)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def wrapping(self, module, attr: str, name: str):
        """Replace ``module.attr`` by a wrapper that records a span per call."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                s.result = original(*args, **kwargs)
            return s.result

        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            setattr(module, attr, original)

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def self_seconds(self, index: int) -> float:
        """A span's duration minus the time its direct children cover."""
        return self.spans[index].seconds - sum(c.seconds for c in self.children(index))
