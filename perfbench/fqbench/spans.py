"""Spans timed from outside the program.

The traced run replaces public methods of the deployment's objects with
timing wrappers (instance attributes), so ``src/`` is never edited.  Spans carry name, start, end and
parent and stay in memory until the run writes them out.  Per-record
calls — a dispatcher ``on_raw``, a padding ``encrypt``, a ``decrypt`` —
would flood the trace, so they are *leaves*: each call only adds to a
``[calls, seconds]`` count on the span open at the time (or on the
thread's orphan table when none is open).

A span's self time is its duration minus the part its child spans cover
and minus the time of its leaf calls.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    #: Work units the wrapped call reported (records, pairs, ...).
    units: int = 0
    #: Leaf name → [calls, seconds] of per-record calls made inside.
    leaves: dict = field(default_factory=dict)


@dataclass
class Layer:
    calls: int = 0
    units: int = 0
    self_s: float = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._orphan_tables: list[dict] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids),
            name,
            self.clock(),
            stack[-1].id if stack else None,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()
        self.spans.append(span)

    def add_leaf(self, name: str, seconds: float) -> None:
        stack = self._stack()
        if stack:
            table = stack[-1].leaves
        else:
            table = getattr(self._local, "orphans", None)
            if table is None:
                table = self._local.orphans = {}
                with self._lock:
                    self._orphan_tables.append(table)
        entry = table.get(name)
        if entry is None:
            table[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def orphans(self) -> dict:
        merged: dict = {}
        for table in self._orphan_tables:
            for name, (calls, seconds) in table.items():
                entry = merged.setdefault(name, [0, 0.0])
                entry[0] += calls
                entry[1] += seconds
        return merged

    # -- wrappers --------------------------------------------------------

    def spanned(self, name: str, fn, units=None):
        """``fn`` timed as a span; ``units(*args)`` counts its work."""

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                if units is not None:
                    span.units = units(*args, **kwargs)
                self.close(span)

        return wrapper

    def leaf(self, name: str, fn):
        """``fn`` timed as a leaf call of the enclosing span."""
        clock = self.clock

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add_leaf(name, clock() - start)

        return wrapper

    # -- results ---------------------------------------------------------

    def layers(self) -> dict[str, Layer]:
        """Per-name calls, units and self time over spans and leaves."""
        totals: dict[str, Layer] = defaultdict(Layer)
        own = self_times(self.spans)
        for span in self.spans:
            layer = totals[span.name]
            layer.calls += 1
            layer.units += span.units
            layer.self_s += own[span.id]
            for name, (calls, seconds) in span.leaves.items():
                totals[name].calls += calls
                totals[name].self_s += seconds
        for name, (calls, seconds) in self.orphans().items():
            totals[name].calls += calls
            totals[name].self_s += seconds
        return totals

    def leaves_under(self, parent: str, leaf: str) -> tuple[int, float]:
        """Calls and seconds of ``leaf`` made directly inside ``parent``."""
        calls, seconds = 0, 0.0
        for span in self.spans:
            if span.name == parent and leaf in span.leaves:
                calls += span.leaves[leaf][0]
                seconds += span.leaves[leaf][1]
        return calls, seconds

    def write(self, path) -> None:
        payload = {
            "spans": [
                {
                    "id": s.id,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "units": s.units,
                    "leaves": s.leaves,
                }
                for s in sorted(self.spans, key=lambda s: s.start)
            ],
            "orphan_leaves": self.orphans(),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus child-covered time minus leaf time.

    Children are clipped to their parent's interval and overlapping
    children (other threads) are merged, so no instant is subtracted
    twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        leaf_s = sum(seconds for _, seconds in span.leaves.values())
        out[span.id] = (span.end - span.start) - covered - leaf_s
    return out


class Patches:
    """Attribute replacements undone in reverse order on exit."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr: str, value) -> None:
        own = vars(owner)
        if attr in own:
            previous = own[attr]
            self._undo.append(lambda: setattr(owner, attr, previous))
        else:
            self._undo.append(lambda: delattr(owner, attr))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()
