"""In-memory spans recorded at layer boundaries, from outside ``src/``.

The traced run installs :class:`Spans` wrappers around the public entry
points of each layer (``Spans.patch``); every call becomes one span
record — name, layer, start, end and the span that caused it.  Nothing inside the
library is instrumented: the wrappers are removed again by
``Spans.unpatch`` and the records are written out as JSONL at the end.

A layer's *self time* is its spans' duration minus the part of each
interval covered by its child spans (children on other threads or in
worker processes included, so overlapping children count once).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager

#: span-name prefix -> layer, named after the library's modules
LAYERS = (
    ("networks.", "networks"),
    ("csp.", "csp"),
    ("agents.", "agents"),
    ("analysis.sweep", "analysis.sweep"),
    ("runtime.executor", "runtime.executor"),
    ("runtime.checkpoint", "runtime.checkpoint"),
    ("service.persistence", "service.persistence"),
    ("service.", "service"),
    ("point", "point"),
)


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


class Spans:
    """Thread-safe span recorder with patch/unpatch wrappers."""

    def __init__(self):
        self.records: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the ``with`` body."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "name": name,
            "layer": layer_of(name),
            "thread": threading.current_thread().name,
            **attrs,
        }
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.records.append(record)

    def add(self, name: str, start: float, end: float, parent, **attrs):
        """Record a span measured elsewhere (e.g. inside a worker process;
        ``perf_counter`` is the system-wide monotonic clock on Linux)."""
        record = {
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "name": name,
            "layer": layer_of(name),
            "start": start,
            "end": end,
            **attrs,
        }
        with self._lock:
            self.records.append(record)
        return record

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, name: str, wrapper=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``wrapper(fn)`` may supply a custom wrapper; by default every
        call becomes one span called ``name``.
        """
        raw = inspect.getattr_static(owner, attr)
        make = wrapper or (lambda fn: self.wrap(name, fn))
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        own = attr in vars(owner)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw if own else None))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is None:  # was inherited: drop the override again
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- analysis ----------------------------------------------------------

    def named(self, name: str, since: float = float("-inf")) -> list[dict]:
        with self._lock:
            return [
                r for r in self.records
                if r["name"] == name and r["start"] >= since
            ]

    def total(self, name: str, since: float = float("-inf")) -> float:
        return sum(r["end"] - r["start"] for r in self.named(name, since))

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer: duration minus the union of children."""
        with self._lock:
            records = list(self.records)
        children: dict[int, list] = {}
        for r in records:
            if r["parent"] is not None:
                children.setdefault(r["parent"], []).append(r)
        totals: dict[str, float] = {}
        for r in records:
            covered = 0.0
            edge = r["start"]
            kids = sorted(
                children.get(r["id"], ()), key=lambda c: c["start"]
            )
            for kid in kids:
                lo = max(kid["start"], edge)
                hi = min(kid["end"], r["end"])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            own = max(r["end"] - r["start"] - covered, 0.0)
            totals[r["layer"]] = totals.get(r["layer"], 0.0) + own
        return totals

    def dump(self, path: str) -> None:
        with self._lock:
            records = sorted(self.records, key=lambda r: r["start"])
        with open(path, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(json.dumps(r) + "\n")
