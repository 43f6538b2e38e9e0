"""Content-addressed result cache keyed on checkpoint fingerprints.

The dedupe spine of the service: a completed point's row is stored
under its :func:`repro.runtime.checkpoint.point_fingerprint` — the same
content-address family the JSONL checkpoints bind sweeps with — so a
resubmitted identical ``(experiment, params, seed)`` request is served
without re-executing anything.  Rows are normalized through
:func:`repro.runtime.checkpoint.jsonable` on the way in, which makes a
cache-served row byte-identical to the row a checkpoint resume would
have replayed: one equality contract across both persistence layers.

Only *successful* rows are cached (failures re-run, mirroring the
checkpoint rule that failed points are never recorded).  The cache is
unbounded and nothing is evicted: on a durable service every cached row
is also in the result store, so an eviction would only re-execute and
re-store a row already on disk.  Hits and misses are counted on the
service tracer as ``service.cache.hits`` / ``service.cache.misses`` and
mirrored on the instance for direct inspection.  All methods are
thread-safe.
"""

from __future__ import annotations

import threading
from typing import Mapping

from ..runtime import trace
from ..runtime.checkpoint import jsonable

__all__ = ["MISS", "ResultCache"]


class _Miss:
    """Sentinel distinguishing 'no entry' from a cached None/empty row."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<cache miss>"


MISS = _Miss()


class ResultCache:
    """Thread-safe mapping of point fingerprint -> result row."""

    def __init__(
        self, tracer: "trace.Tracer | trace.NullTracer | None" = None
    ):
        self.hits = 0
        self.misses = 0
        self._tr = tracer if tracer is not None else trace.current()
        self._rows: dict[str, dict] = {}
        self._lock = threading.Lock()

    def get(self, fingerprint: str) -> "dict | _Miss":
        """The cached row for ``fingerprint``, or :data:`MISS`.

        Hits return a shallow copy — cached rows are shared across jobs
        and must never be mutated through a job's result.
        """
        with self._lock:
            row = self._rows.get(fingerprint)
            if row is None:
                self.misses += 1
                self._tr.count("service.cache.misses")
                return MISS
            self.hits += 1
            self._tr.count("service.cache.hits")
            return dict(row)

    def put(self, fingerprint: str, row: Mapping) -> dict:
        """Store one successful row; returns the normalized copy kept."""
        clean = {str(k): jsonable(v) for k, v in row.items()}
        with self._lock:
            self._rows[fingerprint] = clean
            self._tr.count("service.cache.stores")
        return clean

    def warm(self, rows: Mapping[str, Mapping]) -> int:
        """Preload recovered rows without touching the hit/miss stats.

        The recovery warm-start path: rows replayed from the on-disk
        result store (already ``jsonable``-normalized when they were
        stored) become ordinary cache entries, so re-admitted jobs fill
        their already-executed points through the normal cache-hit path.
        Counted as ``service.cache.warmed``, not as stores.
        """
        with self._lock:
            for fingerprint, row in rows.items():
                self._rows[fingerprint] = dict(row)
        self._tr.count("service.cache.warmed", len(rows))
        return len(rows)

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._rows

    def clear(self) -> None:
        with self._lock:
            self._rows.clear()

    def stats(self) -> dict:
        """Hit/miss/size snapshot for :meth:`ResilienceService.status`."""
        with self._lock:
            return {
                "entries": len(self._rows),
                "hits": self.hits,
                "misses": self.misses,
            }
