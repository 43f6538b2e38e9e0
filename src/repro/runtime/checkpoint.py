"""Durable JSONL row stores: interrupt a run, resume without recompute.

:class:`RowStore` maps keys to JSON-normalized result rows.  Opened on
a file it is append-only JSONL: the first line is a header binding the
file to its owner, each later line records one *successfully
completed* point.  It has two owners with one format each:

* the sweep checkpoint (:func:`sweep_checkpoint`), keyed by point
  ``index``, whose header binds the file to one grid and parent seed::

    {"kind": "sweep-checkpoint", "version": 1, "n_points": 16, "fingerprint": "…"}
    {"index": 0, "row": {"param": 0, "survival": 0.81}}
    {"index": 3, "row": {"param": 3, "survival": 0.64}}

* the service's result store (:mod:`repro.service.persistence`), keyed
  by :func:`point_fingerprint`::

    {"kind": "service-results", "version": 1}
    {"fingerprint": "…", "row": {"x": 1, "value": 10}}

Failed points are never recorded, so resuming a sweep re-runs exactly
the failed/missing points and replays the completed rows verbatim.

Crash safety
------------
The file mechanics live in :class:`JournalFile`, which the service's
write-ahead journal uses too.  The header is created atomically (temp
file, fsync, ``os.replace``) and every appended record is flushed *and
fsync'd*, so a power loss can cost at most the record being written.
On load, damage degrades instead of aborting the resume:

* a half-written **trailing** line (the process died mid-append) is
  dropped with a warning entry;
* a corrupted **mid-file** line — bit rot, a concurrent writer, an
  injected chaos fault — is *quarantined*: the raw line moves to a
  ``<path>.corrupt`` sidecar, a warning entry records it, the main file
  is atomically rewritten without it, and the affected point simply
  re-runs (engine determinism makes the recomputed row identical);
* a **duplicate key** keeps the newest row (append order) with a
  warning entry.

What still raises :class:`~repro.errors.CheckpointError`: a missing or
unreadable header, a wrong kind/version, and a fingerprint or point-
count mismatch — a stale file must not silently stitch rows from a
different grid into the results.  Warnings are exposed structurally on
:attr:`RowStore.warnings` (the sweep re-emits them as trace events) and
through :mod:`warnings`.

Rows must be JSON-serializable; numpy scalars and arrays are converted
on write (so a resumed row compares equal to a fresh one).  Non-finite
floats are rejected — ``json.dumps`` would emit the non-RFC literals
``NaN``/``Infinity``, which strict readers refuse, silently breaking the
resume round-trip.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import warnings as warnings_module
from typing import Any, Callable, Mapping

import numpy as np

from ..errors import CheckpointError

__all__ = [
    "JournalFile",
    "RowStore",
    "fingerprint",
    "jsonable",
    "point_fingerprint",
    "sweep_checkpoint",
]

_KIND = "sweep-checkpoint"
_VERSION = 1


def jsonable(value: Any) -> Any:
    """``value`` converted to plain JSON types (numpy unwrapped).

    Raises :class:`CheckpointError` for values that cannot round-trip —
    checkpointed rows must compare equal after a resume, so anything
    that would need ``repr`` lossy encoding is rejected up front.  That
    includes non-finite floats: ``json.dumps`` would emit ``NaN`` /
    ``Infinity``, which are not RFC 8259 JSON and poison the file for
    strict parsers.
    """
    if isinstance(value, np.generic):  # before float: np.float64 is one
        return jsonable(value.item())
    if isinstance(value, float) and not math.isfinite(value):
        raise CheckpointError(
            f"checkpointed rows must be finite; got {value!r} "
            "(json would emit a non-RFC NaN/Infinity literal, breaking "
            "the resume round-trip)"
        )
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise CheckpointError(
        f"checkpointed rows must be JSON-serializable; got "
        f"{type(value).__name__}: {value!r}"
    )


def fingerprint(points: list, seed_label: str, extra: str = "") -> str:
    """Stable digest of a sweep's identity: points + parent seed."""
    payload = json.dumps(
        {
            "points": [repr(p) for p in points],
            "seed": seed_label,
            "extra": extra,
        },
        sort_keys=True,
    )
    return hashlib.sha1(payload.encode()).hexdigest()


def point_fingerprint(experiment: str, params: Any, seed_label: str) -> str:
    """Content address of one executed point.

    The key of the service layer's result store: two requests
    naming the same experiment, the same parameter assignment, and the
    same per-point seed identity denote the same computation (engines
    are deterministic and equivalence-pinned), so their results are
    interchangeable.  Same digest family and ``repr``-encoding as the
    sweep-level :func:`fingerprint`, applied to a single point.
    """
    payload = json.dumps(
        {
            "experiment": experiment,
            "params": repr(params),
            "seed": seed_label,
        },
        sort_keys=True,
    )
    return hashlib.sha1(payload.encode()).hexdigest()


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via temp file + fsync + atomic replace."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class JournalFile:
    """Generic append-only fsync'd JSONL file with crash-tolerant load.

    The shared durability spine under :class:`RowStore` and the service
    layer's write-ahead journal (:mod:`repro.service.persistence`).  One
    header line binds the file to a kind + version (plus any ``match``
    fields the owner pins); every later line is one JSON record appended
    with write+flush+fsync.

    Loading degrades instead of aborting wherever the damage is
    recoverable: a torn trailing line is dropped, unparseable or
    ``validate``-rejected interior lines are quarantined to a
    ``.corrupt`` sidecar and the main file atomically healed, and every
    degradation is recorded structurally on :attr:`warnings`.  What
    still raises :class:`~repro.errors.CheckpointError`: a missing or
    unreadable header, a wrong kind/version, and a mismatch on any
    ``match`` header field — a stale file must never silently feed
    records into a different owner.
    """

    def __init__(
        self,
        path: str,
        entries: "list[tuple[int, dict]]",
        warnings: "list[dict] | None" = None,
        quarantined: int = 0,
    ):
        self.path = path
        self.entries = entries  # (1-based line number, record), file order
        self.warnings: list[dict] = warnings or []
        self.quarantined = quarantined
        self._fh = open(path, "a")

    @property
    def corrupt_path(self) -> str:
        """The sidecar file quarantined lines are appended to."""
        return self.path + ".corrupt"

    @property
    def records(self) -> list[dict]:
        """The loaded records without their line numbers, in file order."""
        return [record for _, record in self.entries]

    @classmethod
    def open(
        cls,
        path: str,
        *,
        header: Mapping[str, Any],
        match: "tuple[str, ...]" = (),
        label: str = "journal",
        mismatch_hint: str = "run",
        heal_hint: "str | None" = None,
        validate: "Any | None" = None,
    ) -> "JournalFile":
        """Create the file (atomic header write) or load it tolerantly.

        ``header`` must carry ``kind`` and ``version``; ``match`` names
        the extra header fields that must equal the expected header for
        the load to proceed.  ``validate(record)`` may raise ``KeyError``
        / ``TypeError`` / ``ValueError`` to quarantine a parseable but
        malformed record.  ``label`` / ``mismatch_hint`` / ``heal_hint``
        only shape the error and warning messages.
        """
        kind, version = header["kind"], header["version"]
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            _write_atomic(path, json.dumps(dict(header)) + "\n")
            return cls(path, [])
        with open(path) as fh:
            lines = fh.read().splitlines()
        try:
            found = json.loads(lines[0])
        except (json.JSONDecodeError, IndexError) as exc:
            raise CheckpointError(
                f"{label} {path!r} has no readable header"
            ) from exc
        if not isinstance(found, dict) or found.get("kind") != kind \
                or found.get("version") != version:
            raise CheckpointError(f"{path!r} is not a v{version} {label}")
        if any(found.get(key) != header[key] for key in match):
            raise CheckpointError(
                f"{label} {path!r} was written by a different "
                f"{mismatch_hint}; delete it or use a fresh path"
            )
        entries: list[tuple[int, dict]] = []
        warnings: list[dict] = []
        kept: list[str] = [lines[0]]
        quarantine: list[str] = []
        for i, line in enumerate(lines[1:], start=1):
            if not line.strip():
                continue
            last = i == len(lines) - 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if last:
                    # torn tail write from an interrupted run: the
                    # record was never durably appended, so just drop it
                    warnings.append(
                        {"line": i + 1, "reason": "torn tail line dropped"}
                    )
                    continue
                quarantine.append(line)
                warnings.append(
                    {"line": i + 1, "reason": "corrupt line quarantined"}
                )
                continue
            try:
                if not isinstance(record, dict):
                    raise TypeError("record is not a mapping")
                if validate is not None:
                    validate(record)
            except (KeyError, TypeError, ValueError):
                quarantine.append(line)
                warnings.append(
                    {"line": i + 1, "reason": "malformed record quarantined"}
                )
                continue
            entries.append((i + 1, record))
            kept.append(line)
        if quarantine:
            sidecar = path + ".corrupt"
            with open(sidecar, "a") as fh:
                for line in quarantine:
                    fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            # heal the main file: same lines minus the quarantined ones,
            # replaced atomically so a crash mid-heal loses nothing
            _write_atomic(path, "\n".join(kept) + "\n")
            warnings_module.warn(
                f"{label} {path!r}: quarantined {len(quarantine)} "
                f"corrupt line(s) to {sidecar!r}"
                + (f"; {heal_hint}" if heal_hint else ""),
                RuntimeWarning,
                stacklevel=2,
            )
        return cls(path, entries, warnings, quarantined=len(quarantine))

    def append(self, record: Mapping) -> None:
        """Append one record durably (single write, flush, fsync).

        A crash can never leave more than one torn line — which the
        next :meth:`open` drops (tail) or quarantines (interior).
        """
        self._fh.write(json.dumps(dict(record)) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JournalFile":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()




class RowStore:
    """Thread-safe mapping of key -> JSON-normalized result row.

    In memory (``RowStore()``) it is the service's result cache when no
    ``service_dir`` is set.  Opened on a file (:meth:`open`) it is the
    sweep checkpoint (keyed by ``index``, :func:`sweep_checkpoint`) and
    the service's durable result store (keyed by ``fingerprint``).
    :meth:`put` normalizes the row with :func:`jsonable`, appends it
    durably when file-backed, and only then makes it visible, so a row
    that never reached the disk is never served.  One thread puts at a
    time.  ``warnings`` / ``quarantined`` report the damage tolerated
    while loading; ``hits`` / ``misses`` count :meth:`get` lookups.
    """

    def __init__(
        self,
        journal: "JournalFile | None" = None,
        key: str = "key",
        rows: "dict | None" = None,
    ):
        self.key = key
        self.path = journal.path if journal else None
        self.warnings: list[dict] = journal.warnings if journal else []
        self.quarantined = journal.quarantined if journal else 0
        self.hits = self.misses = 0
        self._journal = journal
        self._rows: dict = rows or {}
        self._lock = threading.Lock()

    @classmethod
    def open(
        cls,
        path: str,
        *,
        key: str,
        header: Mapping[str, Any],
        valid: Callable[[Any], bool] = lambda k: isinstance(k, str),
        **options: Any,
    ) -> "RowStore":
        """Create or reload a file of ``{key: …, "row": {…}}`` records.

        A record whose key fails ``valid`` or whose row is no mapping is
        quarantined; a duplicate key keeps the newest row with a
        warning.  ``options`` go to :meth:`JournalFile.open`.
        """

        def validate(record: dict) -> None:
            if not valid(record[key]) or not isinstance(record["row"], dict):
                raise ValueError(f"not a {key!r} row record")

        journal = JournalFile.open(
            path, header=header, validate=validate, **options
        )
        rows: dict = {}
        for lineno, record in journal.entries:
            k = record[key]
            if k in rows:
                journal.warnings.append(
                    {
                        "line": lineno,
                        "reason": f"duplicate {key} {k}; "
                        "keeping the newer row",
                    }
                )
            rows[k] = record["row"]
        return cls(journal, key, rows)

    def get(self, key: Any) -> "dict | None":
        """A copy of the row under ``key`` (rows are shared), or None."""
        with self._lock:
            row = self._rows.get(key)
            if row is None:
                self.misses += 1
                return None
            self.hits += 1
            return dict(row)

    def put(self, key: Any, row: Mapping) -> dict:
        """Store one row; returns the normalized copy kept.

        A row that does not normalize raises :class:`CheckpointError`
        before anything is written; an append that raises leaves the
        row unstored.
        """
        clean = {str(k): jsonable(v) for k, v in row.items()}
        if self._journal is not None:
            self._journal.append({self.key: key, "row": clean})
        with self._lock:
            self._rows[key] = clean
        return clean

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._rows

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def stats(self) -> dict:
        """Size and lookup snapshot (the service reports it as ``cache``)."""
        with self._lock:
            return {
                "entries": len(self._rows),
                "hits": self.hits,
                "misses": self.misses,
            }

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "RowStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def sweep_checkpoint(path: str, *, n_points: int, fp: str) -> RowStore:
    """Create or resume the sweep checkpoint at ``path``.

    A row store keyed by point ``index`` whose header binds the file to
    one sweep: ``fp`` (:func:`fingerprint` of the points and parent
    seed) and the point count.  A record indexing past ``n_points`` is
    quarantined.
    """
    return RowStore.open(
        path,
        key="index",
        header={
            "kind": _KIND,
            "version": _VERSION,
            "n_points": n_points,
            "fingerprint": fp,
        },
        valid=range(n_points).__contains__,
        match=("fingerprint", "n_points"),
        label="sweep checkpoint",
        mismatch_hint="sweep (parameter grid or parent seed changed)",
        heal_hint="the affected points will re-run",
    )
