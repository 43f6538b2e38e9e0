"""Crash durability for the service: write-ahead journal + result store.

A :class:`ResilienceService` without persistence loses every accepted
job when its process dies — the admission ledger, in-flight dedupe
table, and result cache are all in-memory.  This module gives the
service a durable spine, built on the same hardened JSONL machinery the
sweep checkpoints trust (:class:`repro.runtime.checkpoint.JournalFile`:
atomic fsync'd header, fsync'd appends, torn-tail drop, ``.corrupt``
sidecar quarantine-and-heal):

* the **write-ahead journal** (``<dir>/journal.jsonl``) records job
  lifecycle transitions — ``accepted`` (before any point executes, with
  everything needed to rebuild the job: experiment, the point
  function's import path, JSON-round-tripped points, the parent seed,
  execution knobs, and the resolved point fingerprints), then
  ``chunk-dispatched`` / ``point-done`` / ``completed`` / ``cancelled``;
* the **result store** (``<dir>/results.jsonl``) is
  :attr:`ServicePersistence.results`, a
  :class:`~repro.runtime.checkpoint.RowStore` keyed by each executed
  point's content-address fingerprint — the sweep checkpoint's row
  store under another header.  It is also the service's result cache,
  so recovery never copies it into a second mapping.

Write ordering is the WAL contract: a job is journaled ``accepted``
*before* the scheduler sees it, and a point's row is appended to the
result store *before* its ``point-done`` journal record — so anything
journaled as done is durably recomputable-free, and a crash between the
two costs at most one re-execution (deduplicated by the store on the
next recovery, never duplicated in results).

:meth:`ServicePersistence.load` replays the journal into a
:class:`RecoveredState`: the incomplete jobs to re-admit and the
degradations tolerated on the way in both files (healed corruption,
unknown records, superseded rows).  Recovery reads only
``accepted``/``completed``/``cancelled`` and the store.  The other two
records are still written: the R03 drill times its kill by counting
``point-done``, and the durable-service benchmark wraps
``record_dispatched`` and ``record_point_done`` by name.  A job only
re-admits when its point function is importable by name and its
recomputed fingerprints match the journaled ones byte-for-byte —
anything else is skipped with a structural warning rather than silently
computing different results.

I/O-error policy: a write that raises is not retried and not degraded
to non-durable mode; the storage that raised is not touched again.

* The ``accepted`` write in ``submit``: the job is not admitted (it
  never reached the ledger), and the caller gets the ``OSError``.  (If
  the record reached the disk anyway, a restart runs the job.)
* The ``completed`` write of a job ``submit`` served wholly from the
  cache, and the ``cancelled`` write in ``cancel``: the job keeps its
  final state in memory, the caller gets the ``OSError``, and the
  journal still holds the job as ``accepted``.
* A write inside a scheduler chunk (``chunk-dispatched``, a
  result-store append, ``point-done``): the points that chunk still
  owed fail with ``scheduler error: …``, and no ``completed`` record is
  written for their jobs.  A row whose store append raised is not
  served from memory either.

In every case the service latches ``degraded`` and ``faulted`` (through
``Scheduler.contain``) and stops ``serving``, so new submissions get
:class:`~repro.errors.BackpressureError`, and a restart on the same
directory re-admits every job the journal still holds as ``accepted``
and runs it.
"""

from __future__ import annotations

import importlib
import os
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..errors import CheckpointError
from ..runtime import trace
from ..runtime.checkpoint import JournalFile, RowStore, jsonable
from .jobs import Job, JobSpec

__all__ = [
    "JOURNAL_NAME",
    "RESULTS_NAME",
    "RecoveredState",
    "ServicePersistence",
    "rebuild_job",
]

JOURNAL_NAME = "journal.jsonl"
RESULTS_NAME = "results.jsonl"

_JOURNAL_HEADER = {"kind": "service-journal", "version": 1}
_RESULTS_HEADER = {"kind": "service-results", "version": 1}

_JOB_NUMBER = re.compile(r"^job-(\d+)$")


def _validate_journal_record(record: dict) -> None:
    if not isinstance(record.get("record"), str):
        raise TypeError("journal record has no 'record' kind")
    if not isinstance(record.get("job", ""), str):
        raise TypeError("journal 'job' is not a string")


# -- job spec round-trip ----------------------------------------------------


def _encode_fn(fn: Any) -> "tuple[str | None, str | None]":
    """``fn`` as an import path, or ``(None, reason)`` when unresumable."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname:
        return None, f"point function {fn!r} has no import path"
    if module == "__main__":
        return None, "point function lives in __main__ (not importable)"
    if "<" in qualname:  # <lambda>, <locals> closures
        return None, f"point function {qualname!r} is not importable by name"
    return f"{module}:{qualname}", None


def _import_fn(path: str) -> Any:
    module_name, _, qualname = path.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _encode_seed(seed: Any) -> "tuple[Any, str | None]":
    """The parent seed as JSON, or ``(None, reason)`` when unresumable."""
    if seed is None:
        return None, None
    if isinstance(seed, (bool, np.bool_)):
        return None, f"seed {seed!r} is not journal-resumable"
    if isinstance(seed, (int, np.integer)):
        return {"kind": "int", "value": int(seed)}, None
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        if not isinstance(entropy, int):
            return None, "SeedSequence entropy is not a plain integer"
        # the decoded parent starts with zero children spawned; job
        # resolution re-spawns the same family, and a parent the caller
        # had *already* spawned from before submitting is caught by the
        # rebuild fingerprint cross-check (children would diverge)
        return {
            "kind": "seedseq",
            "entropy": entropy,
            "spawn_key": [int(k) for k in seed.spawn_key],
        }, None
    return None, f"seed of type {type(seed).__name__} is not journal-resumable"


def _decode_seed(encoded: Any) -> Any:
    if encoded is None:
        return None
    if encoded["kind"] == "int":
        return int(encoded["value"])
    if encoded["kind"] == "seedseq":
        return np.random.SeedSequence(
            entropy=int(encoded["entropy"]),
            spawn_key=tuple(int(k) for k in encoded["spawn_key"]),
        )
    raise ValueError(f"unknown seed encoding {encoded!r}")


def encode_job(job: Job) -> dict:
    """The ``accepted`` journal record for one admitted job.

    Always written — even for jobs that cannot be resumed (lambda point
    functions, non-JSON parameters), which are recorded with
    ``resumable: false`` and the reason, so a recovery can report the
    loss instead of silently forgetting the job.
    """
    spec = job.spec
    record: dict = {
        "record": "accepted",
        "job": job.id,
        "experiment": spec.experiment,
        "retries": spec.retries,
        "retry_backoff": spec.retry_backoff,
        "timeout": spec.timeout,
        "fingerprints": [p.fingerprint for p in job.points],
    }
    reasons = []
    fn_path, why = _encode_fn(spec.fn)
    if why:
        reasons.append(why)
    record["fn"] = fn_path
    encoded_seed, why = _encode_seed(spec.seed)
    if why:
        reasons.append(why)
    record["seed"] = encoded_seed
    try:
        record["points"] = jsonable([dict(p) for p in spec.points])
    except CheckpointError as exc:
        record["points"] = None
        reasons.append(f"points are not JSON-round-trippable: {exc}")
    record["resumable"] = not reasons
    if reasons:
        record["reason"] = "; ".join(reasons)
    return record


def rebuild_job(record: Mapping) -> "tuple[Job | None, str | None]":
    """Reconstruct a :class:`Job` from its ``accepted`` journal record.

    Returns ``(job, None)`` on success or ``(None, reason)`` when the
    job cannot be resumed safely.  The rebuilt job's recomputed point
    fingerprints must equal the journaled ones — a divergence means the
    parameters or seed did not round-trip (or the code changed), and
    resuming would silently compute something else.
    """
    if not record.get("resumable"):
        return None, record.get("reason") or "journaled as not resumable"
    try:
        fn = _import_fn(record["fn"])
    except (ImportError, AttributeError, ValueError) as exc:
        return None, f"point function no longer importable: {exc}"
    try:
        seed = _decode_seed(record.get("seed"))
        spec = JobSpec(
            experiment=record["experiment"],
            fn=fn,
            points=tuple(dict(p) for p in record["points"]),
            seed=seed,
            retries=int(record.get("retries", 0)),
            retry_backoff=float(record.get("retry_backoff", 0.1)),
            timeout=record.get("timeout"),
        )
        job = Job(record["job"], spec)
    except Exception as exc:  # noqa: BLE001 - any rebuild fault => skip
        return None, f"job record does not rebuild: {exc!r}"
    if [p.fingerprint for p in job.points] != list(record["fingerprints"]):
        return None, (
            "recomputed point fingerprints diverge from the journal "
            "(parameters or seed did not round-trip); refusing to resume"
        )
    return job, None


# -- recovered state --------------------------------------------------------


@dataclass
class RecoveredState:
    """Everything :meth:`ServicePersistence.load` replayed from disk."""

    incomplete: list = field(default_factory=list)  # accepted records
    max_job_number: int = 0
    warnings: list = field(default_factory=list)
    quarantined: int = 0


class ServicePersistence:
    """The service's durable spine: journal + result store in one dir.

    :attr:`results` is the result store, a
    :class:`~repro.runtime.checkpoint.RowStore` the service also uses
    as its cache; :meth:`store_result` is its durable ``put``.  Opening
    heals any recoverable damage in both files (and surfaces it
    on the load warnings).  All append methods are thread-safe — the
    scheduler thread and API threads both write — and every append is
    fsync'd before it returns, so ``appended - fsynced`` (the *journal
    lag* reported by :meth:`stats`) is only ever non-zero transiently
    inside a call; a crash mid-append leaves at most one torn line.
    """

    def __init__(
        self,
        directory: str,
        tracer: "trace.Tracer | trace.NullTracer | None" = None,
    ):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self._tr = tracer if tracer is not None else trace.current()
        self._lock = threading.Lock()
        self.appended = 0
        self.fsynced = 0
        self._journal = JournalFile.open(
            os.path.join(directory, JOURNAL_NAME),
            header=_JOURNAL_HEADER,
            label="service journal",
            heal_hint="the affected lifecycle records are dropped",
            validate=_validate_journal_record,
        )
        try:
            self.results = RowStore.open(
                os.path.join(directory, RESULTS_NAME),
                key="fingerprint",
                header=_RESULTS_HEADER,
                label="service result store",
                heal_hint="the affected points will re-execute",
            )
        except BaseException:
            self._journal.close()  # a refused store leaks no handle
            raise

    # -- appends (write-ahead) ---------------------------------------------

    def _append(self, write, *args) -> Any:
        with self._lock:
            self.appended += 1
            self._tr.count("service.journal.appends")
            written = write(*args)
            self.fsynced += 1
        return written

    def record_accepted(self, job: Job) -> None:
        """Journal one admitted job *before* the scheduler sees it."""
        record = encode_job(job)
        if not record["resumable"]:
            self._tr.count("service.journal.unresumable")
            self._tr.warning(
                f"job {job.id} journaled as not resumable: "
                f"{record.get('reason')}",
                job=job.id,
            )
        self._append(self._journal.append, record)

    def record_dispatched(self, fingerprints: "list[str]") -> None:
        """Journal one scheduler chunk heading into execution."""
        self._append(
            self._journal.append,
            {
                "record": "chunk-dispatched",
                "n": len(fingerprints),
                "fingerprints": list(fingerprints),
            },
        )

    def record_point_done(self, fingerprint: str) -> None:
        """Journal one executed point — *after* its row hit the store."""
        self._append(
            self._journal.append,
            {"record": "point-done", "fingerprint": fingerprint},
        )

    def record_completed(self, job: Job) -> None:
        """Journal a job reaching ``done``/``failed``."""
        self._append(
            self._journal.append,
            {"record": "completed", "job": job.id, "state": job.state},
        )

    def record_cancelled(self, job: Job) -> None:
        """Journal a cancellation (a final state: never re-admitted)."""
        self._append(
            self._journal.append, {"record": "cancelled", "job": job.id}
        )

    def store_result(self, fingerprint: str, row: Mapping) -> dict:
        """The durable :meth:`RowStore.put` of one row into
        :attr:`results`; returns the normalized row."""
        clean = self._append(self.results.put, fingerprint, row)
        self._tr.count("service.journal.results")
        return clean

    # -- replay -------------------------------------------------------------

    def load(self) -> RecoveredState:
        """Replay the journal into the state a fresh service resumes from.

        The result store needs no replay: it was loaded when it opened.
        """
        state = RecoveredState(
            warnings=self._journal.warnings + self.results.warnings,
            quarantined=self._journal.quarantined + self.results.quarantined,
        )
        jobs: dict[str, dict] = {}
        final: set[str] = set()
        for lineno, record in self._journal.entries:
            kind = record["record"]
            if kind == "accepted":
                jobs[record["job"]] = record
                matched = _JOB_NUMBER.match(record["job"])
                if matched:
                    state.max_job_number = max(
                        state.max_job_number, int(matched.group(1))
                    )
            elif kind in ("completed", "cancelled"):
                final.add(record["job"])
            elif kind not in ("chunk-dispatched", "point-done"):
                state.warnings.append(
                    {
                        "line": lineno,
                        "reason": f"unknown journal record {kind!r} ignored",
                    }
                )
        state.incomplete = [
            record for job_id, record in jobs.items() if job_id not in final
        ]
        return state

    # -- observation --------------------------------------------------------

    def stats(self) -> dict:
        """Journal observability for :meth:`ResilienceService.status`."""
        with self._lock:
            return {
                "dir": self.directory,
                "appended": self.appended,
                "fsynced": self.fsynced,
                "lag": self.appended - self.fsynced,
                "stored_rows": len(self.results),
            }

    def close(self) -> None:
        self._journal.close()
        self.results.close()

    def __enter__(self) -> "ServicePersistence":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
