"""Resilience-as-a-service: the long-running front door to the runtime.

:class:`ResilienceService` wraps the batch machinery the repo already
trusts — the event-driven executor, the MAPE supervisor, checkpoint
fingerprints, the trace facade — into a submit/await/cancel service::

    from repro.service import ResilienceService

    with ResilienceService() as svc:
        job = svc.submit(
            "survival", measure, grid={"redundancy": [1, 2, 3]}, seed=7
        )
        job.wait()
        table = job.result().to_table()

Jobs accept the same grids, seeds, and fault-tolerance knobs as
:func:`repro.analysis.sweep.grid_sweep` (one shared submit path via
:func:`~repro.analysis.sweep.expand_grid`), return the same
:class:`~repro.analysis.sweep.SweepResult`, and stream per-job progress
events from the tracer into each job's ``events`` feed.

Constructor arguments:

=================  =====================================================
``workers``        worker processes (default 1 = inline; ``-1`` =
                   every core), kept from chunk to chunk.  Under a
                   supervisor with ``deadline_s`` the clamp
                   time-budgets every chunk, so even ``workers=1``
                   runs on a forked worker and rows must pickle
``batch``          points per scheduler chunk (default 256)
``service_dir``    directory for the crash-durable journal + result
                   store (default ``REPRO_SERVICE_DIR``; unset = fully
                   in-memory)
=================  =====================================================

At most :data:`MAX_PENDING` unfinished jobs are admitted before
backpressure (shed new work, finish promised work); the result cache
is unbounded.

Degradation contract: when the installed supervisor trips a breaker or
its ``deadline_s`` budget expires, new submissions raise
:class:`~repro.errors.BackpressureError` while every accepted job runs
to completion on the reference engines.  Accepted work is never
dropped, and the deadline rule is the batch sweep's: each attempt is
clamped to the budget left, and points whose chunk starts after it is
spent fail with ``supervisor deadline exceeded`` — the job ends
``failed``, never waiting unbounded.

Durability contract (``service_dir`` / ``REPRO_SERVICE_DIR`` set): a
job whose ``submit()`` returned is journaled before the scheduler sees
it, every executed row is fsync'd to the on-disk result store before
being journaled done, and :meth:`start` *recovers* before serving —
the journal replays, incomplete jobs are re-admitted (skipping
already-stored points, preserving twin dedupe), and completed/cancelled
jobs stay final.  ``cache`` is the result store itself
(``persistence.results``), so recovery copies no rows; without a
directory it is an in-memory :class:`~repro.runtime.checkpoint.RowStore`.
A ``submit`` whose ``accepted`` write raises admits nothing.  One
process per directory at a time; the knob unset changes nothing at all.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from ..analysis.sweep import expand_grid
from ..errors import BackpressureError, ConfigurationError, ServiceError
from ..rng import SeedLike
from ..runtime import supervisor as supervisor_module
from ..runtime import trace
from ..runtime.checkpoint import RowStore
from ..runtime.trace import Tracer
from .jobs import CANCELLED, DONE, FAILED, PENDING, RUNNING, Job, JobSpec
from .persistence import ServicePersistence, rebuild_job
from .scheduler import Scheduler

__all__ = ["MAX_PENDING", "ResilienceService"]

MAX_PENDING = 128  # unfinished jobs admitted before backpressure


class ResilienceService:
    """Async job-queue service over the fault-tolerant runtime.

    Under a supervisor deadline every chunk runs on a forked worker,
    ``workers=1`` included.  That is deliberate: an inline point that
    hangs cannot be pre-empted, so only a worker lets the deadline fail
    the chunk instead of wedging the scheduler.  The worker pool is
    kept from chunk to chunk, so isolation costs about 0.09 ms a point.
    The kernel counters a point records in its worker do not reach the
    service's tracer yet; they come back with the executor's
    cross-process telemetry (ROADMAP item 5).  See
    :mod:`repro.runtime.executor`.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        batch: int = 256,
        service_dir: Optional[str] = None,
    ):
        self.workers = workers
        self.batch = batch
        if service_dir is None:
            service_dir = os.environ.get("REPRO_SERVICE_DIR") or None
        self.service_dir = service_dir
        self.tracer = Tracer(keep_events=False)
        self.tracer.add_event_hook(self._route_event)
        self.persistence = (
            ServicePersistence(service_dir, tracer=self.tracer)
            if service_dir
            else None
        )
        self.recovery: Optional[dict] = None  # set by start() when durable
        # durable: the on-disk result store is the cache itself
        self.cache = (
            self.persistence.results if self.persistence else RowStore()
        )
        self.scheduler = Scheduler(
            self.cache,
            workers=self.workers,
            batch=self.batch,
            tracer=self.tracer,
            persistence=self.persistence,
        )
        # the ledger: every accepted job, in admission order.  It never
        # shrinks, so a get needs no lock; submit and scans hold _lock
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._counter = 0
        self._started = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ResilienceService":
        """Start the scheduler thread (idempotent)."""
        if self._closed:
            raise ServiceError("service is closed; create a new one")
        if not self._started:
            if self.persistence is not None:
                self._recover()
            self.scheduler.start()
            self._started = True
            self.tracer.event(
                "service.start", workers=self.workers, batch=self.batch
            )
        return self

    def _recover(self) -> None:
        """Replay the journal + result store before serving.

        Recovery reuses the *normal* admission machinery rather than a
        parallel replay path: the cache *is* the result store, loaded
        when it opened, so each incomplete job simply re-registers with
        the scheduler — its already-stored points fill as cache hits,
        points another recovered job owns attach as followers (twin
        dedupe survives the restart), and only genuinely missing points
        re-execute.
        """
        t0 = time.perf_counter()
        state = self.persistence.load()
        warmed = len(self.cache)
        self._counter = max(self._counter, state.max_job_number)
        recovered = skipped = 0
        replayed = deduped = rerun = 0
        for record in state.incomplete:
            job, reason = rebuild_job(record)
            if job is None:
                skipped += 1
                self.tracer.count("service.recover.skipped")
                self.tracer.warning(
                    f"journaled job {record.get('job')!r} not recovered: "
                    f"{reason}",
                    job=record.get("job"),
                )
                continue
            # the dead process's promise: backpressure applies to new
            # work only, so recovery inserts past MAX_PENDING
            self._jobs[job.id] = job
            split = self.scheduler.register(job)
            replayed += split["cached"]
            deduped += split["deduped"]
            rerun += split["fresh"]
            recovered += 1
            self.tracer.count("service.recover.jobs")
            if job.done:
                # every point was already stored: finalize durably now
                self.persistence.record_completed(job)
            self.tracer.event(
                "service.job.recovered", job=job.id, **split
            )
        elapsed = time.perf_counter() - t0
        self.recovery = {
            "jobs": recovered,
            "skipped": skipped,
            "points_replayed": replayed,
            "points_deduped": deduped,
            "points_rerun": rerun,
            "rows_warmed": warmed,
            "quarantined": state.quarantined,
            "warnings": len(state.warnings),
            "elapsed_s": elapsed,
        }
        self.tracer.record_timing("service.recover", elapsed)
        self.tracer.event("service.recover", **self.recovery)

    def close(
        self, *, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Shut down: drain accepted jobs (default) or cancel them."""
        if self._closed:
            return
        if self._started:
            jobs = [job for job in self.jobs() if not job.done]
            if drain:
                for job in jobs:
                    if not job.wait(timeout):
                        raise ServiceError(
                            f"job {job.id} still {job.state} after "
                            f"drain timeout {timeout}s"
                        )
            else:
                for job in jobs:
                    self.cancel(job.id)
            self.scheduler.stop(timeout=timeout)
        self._closed = True
        if self.persistence is not None:
            self.persistence.close()
        self.tracer.event("service.close", drained=drain)
        self.tracer.close()

    def __enter__(self) -> "ResilienceService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        # after an exception, cancel instead of drain — don't block the
        # unwinding thread on someone else's work
        self.close(drain=exc_info[0] is None)

    # -- submission --------------------------------------------------------

    def submit(
        self,
        experiment: str,
        fn: Callable[..., Mapping],
        *,
        grid: Optional[Mapping[str, Iterable]] = None,
        points: Optional[Sequence[Mapping]] = None,
        seed: SeedLike = None,
        retries: int = 0,
        retry_backoff: float = 0.1,
        timeout: Optional[float] = None,
    ) -> Job:
        """Accept one sweep job, or refuse it with backpressure.

        Exactly one of ``grid`` (expanded like :func:`grid_sweep`) or
        ``points`` (explicit parameter assignments) must be given.
        Points already in the result cache are served immediately;
        points identical to in-flight work attach to that execution.
        Raises :class:`BackpressureError` when the service is saturated
        or the runtime is degraded.  On a durable service a failing
        journal write re-raises its error and latches ``degraded`` (see
        the I/O-error policy in :mod:`repro.service.persistence`); when
        it is the ``accepted`` write, the job is not admitted.
        """
        if not self._started or self._closed:
            raise ServiceError(
                "service not serving; use `with ResilienceService() as svc`"
                " or call start()"
            )
        if (grid is None) == (points is None):
            raise ConfigurationError(
                "submit() needs exactly one of grid= or points="
            )
        if grid is not None:
            resolved = expand_grid(grid)
        else:
            resolved = [dict(p) for p in points]
            if not resolved:
                raise ConfigurationError("a job needs at least one point")
        if seed is not None and any("seed" in p for p in resolved):
            raise ConfigurationError(
                "point parameter 'seed' collides with the job's seed keyword"
            )
        spec = JobSpec(
            experiment=experiment,
            fn=fn,
            points=tuple(resolved),
            seed=seed,
            retries=retries,
            retry_backoff=retry_backoff,
            timeout=timeout,
        )
        with self._lock:
            self._counter += 1
            job = Job(f"job-{self._counter:06d}", spec)
            if self.degraded:
                raise BackpressureError(
                    "service is degraded (breaker tripped or deadline "
                    "budget spent); finishing accepted jobs on the "
                    "reference engines, rejecting new work"
                )
            pending = sum(1 for j in self._jobs.values() if not j.done)
            if pending >= MAX_PENDING:
                raise BackpressureError(
                    f"service is saturated: {pending} unfinished job(s) "
                    f">= MAX_PENDING={MAX_PENDING}; "
                    "resubmit after in-flight work drains"
                )
            if self.persistence is not None:
                # write-ahead: journaled before the ledger or the
                # scheduler sees it, so a failed write admits nothing
                self._write(self.persistence.record_accepted, job)
            self._jobs[job.id] = job
            self.tracer.count("service.jobs.accepted")
            self.tracer.event(
                "service.job.accepted",
                job=job.id,
                experiment=experiment,
                points=len(job.points),
            )
            split = self.scheduler.register(job)
        if job.done:
            # served entirely from the cache: no execution at all
            self.tracer.count("service.jobs.cache_served")
            self.tracer.event(f"service.job.{job.state}", job=job.id)
            if self.persistence is not None:
                self._write(self.persistence.record_completed, job)
        self.tracer.event("service.job.split", job=job.id, **split)
        return job

    def _write(self, record, job: Job) -> None:
        """One journal write outside a chunk: a raising write latches
        ``degraded``/``faulted`` through the scheduler, then re-raises."""
        try:
            record(job)
        except Exception as exc:
            self.scheduler.contain((), exc)
            raise

    # -- observation / control ---------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether new work is being shed (breaker trip or deadline)."""
        if self.scheduler.degraded:
            return True
        sup = supervisor_module.current()
        return bool(sup) and sup.degraded()

    def job(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job

    def jobs(self) -> list[Job]:
        """Every accepted job, in admission order."""
        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> bool:
        """Cancel one job; True iff it was still unfinished."""
        job = self.job(job_id)
        cancelled = job.cancel()
        if cancelled:
            self.scheduler.drop_followers(job)
            if self.persistence is not None:
                self._write(self.persistence.record_cancelled, job)
            self.tracer.count("service.jobs.cancelled")
            self.tracer.event("service.job.cancelled", job=job.id)
        return cancelled

    def status(self) -> dict:
        """One JSON-ready health snapshot of the whole service."""
        sup = supervisor_module.current()
        jobs = self.jobs()
        states = dict(Counter(job.state for job in jobs))
        return {
            "serving": (
                self._started
                and not self._closed
                and not self.scheduler.faulted
            ),
            "degraded": self.degraded,
            "jobs": states,
            "job_counts": {
                state: states.get(state, 0)
                for state in (PENDING, RUNNING, DONE, FAILED, CANCELLED)
            },
            "pending_jobs": sum(1 for job in jobs if not job.done),
            "backlog_points": self.scheduler.backlog(),
            "cache": self.cache.stats(),
            "journal": (
                self.persistence.stats()
                if self.persistence is not None
                else None
            ),
            "recovery": self.recovery,
            "supervisor": sup.summary() if sup else None,
            "counters": {
                name: count
                for name, count in sorted(self.tracer.counters.items())
                if name.startswith(("service.", "executor."))
            },
        }

    # -- event streaming ---------------------------------------------------

    def _route_event(self, record: dict) -> None:
        """Tracer hook: copy job-tagged events onto that job's feed.

        Reads the ledger without ``_lock``: ``submit`` emits events while
        holding it."""
        job_id = record.get("job")
        if not isinstance(job_id, str):
            return
        job = self._jobs.get(job_id)
        if job is not None:
            job.events.append(record)
