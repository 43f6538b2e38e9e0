"""Sharding scheduler: one thread, a worker pool, a dedupe ledger.

The scheduler turns accepted jobs into executed points:

* **registration** — at admission every resolved point is checked
  against the result cache (hit → the job is filled immediately) and
  against the *in-flight ledger*: a point whose fingerprint some other
  unfinished job already owns becomes a **follower** of that execution
  instead of a second copy of the work.  Only genuinely new points
  enter the work deque.
* **chunking** — the scheduler thread drains the work deque in FIFO
  chunks of up to ``batch`` points sharing one :class:`JobSpec` (points
  of one job are contiguous, so chunks are per-job slices), keeping
  cancellation and progress streaming responsive even for huge jobs.
* **execution** — each chunk runs through the event-driven
  :func:`repro.runtime.executor.run_points` loop, sharded over
  ``workers`` processes (``workers == 1`` with no timeout runs inline —
  zero fork overhead for cheap points).  The scheduler thread's worker
  pool is kept from chunk to chunk while its key holds and is stopped
  when the loop ends.  Under an installed supervisor
  ``run_points`` gives the chunk the same MAPE pass batch sweeps get:
  engine faults trip breakers, suspect points re-run once on the
  reference engines, and the ``deadline_s`` budget clamps every attempt
  — so with a deadline every chunk is time-budgeted and runs on a
  forked worker, even at ``workers == 1``, and its rows must be
  picklable.
* **fan-out** — a completed point's row is put into the cache (a
  :class:`~repro.runtime.checkpoint.RowStore`, normalized like a sweep
  checkpoint row) and fanned out to *every* follower job; a failure
  fans out as a per-job :class:`~repro.analysis.sweep.PointFailure`
  (and is never cached, mirroring the checkpoint rule).

Graceful degradation: the moment the supervisor reports a tripped
breaker or a spent ``deadline_s`` budget, the scheduler latches its
``degraded`` flag — the admission path starts rejecting new jobs with
backpressure — but keeps draining accepted work (on the reference
engines the supervisor degraded to).  Accepted jobs are never dropped:
a chunk that starts after the budget is spent is not run, and its
points fail explicitly with ``supervisor deadline exceeded``.  A chunk
that raises (a journal write failing, say) fails the points it still
owned with the cause, marks their jobs degraded and latches ``degraded``
and ``faulted`` (``status()["serving"]`` turns false); the loop keeps
draining, so no accepted job is left waiting on a dead thread.

With a :class:`~repro.service.persistence.ServicePersistence` attached
the cache is its result store and the loop is also the journal's
execution writer: each chunk is journaled ``chunk-dispatched`` before
it runs, each executed row is put durably (``store_result``) *before*
its ``point-done`` record, and jobs reaching
``done``/``failed`` get a ``completed`` record — the write ordering the
crash-recovery contract (see :mod:`repro.service.persistence`) rests on.
"""

from __future__ import annotations

import threading
import traceback as tb_module
from collections import deque
from typing import Optional, Sequence

from ..analysis.sweep import _merge_row, _run_grid_point
from ..errors import CheckpointError, ConfigurationError
from ..runtime import supervisor as supervisor_module
from ..runtime import trace
from ..runtime.checkpoint import RowStore
from ..runtime.executor import PointTask, close_pool, run_points
from .jobs import DONE, FAILED, Job, JobPoint, JobSpec

__all__ = ["Scheduler"]


class Scheduler:
    """Owns the work deque, the in-flight ledger, and the loop thread."""

    def __init__(
        self,
        cache: RowStore,
        *,
        workers: int = 1,
        batch: int = 256,
        tracer: "trace.Tracer | trace.NullTracer | None" = None,
        persistence=None,
    ):
        if workers < 1 and workers != -1:
            raise ConfigurationError(
                f"workers must be >= 1 or -1 (all cores), got {workers}"
            )
        if batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
        self.cache = cache  # persistence.results when durable
        self.persistence = persistence  # ServicePersistence | None
        self.workers = workers
        self.batch = batch
        self.degraded = False  # latched on first supervisor degradation
        self.faulted = False  # latched when a raising chunk is contained
        self._tr = tracer if tracer is not None else trace.current()
        self._cond = threading.Condition()
        # unique points awaiting execution, with the registering job's spec
        self._work: "deque[tuple[JobSpec, JobPoint]]" = deque()
        # fingerprint -> [(job, point index), ...]; list[0] registered it
        self._wanted: dict[str, list[tuple[Job, int]]] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="repro-service-scheduler", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: Optional[float] = None) -> None:
        """Stop the loop promptly (drain by waiting on jobs *first*)."""
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    # -- registration (API thread) -----------------------------------------

    def register(self, job: Job) -> dict:
        """Resolve a freshly admitted job against cache and in-flight work.

        Cache hits fill the job immediately; fingerprints already owned
        by an unfinished execution attach the job as a follower; the
        rest enter the work deque.  Returns the split for telemetry.
        """
        hits = followers = fresh = 0
        with self._cond:
            for point in job.points:
                row = self.cache.get(point.fingerprint)
                if row is not None:
                    self._tr.count("service.cache.hits")
                    job.fill(point.index, row, source="cache")
                    hits += 1
                    continue
                self._tr.count("service.cache.misses")
                wanted = self._wanted.get(point.fingerprint)
                if wanted:
                    wanted.append((job, point.index))
                    self._tr.count("service.points.deduped")
                    followers += 1
                    continue
                self._wanted[point.fingerprint] = [(job, point.index)]
                self._work.append((job.spec, point))
                fresh += 1
            if fresh:
                self._cond.notify_all()
        return {"cached": hits, "deduped": followers, "fresh": fresh}

    def drop_followers(self, job: Job) -> None:
        """Detach a cancelled job from every point it was waiting on.

        Points left with no followers are skipped (and counted) when
        the chunk builder reaches them; points other jobs still
        want keep executing for those jobs.
        """
        with self._cond:
            for entries in self._wanted.values():
                entries[:] = [(j, i) for j, i in entries if j is not job]

    def backlog(self) -> int:
        with self._cond:
            return len(self._work)

    # -- the loop ----------------------------------------------------------

    def _loop(self) -> None:
        try:
            while True:
                chunk = self._next_chunk()
                if chunk is None:
                    return
                spec, points = chunk
                try:
                    self._run_chunk(spec, points)
                except Exception as exc:  # noqa: BLE001 - contained here
                    self.contain(points, exc)
        finally:
            # stop this thread's workers before stop() returns, not
            # whenever the interpreter frees the thread's locals
            close_pool()

    def contain(self, points: "Sequence[JobPoint]", exc: Exception) -> None:
        """Fail the points a raising chunk still owned (none for a write
        outside a chunk), latch degraded and faulted, and let the loop
        keep draining.  Persistence (maybe what raised) is not touched
        again."""
        error = f"scheduler error: {type(exc).__name__}: {exc}"
        formatted = tb_module.format_exc()
        # latched before any job fails, so a waiter sees the service state
        self.degraded = self.faulted = True
        self._tr.count("service.scheduler.errors")
        self._tr.event("service.scheduler.error", error=error)
        owed = [entry for p in points for entry in self._take(p.fingerprint)]
        for job, index in owed:
            job.mark_degraded()
            job.fail(index, error=error, traceback=formatted, attempts=1)

    def _next_chunk(self) -> "tuple[JobSpec, list[JobPoint]] | None":
        """Up to ``batch`` head-of-queue points sharing one spec; the jobs
        waiting on them are marked running."""
        with self._cond:
            while True:
                if self._stop.is_set():
                    return None
                points: list[JobPoint] = []
                spec: Optional[JobSpec] = None
                while self._work and len(points) < self.batch:
                    head_spec, point = self._work[0]
                    wanted = self._wanted.get(point.fingerprint)
                    if not wanted:
                        # every requester cancelled before execution
                        self._work.popleft()
                        self._wanted.pop(point.fingerprint, None)
                        self._tr.count("service.points.dropped")
                        continue
                    if spec is None:
                        spec = head_spec
                    elif head_spec is not spec:
                        break  # next job's points: keep chunks per-spec
                    self._work.popleft()
                    points.append(point)
                    for job, _ in wanted:
                        job.mark_running()
                if points:
                    return spec, points  # type: ignore[return-value]
                self._cond.wait()

    def _check_degraded(self) -> None:
        sup = supervisor_module.current()
        if self.degraded or not sup or not sup.degraded():
            return
        self.degraded = True
        self._tr.count("service.degraded")
        self._tr.event(
            "service.degraded",
            families=sup.tripped_families(),
            deadline_exceeded=sup.deadline_exceeded(),
        )

    def _run_chunk(self, spec: JobSpec, points: list[JobPoint]) -> None:
        self._tr.count("service.chunks")
        if self.persistence:
            self.persistence.record_dispatched(
                [point.fingerprint for point in points]
            )
        tasks = [
            PointTask(index=i, value=point.params, seed=point.seed)
            for i, point in enumerate(points)
        ]
        outcomes = run_points(
            _run_grid_point,
            spec.fn,
            tasks,
            n_jobs=self.workers,
            retries=spec.retries,
            backoff=spec.retry_backoff,
            timeout=spec.timeout,
            tracer=self._tr,
        )
        self._check_degraded()
        # the jobs this chunk filled or failed, a twin that attached
        # while it ran included, in first-touched order
        touched: dict[Job, None] = {}
        for point, outcome in zip(points, outcomes):
            if outcome.ok:
                # stored even if every requester cancelled mid-chunk: a
                # row that arrives after a cancel still feeds the cache
                followers = self._resolve_ok(point, outcome.value)
            else:
                followers = self._fail(
                    point.fingerprint, outcome.error, outcome.traceback,
                    outcome.attempts,
                )
                if followers:
                    self._tr.count("service.points.failed")
            touched.update(dict.fromkeys(job for job, _ in followers))
        for job in touched:
            if self.degraded:
                job.mark_degraded()
            self._tr.event("service.job.progress", **job.progress())
            if job.done:
                self._tr.event(f"service.job.{job.state}", job=job.id)
                if self.persistence and job.state in (DONE, FAILED):
                    # cancellations are journaled by the cancel() path
                    self.persistence.record_completed(job)

    def _take(self, fingerprint: str) -> list[tuple[Job, int]]:
        """Pop every job still waiting on one point."""
        with self._cond:
            return self._wanted.pop(fingerprint, [])

    def _fail(self, fingerprint: str, error: str, traceback=None,
              attempts=1) -> list[tuple[Job, int]]:
        """Fail one point for every job still waiting on it."""
        followers = self._take(fingerprint)
        for job, index in followers:
            job.fail(index, error=error, traceback=traceback,
                     attempts=attempts)
        return followers

    def _resolve_ok(self, point: JobPoint, value) -> list[tuple[Job, int]]:
        self._tr.count("service.points.executed")
        try:
            row = _merge_row(point.params, value, "parameters")
        except ConfigurationError as exc:
            return self._fail(point.fingerprint, str(exc))
        # durable, the put is the result-store append, made before the
        # point is journaled done: a 'point-done' record always names a
        # durable row, and a row whose append raised is never cached
        put = (
            self.persistence.store_result if self.persistence
            else self.cache.put
        )
        try:
            row = put(point.fingerprint, row)
        except CheckpointError:
            # row not JSON-normalizable: usable by this job, not storable
            self._tr.count("service.cache.uncacheable")
        else:
            self._tr.count("service.cache.stores")
            if self.persistence:
                self.persistence.record_point_done(point.fingerprint)
        # taken only now: if a write above raised, the followers are
        # still owed and the loop fails them
        followers = self._take(point.fingerprint)
        for pos, (job, index) in enumerate(followers):
            job.fill(
                index,
                dict(row),
                source="executed" if pos == 0 else "dedup",
            )
        return followers
