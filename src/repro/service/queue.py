"""Admission-controlled job ledger: backpressure before breakdown.

The queue is the service's *admission* surface, not its execution
order (the scheduler's work deque owns that): it tracks every accepted
job from submission to a final state, bounds how many may be unfinished
at once (:data:`MAX_PENDING`), and turns saturation into a loud
:class:`~repro.errors.BackpressureError` instead of unbounded queueing.

That refusal is the Cusick-survey ops view of resilience applied to the
service itself: a saturated or degraded system that keeps accepting
work converts its own overload into an outage for everyone; one that
sheds *new* work while finishing what it promised degrades gracefully.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..errors import BackpressureError
from .jobs import CANCELLED, DONE, FAILED, Job

__all__ = ["MAX_PENDING", "JobQueue"]

_FINAL = (DONE, FAILED, CANCELLED)
MAX_PENDING = 128  # unfinished jobs admitted before backpressure


class JobQueue:
    """Thread-safe registry of accepted jobs with bounded admission."""

    def __init__(self):
        self._jobs: dict[str, Job] = {}  # insertion-ordered ledger
        self._lock = threading.Lock()

    def admit(self, job: Job, *, degraded: bool = False) -> None:
        """Accept ``job`` or raise :class:`BackpressureError`.

        Refusal reasons, checked in order: the runtime is degraded (a
        tripped breaker or spent deadline — new work is shed while
        accepted work finishes on the reference engines), or the number
        of unfinished jobs has reached :data:`MAX_PENDING`.
        """
        with self._lock:
            if degraded:
                raise BackpressureError(
                    "service is degraded (breaker tripped or deadline "
                    "budget spent); finishing accepted jobs on the "
                    "reference engines, rejecting new work"
                )
            pending = sum(
                1 for j in self._jobs.values() if j.state not in _FINAL
            )
            if pending >= MAX_PENDING:
                raise BackpressureError(
                    f"service is saturated: {pending} unfinished job(s) "
                    f">= MAX_PENDING={MAX_PENDING}; "
                    "resubmit after in-flight work drains"
                )
            self._jobs[job.id] = job

    def restore(self, job: Job) -> None:
        """Re-admit a journal-recovered job, bypassing admission checks.

        Recovery honors the promise the dead process made when it
        accepted the job — backpressure applies to *new* work, never to
        work already acknowledged, so a restart with more incomplete
        jobs than :data:`MAX_PENDING` still re-admits all of them.
        """
        with self._lock:
            self._jobs[job.id] = job

    def discard(self, job: Job) -> None:
        """Un-admit a job whose admission could not be completed."""
        with self._lock:
            self._jobs.pop(job.id, None)

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every accepted job, in admission order."""
        with self._lock:
            return list(self._jobs.values())

    def unfinished(self) -> list[Job]:
        """Accepted jobs not yet in a final state, in admission order."""
        with self._lock:
            return [j for j in self._jobs.values() if j.state not in _FINAL]

    def pending(self) -> int:
        return len(self.unfinished())

    def states(self) -> dict:
        """Job count per state (for :meth:`ResilienceService.status`)."""
        counts: dict[str, int] = {}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
        return counts
