"""Resilience-as-a-service: async job queue over the MAPE runtime.

The service lane (ops-view resilience, per the Cusick survey): a
long-running layer that accepts sweep/experiment submissions as jobs,
shards their points across a worker pool through the event-driven
executor, dedupes identical ``(experiment, params, seed)`` requests
against a content-addressed result cache (a
:class:`~repro.runtime.checkpoint.RowStore` keyed by point fingerprint,
the on-disk result store itself when durable) and against in-flight
work, streams per-job progress from the trace facade, and sheds new
work with backpressure — never accepted work — when the supervisor
trips a breaker or a deadline budget expires.

* :mod:`.api` — :class:`ResilienceService`: submit/await/cancel/status,
  the job ledger and its backpressure bound (``MAX_PENDING``);
* :mod:`.jobs` — the job model (resolution, states, results);
* :mod:`.scheduler` — chunked sharding, in-flight dedupe, MAPE pass;
* :mod:`.persistence` — crash durability: write-ahead job journal +
  on-disk result store (``REPRO_SERVICE_DIR``), reloaded on restart;
* :mod:`.loadtest` — the R02 load drill (thousands of concurrent
  points, dedupe/caching/degradation acceptance checks);
* :mod:`.crashdrill` — the R03 crash drill (SIGKILL mid-load + mid-
  journal-write, recover, prove nothing was lost or duplicated).
"""

from .api import ResilienceService
from .jobs import CANCELLED, DONE, FAILED, PENDING, RUNNING, Job, JobSpec
from .persistence import RecoveredState, ServicePersistence
from .scheduler import Scheduler

__all__ = [
    "CANCELLED",
    "DONE",
    "FAILED",
    "Job",
    "JobSpec",
    "PENDING",
    "RUNNING",
    "RecoveredState",
    "ResilienceService",
    "Scheduler",
    "ServicePersistence",
]
