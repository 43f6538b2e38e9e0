"""Self-healing, observable execution layer (runtime lane).

The run layer under :mod:`repro.analysis.sweep` and the benchmark
harness, organized as the paper's §3.3 MAPE loop:

* **monitor** — tracing/metrics facade (:mod:`.trace`);
* **analyze/plan/execute** — the :mod:`.supervisor`: per-engine-family
  circuit breakers over the three engine seams (via the shared
  :mod:`.engines` registry), deterministic degradation to the reference
  object engines, deadline propagation, and a memory-budget guard;
* fault-tolerant execution — a per-thread pool of forked worker
  processes, kept across calls while the run state its workers
  inherited still holds, that retires any worker whose point fails,
  hangs or dies, with bounded retry and wall-time budgets
  (:mod:`.executor`);
* crash-safe persistence — one row store, in memory or on an atomic
  fsync'd JSONL file with corrupt-line quarantine, for sweep
  checkpoint/resume and the service's results (:mod:`.checkpoint`);
* validation — a deterministic chaos harness (:mod:`.chaos`) that turns
  the paper's own shock methodology on the runtime itself.
"""

from . import trace
from .checkpoint import RowStore, fingerprint, jsonable, point_fingerprint
from .engines import SEAMS, EngineSeam, resolve_engine_kind
from .executor import PointOutcome, PointTask, run_points
from .supervisor import Breaker, NullSupervisor, Supervisor
from .trace import NullTracer, Tracer

__all__ = [
    "Breaker",
    "EngineSeam",
    "NullSupervisor",
    "NullTracer",
    "PointOutcome",
    "PointTask",
    "SEAMS",
    "RowStore",
    "Supervisor",
    "Tracer",
    "fingerprint",
    "jsonable",
    "point_fingerprint",
    "resolve_engine_kind",
    "run_points",
    "trace",
]
