"""MAPE supervisor: self-healing execution on top of the trace monitor.

PR 2 shipped the *monitor* leg of the paper's §3.3 MAPE loop
(:mod:`repro.runtime.trace`); this module is the analyze/plan/execute
legs.  A :class:`Supervisor` holds one :class:`Breaker` (circuit
breaker) per engine family and watches the three engine seams through
:func:`repro.runtime.engines.resolve_engine_kind`:

* **analyze** — :meth:`Supervisor.is_engine_fault` classifies a failed
  sweep point: ``MemoryError``, a per-point wall-time timeout, a worker
  process that died without a result, or NaN-poisoned output are
  engine-attributable; any other exception a point raises is not,
  whatever its message says (those are the retry budget's job).
* **plan** — an engine fault trips the breaker of every supervised
  family still resolving to a fast engine (attribution from outside a
  worker is conservative: correctness over speed).  Every seam
  defaults to its fast kind, so unless the caller pins ``object`` for
  some families, one engine fault trips every supervised family.  A
  tripped family **degrades deterministically** to ``object`` for the
  remainder of the run —
  sound because PRs 1–4 pin the fast engines equivalent to the object
  engines, so rows computed before and after the trip agree with an
  all-object run.
* **execute** — every engine resolution goes through :meth:`resolve`,
  the only degradation path.  Worker processes are forked by the
  executor (:mod:`repro.runtime.executor`), so a worker forked after
  the trip inherits the installed supervisor, breakers included, and
  resolves the same degraded kind; the environment is never rewritten.
  :func:`repro.runtime.executor.run_points` — the one execution path of
  sweeps and the service — then re-runs the affected points once, in a
  freshly forked pool, under the degraded engines.

Two pre-emptive guards ride along: a **deadline** (``deadline_s``)
bounds the whole supervised run — every ``run_points`` batch clamps its
per-attempt timeout to the remaining budget and fails its points
unstarted once it is exhausted (Kirigin et al.'s time-bounded recovery
made operational) — and a **memory budget** (``memory_budget_mb``, read through
:meth:`Supervisor.memory_budget_bytes`).  The CSP and network engines
derive their block size from the budget instead of refusing
(:func:`repro.csp.tiledengine.derive_block_bits`,
:func:`repro.networks.arraygraph.derive_chunk_elems`), so an over-budget
problem is *scheduled* in more, smaller blocks rather than degraded to
the object kernels.

A module-level *current supervisor* (:func:`current` / :func:`use`)
mirrors the tracer facade: the default :data:`NULL` supervisor passes
every resolution through unchanged, so unsupervised runs pay nothing.

Trace counters: ``supervisor.trips`` (breaker transitions),
``supervisor.degradations`` (fast→fallback substitutions, counted once
per family at trip time and once per in-process degraded resolution),
``supervisor.reruns`` (points re-executed degraded), and
``supervisor.poisoned`` (NaN-poisoned rows caught).  Counters live in
the supervising process; worker processes have their own (discarded)
tracers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..errors import SupervisorError
from . import trace
from .engines import SEAMS, requested_kind

__all__ = [
    "CLOSED",
    "NULL",
    "OPEN",
    "Breaker",
    "NullSupervisor",
    "Supervisor",
    "current",
    "use",
]

CLOSED = "closed"
OPEN = "open"


@dataclass
class Breaker:
    """Circuit breaker for one engine family.

    Starts :data:`CLOSED` (fast engines allowed).  The first recorded
    engine fault opens it — degrade on first blood: the degraded mode is
    equivalence-pinned correct, so tripping early costs no accuracy —
    and it stays open for the supervisor's lifetime.  There is no
    half-open probing state, because re-enabling a fast engine mid-run
    could make the run's rows depend on fault timing.  Degradation must
    be deterministic: once open, always open.
    """

    family: str
    failures: int = 0
    state: str = CLOSED
    reason: Optional[str] = None

    def record(self, reason: str) -> bool:
        """Record one engine fault; True iff this record opened it."""
        if self.state == OPEN:
            return False
        self.failures += 1
        self.state = OPEN
        self.reason = reason
        return True


class NullSupervisor:
    """No-op supervisor: resolutions pass through, nothing trips.

    Falsy (``bool(NULL) is False``) so call sites can guard supervised
    work with ``if supervisor.current(): ...``.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def resolve(self, family: str, kind: str) -> str:
        return kind

    def peek(self, family: str, kind: str) -> str:
        return kind

    def memory_budget_bytes(self) -> Optional[int]:
        return None


NULL = NullSupervisor()


class Supervisor:
    """Per-engine-family circuit breakers plus run-wide budgets.

    Parameters
    ----------
    families:
        The engine families this supervisor watches (default all three:
        ``agents``, ``networks``, ``csp``).  Faults only trip breakers
        of supervised families: on the fast defaults, all of them.
    deadline_s:
        Optional wall-clock budget for the whole supervised run,
        measured from when the supervisor is installed with
        :func:`use`.  Supervised batches (sweeps and service chunks)
        clamp per-attempt timeouts to the remaining budget and pre-empt
        points once it is exhausted.
    memory_budget_mb:
        Optional memory budget (MiB).  The CSP and network engines
        fold it into their block schedules (smaller blocks, never
        refusal).
    """

    def __init__(
        self,
        families: Sequence[str] = ("agents", "networks", "csp"),
        *,
        deadline_s: Optional[float] = None,
        memory_budget_mb: Optional[float] = None,
    ):
        unknown = [f for f in families if f not in SEAMS]
        if unknown:
            raise SupervisorError(
                f"unknown engine families {unknown}; "
                f"valid families: {sorted(SEAMS)}"
            )
        if not families:
            raise SupervisorError("supervisor needs at least one family")
        if deadline_s is not None and deadline_s <= 0:
            raise SupervisorError(
                f"deadline_s must be > 0, got {deadline_s}"
            )
        if memory_budget_mb is not None and memory_budget_mb <= 0:
            raise SupervisorError(
                f"memory_budget_mb must be > 0, got {memory_budget_mb}"
            )
        self.families = tuple(dict.fromkeys(families))
        self.breakers = {f: Breaker(f) for f in self.families}
        self.deadline_s = deadline_s
        self.memory_budget_mb = memory_budget_mb
        self._t0: Optional[float] = None  # set when installed via use()

    def __bool__(self) -> bool:
        return True

    # -- analyze -----------------------------------------------------------

    @staticmethod
    def is_engine_fault(
        error: Optional[str], exception: Optional[BaseException] = None
    ) -> bool:
        """Whether a point failure is engine-attributable (see module docs).

        Engine faults are what the executor itself reports: its own
        per-point timeout or a worker process dying without a result
        (segfault/OOM-kill), neither of which carries an exception, and
        a ``MemoryError``.  Any other exception the point raised is *not*
        one, whatever its message says — it is a bug or transient, and
        the executor's retry budget already covers the latter.  An
        exception that could not cross the worker pipe arrives as its
        ``"Name: message"`` text alone and is judged by its name.
        """
        if exception is not None:
            return isinstance(exception, MemoryError)
        if not error:
            return False
        name, sep, _ = error.partition(": ")
        if sep and name.isidentifier():
            return name == "MemoryError"
        return "timed out after" in error or "worker process died" in error

    # -- plan / execute ----------------------------------------------------

    def resolve(self, family: str, kind: str) -> str:
        """The engine kind to actually use (execute leg of the seam).

        While ``family``'s breaker is open, fast kinds resolve to the
        family's reference fallback and ``supervisor.degradations`` is
        counted; everything else passes through unchanged.
        """
        degraded = self.peek(family, kind)
        if degraded != kind:
            trace.current().count("supervisor.degradations")
        return degraded

    def peek(self, family: str, kind: str) -> str:
        """:meth:`resolve` without counters — for introspection only."""
        breaker = self.breakers.get(family)
        if breaker is not None and breaker.state == OPEN:
            s = SEAMS[family]
            if kind in s.fast:
                return s.fallback
        return kind

    def trip(self, family: str, reason: str) -> bool:
        """Open one family's breaker; True iff it transitioned just now.

        The breaker is the whole effect: resolutions degrade through
        :meth:`resolve` while this supervisor is installed, in this
        process and in workers forked from it afterwards.
        """
        if family not in self.breakers:
            raise SupervisorError(
                f"family {family!r} is not supervised "
                f"(supervising {list(self.families)})"
            )
        opened = self.breakers[family].record(reason)
        if opened:
            tr = trace.current()
            tr.count("supervisor.trips")
            tr.count("supervisor.degradations")
            tr.event("supervisor.trip", family=family, reason=reason)
        return opened

    def exposed_families(self) -> list[str]:
        """Families an engine fault could come from: breaker closed and
        seam requesting a fast kind (families already on their reference
        fallback cannot have caused it)."""
        return [
            f
            for f in self.families
            if self.breakers[f].state == CLOSED
            and requested_kind(f) in SEAMS[f].fast
        ]

    def record_fault(self, reason: str) -> list[str]:
        """Analyze+plan for one engine fault: trip every exposed family.

        A fault observed from outside a worker cannot be attributed to
        one engine, so every exposed family is tripped.  Returns the
        families whose breakers transitioned.
        """
        return [f for f in self.exposed_families() if self.trip(f, reason)]

    # -- budgets -----------------------------------------------------------

    def remaining_s(self) -> Optional[float]:
        """Seconds left of the deadline (None without one).

        Before the supervisor is installed the full budget remains.
        """
        if self.deadline_s is None:
            return None
        if self._t0 is None:
            return self.deadline_s
        return self.deadline_s - (time.monotonic() - self._t0)

    def memory_budget_bytes(self) -> Optional[int]:
        """The memory budget in bytes (None when unbounded).

        One budget, consumed per family: the CSP engine and the network
        engine fold it into their block schedules
        (:func:`repro.csp.tiledengine.derive_block_bits`,
        :func:`repro.networks.arraygraph.derive_chunk_elems`) — smaller
        blocks, never a refusal or a spill to disk.
        """
        if self.memory_budget_mb is None:
            return None
        return int(self.memory_budget_mb * 1024 * 1024)

    # -- health ------------------------------------------------------------

    def tripped_families(self) -> list[str]:
        """Families whose breakers are open, in supervision order."""
        return [f for f in self.families if self.breakers[f].state == OPEN]

    def deadline_exceeded(self) -> bool:
        """Whether the run-wide ``deadline_s`` budget is spent."""
        remaining = self.remaining_s()
        return remaining is not None and remaining <= 0

    def degraded(self) -> bool:
        """Whether the runtime is running in a degraded mode.

        True once any supervised breaker is open or the deadline budget
        is exhausted — the signal the service layer uses to start
        shedding *new* work while in-flight work finishes on the
        reference engines (graceful degradation, not an outage).
        """
        return bool(self.tripped_families()) or self.deadline_exceeded()

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        """Breaker states as one JSON-ready mapping."""
        return {
            family: {
                "state": b.state,
                "failures": b.failures,
                "reason": b.reason,
            }
            for family, b in self.breakers.items()
        }


_current: "NullSupervisor | Supervisor" = NULL


def current() -> "NullSupervisor | Supervisor":
    """The active supervisor (the no-op :data:`NULL` unless :func:`use`-d)."""
    return _current


@contextmanager
def use(sup: Supervisor) -> Iterator[Supervisor]:
    """Install ``sup`` for a ``with`` block (starts its deadline clock).

    On exit the previous supervisor is reinstated.  Breaker state is
    kept, so a supervisor re-installed for a follow-up sweep stays
    degraded — deterministic for the run, as promised.
    """
    global _current
    if not isinstance(sup, Supervisor):
        raise SupervisorError(
            f"use() needs a Supervisor, got {type(sup).__name__}"
        )
    previous = _current
    _current = sup
    if sup._t0 is None:
        sup._t0 = time.monotonic()
    try:
        yield sup
    finally:
        _current = previous
