"""MAPE supervisor: self-healing execution on top of the trace monitor.

PR 2 shipped the *monitor* leg of the paper's §3.3 MAPE loop
(:mod:`repro.runtime.trace`); this module is the analyze/plan/execute
legs.  A :class:`Supervisor` holds one :class:`Breaker` (circuit
breaker) per engine family and watches the three engine seams through
:func:`repro.runtime.engines.resolve_engine_kind`:

* **analyze** — :meth:`Supervisor.is_engine_fault` classifies a failed
  sweep point: ``MemoryError``, a per-point wall-time timeout, a worker
  process that died without a result, or NaN-poisoned output are
  engine-attributable; ordinary worker exceptions are not (those are
  the retry budget's job).
* **plan** — an engine fault trips the breaker of every supervised
  family still resolving to a fast engine (attribution from outside a
  worker is conservative: correctness over speed).  A tripped family
  **degrades deterministically** to its reference fallback
  (``bit``/``tiled`` → ``object``, ``array``/``mmap`` → ``object``)
  for the remainder of the run —
  sound because PRs 1–4 pin the fast engines equivalent to the object
  engines, so rows computed before and after the trip agree with an
  all-object run.
* **execute** — the degradation is applied at two levels: in-process
  engine resolutions go through :meth:`resolve`, and the family's
  engine environment variable is pinned to the fallback so worker
  *subprocesses* forked after the trip inherit it.  The supervised
  sweep (:mod:`repro.analysis.sweep`) then re-runs the affected points
  once under the degraded engines.

Two pre-emptive guards ride along: a **deadline** (``deadline_s``)
bounds the whole supervised run — sweeps clamp their per-point timeout
to the remaining budget and refuse to launch once it is exhausted
(Kirigin et al.'s time-bounded recovery made operational) — and a
**memory budget** (``memory_budget_mb``, read through
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
``supervisor.poisoned`` (NaN-poisoned rows caught).  Counters live in the supervising process; worker subprocesses
have their own (discarded) tracers.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..errors import SupervisorError
from . import trace
from .engines import SEAMS

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

    Starts :data:`CLOSED` (fast engines allowed).  Each recorded engine
    fault increments ``failures``; at ``threshold`` the breaker opens
    and stays open for the supervisor's lifetime — there is no half-open
    probing state, because re-enabling a fast engine mid-run could make
    the run's rows depend on fault timing.  Degradation must be
    deterministic: once open, always open.
    """

    family: str
    threshold: int = 1
    failures: int = 0
    state: str = CLOSED
    reason: Optional[str] = None

    def record(self, reason: str) -> bool:
        """Record one engine fault; True iff this record opened it."""
        if self.state == OPEN:
            return False
        self.failures += 1
        if self.failures >= self.threshold:
            self.state = OPEN
            self.reason = reason
            return True
        return False


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

    def tripped_families(self) -> list:
        return []

    def deadline_exceeded(self) -> bool:
        return False

    def degraded(self) -> bool:
        return False


NULL = NullSupervisor()


class Supervisor:
    """Per-engine-family circuit breakers plus run-wide budgets.

    Parameters
    ----------
    families:
        The engine families this supervisor watches (default all three:
        ``agents``, ``networks``, ``csp``).  Faults only trip breakers
        of supervised families.
    failure_threshold:
        Engine faults needed to open a family's breaker (default 1:
        degrade on first blood — the degraded mode is equivalence-pinned
        correct, so there is no accuracy cost to tripping early).
    deadline_s:
        Optional wall-clock budget for the whole supervised run,
        measured from when the supervisor is installed with
        :func:`use`.  Supervised sweeps clamp per-point timeouts to the
        remaining budget and pre-empt points once it is exhausted.
    memory_budget_mb:
        Optional memory budget (MiB).  The CSP and network engines
        fold it into their block schedules (smaller blocks, never
        refusal).
    """

    def __init__(
        self,
        families: Sequence[str] = ("agents", "networks", "csp"),
        *,
        failure_threshold: int = 1,
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
        if failure_threshold < 1:
            raise SupervisorError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise SupervisorError(
                f"deadline_s must be > 0, got {deadline_s}"
            )
        if memory_budget_mb is not None and memory_budget_mb <= 0:
            raise SupervisorError(
                f"memory_budget_mb must be > 0, got {memory_budget_mb}"
            )
        self.families = tuple(dict.fromkeys(families))
        self.breakers = {
            f: Breaker(f, threshold=failure_threshold) for f in self.families
        }
        self.deadline_s = deadline_s
        self.memory_budget_mb = memory_budget_mb
        self._t0: Optional[float] = None  # set when installed via use()
        self._env_saved: dict[str, Optional[str]] = {}

    def __bool__(self) -> bool:
        return True

    # -- analyze -----------------------------------------------------------

    @staticmethod
    def is_engine_fault(
        error: Optional[str], exception: Optional[BaseException] = None
    ) -> bool:
        """Whether a point failure is engine-attributable (see module docs).

        Engine faults: out-of-memory, per-point timeout, and a worker
        process dying without a result (segfault/OOM-kill).  Ordinary
        exceptions raised by worker code are *not* engine faults — they
        are either bugs or transient, and the executor's retry budget
        already covers the latter.
        """
        if isinstance(exception, MemoryError):
            return True
        if not error:
            return False
        return (
            error.startswith("MemoryError")
            or "timed out after" in error
            or "worker process died" in error
        )

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

        On transition the family's engine environment variable is
        pinned to the fallback kind, so worker subprocesses forked
        afterwards inherit the degradation (in-process resolutions are
        covered by :meth:`resolve`).  The pin is restored when the
        supervisor is uninstalled.
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
            self._pin_env(family)
        return opened

    def record_fault(
        self, reason: str, exception: Optional[BaseException] = None
    ) -> list[str]:
        """Analyze+plan for one engine fault: trip every exposed family.

        A fault observed from outside a worker cannot be attributed to
        one engine, so every supervised family whose seam currently
        resolves to a *fast* kind is tripped (families already running
        their reference fallback cannot have caused it).  Returns the
        families whose breakers transitioned.
        """
        del exception  # classification already happened; kept for symmetry
        tripped = []
        for family in self.families:
            if self.breakers[family].state == OPEN:
                continue
            s = SEAMS[family]
            kind = os.environ.get(s.env_var) or s.default
            if kind in s.fast and self.trip(family, reason):
                tripped.append(family)
        return tripped

    def _pin_env(self, family: str) -> None:
        s = SEAMS[family]
        if s.env_var not in self._env_saved:
            self._env_saved[s.env_var] = os.environ.get(s.env_var)
        os.environ[s.env_var] = s.fallback

    def _restore_env(self) -> None:
        for var, value in self._env_saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
        self._env_saved.clear()

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

    On exit the previous supervisor is reinstated and any engine
    environment variables pinned by breaker trips are restored; breaker
    state itself is kept, so a supervisor re-installed for a follow-up
    sweep stays degraded — deterministic for the run, as promised.
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
    for family, breaker in sup.breakers.items():
        if breaker.state == OPEN:  # re-entry: re-pin surviving trips
            sup._pin_env(family)
    try:
        yield sup
    finally:
        _current = previous
        sup._restore_env()
