"""Fault-tolerant point executor: isolation, retries, wall-time budgets.

This is the execution layer under :mod:`repro.analysis.sweep` and the
:mod:`repro.service` scheduler.  Each *point* (one parameter-grid
evaluation) runs in isolation: an exception, a hung worker, or a hard
process death yields a :class:`PointOutcome` carrying the exception, its
formatted traceback, and how many attempts were made — instead of
aborting the whole sweep.  Failed points retry up to ``retries`` times
with exponential backoff (``backoff * 2**k``), and each attempt is
bounded by ``timeout`` seconds of wall time.

Two execution paths share the same outcome contract:

* **in-process** — ``n_jobs == 1`` and no timeout: points run serially
  in the caller's process (closures allowed, zero fork overhead);
* **worker pool** — parallel or time-budgeted points run in a pool of
  at most ``min(n_jobs, len(tasks))`` forked worker processes that
  lives for one :func:`run_points` call.  Tasks, ``worker`` and ``fn``
  are inherited through fork; only a task index crosses the pipe
  inward, and the ``("ok", …)`` / ``("err", …)`` result comes back.
  Points of one call may share a worker process, as they share the
  caller's process on the inline path.  A worker is retired — and a
  fresh one forked in its place when work remains — after any non-ok
  outcome: an exception, an unpicklable result, death, or a timeout.
  So a hung or crashed point costs one process, never the run, and a
  retry never runs in the process that failed.

The pool loop is *event-driven*: it blocks in
:func:`multiprocessing.connection.wait` on every busy worker's pipe and
process sentinel, waking only when a result arrives, a worker dies, a
per-attempt deadline expires, or — while a slot is free — a backed-off
retry becomes eligible.  Idle waiting therefore costs ~0 CPU, and a
finished point is harvested as soon as the kernel signals it.  Reaping
a timed-out worker is bounded too: ``terminate()`` (SIGTERM) is given
``_TERM_GRACE_S`` seconds to work, then escalates to ``kill()`` (SIGKILL)
— a worker that blocks or ignores SIGTERM cannot wedge the run.

Under an installed :class:`~repro.runtime.supervisor.Supervisor`,
:func:`run_points` is also where the paper's §3.3 MAPE loop runs, once
for sweeps and the service alike (:func:`_supervise`).  A batch that
starts after the run budget (``deadline_s``) is spent is pre-empted;
otherwise each attempt's timeout is clamped to the budget left.  Engine
faults and NaN-poisoned rows trip the exposed breakers, and the suspect
points re-run once on the degraded engines.  An engine fault is not
retried in place while some family can still be degraded: retrying it
on the same fast engine would only fail again (a hang costs a second
full timeout).
"""

from __future__ import annotations

import math
import multiprocessing as mp
import time
import traceback as tb_module
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..errors import ConfigurationError, ExecutionError
from . import supervisor as supervisor_module
from . import trace

__all__ = ["PointOutcome", "PointTask", "run_points"]

_IDLE_TICK_S = 0.5  # defensive cap on one wait(); sentinel wakeups make
#                     a full tick rare (it only bounds damage if a pipe
#                     or sentinel is ever missed, never the hot path)
_TERM_GRACE_S = 5.0  # SIGTERM -> SIGKILL escalation grace
_STOP = None  # the message that ends an idle worker's loop


@dataclass(frozen=True)
class PointTask:
    """One unit of work: ``worker(fn, value, seed)`` at a sweep index."""

    index: int
    value: Any
    seed: Any = None


@dataclass
class PointOutcome:
    """What happened to one point after all attempts."""

    index: int
    ok: bool
    value: Any = None
    error: str | None = None  # "ValueError: boom" / "timed out after 2.0s"
    exception: BaseException | None = None  # original, when transferable
    traceback: str | None = None
    attempts: int = 1
    elapsed_s: float = 0.0  # wall time of the *final* attempt only

    def reraise(self) -> None:
        """Re-raise the original exception (or an :class:`ExecutionError`
        wrapping the remote traceback when the original was lost)."""
        if self.ok:
            return
        if self.exception is not None:
            raise self.exception
        detail = f"\n--- worker traceback ---\n{self.traceback}" \
            if self.traceback else ""
        raise ExecutionError(
            f"point {self.index} failed after {self.attempts} attempt(s): "
            f"{self.error}{detail}"
        )


@dataclass
class _Attempt:
    task: PointTask
    attempt: int = 1
    eligible_at: float = 0.0  # monotonic time before which it must wait


def run_points(
    worker: Callable,
    fn: Callable,
    tasks: Sequence[PointTask],
    *,
    n_jobs: int = 1,
    retries: int = 0,
    backoff: float = 0.1,
    timeout: float | None = None,
    tracer: trace.Tracer | trace.NullTracer | None = None,
) -> list[PointOutcome]:
    """Run every task through ``worker(fn, value, seed)``; never raises
    for worker failures — inspect the returned outcomes.

    Outcomes come back in task order.  ``retries`` is the number of
    *re*-attempts after the first failure; ``timeout`` bounds each
    attempt's wall time (requires worker-process isolation, which is
    chosen automatically).  ``n_jobs == -1`` uses every core.  Under an
    installed supervisor the batch gets the MAPE pass (module docs).
    """
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if backoff < 0:
        raise ConfigurationError(f"backoff must be >= 0, got {backoff}")
    if timeout is not None and timeout <= 0:
        raise ConfigurationError(f"timeout must be > 0, got {timeout}")
    workers = _workers(n_jobs)
    tr = tracer if tracer is not None else trace.current()
    if not tasks:
        return []
    sup = supervisor_module.current()

    def execute(batch, timeout):
        if workers == 1 and timeout is None:
            return [
                _run_inline(worker, fn, task, retries, backoff, tr, sup)
                for task in batch
            ]
        return _run_isolated(
            worker, fn, batch, workers, retries, backoff, timeout, tr, sup
        )

    if sup:
        return _supervise(sup, execute, tasks, timeout, tr)
    return execute(tasks, timeout)


def _nonfinite(value) -> bool:
    """Whether a worker result contains any non-finite float (NaN/Inf)."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind == "f" and not bool(np.isfinite(value).all())
    if isinstance(value, Mapping):
        return any(_nonfinite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_nonfinite(v) for v in value)
    return False


def _clamp_deadline(sup, timeout: float | None) -> float | None:
    """Per-attempt timeout clamped to the supervisor's remaining budget."""
    remaining = sup.remaining_s()
    if remaining is None:
        return timeout
    remaining = max(remaining, 0.001)  # a timeout must stay > 0
    return remaining if timeout is None else min(timeout, remaining)


def _supervise(sup, execute, tasks, timeout, tr) -> list[PointOutcome]:
    """The MAPE pass over one batch under an installed supervisor.

    Pre-empt: once the run budget is spent no point starts; each fails
    with ``supervisor deadline exceeded``.  Analyze: split failures into
    engine faults vs. ordinary worker errors, and catch ok-looking rows
    poisoned with non-finite floats.  Plan: an engine fault trips the
    breakers of every exposed family.  Execute: if any breaker
    transitioned, the suspect points re-run once under the now-degraded
    engines (a pool forked after the trip inherits it).  Rows still
    NaN-poisoned afterwards become failures — a poisoned row must never
    reach the results, the checkpoint or the result cache.
    """
    if sup.deadline_exceeded():
        tr.count("supervisor.preempted.points", len(tasks))
        error = f"supervisor deadline exceeded ({sup.deadline_s}s run budget)"
        return [PointOutcome(t.index, ok=False, error=error) for t in tasks]
    outcomes = execute(tasks, _clamp_deadline(sup, timeout))
    by_index = {o.index: o for o in outcomes}
    suspects: list[PointTask] = []
    reason = None
    for task in tasks:
        outcome = by_index[task.index]
        if outcome.ok:
            if _nonfinite(outcome.value):
                tr.count("supervisor.poisoned")
                tr.warning(
                    "NaN-poisoned point output", index=outcome.index
                )
                suspects.append(task)
                reason = reason or "NaN-poisoned output"
        elif sup.is_engine_fault(outcome.error, outcome.exception):
            suspects.append(task)
            reason = reason or outcome.error
    if suspects:
        tripped = sup.record_fault(reason)
        if tripped and not sup.deadline_exceeded():
            tr.count("supervisor.reruns", len(suspects))
            tr.event(
                "supervisor.rerun",
                points=[t.index for t in suspects],
                families=tripped,
                reason=reason,
            )
            rerun = execute(suspects, _clamp_deadline(sup, timeout))
            for outcome in rerun:
                by_index[outcome.index] = outcome
    for index, outcome in by_index.items():
        if outcome.ok and _nonfinite(outcome.value):
            by_index[index] = PointOutcome(
                index=index,
                ok=False,
                error=(
                    "engine output NaN-poisoned "
                    "(non-finite floats in result)"
                ),
                attempts=outcome.attempts,
                elapsed_s=outcome.elapsed_s,
            )
    return [by_index[task.index] for task in tasks]


def _workers(n_jobs: int) -> int:
    import os

    if n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise ConfigurationError(
            f"n_jobs must be >= 1 or -1 (all cores), got {n_jobs}"
        )
    return n_jobs


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _retry_in_place(sup, outcome: PointOutcome, retries: int) -> bool:
    """Whether a failed attempt is retried in place: within ``retries``,
    unless it is an engine fault the supervisor can still degrade away
    (that point waits for the degraded re-run instead)."""
    if outcome.attempts > retries:
        return False
    return not (
        sup
        and sup.is_engine_fault(outcome.error, outcome.exception)
        and sup.exposed_families()
    )


def _run_inline(worker, fn, task, retries, backoff, tr, sup) -> PointOutcome:
    """Serial in-process attempts (no fork, closures allowed)."""
    for attempt in range(1, retries + 2):
        start = time.perf_counter()
        try:
            value = worker(fn, task.value, task.seed)
        except Exception as exc:
            failure = PointOutcome(
                index=task.index,
                ok=False,
                error=_describe(exc),
                exception=exc,
                traceback=tb_module.format_exc(),
                attempts=attempt,
                elapsed_s=time.perf_counter() - start,
            )
            if _retry_in_place(sup, failure, retries):
                tr.count("executor.retries")
                time.sleep(backoff * 2 ** (attempt - 1))
                continue
            return failure
        return PointOutcome(
            index=task.index,
            ok=True,
            value=value,
            attempts=attempt,
            elapsed_s=time.perf_counter() - start,
        )
    raise AssertionError("unreachable")  # pragma: no cover


def _send_guarded(conn, payload) -> "BaseException | None":
    """Send one payload; returns the send failure, if any.

    An :class:`OSError`/:class:`EOFError` means the other end is gone
    (the parent reaped this attempt, or a worker died) — a race, not an
    error.  Any other exception means the payload itself cannot cross
    the pipe (unpicklable).
    """
    try:
        conn.send(payload)
        return None
    except BaseException as exc:  # noqa: BLE001 - classified by caller
        return exc


def _orphaned(exc: "BaseException | None") -> bool:
    """Whether a send failure means the other end is gone (pipe closed)."""
    return isinstance(exc, (OSError, EOFError))


def _serve(conn, worker, fn, task: PointTask) -> bool:
    """Run one task in a worker and ship (status, payload) to the parent.

    Returns True iff an ``ok`` result reached the pipe — the only
    outcome after which the worker takes another task.  Every send is
    guarded: if the parent already reaped this attempt (its deadline
    expired just as the work finished) or died, the send sees a broken
    pipe and the worker must exit *cleanly* rather than die with an
    unhandled ``BrokenPipeError`` whose traceback would pollute stderr
    of an otherwise healthy run.
    """
    try:
        result = worker(fn, task.value, task.seed)
    except BaseException as exc:
        formatted = tb_module.format_exc()
        sent = _send_guarded(conn, ("err", _describe(exc), exc, formatted))
        if sent is not None and not _orphaned(sent):
            # exception object not picklable: resend without it
            _send_guarded(conn, ("err", _describe(exc), None, formatted))
        return False
    sent = _send_guarded(conn, ("ok", result))
    if sent is not None and not _orphaned(sent):
        formatted = "".join(
            tb_module.format_exception(type(sent), sent, sent.__traceback__)
        )
        _send_guarded(
            conn,
            ("err", f"result not picklable: {_describe(sent)}", None,
             formatted),
        )
    return sent is None


def _worker_main(conn, inherited, worker, fn, tasks) -> None:
    """Pool worker entry: run task indices from ``conn`` until told to stop.

    ``tasks`` maps each task index to its :class:`PointTask`; it reaches
    the worker through fork, so only the index crosses the pipe inward.
    ``inherited`` are the parent-side pipe ends this process got through
    fork — its own and those of the siblings forked before it.  They are
    closed first: otherwise a sibling's parent end stays open in this
    process, and neither the parent's death nor its close ever reaches
    that sibling as EOF.  The loop ends on the stop message, on EOF (the
    parent is gone), or after any non-ok outcome (the parent retires
    this worker).
    """
    for end in inherited:
        end.close()
    try:
        while True:
            try:
                index = conn.recv()
            except (EOFError, OSError):
                return  # the parent is gone
            if index is _STOP or not _serve(conn, worker, fn, tasks[index]):
                return
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - close on a broken pipe
            pass


@dataclass
class _Worker:
    """One pool worker as the parent sees it."""

    process: mp.process.BaseProcess
    conn: Any  # the parent's end of the duplex pipe
    attempt: _Attempt | None = None  # in flight; None while idle
    started: float = 0.0
    deadline: float | None = None


def _reap(proc: mp.process.BaseProcess) -> None:
    """Stop one worker with bounded patience: SIGTERM, wait, SIGKILL.

    ``terminate()`` alone is a request the worker may ignore (one that
    installed a SIG_IGN handler, or is stuck in uninterruptible I/O);
    an unbounded ``join()`` after it would wedge the whole run on such
    a worker.  So the join is bounded by ``_TERM_GRACE_S`` seconds and
    escalates to ``kill()`` — SIGKILL cannot be caught or ignored.
    """
    proc.terminate()
    proc.join(_TERM_GRACE_S)
    if proc.is_alive():
        proc.kill()
        proc.join(_TERM_GRACE_S)


def _died(w: _Worker, elapsed: float) -> PointOutcome:
    """The outcome of a worker that closed its pipe or exited without a
    result.  A worker whose pipe is closed but whose exit stalls (on a
    lock inherited through fork, say) is reaped, not awaited."""
    w.process.join(_TERM_GRACE_S)
    if w.process.is_alive():
        _reap(w.process)
    return PointOutcome(
        index=w.attempt.task.index,
        ok=False,
        error=(
            "worker process died without a result "
            f"(exitcode {w.process.exitcode})"
        ),
        attempts=w.attempt.attempt,
        elapsed_s=elapsed,
    )


def _receive(w: _Worker, elapsed: float) -> PointOutcome:
    """Read one attempt's result from a readable pipe (result or EOF)."""
    att = w.attempt
    try:
        payload = w.conn.recv()
    except (EOFError, OSError):
        # write end closed with nothing (or half a message) sent: the
        # worker died before it could report (segfault, os._exit, kill)
        return _died(w, elapsed)
    if payload[0] == "ok":
        return PointOutcome(
            index=att.task.index,
            ok=True,
            value=payload[1],
            attempts=att.attempt,
            elapsed_s=elapsed,
        )
    _, error, exc, formatted = payload
    return PointOutcome(
        index=att.task.index,
        ok=False,
        error=error,
        exception=exc,
        traceback=formatted,
        attempts=att.attempt,
        elapsed_s=elapsed,
    )


def _harvest(
    w: _Worker,
    now: float,
    timeout: float | None,
    tr,
) -> PointOutcome | None:
    """Resolve one busy worker's attempt, or return None if still running.

    Ordering is pinned *poll-before-deadline*: a result that is already
    in the pipe when the deadline check runs is harvested as ``ok`` even
    if the deadline has technically passed — the work is done and paid
    for, and discarding it would make outcomes depend on scheduler
    latency rather than on the worker.  A timed-out worker is reaped
    here; the caller retires every worker whose outcome is not ok.
    """
    elapsed = now - w.started
    if w.conn.poll():
        return _receive(w, elapsed)
    if not w.process.is_alive():
        # the result may have raced the liveness check: look again
        if w.conn.poll():
            return _receive(w, elapsed)
        return _died(w, elapsed)
    if w.deadline is not None and now > w.deadline:
        _reap(w.process)
        tr.count("executor.timeouts")
        return PointOutcome(
            index=w.attempt.task.index,
            ok=False,
            error=f"timed out after {timeout}s",
            attempts=w.attempt.attempt,
            elapsed_s=elapsed,
        )
    return None


def _next_wakeup(
    queue: list[_Attempt], busy: list[_Worker], now: float, slot_free: bool
) -> float:
    """Seconds until the next scheduled event, capped at the idle tick.

    Deadlines always count.  A queued attempt's retry eligibility counts
    only while a slot is free: with every slot busy an eligible attempt
    cannot start anyway, and counting it would make the wait return at
    once — a busy-poll on the cores the workers need.
    """
    ticks = [w.deadline - now for w in busy if w.deadline is not None]
    if slot_free:
        ticks.extend(a.eligible_at - now for a in queue)
    if not ticks:
        return _IDLE_TICK_S
    return min(max(min(ticks), 0.0), _IDLE_TICK_S)


def _run_isolated(
    worker, fn, tasks, workers, retries, backoff, timeout, tr, sup
) -> list[PointOutcome]:
    """A pool of at most ``min(workers, len(tasks))`` forked workers."""
    ctx = mp.get_context("fork")
    by_index = {task.index: task for task in tasks}
    slots = min(workers, len(tasks))
    queue: list[_Attempt] = [_Attempt(task) for task in tasks]
    pool: list[_Worker] = []
    outcomes: dict[int, PointOutcome] = {}

    def spawn() -> _Worker:
        parent_end, child_end = ctx.Pipe()
        inherited = [w.conn for w in pool] + [parent_end]
        proc = ctx.Process(
            target=_worker_main,
            args=(child_end, inherited, worker, fn, by_index),
            daemon=True,
        )
        proc.start()
        child_end.close()  # parent keeps only its own end
        tr.count("executor.spawns")
        w = _Worker(process=proc, conn=parent_end)
        pool.append(w)
        return w

    def retire(w: _Worker) -> None:
        """Drop one worker and wait for it to exit: it exits by itself
        after a non-ok outcome or the stop message, else it is reaped."""
        pool.remove(w)
        w.conn.close()
        w.process.join(_TERM_GRACE_S)
        if w.process.is_alive():
            _reap(w.process)

    def dispatch(att: _Attempt) -> None:
        w = next((w for w in pool if w.attempt is None), None)
        if w is not None and \
                _send_guarded(w.conn, att.task.index) is not None:
            retire(w)  # died while idle: not this point's fault
            w = None
        if w is None:
            w = spawn()
            # a failed send to a fresh worker surfaces as its death
            _send_guarded(w.conn, att.task.index)
        now = time.monotonic()
        w.attempt = att
        w.started = now
        w.deadline = None if timeout is None else now + timeout

    def settle(att: _Attempt, outcome: PointOutcome) -> None:
        """Final or retried resolution of one attempt."""
        if not outcome.ok and _retry_in_place(sup, outcome, retries):
            tr.count("executor.retries")
            queue.append(
                _Attempt(
                    task=att.task,
                    attempt=att.attempt + 1,
                    eligible_at=time.monotonic()
                    + backoff * 2 ** (att.attempt - 1),
                )
            )
            return
        outcomes[att.task.index] = outcome

    def busy() -> list[_Worker]:
        return [w for w in pool if w.attempt is not None]

    try:
        while True:
            # fill free slots with eligible attempts (in queue order)
            now = time.monotonic()
            ready = [a for a in queue if a.eligible_at <= now]
            for att in ready[: slots - len(busy())]:
                queue.remove(att)
                dispatch(att)
            # harvest finished / expired attempts
            now = time.monotonic()
            for w in busy():
                outcome = _harvest(w, now, timeout, tr)
                if outcome is None:
                    continue
                att, w.attempt = w.attempt, None
                if not outcome.ok:
                    retire(w)
                settle(att, outcome)
            running = busy()
            if not (queue or running):
                break
            # block until a result pipe is readable, a worker's sentinel
            # fires (it exited), a deadline expires, or — with a slot
            # free — a retry becomes eligible: ~0 CPU while idle
            wait_for = _next_wakeup(
                queue, running, time.monotonic(), len(running) < slots
            )
            tr.count("executor.wakeups")
            if running:
                waitables: list[Any] = [w.conn for w in running]
                waitables.extend(w.process.sentinel for w in running)
                mp_connection.wait(waitables, wait_for)
            else:  # everything is backed off; sleep to eligibility
                time.sleep(wait_for)
    finally:
        # stop idle workers first so they all exit in parallel; a
        # worker still busy here (the caller was interrupted) is reaped
        for w in pool:
            if w.attempt is None:
                _send_guarded(w.conn, _STOP)
            else:
                _reap(w.process)
        for w in list(pool):
            retire(w)

    return [outcomes[task.index] for task in tasks]
