"""Tests for the fault-tolerant point executor (repro.runtime.executor)."""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

import repro
from repro.errors import ConfigurationError, ExecutionError
from repro.runtime import chaos, executor, supervisor, trace
from repro.runtime.chaos import ChaosFault, ChaosPlan
from repro.runtime.executor import (
    PointOutcome,
    PointTask,
    _Attempt,
    _harvest,
    _Worker,
    _worker_main,
    run_points,
)
from repro.runtime.supervisor import Supervisor
from repro.runtime.trace import Tracer


# workers are module-level so forked/spawned processes can run them

def call(fn, value, seed):
    return fn(value)


def double(value):
    return value * 2


def boom(value):
    raise ValueError(f"boom at {value}")


def boom_at_3(value):
    if value == 3:
        raise ValueError("boom at 3")
    return value * 2


def hang_at_1(value):
    if value == 1:
        time.sleep(60)
    return value * 2


def die_hard(value):
    os._exit(17)  # bypasses the child's exception capture entirely


def flaky(value):
    """Fails on the first attempt, succeeds on a retry (per-process)."""
    marker = os.environ["REPRO_TEST_FLAKY_MARKER"] + f".{value}"
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("transient")
    return value * 2


def slow_flaky(value):
    """First attempt burns 0.6 s then fails; the retry returns at once."""
    marker = os.environ["REPRO_TEST_FLAKY_MARKER"] + f".{value}"
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        time.sleep(0.6)
        raise RuntimeError("transient after a slow first attempt")
    return value * 2


def ignore_sigterm_and_hang(value):
    """The pathological child: SIGTERM is ignored, then it hangs."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(120)
    return value


def close_pipe_and_linger(conn):
    """A worker whose pipe closes but whose exit stalls: SIGTERM is
    ignored, the pipe end is closed, then it hangs."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.close()
    time.sleep(120)


def worker_main_closing(stray, conn, worker, fn):
    """``_worker_main`` behind a pipe made outside the pool: close the
    parent's end inherited through fork first, as a pool worker's is
    closed at fork, so that the parent's close reaches it as EOF."""
    stray.close()
    _worker_main(conn, worker, fn)


def worker_pid(value):
    return os.getpid()


def worker_pid_too(value):
    return os.getpid()


def pool_pids(fn=worker_pid, tracer=None) -> set:
    """The worker pids a 4-point, 2-worker call ran on."""
    outcomes = run_points(
        call, fn, tasks_for(range(4)), n_jobs=2, timeout=30.0,
        tracer=tracer,
    )
    assert all(o.ok for o in outcomes)
    return {o.value for o in outcomes}


def send_pool_pids(conn, tracer):
    """In a forked child: report the pids its own call ran on."""
    conn.send(pool_pids(tracer=tracer))
    conn.close()


def sleepy(value):
    time.sleep(1.2)
    return value * 2


def slow_double(value):
    time.sleep(0.5)
    return value * 2


def slow_boom(value):
    time.sleep(0.5)
    raise ValueError("late boom")


def pid_after_fault(value):
    """The first attempt faults as ``value`` says; a retry returns its pid."""
    marker = os.environ["REPRO_TEST_FLAKY_MARKER"] + f".{value}"
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write(str(os.getpid()))
        if value == "raise":
            raise RuntimeError("first attempt")
        if value == "exit":
            os._exit(3)
        time.sleep(60)  # "hang": the timeout retires this worker
    return os.getpid()


# a parent that is SIGKILLed mid-batch: each worker notes its pid, then
# runs a 1 s point
KILLED_PARENT = textwrap.dedent("""
    import os, sys, time
    from repro.runtime.executor import PointTask, run_points

    def note_pid_and_sleep(fn, value, seed):
        open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
        time.sleep(1.0)
        return value

    run_points(note_pid_and_sleep, None,
               [PointTask(index=i, value=i) for i in range(4)],
               n_jobs=2, timeout=60.0)
""")


# a parent whose plain os.fork() child exits normally (atexit handlers
# run there): the parent's idle workers must survive to serve it again
FORKING_PARENT = textwrap.dedent("""
    import os, sys
    from repro.runtime.executor import PointTask, run_points

    def worker_pid(fn, value, seed):
        return os.getpid()

    def pids():
        return {o.value for o in run_points(
            worker_pid, None, [PointTask(index=i, value=i) for i in range(4)],
            n_jobs=2, timeout=60.0)}

    before = pids()
    child = os.fork()
    if child == 0:
        sys.exit(0)
    os.waitpid(child, 0)
    print("reused" if pids() <= before else "re-forked")
""")


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (an unreaped zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def tasks_for(values):
    return [PointTask(index=i, value=v) for i, v in enumerate(values)]


class TestInlinePath:
    def test_success_in_order(self):
        outcomes = run_points(call, double, tasks_for([1, 2, 3]))
        assert [o.value for o in outcomes] == [2, 4, 6]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_failure_captured_not_raised(self):
        outcomes = run_points(call, boom_at_3, tasks_for([1, 3]))
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert "ValueError: boom at 3" in outcomes[1].error
        assert "boom at 3" in outcomes[1].traceback
        assert isinstance(outcomes[1].exception, ValueError)

    def test_retry_exhaustion_counts_attempts(self):
        tr = Tracer()
        outcomes = run_points(
            call, boom, tasks_for([0]), retries=2, backoff=0.0, tracer=tr
        )
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 3
        assert tr.counters["executor.retries"] == 2

    def test_reraise_recovers_original_exception(self):
        outcomes = run_points(call, boom, tasks_for([0]))
        with pytest.raises(ValueError, match="boom at 0"):
            outcomes[0].reraise()

    def test_reraise_without_exception_wraps(self):
        outcome = PointOutcome(
            index=0, ok=False, error="lost", traceback="tb", attempts=1
        )
        with pytest.raises(ExecutionError, match="lost"):
            outcome.reraise()

    def test_empty_tasks(self):
        assert run_points(call, double, []) == []

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_points(call, double, tasks_for([1]), retries=-1)
        with pytest.raises(ConfigurationError):
            run_points(call, double, tasks_for([1]), backoff=-0.1)
        with pytest.raises(ConfigurationError):
            run_points(call, double, tasks_for([1]), timeout=0)
        with pytest.raises(ConfigurationError):
            run_points(call, double, tasks_for([1]), n_jobs=0)


class TestIsolatedPath:
    def test_parallel_success_in_order(self):
        outcomes = run_points(
            call, double, tasks_for(list(range(8))), n_jobs=4
        )
        assert [o.value for o in outcomes] == [v * 2 for v in range(8)]

    def test_worker_exception_isolated(self):
        outcomes = run_points(
            call, boom_at_3, tasks_for([1, 2, 3, 4]), n_jobs=2
        )
        assert [o.ok for o in outcomes] == [True, True, False, True]
        failed = outcomes[2]
        assert "ValueError: boom at 3" in failed.error
        assert "boom at 3" in failed.traceback
        assert isinstance(failed.exception, ValueError)

    def test_timeout_kills_hung_worker(self):
        tr = Tracer()
        start = time.monotonic()
        outcomes = run_points(
            call,
            hang_at_1,
            tasks_for([0, 1, 2]),
            n_jobs=2,
            timeout=1.0,
            tracer=tr,
        )
        assert time.monotonic() - start < 30
        assert [o.ok for o in outcomes] == [True, False, True]
        assert "timed out after 1.0s" in outcomes[1].error
        assert tr.counters["executor.timeouts"] == 1

    def test_hard_crash_reported(self):
        outcomes = run_points(call, die_hard, tasks_for([0]), n_jobs=2)
        assert not outcomes[0].ok
        assert "exitcode 17" in outcomes[0].error

    def test_retry_recovers_transient_failure(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_TEST_FLAKY_MARKER", str(tmp_path / "marker")
        )
        tr = Tracer()
        outcomes = run_points(
            call,
            flaky,
            tasks_for([5]),
            n_jobs=2,
            retries=1,
            backoff=0.01,
            tracer=tr,
        )
        assert outcomes[0].ok
        assert outcomes[0].value == 10
        assert outcomes[0].attempts == 2
        assert tr.counters["executor.retries"] == 1


class TestWorkerPool:
    """One call forks at most ``n_jobs`` workers and reuses them; any
    non-ok outcome retires its worker, so a retry runs elsewhere."""

    def test_clean_batch_forks_at_most_n_jobs(self):
        tr = Tracer()
        outcomes = run_points(
            call, double, tasks_for(list(range(8))), n_jobs=2, tracer=tr
        )
        assert [o.value for o in outcomes] == [v * 2 for v in range(8)]
        assert tr.counters["executor.spawns"] <= 2

    def test_pool_never_exceeds_task_count(self):
        tr = Tracer()
        run_points(call, double, tasks_for([1]), n_jobs=4, tracer=tr)
        assert tr.counters["executor.spawns"] == 1

    @pytest.mark.parametrize("fault", ["raise", "exit", "hang"])
    def test_fault_replaces_worker_and_retry_runs_elsewhere(
        self, fault, tmp_path, monkeypatch
    ):
        marker = tmp_path / "marker"
        monkeypatch.setenv("REPRO_TEST_FLAKY_MARKER", str(marker))
        tr = Tracer()
        outcomes = run_points(
            call,
            pid_after_fault,
            tasks_for([fault]),
            n_jobs=2,
            retries=1,
            backoff=0.0,
            timeout=1.0 if fault == "hang" else 30.0,
            tracer=tr,
        )
        first_pid = int((tmp_path / f"marker.{fault}").read_text())
        assert outcomes[0].ok and outcomes[0].attempts == 2
        assert outcomes[0].value != first_pid
        assert tr.counters["executor.spawns"] == 2  # retired + replaced


class TestKeptPool:
    """The pool outlives one call while the state its workers inherited
    at fork is still the parent's; any key change re-forks it."""

    def test_same_key_forks_then_reuses(self):
        tr = Tracer()
        first = pool_pids(tracer=tr)
        assert tr.counters["executor.spawns"] == 2
        second = pool_pids(tracer=tr)
        assert tr.counters["executor.spawns"] == 2  # none this time
        assert second <= first and os.getpid() not in first

    @pytest.mark.parametrize(
        "change", ["fn", "tracer", "trip", "chaos", "env"]
    )
    def test_key_change_reforks(self, change, tmp_path, monkeypatch):
        tr = Tracer()
        sup = Supervisor(families=("csp",))
        plan = ChaosPlan((ChaosFault(kind="raise", point=99),))
        with supervisor.use(sup):
            before = pool_pids(tracer=tr)
            fn, tracer = worker_pid, tr
            if change == "fn":
                fn = worker_pid_too
            elif change == "tracer":
                tracer = Tracer()
            elif change == "trip":
                sup.trip("csp", "test-induced fault")
            elif change == "env":
                monkeypatch.setenv("REPRO_TEST_POOL_KEY", "1")
            if change == "chaos":
                with chaos.active(plan, str(tmp_path)):
                    after = pool_pids(fn, tracer)
            else:
                after = pool_pids(fn, tracer)
        assert not after & before

    def test_forked_child_builds_its_own_pool(self):
        tr = Tracer()
        before = pool_pids(tracer=tr)
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=send_pool_pids, args=(child_conn, tr))
        proc.start()
        child_conn.close()
        try:
            assert parent_conn.poll(60)
            in_child = parent_conn.recv()
        finally:
            proc.join(30)
            parent_conn.close()
        assert proc.exitcode == 0
        assert in_child and not in_child & before
        assert pool_pids(tracer=tr) <= before  # the parent's still serve

    def test_plain_fork_child_exit_spares_parent_workers(self, tmp_path):
        script = tmp_path / "parent.py"
        script.write_text(FORKING_PARENT)
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        done = subprocess.run(
            [sys.executable, str(script)], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["reused"]
        assert done.stderr == ""

    def test_unpicklable_task_fails_only_its_point(self):
        outcomes = run_points(
            call, double, tasks_for([1, threading.Lock(), 3]), n_jobs=2,
            timeout=30.0, tracer=Tracer(),
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        assert [outcomes[0].value, outcomes[2].value] == [2, 6]
        assert outcomes[1].error.startswith(
            "task not picklable: TypeError"
        )


class TestPipeHygiene:
    """Every later-forked worker inherits its earlier siblings' parent
    pipe ends; unless it closes them, closing (or losing) the parent end
    never reaches those siblings as EOF."""

    def test_idle_workers_stop_without_waiting_out_term_grace(
        self, monkeypatch
    ):
        monkeypatch.setattr(executor, "_TERM_GRACE_S", 30.0)
        start = time.monotonic()
        outcomes = run_points(
            call,
            double,
            tasks_for([1, 2, 3, 4]),
            n_jobs=2,
            timeout=30.0,
        )
        assert [o.value for o in outcomes] == [2, 4, 6, 8]
        assert time.monotonic() - start < 10  # a stuck join waits 30 s

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads /proc/<pid>/stat"
    )
    def test_workers_do_not_outlive_a_killed_parent(self, tmp_path):
        script = tmp_path / "parent.py"
        script.write_text(KILLED_PARENT)
        pids_dir = tmp_path / "pids"
        pids_dir.mkdir()
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        parent = subprocess.Popen(
            [sys.executable, str(script), str(pids_dir)], env=env
        )
        try:
            deadline = time.monotonic() + 30
            while len(os.listdir(pids_dir)) < 2:
                assert time.monotonic() < deadline, "workers never started"
                assert parent.poll() is None, "parent exited early"
                time.sleep(0.02)
        finally:
            parent.kill()  # mid-batch: both workers hold a 1 s point
            parent.wait()
        pids = [int(name) for name in os.listdir(pids_dir)]
        deadline = time.monotonic() + 10  # one point plus a wide margin
        while any(_alive(pid) for pid in pids) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if _alive(pid)]
        for pid in survivors:  # leave no stray worker behind a failure
            os.kill(pid, signal.SIGKILL)
        assert not survivors


class TestBoundedReap:
    """Regression: a SIGTERM-blocking child must not wedge the run.

    Before the bounded reap, the timeout path ran ``terminate()``
    followed by an unbounded ``join()`` — a worker that installed
    ``SIG_IGN`` for SIGTERM (or was stuck in uninterruptible I/O) hung
    the whole sweep forever.  The reap now gives SIGTERM ``_TERM_GRACE_S``
    seconds and then escalates to SIGKILL.
    """

    @pytest.fixture(autouse=True)
    def _short_grace(self, monkeypatch):
        monkeypatch.setattr(executor, "_TERM_GRACE_S", 0.5)

    def test_sigterm_ignoring_child_is_killed(self):
        tr = Tracer()
        start = time.monotonic()
        outcomes = run_points(
            call,
            ignore_sigterm_and_hang,
            tasks_for([0]),
            n_jobs=2,
            timeout=0.5,
            tracer=tr,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30  # was: forever
        assert not outcomes[0].ok
        assert "timed out after 0.5s" in outcomes[0].error
        assert tr.counters["executor.timeouts"] == 1

    def test_mixed_batch_survives_sigterm_blocker(self):
        """Healthy points around the blocker still complete normally."""
        outcomes = run_points(
            call,
            hang_at_1,
            tasks_for([0, 1, 2]),
            n_jobs=3,
            timeout=1.0,
        )
        assert [o.ok for o in outcomes] == [True, False, True]
        assert [o.value for o in outcomes if o.ok] == [0, 4]

    def test_closed_pipe_with_stalled_exit_is_reaped(self):
        """EOF on a worker's pipe whose process never exits (its exit
        stuck on, say, a lock inherited through fork): the harvest reaps
        it after ``_TERM_GRACE_S`` instead of joining it forever."""
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(target=close_pipe_and_linger, args=(child_conn,))
        proc.start()
        child_conn.close()
        try:
            assert parent_conn.poll(30)  # EOF: the worker closed its end
            now = time.monotonic()
            w = _Worker(
                process=proc,
                conn=parent_conn,
                attempt=_Attempt(PointTask(index=0, value=0)),
                started=now,
            )
            outcome = _harvest(w, now, timeout=None, tr=trace.NULL)
            assert time.monotonic() - now < 10  # was: join() forever
            assert outcome is not None and not outcome.ok
            assert "died without a result" in outcome.error
            assert not proc.is_alive()
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join(30)
            parent_conn.close()


class TestOrphanedChild:
    """Regression: a worker whose parent already reaped it exits cleanly.

    When a per-point deadline expires *just* as the work finishes, the
    parent closes its end before the worker's final ``conn.send``.
    The send then sees a broken pipe; unguarded, the worker died with an
    unhandled ``BrokenPipeError`` (nonzero exit + stderr traceback).
    """

    @staticmethod
    def _orphan(fn, value):
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=worker_main_closing,
            args=(parent_conn, child_conn, call, fn),
        )
        proc.start()
        child_conn.close()
        parent_conn.send((value, None))
        # reap the attempt before the worker can report (timeout race)
        parent_conn.close()
        proc.join(30)
        return proc

    def test_orphaned_ok_send_exits_cleanly(self):
        proc = self._orphan(slow_double, 3)
        assert proc.exitcode == 0

    def test_orphaned_error_send_exits_cleanly(self):
        proc = self._orphan(slow_boom, 3)
        assert proc.exitcode == 0


class TestEventDrivenWait:
    """Regression: the harvest loop blocks in connection.wait, not a
    5 ms busy-poll — ~0 CPU and only a handful of wakeups while idle."""

    def test_idle_wait_burns_no_cpu(self):
        tr = Tracer()
        cpu0 = time.process_time()
        outcomes = run_points(
            call, sleepy, tasks_for([0, 1]), n_jobs=2, timeout=30.0,
            tracer=tr,
        )
        cpu = time.process_time() - cpu0
        assert [o.value for o in outcomes] == [0, 2]
        # the old 5 ms poll loop woke ~240 times over a 1.2 s sleep;
        # the wait-based loop wakes on launch, the defensive 0.5 s
        # idle tick, and the two results
        assert tr.counters["executor.wakeups"] <= 25
        # parent CPU is fork/pickle overhead only, not spinning
        assert cpu < 0.5

    def test_full_slots_do_not_busy_poll(self):
        """More points than workers: queued attempts wait for a slot
        without turning the wait into a spin (was ~80 wakeups/point)."""
        tr = Tracer()
        cpu0 = time.process_time()
        outcomes = run_points(
            call, sleepy, tasks_for([0, 1, 2, 3]), n_jobs=2, timeout=30.0,
            tracer=tr,
        )
        cpu = time.process_time() - cpu0
        assert [o.value for o in outcomes] == [0, 2, 4, 6]
        assert tr.counters["executor.wakeups"] <= 3 * 4
        assert cpu < 0.5

    def test_backoff_only_wait_sleeps_to_eligibility(self):
        """With every attempt backed off (nothing running), the loop
        sleeps until retry eligibility instead of spinning."""
        tr = Tracer()
        start = time.monotonic()
        outcomes = run_points(
            call,
            boom,
            tasks_for([0]),
            n_jobs=2,
            retries=1,
            backoff=0.3,
            timeout=30.0,
            tracer=tr,
        )
        assert time.monotonic() - start >= 0.3  # backoff honored
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 2

    def test_outcomes_match_inline_path(self):
        """Fault-matrix equivalence: the worker pool resolves the same
        outcomes as the serial in-process path, with more points than
        workers and with retries (each retry replaces a retired worker)."""

        def key(outcomes):
            return [
                (o.index, o.ok, o.value, o.error, o.attempts)
                for o in outcomes
            ]

        for values, retries in (([1, 2, 3, 4], 0), (list(range(8)), 2)):
            kwargs = dict(retries=retries, backoff=0.0)
            inline = run_points(
                call, boom_at_3, tasks_for(values), n_jobs=1, **kwargs
            )
            isolated = run_points(
                call, boom_at_3, tasks_for(values), n_jobs=2, **kwargs
            )
            assert key(inline) == key(isolated)


class TestDeadlineResultRace:
    """Ordering is pinned poll-before-deadline: work that finished by
    the time the deadline check runs is harvested as ``ok``."""

    def test_result_in_pipe_beats_expired_deadline(self):
        ctx = mp.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        task = PointTask(index=0, value=21)
        proc = ctx.Process(
            target=worker_main_closing,
            args=(parent_conn, child_conn, call, double),
        )
        proc.start()
        child_conn.close()
        parent_conn.send((task.value, task.seed))
        assert parent_conn.poll(30)  # the result has arrived …
        now = time.monotonic()
        w = _Worker(
            process=proc,
            conn=parent_conn,
            attempt=_Attempt(task),
            started=now - 10.0,
            deadline=now - 1.0,  # … and the deadline has passed
        )
        outcome = _harvest(w, now, timeout=9.0, tr=trace.NULL)
        assert outcome is not None
        assert outcome.ok
        assert outcome.value == 42
        parent_conn.close()  # EOF ends the worker's loop
        proc.join(30)
        assert proc.exitcode == 0

    def test_elapsed_is_per_attempt_not_cumulative(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_TEST_FLAKY_MARKER", str(tmp_path / "marker")
        )
        outcomes = run_points(
            call,
            slow_flaky,
            tasks_for([7]),
            n_jobs=2,
            retries=1,
            backoff=0.01,
            timeout=30.0,
        )
        assert outcomes[0].ok
        assert outcomes[0].value == 14
        assert outcomes[0].attempts == 2
        # the slow first attempt took >= 0.6 s; the recorded elapsed is
        # the (fast) final attempt only
        assert outcomes[0].elapsed_s < 0.5
