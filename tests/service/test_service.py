"""End-to-end tests for :class:`repro.service.ResilienceService`."""

import errno
import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.analysis.sweep import grid_sweep
from repro.errors import BackpressureError, ConfigurationError, ServiceError
from repro.runtime import supervisor as supervisor_module
from repro.runtime.supervisor import Supervisor
from repro.service import CANCELLED, DONE, FAILED, ResilienceService
from repro.service import api as api_module
from repro.service.persistence import ServicePersistence


def square(x, seed=None):
    return {"sq": x * x}


def seeded(x, seed=None):
    salt = 0 if seed is None else int(seed.generate_state(1)[0]) % 101
    return {"v": x + salt * 1e-6}


def napper(i, seed=None):
    time.sleep(0.05)
    return {"v": i * 2}


def boom(x, seed=None):
    raise ValueError(f"boom at {x}")


def worker_pid(x, seed=None):
    return {"pid": os.getpid()}


def sleeper(x, seed=None):
    time.sleep(2.0)
    return {"v": x}


# holds a job's chunk open until a test releases it
_STARTED = threading.Event()
_RELEASE = threading.Event()


def held(x, seed=None):
    _STARTED.set()
    assert _RELEASE.wait(30), "gate never released"
    return {"v": x}


@pytest.fixture
def gate():
    _STARTED.clear()
    _RELEASE.clear()
    yield _RELEASE
    _RELEASE.set()


def _closes_within(svc, seconds: float) -> bool:
    """Whether ``svc.close()`` returns in time (run on a daemon thread,
    so a hang fails the test instead of wedging the suite)."""
    closer = threading.Thread(target=svc.close, daemon=True)
    closer.start()
    closer.join(seconds)
    return not closer.is_alive()


GRID = {"x": [0, 1, 2, 3]}


class TestSubmitAwaitResult:
    def test_rows_match_batch_grid_sweep(self):
        with ResilienceService() as svc:
            job = svc.submit("exp", seeded, grid=GRID, seed=11)
            assert job.wait(30)
            assert job.state == DONE
        expected = grid_sweep(GRID, seeded, seed=11)
        assert job.result().rows == expected.rows

    def test_explicit_points_submission(self):
        with ResilienceService() as svc:
            job = svc.submit("exp", square, points=[{"x": 5}, {"x": 6}])
            assert job.wait(30)
        assert [r["sq"] for r in job.result().rows] == [25, 36]

    def test_failures_surface_like_sweep_failures(self):
        with ResilienceService() as svc:
            job = svc.submit("exp", boom, grid={"x": [1]})
            assert job.wait(30)
            assert job.state == FAILED
        result = job.result()
        assert len(result.failures) == 1
        assert "boom at 1" in result.failures[0].error
        assert result.rows[0]["error"]

    def test_two_workers_match_batch_grid_sweep(self):
        with ResilienceService(workers=2) as svc:
            job = svc.submit("exp", seeded, grid=GRID, seed=11)
            twin = svc.submit("exp", seeded, grid=GRID, seed=11)
            assert job.wait(30) and twin.wait(30)
            counters = svc.status()["counters"]
        expected = json.dumps(grid_sweep(GRID, seeded, seed=11).rows)
        assert json.dumps(job.result().rows) == expected
        assert json.dumps(twin.result().rows) == expected
        assert counters["service.points.executed"] == 4
        assert counters["executor.spawns"] >= 1

    def test_submit_validation(self):
        with ResilienceService() as svc:
            with pytest.raises(ConfigurationError, match="exactly one"):
                svc.submit("exp", square)
            with pytest.raises(ConfigurationError, match="exactly one"):
                svc.submit("exp", square, grid=GRID, points=[{"x": 1}])
            with pytest.raises(ConfigurationError, match="at least one"):
                svc.submit("exp", square, points=[])
            with pytest.raises(ConfigurationError, match="collides"):
                svc.submit("exp", square, grid={"seed": [1]}, seed=3)
            with pytest.raises(ConfigurationError, match="collides"):
                svc.submit(
                    "exp", square, points=[{"x": 1, "seed": 3}], seed=7
                )
            assert svc.jobs() == []

    def test_submit_requires_running_service(self):
        svc = ResilienceService()
        with pytest.raises(ServiceError, match="not serving"):
            svc.submit("exp", square, grid=GRID)
        svc.start()
        svc.close()
        with pytest.raises(ServiceError, match="not serving"):
            svc.submit("exp", square, grid=GRID)


class TestCacheAndDedupe:
    def test_identical_resubmission_is_fully_cache_served(self):
        with ResilienceService() as svc:
            first = svc.submit("exp", seeded, grid=GRID, seed=11)
            assert first.wait(30)
            resub = svc.submit("exp", seeded, grid=GRID, seed=11)
            # served at admission: already done, nothing executed
            assert resub.done and resub.state == DONE
            p = resub.progress()
            assert p["cached"] == len(GRID["x"])
            assert p["executed"] == 0
            assert svc.tracer.counters["service.jobs.cache_served"] == 1
            assert resub.result().rows == first.result().rows

    def test_cache_keyed_on_seed_and_experiment(self):
        with ResilienceService() as svc:
            svc.submit("exp", seeded, grid=GRID, seed=11).wait(30)
            other_seed = svc.submit("exp", seeded, grid=GRID, seed=12)
            other_name = svc.submit("exp2", seeded, grid=GRID, seed=11)
            assert other_seed.wait(30) and other_name.wait(30)
            assert other_seed.progress()["cached"] == 0
            assert other_name.progress()["cached"] == 0

    def test_failures_are_never_cached(self):
        with ResilienceService() as svc:
            svc.submit("exp", boom, grid={"x": [1]}).wait(30)
            again = svc.submit("exp", boom, grid={"x": [1]})
            assert again.wait(30)
            assert again.progress()["cached"] == 0
            assert again.progress()["failed"] == 1  # re-ran, failed again
            assert svc.tracer.counters["service.points.failed"] == 2

    def test_inflight_twin_never_reexecutes(self):
        grid = {"i": list(range(6))}
        with ResilienceService() as svc:
            first = svc.submit("exp", napper, grid=grid, seed=1)
            twin = svc.submit("exp", napper, grid=grid, seed=1)
            assert first.wait(30) and twin.wait(30)
            p = twin.progress()
            # every twin point rode the first job's execution (dedup)
            # or its cached result — never a second execution
            assert p["executed"] == 0
            assert p["deduped"] + p["cached"] == p["total"]
            assert twin.result().rows == first.result().rows
            executed = svc.tracer.counters["service.points.executed"]
            assert executed == len(grid["i"])


class TestCancellation:
    def test_cancel_pending_work(self):
        with ResilienceService() as svc:
            job = svc.submit("exp", napper, grid={"i": list(range(20))})
            assert svc.cancel(job.id)
            assert job.state == CANCELLED
            assert svc.tracer.counters["service.jobs.cancelled"] == 1
            # service keeps serving after the cancellation
            probe = svc.submit("probe", square, grid={"x": [2]})
            assert probe.wait(30)
            assert probe.result().rows[0]["sq"] == 4

    def test_cancel_mid_chunk_emits_one_cancelled_event(self, gate):
        with ResilienceService() as svc:
            job = svc.submit("exp", held, grid={"x": [1, 2]})
            assert _STARTED.wait(30)  # its chunk is running
            assert svc.cancel(job.id)
            gate.set()
            # the scheduler is serial: once the probe is done, the
            # cancelled job's chunk has finished too
            assert svc.submit("probe", square, grid={"x": [2]}).wait(30)
            kinds = [e["event"] for e in job.events]
        assert kinds.count("service.job.cancelled") == 1
        assert "service.job.progress" not in kinds

    @pytest.mark.parametrize("durable", [False, True])
    def test_point_cancelled_mid_chunk_is_stored(self, gate, tmp_path,
                                                 durable):
        service_dir = str(tmp_path) if durable else None
        with ResilienceService(service_dir=service_dir) as svc:
            job = svc.submit("exp", held, grid={"x": [1]})
            assert _STARTED.wait(30)  # its one-point chunk is running
            assert svc.cancel(job.id)
            gate.set()
            fingerprint = job.points[0].fingerprint
            deadline = time.monotonic() + 30
            while fingerprint not in svc.cache:
                assert time.monotonic() < deadline, "row never stored"
                time.sleep(0.01)
            resub = svc.submit("exp", held, grid={"x": [1]})
            assert resub.done and resub.state == DONE
            assert resub.progress()["cached"] == 1
            assert resub.result().rows[0]["v"] == 1
            assert svc.tracer.counters["service.points.executed"] == 1
        if durable:
            with open(tmp_path / "journal.jsonl") as fh:
                records = [json.loads(line).get("record") for line in fh]
            assert records.count("point-done") == 1

    def test_cancel_unknown_job(self):
        with ResilienceService() as svc:
            with pytest.raises(ServiceError, match="unknown job"):
                svc.cancel("job-999999")

    def test_close_without_drain_cancels(self):
        svc = ResilienceService().start()
        job = svc.submit("exp", napper, grid={"i": list(range(50))})
        svc.close(drain=False)
        assert job.state == CANCELLED


class TestAdmission:
    def test_admit_and_get(self):
        with ResilienceService() as svc:
            job = svc.submit("exp", square, grid=GRID)
            assert svc.job(job.id) is job
            with pytest.raises(ServiceError, match="unknown job"):
                svc.job("nope")
            assert svc.jobs() == [job]

    def test_saturation_backpressure(self, monkeypatch, gate):
        monkeypatch.setattr(api_module, "MAX_PENDING", 2)
        with ResilienceService() as svc:
            svc.submit("a", held, grid={"x": [1]})
            svc.submit("b", held, grid={"x": [1]})
            with pytest.raises(BackpressureError, match="saturated"):
                svc.submit("c", held, grid={"x": [1]})
            assert len(svc.jobs()) == 2
            gate.set()

    def test_finished_jobs_free_admission_slots(self, monkeypatch):
        monkeypatch.setattr(api_module, "MAX_PENDING", 1)
        with ResilienceService() as svc:
            done = svc.submit("a", square, grid={"x": [0]})
            assert done.wait(30) and done.state == DONE
            # does not raise: "a" no longer pending
            assert svc.submit("b", square, grid={"x": [1]}).wait(30)

    def test_degraded_refusal_wins_over_capacity(self, monkeypatch, gate):
        monkeypatch.setattr(api_module, "MAX_PENDING", 1)
        sup = Supervisor(families=("agents",))
        with supervisor_module.use(sup):
            with ResilienceService() as svc:
                svc.submit("a", held, grid={"x": [1]})  # saturates
                sup.trip("agents", "test-induced fault")
                with pytest.raises(BackpressureError, match="degraded"):
                    svc.submit("b", square, grid=GRID)
                gate.set()


class TestLedger:
    def test_unfinished_and_states(self, gate):
        with ResilienceService() as svc:
            a = svc.submit("a", held, grid={"x": [1]})
            b = svc.submit("b", held, grid={"x": [2]})
            assert svc.status()["pending_jobs"] == 2
            assert svc.cancel(b.id)
            gate.set()
            assert a.wait(30)
            status = svc.status()
            assert status["pending_jobs"] == 0
            assert status["jobs"] == {"done": 1, "cancelled": 1}
            assert svc.jobs() == [a, b]


class TestGracefulDegradation:
    def test_saturation_backpressure(self, monkeypatch):
        monkeypatch.setattr(api_module, "MAX_PENDING", 1)
        with ResilienceService() as svc:
            held = svc.submit("exp", napper, grid={"i": list(range(10))})
            with pytest.raises(BackpressureError, match="saturated"):
                svc.submit("exp2", square, grid=GRID)
            assert held.wait(30)  # accepted work still finishes
            # drained: admission opens again
            assert svc.submit("exp3", square, grid={"x": [1]}).wait(30)

    def test_breaker_trip_sheds_new_work_only(self):
        sup = Supervisor(families=("agents",))
        with supervisor_module.use(sup):
            with ResilienceService() as svc:
                accepted = svc.submit(
                    "exp", napper, grid={"i": list(range(8))}
                )
                sup.trip("agents", "test-induced fault")
                assert svc.degraded
                with pytest.raises(BackpressureError, match="degraded"):
                    svc.submit("exp2", square, grid=GRID)
                assert accepted.wait(30)
                assert accepted.state == DONE
                assert accepted.progress()["filled"] == 8
                assert svc.status()["degraded"]
                assert svc.status()["serving"]  # a trip alone is no fault

    def test_spent_deadline_sheds_new_work(self):
        sup = Supervisor(deadline_s=0.01)
        with supervisor_module.use(sup):
            with ResilienceService() as svc:
                time.sleep(0.05)  # spend the whole budget
                assert sup.deadline_exceeded()
                with pytest.raises(BackpressureError, match="degraded"):
                    svc.submit("exp", square, grid=GRID)


    def test_chunk_started_after_deadline_fails_explicitly(self):
        # one deadline rule for sweeps and the service: the slow job's
        # attempt is clamped to the budget, and the job accepted inside
        # the budget but reached after it is pre-empted, not run
        sup = Supervisor(deadline_s=0.5)
        with supervisor_module.use(sup):
            svc = ResilienceService().start()
            slow = svc.submit("slow", sleeper, grid={"x": [0]})
            late = svc.submit("late", square, grid=GRID)
            assert late.wait(10)
            assert slow.wait(10)
            assert _closes_within(svc, 10)
        assert slow.state == FAILED
        assert "timed out" in slow.result().failed[0].error
        assert late.state == FAILED
        failed = late.result().failed
        assert len(failed) == len(GRID["x"])
        assert all(
            "supervisor deadline exceeded" in f.error for f in failed
        )


class TestWorkerPool:
    """The scheduler thread keeps its worker pool from chunk to chunk
    and stops it when the service closes."""

    def test_supervisor_deadline_forks_once_not_per_chunk(self):
        with supervisor_module.use(Supervisor(deadline_s=60)):
            with ResilienceService() as svc:
                jobs = [
                    svc.submit(
                        f"exp{k}", square,
                        grid={"x": [4 * k + i for i in range(4)]},
                    )
                    for k in range(3)
                ]
                assert all(job.wait(30) for job in jobs)
                counters = svc.status()["counters"]
        assert [job.state for job in jobs] == [DONE] * 3
        assert counters["service.chunks"] == 3
        assert counters["executor.spawns"] == 1  # was one per chunk

    def test_close_leaves_no_worker_alive(self):
        svc = ResilienceService(workers=2).start()
        job = svc.submit("exp", worker_pid, grid=GRID)
        assert job.wait(30) and job.state == DONE
        pids = {row["pid"] for row in job.result().rows}
        svc.close()
        assert pids and os.getpid() not in pids
        alive = {p.pid for p in multiprocessing.active_children()}
        assert not pids & alive


class TestSchedulerFaults:
    # a write failing before the chunk runs, and one failing mid fan-out
    # (after the point executed, before its followers were filled)
    @pytest.mark.parametrize("write", ["record_dispatched", "store_result"])
    def test_raising_chunk_fails_its_job_and_degrades(
        self, tmp_path, monkeypatch, write
    ):
        def no_space(self, *args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(ServicePersistence, write, no_space)
        svc = ResilienceService(service_dir=str(tmp_path)).start()
        job = svc.submit("exp", square, grid=GRID)
        assert job.wait(10)
        assert job.state == FAILED
        assert all("OSError" in f.error for f in job.result().failed)
        assert job.progress()["degraded"]
        assert svc.degraded
        assert svc.status()["degraded"]
        assert not svc.status()["serving"]
        assert svc.tracer.counters["service.scheduler.errors"] == 1
        if write == "store_result":
            # a row whose durable append failed is not served from memory
            assert not any(p.fingerprint in svc.cache for p in job.points)
        with pytest.raises(BackpressureError, match="degraded"):
            svc.submit("exp2", square, grid=GRID)
        assert _closes_within(svc, 10)
        # the I/O-error policy: the failed job got no `completed` record,
        # so a restart on the healed directory re-admits it and runs it
        monkeypatch.undo()
        with ResilienceService(service_dir=str(tmp_path)) as again:
            rerun = again.job(job.id)
            assert rerun.wait(10)
        assert rerun.state == DONE
        assert rerun.result().rows == grid_sweep(GRID, square).rows

    def test_failed_accepted_write_admits_nothing(self, tmp_path, monkeypatch):
        def no_space(self, *args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(ServicePersistence, "record_accepted", no_space)
        svc = ResilienceService(service_dir=str(tmp_path)).start()
        with pytest.raises(OSError, match="No space"):
            svc.submit("exp", square, grid=GRID)
        status = svc.status()
        assert status["pending_jobs"] == 0
        assert status["jobs"] == {}
        assert not status["serving"]
        assert svc.degraded
        with pytest.raises(BackpressureError, match="degraded"):
            svc.submit("exp2", square, grid=GRID)
        assert _closes_within(svc, 10)

    def _assert_faulted(self, svc):
        assert not svc.status()["serving"]
        assert svc.status()["degraded"]
        assert svc.tracer.counters["service.scheduler.errors"] == 1
        with pytest.raises(BackpressureError, match="degraded"):
            svc.submit("next", square, grid=GRID)
        assert _closes_within(svc, 10)

    def test_failed_cancelled_write_degrades(
        self, tmp_path, monkeypatch, gate
    ):
        def no_space(self, *args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(ServicePersistence, "record_cancelled", no_space)
        svc = ResilienceService(service_dir=str(tmp_path)).start()
        job = svc.submit("exp", held, grid={"x": [1]})
        with pytest.raises(OSError, match="No space"):
            svc.cancel(job.id)
        gate.set()
        self._assert_faulted(svc)

    def test_failed_cache_served_completed_write_degrades(
        self, tmp_path, monkeypatch
    ):
        def no_space(self, *args):
            raise OSError(errno.ENOSPC, "No space left on device")

        svc = ResilienceService(service_dir=str(tmp_path)).start()
        assert svc.submit("exp", square, grid=GRID).wait(30)
        monkeypatch.setattr(ServicePersistence, "record_completed", no_space)
        with pytest.raises(OSError, match="No space"):
            svc.submit("exp", square, grid=GRID)  # served from the cache
        self._assert_faulted(svc)


class TestObservability:
    def test_job_event_stream(self):
        with ResilienceService() as svc:
            job = svc.submit("exp", square, grid=GRID)
            assert job.wait(30)
            kinds = [e["event"] for e in job.events]
            assert "service.job.accepted" in kinds
            assert "service.job.progress" in kinds
            assert "service.job.done" in kinds

    def test_status_snapshot(self):
        with ResilienceService() as svc:
            svc.submit("exp", square, grid=GRID).wait(30)
            status = svc.status()
            assert status["serving"]
            assert not status["degraded"]
            assert status["jobs"] == {"done": 1}
            assert status["pending_jobs"] == 0
            assert status["cache"]["entries"] == len(GRID["x"])
            assert status["counters"]["service.jobs.accepted"] == 1
        assert not svc.status()["serving"]


class TestConfiguration:
    def test_empty_service_dir_env_means_in_memory(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_DIR", "")
        assert ResilienceService().persistence is None


class TestLoadTestDurability:
    def _small(self, **kwargs):
        from repro.service.loadtest import run_load_test

        return run_load_test(
            total_points=64,
            n_jobs=2,
            submitters=2,
            cancel_points=10,
            **kwargs,
        )

    def test_repeated_runs_one_process_do_not_collide(self):
        # run-salted experiment names: the second drill must execute its
        # own points, not be served from the first drill's cache
        first = self._small()
        second = self._small()
        assert first["passed"], first["checks"]
        assert second["passed"], second["checks"]

    def test_durable_run_against_persistent_dir(self, tmp_path):
        report = self._small(service_dir=str(tmp_path))
        assert report["passed"], report["checks"]
        assert report["service_dir"] == str(tmp_path)
        # the same directory again: recovery replays, salting keeps the
        # second drill's points disjoint, every check still holds
        again = self._small(service_dir=str(tmp_path))
        assert again["passed"], again["checks"]
