"""Tests for the service's durable spine (repro.service.persistence).

Covers the journal's corruption cases (torn tail, mid-file garble,
empty file, version-mismatch header; the result store's cases are the
row-store matrix in tests/runtime/test_checkpoint.py), the job
round-trip (encode -> journal -> rebuild), and full service recovery:
restart re-admits incomplete jobs, serves stored rows from the cache,
skips already-stored points, and keeps final jobs final.
"""

from __future__ import annotations

import gc
import json
import os
import threading
import warnings

import numpy as np
import pytest

from repro.errors import BackpressureError, CheckpointError
from repro.service import ResilienceService
from repro.service import api as api_module
from repro.service.jobs import CANCELLED, DONE, Job, JobSpec
from repro.service.persistence import (
    JOURNAL_NAME,
    RESULTS_NAME,
    ServicePersistence,
    encode_job,
    rebuild_job,
)


def point_fn(x: int, y: int = 0, seed=None) -> dict:
    """Module-level (importable) deterministic point function."""
    return {"value": x * 10 + y}


# gate for point functions that block mid-chunk until a test releases them
_GATE_STARTED = threading.Event()
_GATE_RELEASE = threading.Event()


def gated_point_fn(x: int, seed=None) -> dict:
    """Importable point function that holds its chunk open on the gate."""
    _GATE_STARTED.set()
    assert _GATE_RELEASE.wait(30), "gate never released"
    return {"value": x * 10}


def _job(job_id="job-000001", *, fn=point_fn, seed=7, points=None) -> Job:
    spec = JobSpec(
        experiment="exp",
        fn=fn,
        points=tuple(points or ({"x": 1}, {"x": 2})),
        seed=seed,
    )
    return Job(job_id, spec)


def _read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


class TestAppendAndReplay:
    def test_full_lifecycle_round_trips(self, tmp_path):
        p = ServicePersistence(str(tmp_path))
        job = _job()
        p.record_accepted(job)
        fps = [pt.fingerprint for pt in job.points]
        p.record_dispatched(fps)
        p.store_result(fps[0], {"value": 10})
        p.record_point_done(fps[0])
        p.close()

        p2 = ServicePersistence(str(tmp_path))
        state = p2.load()
        assert len(p2.results) == 1
        assert p2.results.get(fps[0]) == {"value": 10}
        assert [r["job"] for r in state.incomplete] == ["job-000001"]
        assert state.max_job_number == 1
        # dispatched/point-done records replay without warnings
        assert state.warnings == []
        p2.close()

    def test_completed_jobs_are_final(self, tmp_path):
        p = ServicePersistence(str(tmp_path))
        job = _job()
        p.record_accepted(job)
        p.record_completed(job)
        with ServicePersistence(str(tmp_path)) as reopened:
            state = reopened.load()
        assert state.incomplete == []
        assert state.max_job_number == 1  # final, but still numbered
        p.close()

    def test_cancelled_jobs_are_final(self, tmp_path):
        p = ServicePersistence(str(tmp_path))
        job = _job()
        p.record_accepted(job)
        p.record_cancelled(job)
        with ServicePersistence(str(tmp_path)) as reopened:
            state = reopened.load()
        assert state.incomplete == []
        p.close()

    def test_stats_report_appends_and_lag(self, tmp_path):
        p = ServicePersistence(str(tmp_path))
        p.store_result("fp", {"a": 1})
        stats = p.stats()
        assert stats["appended"] == stats["fsynced"] == 1
        assert stats["lag"] == 0
        assert stats["stored_rows"] == 1
        assert stats["dir"] == str(tmp_path)
        p.close()


class TestCorruptionMatrix:
    """The journal's damage cases degrade, never silently lie (the result
    store's are the shared row-store matrix)."""

    def _seeded(self, tmp_path) -> tuple:
        p = ServicePersistence(str(tmp_path))
        job = _job()
        p.record_accepted(job)
        for i, pt in enumerate(job.points):
            p.store_result(pt.fingerprint, {"value": (i + 1) * 10})
            p.record_point_done(pt.fingerprint)
        p.close()
        return (
            os.path.join(str(tmp_path), JOURNAL_NAME),
            os.path.join(str(tmp_path), RESULTS_NAME),
            [pt.fingerprint for pt in job.points],
        )

    def test_torn_journal_tail_dropped(self, tmp_path):
        journal, _, fps = self._seeded(tmp_path)
        with open(journal, "a") as fh:
            fh.write('{"record": "point-done", "fingerprint": "to')
        p = ServicePersistence(str(tmp_path))
        state = p.load()
        # the torn record vanishes; everything durably appended survives
        assert [r["job"] for r in state.incomplete] == ["job-000001"]
        assert all(fp in p.results for fp in fps) and len(p.results) == 2
        assert any(
            "torn tail" in w["reason"] for w in state.warnings
        )
        assert state.quarantined == 0
        p.close()

    def test_midfile_garble_quarantined_and_healed(self, tmp_path):
        journal, _, fps = self._seeded(tmp_path)
        lines = _read_lines(journal)
        lines[2] = lines[2][:10] + "~chaos~"
        with open(journal, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            p = ServicePersistence(str(tmp_path))
        state = p.load()
        assert state.quarantined == 1
        assert os.path.exists(journal + ".corrupt")
        # the heal is durable: reopening is clean
        p.close()
        p2 = ServicePersistence(str(tmp_path))
        assert p2.load().quarantined == 0
        p2.close()

    def test_empty_files_initialize_cleanly(self, tmp_path):
        # zero-byte files (crash before the header fsync) are re-headed
        for name in (JOURNAL_NAME, RESULTS_NAME):
            open(os.path.join(str(tmp_path), name), "w").close()
        p = ServicePersistence(str(tmp_path))
        state = p.load()
        assert len(p.results) == 0 and state.incomplete == []
        assert state.warnings == []
        p.close()

    def test_version_mismatch_header_refused(self, tmp_path):
        journal, _, _ = self._seeded(tmp_path)
        lines = _read_lines(journal)
        lines[0] = json.dumps({"kind": "service-journal", "version": 99})
        with open(journal, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="not a v1 service journal"):
            ServicePersistence(str(tmp_path))

    def test_refused_results_header_leaks_no_handle(self, tmp_path):
        _, results, _ = self._seeded(tmp_path)
        lines = _read_lines(results)
        lines[0] = json.dumps({"kind": "service-results", "version": 99})
        with open(results, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CheckpointError, match="service result"):
                ServicePersistence(str(tmp_path))
            gc.collect()
        leaks = [w for w in caught if w.category is ResourceWarning]
        assert leaks == []

class TestJobRoundTrip:
    def test_importable_job_rebuilds_identically(self):
        job = _job(seed=np.random.SeedSequence(42))
        record = json.loads(json.dumps(encode_job(job)))
        assert record["resumable"] is True
        rebuilt, reason = rebuild_job(record)
        assert reason is None
        assert rebuilt.id == job.id
        assert [p.fingerprint for p in rebuilt.points] == [
            p.fingerprint for p in job.points
        ]

    def test_int_and_none_seeds_round_trip(self):
        for seed in (None, 7):
            record = encode_job(_job(seed=seed))
            rebuilt, reason = rebuild_job(record)
            assert reason is None, reason
            assert rebuilt.spec.seed == seed

    def test_lambda_job_journaled_unresumable(self):
        job = _job(fn=lambda x, seed=None: {"v": x})
        record = encode_job(job)
        assert record["resumable"] is False
        assert "importable" in record["reason"]
        rebuilt, reason = rebuild_job(record)
        assert rebuilt is None and reason

    def test_prespawned_seedsequence_caught_by_fingerprints(self):
        # a parent the caller already spawned from: its children resume
        # at a later spawn key, so the rebuilt job's fingerprints
        # diverge and recovery refuses it instead of silently
        # recomputing different seeds
        seed = np.random.SeedSequence(1)
        seed.spawn(2)
        record = json.loads(json.dumps(encode_job(_job(seed=seed))))
        assert record["resumable"] is True
        rebuilt, reason = rebuild_job(record)
        assert rebuilt is None
        assert "diverge" in reason

    def test_vanished_function_refused_at_rebuild(self):
        record = encode_job(_job())
        record["fn"] = "repro.service.persistence:does_not_exist"
        rebuilt, reason = rebuild_job(record)
        assert rebuilt is None
        assert "no longer importable" in reason

    def test_fingerprint_divergence_refused(self):
        record = encode_job(_job())
        record["fingerprints"] = ["tampered"] * len(record["fingerprints"])
        rebuilt, reason = rebuild_job(record)
        assert rebuilt is None
        assert "diverge" in reason


class TestServiceRecovery:
    def test_unset_dir_means_no_persistence(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_DIR", raising=False)
        with ResilienceService(workers=1) as svc:
            assert svc.persistence is None
            assert svc.status()["journal"] is None
            assert svc.status()["recovery"] is None
        assert list(tmp_path.iterdir()) == []

    def test_env_knob_enables_persistence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_DIR", str(tmp_path))
        with ResilienceService(workers=1) as svc:
            assert svc.persistence is not None
            job = svc.submit("env-knob", point_fn, grid={"x": [1, 2]})
            job.wait(30)
        assert os.path.exists(tmp_path / JOURNAL_NAME)
        assert os.path.exists(tmp_path / RESULTS_NAME)

    def test_restart_serves_completed_work_from_store(self, tmp_path):
        with ResilienceService(
            workers=1, service_dir=str(tmp_path)
        ) as svc:
            job = svc.submit("warm", point_fn, grid={"x": [1, 2, 3]}, seed=3)
            assert job.wait(30)
            rows = job.result().rows
        with ResilienceService(
            workers=1, service_dir=str(tmp_path)
        ) as svc:
            assert svc.recovery["rows_warmed"] == 3
            again = svc.submit(
                "warm", point_fn, grid={"x": [1, 2, 3]}, seed=3
            )
            assert again.wait(30)
            assert again.progress()["cached"] == 3
            assert again.progress()["executed"] == 0
            assert again.result().rows == rows

    def test_restart_reexecutes_only_missing_points(self, tmp_path):
        with ResilienceService(
            workers=1, service_dir=str(tmp_path)
        ) as svc:
            job = svc.submit(
                "partial", point_fn, grid={"x": [1, 2, 3, 4]}, seed=5
            )
            assert job.wait(30)
            baseline = job.result().rows
        # simulate a crash that lost the last store append: drop the
        # final result row (and its point-done, which trails it)
        results = tmp_path / RESULTS_NAME
        lines = _read_lines(results)
        with open(results, "w") as fh:
            fh.write("\n".join(lines[:-1]) + "\n")
        journal = tmp_path / JOURNAL_NAME
        kept = [
            line
            for line in _read_lines(journal)
            if '"completed"' not in line
        ][:-1]
        with open(journal, "w") as fh:
            fh.write("\n".join(kept) + "\n")
        with ResilienceService(
            workers=1, service_dir=str(tmp_path)
        ) as svc:
            recovered = svc.job("job-000001")
            assert recovered.wait(30)
            assert recovered.state == DONE
            assert recovered.result().rows == baseline
            assert recovered.progress()["cached"] == 3
            assert recovered.progress()["executed"] == 1
            assert svc.recovery["jobs"] == 1
            assert svc.recovery["points_rerun"] == 1

    def test_recovered_twins_still_deduplicate(self, tmp_path):
        with ResilienceService(
            workers=1, service_dir=str(tmp_path)
        ) as svc:
            a = svc.submit("twin", point_fn, grid={"x": [1, 2]}, seed=9)
            b = svc.submit("twin", point_fn, grid={"x": [1, 2]}, seed=9)
            assert a.wait(30) and b.wait(30)
        # forget everything executed, keep both accepted records
        journal = tmp_path / JOURNAL_NAME
        kept = [
            line
            for line in _read_lines(journal)
            if '"accepted"' in line or '"service-journal"' in line
        ]
        with open(journal, "w") as fh:
            fh.write("\n".join(kept) + "\n")
        results = tmp_path / RESULTS_NAME
        header = _read_lines(results)[0]
        with open(results, "w") as fh:
            fh.write(header + "\n")
        with ResilienceService(
            workers=1, service_dir=str(tmp_path)
        ) as svc:
            for job_id in ("job-000001", "job-000002"):
                job = svc.job(job_id)
                assert job.wait(30) and job.state == DONE
            executed = svc.tracer.counters["service.points.executed"]
        assert executed == 2  # two unique points, two jobs: no doubling

    def test_twin_attached_mid_chunk_is_journaled_completed(self, tmp_path):
        """A follower that attaches after its chunk started running is
        filled by that chunk and must get its own ``completed`` record,
        or recovery re-admits the finished job."""
        _GATE_STARTED.clear()
        _GATE_RELEASE.clear()
        try:
            with ResilienceService(
                workers=1, service_dir=str(tmp_path)
            ) as svc:
                first = svc.submit(
                    "gated", gated_point_fn, grid={"x": [1]}, seed=4
                )
                assert _GATE_STARTED.wait(30)  # the chunk is running
                twin = svc.submit(
                    "gated", gated_point_fn, grid={"x": [1]}, seed=4
                )
                assert twin.progress()["deduped"] == 0  # still waiting
                _GATE_RELEASE.set()
                assert first.wait(30) and twin.wait(30)
                assert twin.state == DONE
                assert twin.progress()["deduped"] == 1
        finally:
            _GATE_RELEASE.set()
        completed = [
            json.loads(line)["job"]
            for line in _read_lines(tmp_path / JOURNAL_NAME)
            if '"completed"' in line
        ]
        assert sorted(completed) == [first.id, twin.id]
        with ResilienceService(
            workers=1, service_dir=str(tmp_path)
        ) as svc:
            assert svc.recovery["jobs"] == 0  # nothing re-admitted

    def test_recovery_readmits_past_max_pending(self, tmp_path, monkeypatch):
        """Backpressure sheds new work only: a restart re-admits every
        journaled promise, however many exceed ``MAX_PENDING``."""
        with ResilienceService(
            workers=1, service_dir=str(tmp_path)
        ) as svc:
            jobs = [
                svc.submit("promise", point_fn, grid={"x": [i]})
                for i in range(3)
            ]
            assert all(job.wait(30) for job in jobs)
            rows = [job.result().rows for job in jobs]
        # forget every completion and every stored row
        journal = tmp_path / JOURNAL_NAME
        kept = [
            line
            for line in _read_lines(journal)
            if '"accepted"' in line or '"service-journal"' in line
        ]
        with open(journal, "w") as fh:
            fh.write("\n".join(kept) + "\n")
        results = tmp_path / RESULTS_NAME
        header = _read_lines(results)[0]
        with open(results, "w") as fh:
            fh.write(header + "\n")
        monkeypatch.setattr(api_module, "MAX_PENDING", 1)
        with ResilienceService(
            workers=1, service_dir=str(tmp_path)
        ) as svc:
            assert svc.recovery["jobs"] == 3
            recovered = [svc.job(job.id) for job in jobs]
            assert all(job.wait(30) for job in recovered)
        assert [job.state for job in recovered] == [DONE] * 3
        assert [job.result().rows for job in recovered] == rows

    def test_refused_submission_journals_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(api_module, "MAX_PENDING", 1)
        _GATE_STARTED.clear()
        _GATE_RELEASE.clear()
        try:
            with ResilienceService(
                workers=1, service_dir=str(tmp_path)
            ) as svc:
                held = svc.submit("held", gated_point_fn, grid={"x": [1]})
                with pytest.raises(BackpressureError, match="saturated"):
                    svc.submit("refused", point_fn, grid={"x": [2]})
                _GATE_RELEASE.set()
                assert held.wait(30)
        finally:
            _GATE_RELEASE.set()
        accepted = [
            json.loads(line)["job"]
            for line in _read_lines(tmp_path / JOURNAL_NAME)
            if '"accepted"' in line
        ]
        assert accepted == [held.id]

    def test_cancelled_jobs_stay_cancelled_after_restart(self, tmp_path):
        with ResilienceService(
            workers=1, service_dir=str(tmp_path)
        ) as svc:
            job = svc.submit("gone", point_fn, grid={"x": [1]})
            svc.cancel(job.id)
            job.wait(30)
        with ResilienceService(
            workers=1, service_dir=str(tmp_path)
        ) as svc:
            assert svc.recovery["jobs"] == 0
            with pytest.raises(Exception, match="unknown job"):
                svc.job("job-000001")

    def test_job_counter_resumes_past_journal(self, tmp_path):
        with ResilienceService(
            workers=1, service_dir=str(tmp_path)
        ) as svc:
            svc.submit("count", point_fn, grid={"x": [1]}).wait(30)
        with ResilienceService(
            workers=1, service_dir=str(tmp_path)
        ) as svc:
            job = svc.submit("count-2", point_fn, grid={"x": [2]})
            assert job.id == "job-000002"
            job.wait(30)

    def test_unresumable_job_skipped_with_warning(self, tmp_path):
        with ResilienceService(
            workers=1, service_dir=str(tmp_path)
        ) as svc:
            job = svc.submit(
                "lambda-job", lambda x, seed=None: {"v": x},
                grid={"x": [1]},
            )
            assert job.wait(30)
        # strip its completion so recovery has to consider it
        journal = tmp_path / JOURNAL_NAME
        kept = [
            line
            for line in _read_lines(journal)
            if '"completed"' not in line
        ]
        with open(journal, "w") as fh:
            fh.write("\n".join(kept) + "\n")
        with ResilienceService(
            workers=1, service_dir=str(tmp_path)
        ) as svc:
            assert svc.recovery["jobs"] == 0
            assert svc.recovery["skipped"] == 1

    def test_status_surfaces_journal_and_job_counts(self, tmp_path):
        with ResilienceService(
            workers=1, service_dir=str(tmp_path)
        ) as svc:
            job = svc.submit("status", point_fn, grid={"x": [1, 2]})
            job.wait(30)
            status = svc.status()
        assert status["journal"]["stored_rows"] == 2
        assert status["journal"]["lag"] == 0
        assert status["job_counts"][DONE] == 1
        assert status["job_counts"][CANCELLED] == 0
        assert status["recovery"] is not None
