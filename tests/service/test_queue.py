"""Unit tests for the admission-controlled job ledger."""

import pytest

from repro.errors import BackpressureError
from repro.service import queue as queue_module
from repro.service.jobs import DONE, Job, JobSpec
from repro.service.queue import JobQueue


def _job(job_id="job-1", n=2):
    spec = JobSpec(
        experiment="exp",
        fn=dict,
        points=tuple({"x": i} for i in range(n)),
    )
    return Job(job_id, spec)


class TestAdmission:
    def test_admit_and_get(self):
        q = JobQueue()
        job = _job()
        q.admit(job)
        assert q.get("job-1") is job
        assert q.get("nope") is None
        assert q.jobs() == [job]

    def test_saturation_backpressure(self, monkeypatch):
        monkeypatch.setattr(queue_module, "MAX_PENDING", 2)
        q = JobQueue()
        q.admit(_job("a"))
        q.admit(_job("b"))
        with pytest.raises(BackpressureError, match="saturated"):
            q.admit(_job("c"))

    def test_finished_jobs_free_admission_slots(self, monkeypatch):
        monkeypatch.setattr(queue_module, "MAX_PENDING", 1)
        q = JobQueue()
        done = _job("a", n=1)
        q.admit(done)
        done.fill(0, {"x": 0}, source="executed")
        assert done.state == DONE
        q.admit(_job("b"))  # does not raise: "a" no longer pending

    def test_degraded_refusal_wins_over_capacity(self):
        q = JobQueue()
        with pytest.raises(BackpressureError, match="degraded"):
            q.admit(_job(), degraded=True)


class TestLedger:
    def test_unfinished_and_states(self):
        q = JobQueue()
        a, b = _job("a", n=1), _job("b", n=1)
        q.admit(a)
        q.admit(b)
        assert q.pending() == 2
        a.fill(0, {"x": 0}, source="cache")
        assert q.unfinished() == [b]
        b.cancel()
        assert q.pending() == 0
        assert q.states() == {"done": 1, "cancelled": 1}
