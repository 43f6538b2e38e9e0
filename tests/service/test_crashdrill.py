"""Tests for the R03 crash drill (repro.service.crashdrill).

The drill itself is the test: SIGKILL a durable service mid-load in a
forked child, corrupt the journal tail and the result store, recover in
the test's own process from the files alone, and assert nothing was
lost, duplicated, or changed.  Kept small here (two jobs) — the
benchmark harness runs the full drill twice and compares rows across
runs.
"""

from __future__ import annotations

import json
import multiprocessing
import re

import pytest

from repro.errors import ConfigurationError
from repro.runtime import supervisor
from repro.service.crashdrill import (
    _count_done,
    _durable_rows,
    _journal_state,
    drill_point,
    run_crash_drill,
)


class TestHelpers:
    def test_drill_point_deterministic(self):
        import numpy as np

        seed = np.random.SeedSequence(7)
        assert drill_point(2, 3, seed) == drill_point(2, 3, seed)
        assert drill_point(2, 3, None)["salt"] == 0

    def test_count_done_missing_file(self, tmp_path):
        assert _count_done(str(tmp_path / "nope.jsonl")) == 0

    def test_durable_rows_skips_invalid_lines(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text(
            json.dumps({"kind": "service-results", "version": 1}) + "\n"
            + json.dumps({"fingerprint": "a", "row": {"v": 1}}) + "\n"
            + "garbage~\n"
            + json.dumps({"fingerprint": "a", "row": {"v": 2}}) + "\n"
            + '{"fingerprint": "torn'
        )
        rows = _durable_rows(str(path))
        assert rows == {"a": {"v": 2}}  # newest wins, damage skipped

    def test_journal_state_tracks_final_jobs(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(
            json.dumps({"kind": "service-journal", "version": 1}) + "\n"
            + json.dumps(
                {"record": "accepted", "job": "job-1", "fingerprints": ["f"]}
            ) + "\n"
            + json.dumps(
                {"record": "accepted", "job": "job-2", "fingerprints": ["g"]}
            ) + "\n"
            + json.dumps({"record": "completed", "job": "job-1"}) + "\n"
        )
        accepted, final = _journal_state(str(path))
        assert set(accepted) == {"job-1", "job-2"}
        assert final == {"job-1"}


class TestDrill:
    def test_small_drill_passes_every_check(self, tmp_path):
        with pytest.warns(RuntimeWarning, match="quarantined"):
            report = run_crash_drill(
                seed=17, workdir=str(tmp_path), n_jobs=2, points_per_job=24
            )
        assert report["checks"] == {
            label: True for label in report["checks"]
        }, report["checks"]
        assert report["passed"]
        # the kill landed mid-run and recovery really had work to do
        assert 0 < report["points_done_at_kill"] < report["unique_points"]
        assert report["expected_reexecutions"] > 0
        # the drill cleaned up after itself: the killed child is reaped
        # and no supervisor is left installed
        assert multiprocessing.active_children() == []
        assert supervisor.current() is supervisor.NULL

    @pytest.mark.parametrize("name", ["journal.jsonl", "results.jsonl"])
    def test_reused_workdir_is_refused(self, tmp_path, name):
        # a leftover journal would be recovered by the load phase itself,
        # so every submission would be a cache hit and the checks would
        # fail for a reason unrelated to durability
        leftover = tmp_path / "service" / name
        leftover.parent.mkdir()
        leftover.write_text("")
        match = re.escape(str(leftover))
        with pytest.raises(ConfigurationError, match=match):
            run_crash_drill(
                seed=17, workdir=str(tmp_path), n_jobs=2, points_per_job=24
            )
