"""Tests for the deterministic chaos harness (repro.runtime.chaos)."""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import pytest

from repro.errors import ChaosError
from repro.runtime import chaos, supervisor
from repro.runtime.chaos import (
    KINDS,
    ChaosFault,
    ChaosPlan,
    active,
    corrupt_checkpoint,
    poison,
    run_drill,
    strike,
)
from repro.runtime.checkpoint import fingerprint, sweep_checkpoint
from repro.runtime.executor import PointTask, run_points


def _repro_env() -> dict:
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


def _striking_worker(fn, value, seed):
    """Executor worker: run the chaos hook for point ``value``."""
    strike(value)
    return os.getpid()


class TestChaosFault:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ChaosError, match="unknown chaos kind"):
            ChaosFault("meteor", 0)

    def test_negative_point_rejected(self):
        with pytest.raises(ChaosError, match="point"):
            ChaosFault("raise", -1)

    @pytest.mark.parametrize("kind", ["hang", "oom", "nan"])
    def test_family_required_for_guarded_kinds(self, kind):
        with pytest.raises(ChaosError, match="engine family"):
            ChaosFault(kind, 0)
        with pytest.raises(ChaosError, match="engine family"):
            ChaosFault(kind, 0, family="warp-core")
        assert ChaosFault(kind, 0, family="csp").family == "csp"

    def test_raise_takes_no_family(self):
        with pytest.raises(ChaosError, match="no family"):
            ChaosFault("raise", 0, family="csp")
        assert ChaosFault("raise", 0).family is None


class TestChaosPlan:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ChaosError, match="duplicated points: \\[3\\]"):
            ChaosPlan(
                (ChaosFault("raise", 3), ChaosFault("oom", 3, family="csp"))
            )

    def test_fault_for(self):
        plan = ChaosPlan((ChaosFault("raise", 2),))
        assert plan.fault_for(2).kind == "raise"
        assert plan.fault_for(0) is None

    def test_sample_is_deterministic_and_covers_all_kinds(self):
        a = ChaosPlan.sample(16, seed=42)
        b = ChaosPlan.sample(16, seed=42)
        assert a == b
        assert sorted(f.kind for f in a.faults) == sorted(KINDS)
        assert len({f.point for f in a.faults}) == len(KINDS)
        assert ChaosPlan.sample(16, seed=43) != a

    def test_sample_needs_enough_points(self):
        with pytest.raises(ChaosError, match="at least"):
            ChaosPlan.sample(2, seed=0)


class TestActive:
    def test_publishes_and_restores_env(self, tmp_path):
        # the plan is module state: installed while active, gone after,
        # nested plans restore the outer one, the environment untouched
        env = _repro_env()
        plan = ChaosPlan((ChaosFault("raise", 0),))
        inner = ChaosPlan((ChaosFault("raise", 1),))
        state = str(tmp_path / "state")
        assert chaos._active is None
        with active(plan, state) as installed:
            assert installed is plan
            assert chaos._active == (plan, state)
            assert os.path.isdir(state)
            with active(inner, state):
                assert chaos._active == (inner, state)
            assert chaos._active == (plan, state)
            assert _repro_env() == env
        assert chaos._active is None
        assert _repro_env() == env

    def test_rejects_non_plan(self, tmp_path):
        with pytest.raises(ChaosError, match="needs a ChaosPlan"):
            with active([("raise", 0)], str(tmp_path)):
                pass


class TestStrikeAndPoison:
    def test_noop_without_plan(self):
        strike(0)  # must not raise
        assert poison(0, {"v": 1.5}) == {"v": 1.5}

    def test_raise_strikes_exactly_once(self, tmp_path):
        plan = ChaosPlan((ChaosFault("raise", 2),))
        with active(plan, str(tmp_path / "state")):
            strike(0)  # untargeted point: no-op
            with pytest.raises(RuntimeError, match="injected worker crash"):
                strike(2)
            strike(2)  # marker exists: the fault is spent

    def test_oom_disarms_when_family_degrades(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CSP_ENGINE", "bit")
        plan = ChaosPlan((ChaosFault("oom", 1, family="csp"),))
        sup = supervisor.Supervisor(families=("csp",))
        with active(plan, str(tmp_path / "state")), supervisor.use(sup):
            with pytest.raises(MemoryError, match="simulated out-of-memory"):
                strike(1)
            # the installed supervisor degrades the family ...
            sup.trip("csp", "MemoryError: simulated out-of-memory")
            strike(1)  # ... and the fault no longer fires
        assert os.environ["REPRO_CSP_ENGINE"] == "bit"

    def test_raise_strikes_once_in_forked_worker(self, tmp_path):
        # the forked worker inherits the installed plan; the once-marker
        # it writes disarms the retry in a fresh worker
        assert not [k for k in os.environ if k.startswith("REPRO_CHAOS_")]
        state = str(tmp_path / "state")
        plan = ChaosPlan((ChaosFault("raise", 0),))
        with active(plan, state):
            outcomes = run_points(
                _striking_worker,
                None,
                [PointTask(index=i, value=i) for i in range(2)],
                n_jobs=2,
                retries=1,
                backoff=0.0,
            )
        assert [o.ok for o in outcomes] == [True, True]
        assert [o.attempts for o in outcomes] == [2, 1]
        assert os.getpid() not in {o.value for o in outcomes}
        assert os.listdir(state) == ["raise-0.struck"]

    def test_poison_replaces_floats_only_while_armed(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CSP_ENGINE", "bit")
        plan = ChaosPlan((ChaosFault("nan", 0, family="csp"),))
        row = {"ok": True, "n": 3, "v": 0.5}
        with active(plan, str(tmp_path / "state")):
            poisoned = poison(0, row)
            assert math.isnan(poisoned["v"])
            assert poisoned["ok"] is True and poisoned["n"] == 3
            assert poison(1, row) == row  # untargeted point
            monkeypatch.setenv("REPRO_CSP_ENGINE", "object")
            assert poison(0, row) == row  # degraded: disarmed


class TestCorruptCheckpoint:
    def _checkpoint(self, tmp_path, n=5, name="ckpt.jsonl"):
        path = str(tmp_path / name)
        fp = fingerprint(list(range(n)), "none")
        with sweep_checkpoint(path, n_points=n, fp=fp) as ckpt:
            for i in range(n):
                ckpt.put(i, {"param": i, "v": float(i)})
        return path, fp

    def test_garbles_interior_line_deterministically(self, tmp_path):
        path, fp = self._checkpoint(tmp_path)
        before = Path(path).read_text().splitlines()
        struck = corrupt_checkpoint(path, seed=11)
        twin, _ = self._checkpoint(tmp_path, name="twin.jsonl")
        again = corrupt_checkpoint(twin, seed=11)
        assert struck == again  # same seed, same line
        after = Path(path).read_text().splitlines()
        assert len(struck) == 1
        lineno = struck[0] - 1
        assert 0 < lineno < len(before) - 1  # never header, never tail
        assert after[lineno] != before[lineno]
        with pytest.raises(json.JSONDecodeError):
            json.loads(after[lineno])
        # the damage is exactly what the quarantine path heals
        with pytest.warns(RuntimeWarning, match="quarantined"):
            with sweep_checkpoint(path, n_points=5, fp=fp) as ckpt:
                assert ckpt.quarantined == 1
                assert len(ckpt) == 4

    def test_too_few_interior_lines_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.jsonl")
        fp = fingerprint([0], "none")
        with sweep_checkpoint(path, n_points=1, fp=fp) as ckpt:
            ckpt.put(0, {"param": 0})
        with pytest.raises(ChaosError, match="interior"):
            corrupt_checkpoint(path, seed=0)


class TestDrill:
    """The PR's acceptance scenario, reproduced twice (see ISSUE)."""

    def test_drill_self_heals_and_matches_baseline(self, tmp_path):
        env = _repro_env()
        reports = []
        for attempt in ("a", "b"):
            workdir = tmp_path / attempt
            workdir.mkdir()
            # a 2 s point timeout (default 5 s) still catches the hang
            # fault: its one attempt waits 2 s, not 5 (an engine fault
            # goes straight to the degraded re-run, no in-place retry)
            with pytest.warns(RuntimeWarning, match="quarantined"):
                reports.append(
                    run_drill(seed=42, workdir=str(workdir), timeout_s=2.0)
                )
        first, second = reports
        assert first["ok"] == first["n_points"] == 16
        assert first["failed"] == 0
        assert first["trips"] == 1
        assert first["degradations"] >= 1
        assert first["reruns"] >= 1
        assert first["poisoned"] >= 1
        assert first["quarantined"] >= 1
        assert first["breakers"]["csp"]["state"] == "open"
        assert first["baseline_identical"] is True
        assert sorted(f["kind"] for f in first["plan"]) == sorted(KINDS)
        # byte-identical across the two runs: fixed seed, no wall-clock
        assert [json.dumps(r, sort_keys=True) for r in first["rows"]] == [
            json.dumps(r, sort_keys=True) for r in second["rows"]
        ]
        assert {k: v for k, v in first.items() if k != "rows"} == {
            k: v for k, v in second.items() if k != "rows"
        }
        # the drill cleaned up after itself: no supervisor or chaos plan
        # left installed, the REPRO_* environment as it was
        assert supervisor.current() is supervisor.NULL
        assert chaos._active is None
        assert _repro_env() == env


class TestDrillWorkerBaseline:
    def test_worker_row_shape(self):
        import numpy as np

        row = chaos._drill_worker(3, np.random.SeedSequence(1))
        assert set(row) == {"recoverable", "worst", "draw"}
        assert isinstance(row["recoverable"], bool)
        assert isinstance(row["worst"], int)
        assert isinstance(row["draw"], float)
