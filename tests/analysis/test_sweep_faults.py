"""Fault-tolerance, checkpoint/resume, and input-validation tests for
the sweep harness (repro.analysis.sweep on top of repro.runtime)."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.analysis.sweep import grid_sweep, sweep
from repro.errors import CheckpointError, ConfigurationError
from repro.rng import make_rng
from repro.runtime import trace
from repro.runtime.trace import Tracer


# module-level workers so worker processes can run them

def square(value):
    return {"square": value * value}


def seeded_draw(value, seed):
    rng = make_rng(seed)
    return {"draw": float(rng.random()), "twice": value * 2}


def _log_call(value):
    log = os.environ.get("REPRO_TEST_SWEEP_CALLS")
    if log:
        with open(log, "a") as fh:
            fh.write(f"{value}\n")


def faulty_point(value, seed):
    """16-point worker with two injected faults (1 raise, 1 hang)."""
    _log_call(value)
    rng = make_rng(seed)
    draw = float(rng.random())
    if not os.environ.get("REPRO_TEST_SWEEP_HEALED"):
        if value == 3:
            raise ValueError("injected worker fault")
        if value == 7:
            time.sleep(60)
    return {"draw": draw, "twice": value * 2}


def raise_on_odd(value):
    if value % 2:
        raise RuntimeError(f"odd value {value}")
    return {"even": value}


def grid_raise(x, y):
    if x == 2 and y == 20:
        raise RuntimeError("bad cell")
    return {"product": x * y}


def logged_square(value, seed):
    _log_call(value)
    rng = make_rng(seed)
    return {"draw": float(rng.random())}


def _read_calls(path) -> list[int]:
    if not os.path.exists(path):
        return []
    return [int(line) for line in open(path).read().split()]


class TestInputMaterialization:
    """`values` may be any iterable — the old `if not values` choked on
    numpy arrays and silently consumed generators."""

    def test_numpy_array_values(self):
        result = sweep(np.array([1, 2, 3]), square)
        assert result.column("square") == [1, 4, 9]

    def test_range_values(self):
        result = sweep(range(4), square)
        assert result.column("square") == [0, 1, 4, 9]

    def test_generator_values(self):
        result = sweep((v for v in [2, 5]), square, param_name="v")
        assert result.column("v") == [2, 5]
        assert result.column("square") == [4, 25]

    def test_empty_generator_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep((v for v in []), square)

    def test_empty_array_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(np.array([]), square)

    def test_grid_accepts_arrays_ranges_generators(self):
        result = grid_sweep(
            {"x": np.array([1, 2]), "y": range(3, 5)},
            lambda x, y: {"sum": x + y},
        )
        assert len(result) == 4
        assert result.rows[0]["sum"] == 4

    def test_grid_empty_array_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_sweep({"x": np.array([])}, square)


class TestErrorRows:
    def test_default_still_raises(self):
        with pytest.raises(RuntimeError, match="odd value 1"):
            sweep([0, 1, 2], raise_on_odd)

    def test_keep_completes_with_error_rows(self):
        result = sweep([0, 1, 2, 3], raise_on_odd, on_error="keep")
        assert len(result) == 4
        assert len(result.ok_rows) == 2
        assert len(result.failed) == 2
        assert [f.index for f in result.failed] == [1, 3]
        failure = result.failed[0]
        assert failure.params == {"param": 1}
        assert "RuntimeError: odd value 1" in failure.error
        assert "odd value 1" in failure.traceback
        # the error row sits in `rows` at the point's position
        assert result.rows[1]["error"] == failure.error

    def test_ok_rows_preserve_order_and_content(self):
        result = sweep([0, 1, 2, 3], raise_on_odd, on_error="keep")
        assert [r["even"] for r in result.ok_rows] == [0, 2]

    def test_seeded_failure_carries_child_seed(self):
        def fail_all(value, seed):
            raise ValueError("nope")

        result = sweep([10, 11], fail_all, seed=42, on_error="keep")
        seeds = [f.seed for f in result.failed]
        assert seeds[0] == (42, (0,))
        assert seeds[1] == (42, (1,))

    def test_unseeded_failure_has_none_seed(self):
        result = sweep([1], raise_on_odd, on_error="keep")
        assert result.failed[0].seed is None

    def test_grid_sweep_keep(self):
        result = grid_sweep(
            {"x": [1, 2], "y": [10, 20]}, grid_raise, on_error="keep"
        )
        assert len(result.failed) == 1
        assert result.failed[0].params == {"x": 2, "y": 20}

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep([1], square, on_error="ignore")

    def test_mixed_table_renders(self):
        result = sweep([0, 1], raise_on_odd, on_error="keep")
        table = result.to_table()
        assert "error" in table


class TestAcceptance:
    """The ISSUE's acceptance scenario: a 16-point sweep with 2 injected
    worker faults (1 raise, 1 timeout) completes with 14 ok rows + 2
    failure rows carrying seeds/tracebacks, and resuming from its
    checkpoint re-runs only the failed points with identical values for
    the rest."""

    def test_16_points_2_faults_then_resume(self, tmp_path, monkeypatch):
        calls = str(tmp_path / "calls.log")
        ckpt = str(tmp_path / "sweep.jsonl")
        monkeypatch.setenv("REPRO_TEST_SWEEP_CALLS", calls)
        monkeypatch.delenv("REPRO_TEST_SWEEP_HEALED", raising=False)

        tr = Tracer()
        with trace.use(tr):
            first = sweep(
                range(16),
                faulty_point,
                param_name="value",
                n_jobs=4,
                seed=42,
                on_error="keep",
                timeout=1.5,
                checkpoint=ckpt,
            )
        assert len(first) == 16
        assert len(first.ok_rows) == 14
        assert len(first.failed) == 2
        raised = next(f for f in first.failed if f.params["value"] == 3)
        hung = next(f for f in first.failed if f.params["value"] == 7)
        assert "ValueError: injected worker fault" in raised.error
        assert "injected worker fault" in raised.traceback
        assert raised.seed == (42, (3,))
        assert "timed out after 1.5s" in hung.error
        assert hung.seed == (42, (7,))
        assert sorted(_read_calls(calls)) == list(range(16))
        assert tr.counters["sweep.points.ok"] == 14
        assert tr.counters["sweep.points.failed"] == 2
        events = [e["event"] for e in tr.events]
        assert events[0] == "sweep.start" and events[-1] == "sweep.end"

        # resume: faults healed, only the 2 failed points re-run
        open(calls, "w").close()
        monkeypatch.setenv("REPRO_TEST_SWEEP_HEALED", "1")
        resumed = sweep(
            range(16),
            faulty_point,
            param_name="value",
            n_jobs=4,
            seed=42,
            on_error="keep",
            timeout=1.5,
            checkpoint=ckpt,
        )
        assert sorted(_read_calls(calls)) == [3, 7]
        assert len(resumed.ok_rows) == 16
        assert resumed.failed == ()
        # completed points replay the exact same row values
        ok_by_value = {r["value"]: r for r in first.ok_rows}
        for row in resumed.rows:
            if row["value"] in ok_by_value:
                assert row == ok_by_value[row["value"]]
        # and the resumed rows are exactly the seeded no-fault rows
        monkeypatch.delenv("REPRO_TEST_SWEEP_CALLS")
        fresh = sweep(
            range(16),
            faulty_point,
            param_name="value",
            seed=42,
            n_jobs=1,
        )
        assert list(resumed.rows) == list(fresh.rows)


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_deterministically(
        self, tmp_path, monkeypatch
    ):
        calls = str(tmp_path / "calls.log")
        ckpt = str(tmp_path / "sweep.jsonl")
        monkeypatch.setenv("REPRO_TEST_SWEEP_CALLS", calls)

        full = sweep(range(6), logged_square, seed=7, checkpoint=ckpt)
        assert sorted(_read_calls(calls)) == list(range(6))

        open(calls, "w").close()
        replay = sweep(range(6), logged_square, seed=7, checkpoint=ckpt)
        assert _read_calls(calls) == []  # nothing re-ran
        assert list(replay.rows) == list(full.rows)

    def test_changed_grid_rejects_stale_checkpoint(self, tmp_path):
        ckpt = str(tmp_path / "sweep.jsonl")
        sweep([1, 2], seeded_draw, seed=1, checkpoint=ckpt)
        with pytest.raises(CheckpointError):
            sweep([1, 3], seeded_draw, seed=1, checkpoint=ckpt)

    def test_changed_seed_rejects_stale_checkpoint(self, tmp_path):
        ckpt = str(tmp_path / "sweep.jsonl")
        sweep([1, 2], seeded_draw, seed=1, checkpoint=ckpt)
        with pytest.raises(CheckpointError):
            sweep([1, 2], seeded_draw, seed=2, checkpoint=ckpt)

    def test_checkpointed_rows_match_uncheckpointed(self, tmp_path):
        ckpt = str(tmp_path / "sweep.jsonl")
        with_ckpt = sweep([1, 2, 3], seeded_draw, seed=9, checkpoint=ckpt)
        without = sweep([1, 2, 3], seeded_draw, seed=9)
        assert list(with_ckpt.rows) == list(without.rows)

    def test_grid_sweep_checkpoint(self, tmp_path, monkeypatch):
        calls = str(tmp_path / "calls.log")
        ckpt = str(tmp_path / "grid.jsonl")
        monkeypatch.setenv("REPRO_TEST_SWEEP_CALLS", calls)

        def worker(x, y):
            _log_call(x * 10 + y)
            return {"sum": x + y}

        first = grid_sweep({"x": [1, 2], "y": [3, 4]}, worker,
                           checkpoint=ckpt)
        open(calls, "w").close()
        again = grid_sweep({"x": [1, 2], "y": [3, 4]}, worker,
                           checkpoint=ckpt)
        assert _read_calls(calls) == []
        assert list(again.rows) == list(first.rows)


class TestRetries:
    def test_transient_failure_recovered(self, tmp_path, monkeypatch):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(marker_dir))

        result = sweep(
            [4, 5],
            flaky_square,
            n_jobs=2,
            retries=2,
            retry_backoff=0.01,
            on_error="keep",
        )
        assert result.failed == ()
        assert [r["square"] for r in result.rows] == [16, 25]


def flaky_square(value):
    """Fails the first attempt per value, succeeds on retry."""
    marker = os.path.join(
        os.environ["REPRO_TEST_FLAKY_DIR"], f"seen.{value}"
    )
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        raise RuntimeError("transient glitch")
    return {"square": value * value}
