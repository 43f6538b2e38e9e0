"""Tests for the MAPE supervisor (repro.runtime.supervisor)."""

from __future__ import annotations

import math
import os

import pytest

from repro.analysis.sweep import sweep
from repro.errors import SupervisorError
from repro.runtime import supervisor, trace
from repro.runtime.engines import SEAMS, effective_kind, resolve_engine_kind
from repro.runtime.executor import PointTask, run_points
from repro.runtime.supervisor import (
    CLOSED,
    NULL,
    OPEN,
    Breaker,
    NullSupervisor,
    Supervisor,
)


class TestBreaker:
    def test_opens_at_threshold_and_stays_open(self):
        b = Breaker("csp")
        assert b.state == CLOSED
        assert b.record("first") is True
        assert b.state == OPEN
        assert b.reason == "first"
        # no half-open probing: further faults are absorbed silently
        assert b.record("second") is False
        assert b.state == OPEN
        assert b.reason == "first"
        assert b.failures == 1

    def test_default_threshold_is_first_blood(self):
        b = Breaker("agents")
        assert b.record("boom") is True
        assert b.state == OPEN


class TestConstruction:
    def test_unknown_family_rejected(self):
        with pytest.raises(SupervisorError, match="unknown engine families"):
            Supervisor(families=("csp", "quantum"))

    def test_empty_families_rejected(self):
        with pytest.raises(SupervisorError, match="at least one"):
            Supervisor(families=())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_s": 0},
            {"deadline_s": -1.0},
            {"memory_budget_mb": 0},
        ],
    )
    def test_bad_budgets_rejected(self, kwargs):
        with pytest.raises(SupervisorError):
            Supervisor(**kwargs)

    def test_null_supervisor_is_falsy_passthrough(self):
        assert not NULL
        assert isinstance(NULL, NullSupervisor)
        assert NULL.resolve("csp", "bit") == "bit"
        assert NULL.peek("agents", "array") == "array"
        assert NULL.memory_budget_bytes() is None
        # default: no supervisor installed
        assert supervisor.current() is NULL


class TestDegradation:
    def test_resolve_passthrough_while_closed(self):
        sup = Supervisor()
        for family, seam in SEAMS.items():
            for kind in seam.choices:
                assert sup.resolve(family, kind) == kind

    def test_open_breaker_degrades_fast_kinds_only(self):
        sup = Supervisor()
        sup.trip("csp", "test fault")
        assert sup.resolve("csp", "bit") == "object"
        assert sup.resolve("csp", "object") == "object"
        # other families' breakers are untouched
        assert sup.resolve("agents", "array") == "array"

    def test_trip_counts_and_pins_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CSP_ENGINE", raising=False)
        sup = Supervisor(families=("csp",))
        with trace.use(trace.Tracer()) as tr:
            assert sup.trip("csp", "boom") is True
            assert sup.trip("csp", "again") is False  # already open
        assert tr.counters["supervisor.trips"] == 1
        assert tr.counters["supervisor.degradations"] == 1
        # the breaker is the whole effect: the environment is untouched
        assert "REPRO_CSP_ENGINE" not in os.environ

    def test_trip_unsupervised_family_rejected(self):
        sup = Supervisor(families=("csp",))
        with pytest.raises(SupervisorError, match="not supervised"):
            sup.trip("agents", "boom")

    def test_record_fault_trips_only_fast_families(self, monkeypatch):
        monkeypatch.setenv("REPRO_CSP_ENGINE", "bit")
        monkeypatch.delenv("REPRO_AGENT_ENGINE", raising=False)
        monkeypatch.setenv("REPRO_NETWORK_ENGINE", "object")
        sup = Supervisor()  # all three families
        tripped = sup.record_fault("MemoryError: boom")
        # csp runs bit (fast) -> tripped; agents defaults to array (fast)
        # -> tripped; networks pinned object -> spared
        assert tripped == ["agents", "csp"]
        assert sup.breakers["csp"].state == OPEN
        assert sup.breakers["agents"].state == OPEN
        assert sup.breakers["networks"].state == CLOSED

    def test_uninstalled_supervisor_leaves_process_alone(self, monkeypatch):
        # a supervisor that is not installed must not degrade anything:
        # neither the REPRO_* environment nor the seam's resolution
        monkeypatch.setenv("REPRO_CSP_ENGINE", "tiled")
        before = dict(os.environ)
        sup = Supervisor(families=("csp",))
        assert sup.record_fault("MemoryError: x") == ["csp"]
        assert sup.trip("csp", "again") is False
        assert Supervisor(families=("csp",)).trip("csp", "boom") is True
        assert dict(os.environ) == before
        assert resolve_engine_kind("csp") == "tiled"
        assert effective_kind("csp") == "tiled"

    def test_seam_resolution_degrades_under_installed_supervisor(
        self, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CSP_ENGINE", raising=False)
        sup = Supervisor(families=("csp",))
        with supervisor.use(sup):
            sup.trip("csp", "boom")
            assert resolve_engine_kind("csp", "bit") == "object"
        # uninstalled: the seam is back to normal
        assert resolve_engine_kind("csp", "bit") == "bit"


class TestUse:
    def test_install_and_restore(self):
        sup = Supervisor()
        assert supervisor.current() is NULL
        with supervisor.use(sup) as installed:
            assert installed is sup
            assert supervisor.current() is sup
        assert supervisor.current() is NULL

    def test_use_rejects_non_supervisor(self):
        with pytest.raises(SupervisorError, match="needs a Supervisor"):
            with supervisor.use(object()):  # type: ignore[arg-type]
                pass

    def test_reentry_repins_open_breakers(self, monkeypatch):
        monkeypatch.setenv("REPRO_CSP_ENGINE", "bit")
        sup = Supervisor(families=("csp",))
        with supervisor.use(sup):
            sup.trip("csp", "boom")
            assert effective_kind("csp") == "object"
        # uninstalled: the seam is back to the requested kind ...
        assert effective_kind("csp") == "bit"
        # ... but a re-installed supervisor stays degraded
        # (deterministic for the rest of the run)
        with supervisor.use(sup):
            assert effective_kind("csp") == "object"
            assert resolve_engine_kind("csp", "tiled") == "object"
        assert os.environ["REPRO_CSP_ENGINE"] == "bit"

    def test_forked_worker_inherits_the_trip(self):
        # workers reach run state only by fork: a pool forked after the
        # trip resolves the degraded kind with the environment untouched
        sup = Supervisor(families=("csp",))
        with supervisor.use(sup):
            sup.trip("csp", "boom")
            outcomes = run_points(
                _resolve_in_worker,
                None,
                [PointTask(index=i, value=i) for i in range(2)],
                n_jobs=2,
            )
        assert [o.ok for o in outcomes] == [True, True]
        assert os.getpid() not in {o.value["pid"] for o in outcomes}
        for o in outcomes:
            assert o.value["kind"] == "object"
            assert o.value["env"] == os.environ.get("REPRO_CSP_ENGINE")


class TestAnalyze:
    @pytest.mark.parametrize(
        "error,exception,expected",
        [
            ("MemoryError: out of memory", None, True),
            (None, MemoryError("boom"), True),
            ("worker timed out after 5.0s", None, True),
            ("worker process died without a result (exitcode -9)", None, True),
            ("ValueError: bad input", None, False),
            ("ValueError: bad", ValueError("bad"), False),
            (None, None, False),
            ("", None, False),
            # a point's own timeout is not the executor's: with the
            # exception, or as the bare text of an unpicklable one
            (
                "TimeoutError: upstream request timed out after 3s",
                TimeoutError("upstream request timed out after 3s"),
                False,
            ),
            ("TimeoutError: upstream request timed out after 3s", None,
             False),
        ],
    )
    def test_is_engine_fault(self, error, exception, expected):
        assert Supervisor.is_engine_fault(error, exception) is expected


class TestBudgets:
    def test_remaining_before_install_is_full_budget(self):
        sup = Supervisor(deadline_s=5.0)
        assert sup.remaining_s() == 5.0
        assert Supervisor().remaining_s() is None

    def test_deadline_counts_down_once_installed(self):
        sup = Supervisor(deadline_s=60.0)
        with supervisor.use(sup):
            remaining = sup.remaining_s()
        assert remaining is not None and 0 < remaining <= 60.0

    def test_memory_budget_in_bytes(self):
        assert Supervisor(memory_budget_mb=2).memory_budget_bytes() \
            == 2 * 1024 * 1024
        assert Supervisor().memory_budget_bytes() is None


def _resolve_in_worker(fn, value, seed):
    """Executor worker: what the csp seam resolves inside the worker."""
    return {
        "kind": resolve_engine_kind("csp", "bit"),
        "env": os.environ.get("REPRO_CSP_ENGINE"),
        "pid": os.getpid(),
    }


def _memory_hungry_worker(value, seed):
    """Fails like an OOM'd engine while csp resolves fast, then recovers."""
    if effective_kind("csp") == "bit":
        raise MemoryError("engine blew the heap")
    return {"v": float(value)}


def _poisoning_worker(value, seed):
    """NaN-poisons its output while csp resolves fast, clean degraded."""
    bad = effective_kind("csp") == "bit"
    return {"v": float("nan") if bad else float(value)}


def _always_nan_worker(value, seed):
    return {"v": float("nan")}


def _always_oom_worker(value, seed):
    raise MemoryError("engine blew the heap")


def _upstream_timeout_worker(value, seed):
    raise TimeoutError("upstream request timed out after 3s")


class TestSupervisedSweep:
    def test_point_timeout_error_leaves_breakers_closed(self, monkeypatch):
        # a TimeoutError the point raised is an ordinary failure: retried
        # in place, never a reason to degrade the run's engines
        monkeypatch.setenv("REPRO_CSP_ENGINE", "bit")
        sup = Supervisor(families=("agents", "csp"))
        with trace.use(trace.Tracer()) as tr, supervisor.use(sup):
            result = sweep(
                range(2),
                _upstream_timeout_worker,
                seed=7,
                on_error="keep",
                retries=1,
                retry_backoff=0.0,
            )
        assert [f.attempts for f in result.failed] == [2, 2]
        assert all(
            f.error.startswith("TimeoutError: upstream")
            for f in result.failed
        )
        assert {b.state for b in sup.breakers.values()} == {CLOSED}
        assert "supervisor.trips" not in tr.counters
        assert tr.counters["executor.retries"] == 2
        assert not sup.degraded()

    def test_engine_fault_trips_and_rerun_heals(self, monkeypatch):
        monkeypatch.setenv("REPRO_CSP_ENGINE", "bit")
        sup = Supervisor(families=("csp",))
        with trace.use(trace.Tracer()) as tr, supervisor.use(sup):
            result = sweep(
                range(4),
                _memory_hungry_worker,
                seed=7,
                on_error="keep",
                retries=1,
            )
        assert [r["v"] for r in result.rows] == [0.0, 1.0, 2.0, 3.0]
        assert result.failed == ()
        assert sup.breakers["csp"].state == OPEN
        assert tr.counters["supervisor.trips"] == 1
        assert tr.counters["supervisor.reruns"] == 4
        # an engine fault skips the in-place retry on the fast engine:
        # it goes straight to the re-run on the degraded one
        assert "executor.retries" not in tr.counters

    def test_engine_fault_with_nothing_to_degrade_retries_in_place(
        self, monkeypatch
    ):
        # every seam already on its fallback: no family is exposed, so
        # the retry budget is the only recovery left and it is spent
        for seam in SEAMS.values():
            monkeypatch.setenv(seam.env_var, seam.fallback)
        sup = Supervisor()
        with trace.use(trace.Tracer()) as tr, supervisor.use(sup):
            result = sweep(
                range(1),
                _always_oom_worker,
                seed=7,
                on_error="keep",
                retries=1,
                retry_backoff=0.0,
            )
        (failure,) = result.failed
        assert failure.error.startswith("MemoryError")
        assert failure.attempts == 2
        assert tr.counters["executor.retries"] == 1
        assert "supervisor.trips" not in tr.counters

    def test_nan_poisoned_rows_rerun_degraded(self, monkeypatch):
        monkeypatch.setenv("REPRO_CSP_ENGINE", "bit")
        sup = Supervisor(families=("csp",))
        with trace.use(trace.Tracer()) as tr, supervisor.use(sup):
            result = sweep(
                range(3), _poisoning_worker, seed=7, on_error="keep"
            )
        assert [r["v"] for r in result.rows] == [0.0, 1.0, 2.0]
        assert tr.counters["supervisor.poisoned"] == 3
        assert tr.counters["supervisor.reruns"] == 3

    def test_unrecoverable_nan_becomes_failure(self, monkeypatch):
        # every family already on its reference engine: nothing to
        # degrade, so a still-poisoned row must fail rather than leak
        for seam in SEAMS.values():
            monkeypatch.setenv(seam.env_var, seam.fallback)
        sup = Supervisor()
        with supervisor.use(sup):
            result = sweep(
                range(2), _always_nan_worker, seed=7, on_error="keep"
            )
        assert len(result.failed) == 2
        assert all("NaN-poisoned" in f.error for f in result.failed)

    def test_nan_rows_pass_through_unsupervised(self):
        # without a supervisor the legacy contract holds: the row is
        # kept as computed (checkpointing it would still be rejected)
        result = sweep(range(2), _always_nan_worker, seed=7)
        assert all(math.isnan(r["v"]) for r in result.rows)
        assert result.failed == ()

    def test_exhausted_deadline_preempts_every_point(self):
        sup = Supervisor(deadline_s=1e-9)
        with trace.use(trace.Tracer()) as tr, supervisor.use(sup):
            result = sweep(
                range(3), _poisoning_worker, seed=7, on_error="keep"
            )
        assert len(result.failed) == 3
        assert all("deadline exceeded" in f.error for f in result.failed)
        assert tr.counters["supervisor.preempted.points"] == 3


class TestMemoryBudget:
    def test_over_budget_bit_compile_preempted(self):
        # a budget far below 2^12 states schedules smaller blocks: the
        # compile is neither pre-empted nor sent to the object fallback
        from repro.csp.constraints import at_least_k_good
        from repro.csp.engine import make_csp_engine
        from repro.csp.problem import CSP
        from repro.csp.tiledengine import TiledBitCSP, derive_block_bits
        from repro.csp.variables import boolean_variables

        variables = boolean_variables(12)
        names = [v.name for v in variables]
        csp = CSP(variables, [at_least_k_good(names, 3)])
        engine = make_csp_engine("bit")
        sup = Supervisor(memory_budget_mb=0.01)
        with trace.use(trace.Tracer()) as tr, supervisor.use(sup):
            compiled = engine.try_compile(csp)
            budgeted = compiled.fit_indices.tobytes()
        assert isinstance(compiled, TiledBitCSP)
        assert compiled.block_bits == derive_block_bits(
            12, 1, sup.memory_budget_bytes()
        )
        assert compiled.n_blocks > 1
        assert "supervisor.preemptions" not in tr.counters
        assert "csp.fallbacks" not in tr.counters
        # without the supervisor: one block, the same fit set
        unbudgeted = engine.try_compile(csp)
        assert unbudgeted.n_blocks == 1
        assert unbudgeted.fit_indices.tobytes() == budgeted
