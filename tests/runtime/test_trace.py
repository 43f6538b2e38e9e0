"""Tests for the tracing/metrics facade (repro.runtime.trace)."""

from __future__ import annotations

import json

import pytest

from repro.runtime import trace
from repro.runtime.trace import NULL, NullTracer, Tracer


class TestCountersAndTimers:
    def test_counters_accumulate(self):
        tr = Tracer()
        tr.count("a")
        tr.count("a", 4)
        tr.count("b")
        assert tr.counters["a"] == 5
        assert tr.counters["b"] == 1

    def test_timer_context_records(self):
        tr = Tracer()
        with tr.timer("work"):
            pass
        with tr.timer("work"):
            pass
        stats = tr.timers["work"]
        assert stats.calls == 2
        assert stats.total_s >= 0.0
        assert stats.min_s <= stats.max_s

    def test_timer_records_on_exception(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.timer("work"):
                raise RuntimeError("boom")
        assert tr.timers["work"].calls == 1

    def test_record_timing_folds_external_measurement(self):
        tr = Tracer()
        tr.record_timing("x", 1.5)
        tr.record_timing("x", 0.5)
        assert tr.timers["x"].total_s == pytest.approx(2.0)
        assert tr.timers["x"].mean_s == pytest.approx(1.0)


class TestEvents:
    def test_events_kept_in_memory(self):
        tr = Tracer()
        tr.event("sweep.start", points=4)
        assert tr.events[0]["event"] == "sweep.start"
        assert tr.events[0]["points"] == 4
        assert tr.events[0]["ts"] >= 0.0

    def test_events_written_as_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(path=str(path)) as tr:
            tr.event("a", x=1)
            tr.event("b", y="z")
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["event"] for r in records] == ["a", "b"]
        assert records[0]["x"] == 1

    def test_keep_events_off(self):
        tr = Tracer(keep_events=False)
        tr.event("a")
        assert tr.events == []


class TestHookContainment:
    def test_raising_event_hook_does_not_stop_emission(self):
        tr = Tracer()
        seen = []

        def bad(record):
            raise RuntimeError("observer bug")

        tr.add_event_hook(bad)
        tr.add_event_hook(lambda record: seen.append(record["event"]))
        with pytest.warns(RuntimeWarning, match="event hook .* contained"):
            tr.event("a")
            tr.event("b")
        # the emitter survived, later hooks still ran, events recorded
        assert [e["event"] for e in tr.events] == ["a", "b"]
        assert seen == ["a", "b"]
        assert tr.counters["trace.hook_errors"] == 2

    def test_hook_error_warning_names_the_hook(self):
        tr = Tracer()

        def exploding_hook(record):
            raise KeyError("nope")

        tr.add_event_hook(exploding_hook)
        with pytest.warns(RuntimeWarning, match="exploding_hook"):
            tr.event("x")

    def test_well_behaved_hooks_stay_silent(self):
        import warnings as warnings_module

        tr = Tracer()
        tr.add_event_hook(lambda record: None)
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            tr.event("quiet")
        assert tr.counters.get("trace.hook_errors", 0) == 0


class TestCurrentTracer:
    def test_default_is_null(self):
        assert trace.current() is NULL
        assert not trace.current()

    def test_use_installs_and_restores(self):
        tr = Tracer()
        with trace.use(tr) as active:
            assert active is tr
            assert trace.current() is tr
        assert trace.current() is NULL

    def test_use_restores_on_exception(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with trace.use(tr):
                raise ValueError()
        assert trace.current() is NULL


class TestNullTracer:
    def test_noop_surface(self):
        null = NullTracer()
        null.count("x")
        null.event("y", z=1)
        null.record_timing("t", 1.0)
        with null.timer("t"):
            pass


class TestSummary:
    def test_summary_structure(self):
        tr = Tracer()
        tr.count("points", 3)
        with tr.timer("run"):
            pass
        summary = tr.summary()
        assert summary["counters"] == {"points": 3}
        assert summary["timers"]["run"]["calls"] == 1
        assert json.dumps(summary)  # JSON-ready

    def test_summary_table_renders(self):
        tr = Tracer()
        tr.count("points", 3)
        with tr.timer("run"):
            pass
        table = tr.summary_table()
        assert "points" in table and "run" in table

    def test_empty_summary_table(self):
        assert Tracer().summary_table() == "(no trace data)"


class TestSimulatorWiring:
    def test_both_engines_report_runs_and_steps(self):
        from repro.agents.arrayengine import make_engine
        from repro.agents.environment import ConstraintEnvironment
        from repro.agents.organism import Organism
        from repro.agents.population import Population

        env = ConstraintEnvironment.random(8, tolerance=8, seed=1)
        pop = Population(
            [Organism(genome=env.target, resources=5.0) for _ in range(4)]
        )
        for engine in ("object", "array"):
            tr = Tracer()
            with trace.use(tr):
                make_engine(engine, capacity=10).run(
                    pop, env, steps=5, seed=0
                )
            assert tr.counters[f"sim.runs.{engine}"] == 1
            assert tr.counters[f"sim.steps.{engine}"] == 5
            assert tr.timers[f"sim.run.{engine}"].calls == 1
