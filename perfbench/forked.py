"""Workload ``forked_sweep``: fault-tolerant sweeps on two workers.

One client issues seeded ``sweep`` calls of :data:`POINTS` small real
kernels each (see :mod:`perfbench.points`) with ``n_jobs=2`` and a
generous per-point ``timeout`` — the configuration fault-tolerant
sweeps use, which takes the executor's isolated path: one forked
process per point, results pickled back through a pipe.  Fork, pickle
and pipe dominate, so a worker pool or cross-process telemetry moves
this workload while ``kernels`` (inline path) stays flat.

The crash image is the checkpoint of one larger forked sweep cut at a
fixed record count; resuming it re-executes the rest on two workers.
"""

from __future__ import annotations

import time
from importlib import import_module

import numpy as np

from . import common, points

# the package re-exports a `sweep` function that shadows the module
sweep_mod = import_module("repro.analysis.sweep")

WORKERS = 2
TIMEOUT_S = 60.0
POINTS = 4  # points per sweep call (one client request)
IMAGE_POINTS = 128  # points in the checkpointed sweep
IMAGE_KEEP = 32  # records the crash image keeps
SAMPLED_CALLS = 3  # calls re-run inline by the output check
EPOCH_S = 1.0  # seconds of calls between two host-speed probes


def _sweep(fn, seed: int, count: int, **kwargs):
    return sweep_mod.sweep(
        range(count), fn, n_jobs=WORKERS, seed=seed, timeout=TIMEOUT_S,
        **kwargs,
    )


class Workload:
    """The ``forked_sweep`` workload, as :func:`common.drive` runs it."""

    def __init__(self, opts, report, speed):
        self.opts = opts
        self.report = report
        self.speed = speed
        self.fn = points.sweep_point
        self.calls = 0  # sweep calls so far: each call's seed index

    def patch(self, spans) -> None:
        """Span sweeps, the executor and (from the rows) each child's point."""
        def executor(fn):
            def wrapper(*args, **kwargs):
                with spans.span("runtime.executor") as parent:
                    outcomes = fn(*args, **kwargs)
                for outcome in outcomes:
                    if outcome.ok and "_t0" in outcome.value:
                        spans.add("point", outcome.value["_t0"],
                                  outcome.value["_t1"], parent,
                                  thread="worker-process")
                return outcomes
            return wrapper

        spans.patch(sweep_mod, "sweep", "analysis.sweep")
        spans.patch(sweep_mod, "run_points", "runtime.executor",
                    wrapper=executor)
        common.patch_checkpoint(spans)

    def window(self, seconds: float, spans) -> list:
        """Sweep calls until ``seconds`` pass, probing the host every epoch."""
        if spans is not None:
            self.fn = points.ChildTimed(points.sweep_point)
        report, speed = self.report, self.speed
        calls, rates, latencies = [], [], []
        start = time.perf_counter()
        speed.mark()
        epoch = start
        while time.perf_counter() - start < seconds:
            seed = self.opts.seed * 100_003 + self.calls
            t0 = time.perf_counter()
            result = _sweep(self.fn, seed, POINTS, on_error="keep")
            elapsed = time.perf_counter() - t0
            latencies.append(elapsed * 1e3)
            rates.append(len(result.rows) / elapsed)
            calls.append((seed, common.strip_private(result.rows)))
            report["attempted"] += len(result.rows)
            report["failed"] += len(result.failures)
            self.calls += 1
            if time.perf_counter() - epoch >= EPOCH_S:
                speed.mark()
                common.add_unit(report, speed, rates, latencies)
                rates, latencies = [], []
                epoch = time.perf_counter()
        if rates:
            speed.mark()
            common.add_unit(report, speed, rates, latencies)
        return calls

    def layers(self, spans, counters, since, calls) -> dict:
        count = sum(len(rows) for _, rows in calls)
        layers = common.executor_layers(
            spans, since, count, WORKERS, counters.get("executor.wakeups", 0))
        layers["sweep.harness_s"] = (
            spans.total("analysis.sweep", since)
            - spans.total("runtime.executor", since)
        ) / len(calls)
        return layers

    def recover(self, spans) -> int:
        """Resume a checkpointed forked sweep on two workers."""
        seed = self.opts.seed * 100_003 + 99_999

        def resume(path):
            return common.strip_private(
                _sweep(self.fn, seed, IMAGE_POINTS, checkpoint=path).rows)

        return common.sweep_recovery(self.opts, self.report, self.speed,
                                     spans, resume, keep=IMAGE_KEEP)

    def check(self, calls) -> None:
        """Sampled calls re-run as inline sweeps: rows must be equal."""
        rng = np.random.default_rng(self.opts.seed)
        picks = sorted(
            int(i) for i in rng.choice(
                len(calls), size=min(SAMPLED_CALLS, len(calls)),
                replace=False)
        )
        if self.opts.corrupt_output:
            seed, rows = calls[picks[0]]
            rows[0] = dict(rows[0], critical=rows[0]["critical"] + 1e-9)
        same = all(
            rows == list(sweep_mod.sweep(
                range(POINTS), points.sweep_point, n_jobs=1, seed=seed).rows)
            for seed, rows in (calls[i] for i in picks)
        )
        self.report["checks"][
            f"{len(picks)} sampled calls: rows == inline sweep, same seed"
        ] = same
        self.report["notes"]["calls"] = len(calls)
        self.report["notes"]["points_per_call"] = POINTS


def run(opts, t0: float) -> dict:
    setup_s = time.perf_counter() - t0
    speed = common.HostSpeed()
    report = common.new_report(setup_s, speed)
    if opts.role != "setup":
        common.drive(opts, report, Workload(opts, report, speed))
    return report
