"""Workload ``durable_service``: a crash-durable service under load.

A :class:`~repro.service.ResilienceService` with ``service_dir`` set
(write-ahead journal + fsync'd result store) and ``workers=1`` serves
a closed loop of :data:`CLIENTS` client threads.  Each client repeats
the request mix of the repo's R02 service load drill
(``repro.service.loadtest``), waiting for every reply (plus a seeded
think time of up to :data:`THINK_S`) before its next request:

1. a fresh job J0 plus its twin, submitted back to back while J0 is in
   flight (in-flight dedupe), then both awaited;
2. seven more fresh jobs J1..J7, one at a time;
3. a resubmission of the finished job J0 (served from the cache, still
   journaled).

That is R02's eight fresh jobs, one twin and one resubmission, so of
the points delivered 80% are executed (and fsync'd), 10% deduped and
10% served from the cache.  A job is :data:`POINTS` small kernels (see
:mod:`perfbench.points`): R02's smallest job, one row of its 8-wide
grid.  R02's default 256-point jobs would leave too few latency
samples for a percentile in one window.

Then it recovers from a **deterministic crash image** of this run's own
journal: the first :data:`IMAGE_JOBS` distinct ``accepted`` records and
the first :data:`IMAGE_ROWS` result-store rows that belong to them (cut
at fixed record counts, everything later dropped), a torn half-record
appended to the journal and one store line garbled with a fixed seed —
so every run re-executes exactly ``IMAGE_JOBS * POINTS - IMAGE_ROWS + 1``
points, whatever the client interleaving was.
"""

from __future__ import annotations

import json
import os
import threading
import time
from importlib import import_module

import numpy as np

from repro.errors import BackpressureError
from repro.runtime.chaos import corrupt_checkpoint
from repro.service import api as api_mod
from repro.service import scheduler as scheduler_mod
from repro.service.jobs import DONE
from repro.service.persistence import (
    JOURNAL_NAME,
    RESULTS_NAME,
    ServicePersistence,
)

from . import common, points

# the package re-exports a `sweep` function that shadows the module
sweep_mod = import_module("repro.analysis.sweep")

CLIENTS = 2
POINTS = 8  # points per job
FRESH = 8  # fresh jobs per client cycle; J0 also gets a twin and a resubmission
IMAGE_JOBS = 40  # distinct jobs the crash image keeps
IMAGE_ROWS = 160  # stored rows the crash image keeps
MIN_CYCLES = 3  # per client, so the image always has IMAGE_JOBS jobs
SAMPLED_JOBS = 3  # fresh jobs re-run through grid_sweep by the check
WAIT_S = 120.0
EPOCH_S = 1.0  # load between two host-speed probes (whole cycles)
THINK_S = 0.02  # a client's think time after a reply: uniform 0..THINK_S
JOURNAL_TORN_TAIL = '{"record": "point-done", "fingerprint": "torn-by-'
APPENDS = (
    "record_accepted",
    "record_dispatched",
    "record_point_done",
    "record_completed",
    "store_result",
)


class Traffic:
    """Closed-loop clients over one service; records every request."""

    def __init__(self, svc, seed: int, first: int = 0):
        self.svc = svc
        self.seed = seed
        self.first = first
        self.next_cycle = [first] * CLIENTS
        # seeded think times keep the clients from locking into one
        # phase relation for a whole run
        self.think = [np.random.default_rng([seed, first, client])
                      for client in range(CLIENTS)]
        self.lock = threading.Lock()
        self.latencies_ms: list[float] = []
        self.jobs: list[tuple[str, tuple, object]] = []
        self.refused = 0
        self.submitted: dict[int, float] = {}  # first x -> submit returned
        self.errors: list[BaseException] = []

    def args(self, client: int, number: int) -> tuple:
        job = number * CLIENTS + client
        x0 = job * POINTS
        return (
            f"client{client}",
            {"x": list(range(x0, x0 + POINTS))},
            self.seed * 1_000_003 + job,
        )

    def submit(self, kind: str, args: tuple):
        experiment, grid, seed = args
        t0 = time.perf_counter()
        try:
            job = self.svc.submit(
                experiment, points.job_point, grid=grid, seed=seed
            )
        except BackpressureError:
            with self.lock:
                self.refused += 1
            return None, t0
        returned = time.perf_counter()
        with self.lock:
            self.jobs.append((kind, args, job))
            if kind == "fresh":
                self.submitted[grid["x"][0]] = returned
        return job, t0

    def finish(self, job, t0: float) -> None:
        if job is not None:
            job.wait(WAIT_S)
            elapsed = time.perf_counter() - t0
            with self.lock:
                self.latencies_ms.append(elapsed * 1e3)

    def pause(self, client: int) -> None:
        time.sleep(self.think[client].uniform(0.0, THINK_S))

    def client(self, client: int, seconds: float) -> None:
        try:
            start = time.perf_counter()
            while True:
                cycle = self.next_cycle[client]
                jobs = [self.args(client, FRESH * cycle + k)
                        for k in range(FRESH)]
                first = self.submit("fresh", jobs[0])
                twin = self.submit("twin", jobs[0])
                self.finish(*first)
                self.finish(*twin)
                self.pause(client)
                for args in jobs[1:]:
                    self.finish(*self.submit("fresh", args))
                    self.pause(client)
                self.finish(*self.submit("repeat", jobs[0]))
                self.pause(client)
                self.next_cycle[client] = cycle + 1
                if time.perf_counter() - start >= seconds:
                    return
        except BaseException as exc:  # noqa: BLE001 - re-raised by epoch()
            self.errors.append(exc)

    def epoch(self, seconds: float) -> None:
        """Every client runs whole cycles until ``seconds`` pass."""
        threads = [
            threading.Thread(target=self.client, args=(c, seconds),
                             name=f"client-{c}")
            for c in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self.errors:
            raise self.errors[0]

    def cycles(self) -> int:
        return min(self.next_cycle) - self.first

    def outcome(self) -> dict:
        """What the output checks need, once the service is closed."""
        return {
            "executed":
                self.svc.tracer.counters.get("service.points.executed", 0),
            "jobs": [
                (kind, args, job.state == DONE
                 and job.progress()["filled"] == job.progress()["total"],
                 list(job.result().rows) if job.state == DONE else None)
                for kind, args, job in self.jobs
            ],
        }


def _service(path: str):
    return api_mod.ResilienceService(workers=1, service_dir=path).start()


def _fresh_rows(jobs) -> dict:
    return {args[1]["x"][0]: rows
            for kind, args, _, rows in jobs if kind == "fresh"}


def _build_image(service_dir: str, image_dir: str) -> int:
    """Cut this run's journal and store into the crash image.

    Returns the number of points recovery must re-execute.
    """
    os.makedirs(image_dir, exist_ok=True)
    with open(os.path.join(service_dir, JOURNAL_NAME), encoding="utf-8") as fh:
        journal = fh.read().splitlines()
    kept, wanted = [], set()
    for line in journal[1:]:
        record = json.loads(line)
        if record.get("record") != "accepted":
            continue
        key = set(record["fingerprints"])
        if key <= wanted:  # a twin or resubmission of a kept job
            continue
        kept.append(line)
        wanted |= key
        if len(kept) == IMAGE_JOBS:
            break
    with open(os.path.join(service_dir, RESULTS_NAME), encoding="utf-8") as fh:
        store = fh.read().splitlines()
    rows = [line for line in store[1:]
            if json.loads(line)["fingerprint"] in wanted][:IMAGE_ROWS]
    if len(kept) < IMAGE_JOBS or len(rows) < IMAGE_ROWS:
        raise RuntimeError(
            f"crash image needs {IMAGE_JOBS} jobs / {IMAGE_ROWS} rows, "
            f"the run journaled {len(kept)} / {len(rows)}"
        )
    with open(os.path.join(image_dir, JOURNAL_NAME), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join([journal[0], *kept]) + "\n" + JOURNAL_TORN_TAIL)
    results = os.path.join(image_dir, RESULTS_NAME)
    with open(results, "w", encoding="utf-8") as fh:
        fh.write("\n".join([store[0], *rows]) + "\n")
    garbled = corrupt_checkpoint(results, seed=common.GARBLE_SEED, n_lines=1)
    return IMAGE_JOBS * POINTS - (IMAGE_ROWS - len(garbled))


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name))
        for name in (JOURNAL_NAME, RESULTS_NAME)
    )


class Workload:
    """The ``durable_service`` workload, as :func:`common.drive` runs it.

    Each window loads a service of its own: the first the one started
    in set-up, a later (traced) one a new service in a new directory.
    The crash image is cut from the last window's journal.
    """

    def __init__(self, svc, service_dir: str, opts, report, speed):
        self.svc = svc
        self.service_dir = service_dir
        self.opts = opts
        self.report = report
        self.speed = speed
        self.first = 0  # first cycle number of the next window
        self.traffic = None  # the last window's traffic
        self.windows: list[dict] = []  # outcome of every window

    def patch(self, spans) -> None:
        def executor(fn):
            def wrapper(worker, point_fn, tasks, **kwargs):
                xs = [task.value["x"] for task in tasks]
                with spans.span("runtime.executor", points=len(tasks),
                                xs=xs):
                    return fn(worker, point_fn, tasks, **kwargs)
            return wrapper

        spans.patch(api_mod.ResilienceService, "submit", "service.submit")
        spans.patch(scheduler_mod.Scheduler, "register", "service.register")
        spans.patch(scheduler_mod, "run_points", "runtime.executor",
                    wrapper=executor)
        for name in APPENDS:
            spans.patch(ServicePersistence, name,
                        "service.persistence.append")
        spans.patch(ServicePersistence, "load", "service.persistence.load")
        spans.patch(points, "job_point", "point")
        common.patch_checkpoint(spans)

    def window(self, seconds: float, spans) -> list:
        """Load epochs until ``seconds`` pass, then drain and stop the service.

        The host is probed between epochs, while the service is idle.
        Closing joins the scheduler thread, so every journal append of
        the window has landed before anything reads the files or
        counters.
        """
        if self.svc is None:
            self.service_dir = os.path.join(
                self.opts.workdir, f"service-{len(self.windows)}")
            self.svc = _service(self.service_dir)
        report, speed = self.report, self.speed
        traffic = Traffic(self.svc, self.opts.seed, self.first)
        start = time.perf_counter()
        speed.mark()
        try:
            while (time.perf_counter() - start < seconds
                   or traffic.cycles() < MIN_CYCLES):
                jobs = len(traffic.jobs)
                latencies = len(traffic.latencies_ms)
                t0 = time.perf_counter()
                traffic.epoch(EPOCH_S)
                elapsed = time.perf_counter() - t0
                speed.mark()
                rate = sum(
                    len(job.points) for _, _, job in traffic.jobs[jobs:]
                ) / elapsed
                common.add_unit(report, speed, [rate],
                                traffic.latencies_ms[latencies:])
        finally:
            self.svc.close()
        lost = sum(
            job.progress()["total"] - job.progress()["filled"]
            for _, _, job in traffic.jobs
        )
        attempted = sum(len(job.points) for _, _, job in traffic.jobs)
        report["attempted"] += attempted + traffic.refused * POINTS
        report["failed"] += lost + traffic.refused * POINTS
        self._shares(traffic)
        self.first = max(traffic.next_cycle)  # past every job so far
        self.svc = None
        self.traffic = traffic
        outcome = traffic.outcome()
        self.windows.append(outcome)
        return [outcome]

    def _shares(self, traffic) -> None:
        """Note how the delivered points were served."""
        split = {"executed": 0, "cached": 0, "deduped": 0}
        for _, _, job in traffic.jobs:
            progress = job.progress()
            for source in split:
                split[source] += progress[source]
        total = sum(split.values()) or 1
        self.report["notes"][f"window {len(self.windows)} points served"] = (
            ", ".join(f"{source} {count / total:.1%}"
                      for source, count in split.items()))

    def layers(self, spans, _counters, since, units) -> dict:
        """Service metrics of the traced window; the counters are the
        service's own tracer's, not the library tracer's."""
        def mean_ms(name):
            records = spans.named(name, since)
            return (sum(r["end"] - r["start"] for r in records)
                    / len(records) * 1e3 if records else 0.0)

        traffic = self.traffic
        svc = traffic.svc
        counters = svc.tracer.counters
        executed = counters.get("service.points.executed", 0)
        stats = svc.cache.stats()
        lookups = stats["hits"] + stats["misses"]
        dispatched: dict[int, float] = {}
        for record in spans.named("runtime.executor", since):
            for x in record["xs"]:
                dispatched[x] = min(dispatched.get(x, record["start"]),
                                    record["start"])
        waits = [
            max(dispatched[x0] - t, 0.0)
            for x0, t in traffic.submitted.items() if x0 in dispatched
        ]
        twins = sum(1 for kind, _, _ in traffic.jobs if kind == "twin")
        layers = {
            "service.submit_ms": mean_ms("service.submit"),
            "service.queue_wait_ms":
                sum(waits) / len(waits) * 1e3 if waits else 0.0,
            "service.exec_ms": mean_ms("runtime.executor"),
            "service.cache.hit_ratio":
                stats["hits"] / lookups if lookups else 0.0,
            "service.points.deduped":
                counters.get("service.points.deduped", 0) / twins
                if twins else 0.0,
            "persistence.append_ms": mean_ms("service.persistence.append"),
        }
        layers.update(common.executor_layers(
            spans, since, executed, 1, counters.get("executor.wakeups", 0)))
        return layers

    def recover(self, spans) -> int:
        """Open the crash image :data:`common.RECOVERIES` times; finish
        every job, re-executing exactly the never-stored points."""
        self.traffic = None  # recover in a heap without the window's jobs
        image = os.path.join(self.opts.workdir, "image")
        expected = _build_image(self.service_dir, image)
        rows = _fresh_rows(self.windows[-1]["jobs"])
        checks = self.report["checks"]
        grown = 0

        def recover(path):
            svc = api_mod.ResilienceService(workers=1, service_dir=path)
            healed = _dir_bytes(path)  # the constructor healed the image
            svc.start()
            jobs = svc.jobs()
            for job in jobs:
                job.wait(WAIT_S)
            return svc, jobs, healed

        def check(attempt, path, state):
            nonlocal grown
            svc, jobs, healed = state
            svc.close()
            grown += _dir_bytes(path) - healed
            recovery = svc.recovery or {}
            executed = svc.tracer.counters.get("service.points.executed", 0)
            checks[f"recover {attempt}: {IMAGE_JOBS} jobs done, zero lost"] = (
                len(jobs) == IMAGE_JOBS
                and all(job.state == DONE
                        and job.progress()["filled"]
                        == job.progress()["total"]
                        for job in jobs)
            )
            checks[
                f"recover {attempt}: re-ran exactly the {expected} "
                "never-stored points"
            ] = recovery.get("points_rerun") == executed == expected
            checks[f"recover {attempt}: torn tail + garbled row healed"] = (
                recovery.get("quarantined", 0) >= 1
            )
            checks[f"recover {attempt}: rows == pre-crash rows"] = all(
                list(job.result().rows) == rows.get(job.spec.points[0]["x"])
                for job in jobs
            )

        since = common.timed_recoveries(
            self.report, self.speed, image,
            os.path.join(self.opts.workdir, "recovered"), recover, check)
        if spans is not None:
            # appends and bytes per re-executed point, over the
            # recoveries: unlike the window, every follower is known
            # before execution starts there, so the counts repeat exactly
            rerun = expected * common.RECOVERIES
            appends = len(spans.named("service.persistence.append", since))
            layers = self.report["layers"]
            layers.update(common.recovery_layers(spans, since, expected))
            layers["persistence.appends_per_point"] = appends / rerun
            layers["persistence.bytes_per_point"] = grown / rerun
        return expected

    def check(self, units) -> None:
        for number, outcome in enumerate(units):
            self._check(outcome, f"window {number}")
        self.report["notes"]["jobs"] = sum(len(o["jobs"]) for o in units)
        self.report["notes"]["epochs"] = len(self.report["rates"])

    def _check(self, outcome, label: str) -> None:
        checks = self.report["checks"]
        jobs = outcome["jobs"]
        fresh = [args for kind, args, _, _ in jobs if kind == "fresh"]
        rows = _fresh_rows(jobs)
        checks[f"{label}: every job done, zero points lost"] = all(
            complete for _, _, complete, _ in jobs)
        checks[f"{label}: executed == unique points"] = (
            outcome["executed"] == len(fresh) * POINTS
        )
        checks[f"{label}: twins and resubmissions == originals"] = all(
            job_rows == rows[args[1]["x"][0]]
            for kind, args, _, job_rows in jobs if kind != "fresh"
        )
        rng = np.random.default_rng(self.opts.seed)
        picks = rng.choice(len(fresh), size=min(SAMPLED_JOBS, len(fresh)),
                           replace=False)
        sampled = [fresh[int(i)] for i in sorted(picks)]
        if self.opts.corrupt_output:
            x0 = sampled[0][1]["x"][0]
            rows[x0][0] = dict(rows[x0][0], critical=-1.0)
        checks[f"{label}: {len(sampled)} sampled jobs == grid_sweep"] = all(
            rows[grid["x"][0]] == list(sweep_mod.grid_sweep(
                grid, points.job_point, seed=seed).rows)
            for _, grid, seed in sampled
        )


def run(opts, t0: float) -> dict:
    service_dir = os.path.join(opts.workdir, "service")
    svc = _service(service_dir)
    setup_s = time.perf_counter() - t0
    speed = common.HostSpeed()
    report = common.new_report(setup_s, speed)
    if opts.role == "setup":
        svc.close()
    else:
        common.drive(opts, report,
                     Workload(svc, service_dir, opts, report, speed))
    return report
