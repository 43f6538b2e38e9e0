"""Helpers shared by the three workloads (run inside the workload process).

A workload module exposes ``run(opts, t0) -> dict``; the dict is the
workload process's report, aggregated by ``run.py``:

``setup_s``        seconds from before ``import repro`` to the first
                   timed operation, scaled to the reference host speed
                   (``setup_raw_s`` unscaled; ``probes`` every host
                   probe, see :class:`HostSpeed`);
``rates``          points per second of each timed unit of the window;
``latencies_ms``   one sample per client request;
``attempted`` / ``failed``  points attempted and failed in the window;
``recover_s``      one sample per recovery from the crash image;
``checks``         output check label -> passed;
``rss_mb``         peak RSS of this process, read before the checks;
``layers``         per-layer metrics (traced run only);
``notes``          sample counts and other context for the printout.

Every workload runs through :func:`drive`, which owns the split into
the untraced run and the traced run's two halves.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import time
from contextlib import contextmanager

import numpy as np

from repro.runtime import trace as repro_trace
from repro.runtime.chaos import corrupt_checkpoint

#: fixed seed for the garbled crash-image line, so every run (whatever
#: ``--seed``) re-executes the same number and kind of points
GARBLE_SEED = 2013
TORN_TAIL = '{"index": 999999, "row": {"torn-by-crash'
#: crash-image recoveries per run; recover_s is their median.  One
#: recovery is a ~1-2 s unit and the host's speed wanders on that scale
RECOVERIES = 9

PROBE_SEED = 7
PROBE_ELEMS = 1 << 19  # 4 MiB of float64: beyond the L2 cache
PROBE_LOOP = 40_000
PROBE_REFERENCE_S = 0.005  # one probe at the reference host speed


class HostSpeed:
    """Host-speed probe that makes timings comparable across minutes.

    A shared 2-core host can change speed by up to ~2x within a
    minute, far more than the run-to-run noise of the code itself.  So
    a workload probes the host between its timed units (a
    sweep round, a group of calls, a load epoch, one recovery) — a fixed
    kernel of pure-Python arithmetic, a random NumPy gather and a sort,
    which exercise the same interpreter, memory and vector paths as the
    library — and :meth:`scale` converts one unit's wall times to
    seconds at the reference speed (:data:`PROBE_REFERENCE_S` per probe)
    using the probes just before and just after that unit.  The probe does not touch the
    library, so a change to ``src/`` moves the scaled times exactly as
    it moves the raw ones.
    """

    def __init__(self):
        rng = np.random.default_rng(PROBE_SEED)
        self._data = rng.random(PROBE_ELEMS)
        self._index = rng.integers(0, PROBE_ELEMS, PROBE_ELEMS // 4)
        self.probes: list[float] = []
        self.mark()

    def _once(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOP):
            total += i * i
        np.take(self._data, self._index).sum()
        np.sort(self._data[: PROBE_ELEMS // 8])
        return time.perf_counter() - t0

    def mark(self) -> int:
        """Probe now (median of five); returns the probe's index."""
        self.probes.append(statistics.median(self._once() for _ in range(5)))
        return len(self.probes) - 1

    def scale(self) -> float:
        """Reference seconds per wall second over the last unit.

        The unit ran between the last two probes; their mean is its
        host speed (the first probe alone scales set-up).
        """
        return PROBE_REFERENCE_S / statistics.fmean(self.probes[-2:])


def rss_mb() -> float:
    """Peak RSS (MiB) of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_rss_mb() -> float:
    """Peak RSS (MiB) of the largest reaped child (a forked worker).

    Reported apart from :func:`rss_mb`, not added to it: most of a
    forked child's resident pages are shared copy-on-write with this
    process, so a sum would count them twice.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def strip_private(rows) -> list[dict]:
    """Rows without the ``_``-prefixed timing keys of the traced run."""
    return [
        {k: v for k, v in row.items() if not k.startswith("_")}
        for row in rows
    ]


def new_report(setup_s: float, speed: HostSpeed) -> dict:
    """An empty report; ``setup_s`` is scaled by the probe right after it."""
    return {
        "setup_s": setup_s * speed.scale(),
        "setup_raw_s": setup_s,
        "speed": speed,
        "rates": [],
        "latencies_ms": [],
        "attempted": 0,
        "failed": 0,
        "recover_s": [],
        "checks": {},
        "layers": {},
        "notes": {},
    }


def add_unit(report, speed, rates, latencies_ms) -> None:
    """Fold the raw rates and latencies of the unit that the last probe
    ended in, scaled by its host speed."""
    scale = speed.scale()
    report["rates"].extend(rate / scale for rate in rates)
    report["latencies_ms"].extend(ms * scale for ms in latencies_ms)


def overhead(rates: list, plain: int) -> float:
    """Tracing overhead: untraced over traced median unit rate, minus 1."""
    return statistics.median(rates[:plain]) / statistics.median(
        rates[plain:]) - 1.0


class Timed:
    """Wrap an in-process point function; record each call's interval.

    Inline sweeps call it in this process, so the benchmark measures
    every point from outside the point itself (and, in the traced run,
    records a ``point`` span).
    """

    def __init__(self, fn, spans=None):
        self.fn = fn
        self.spans = spans
        self.intervals: list[tuple[float, float]] = []

    def __call__(self, *args, **kwargs):
        t0 = time.perf_counter()
        if self.spans is None:
            row = self.fn(*args, **kwargs)
        else:
            with self.spans.span("point"):
                row = self.fn(*args, **kwargs)
        self.intervals.append((t0, time.perf_counter()))
        return row


@contextmanager
def repro_tracer():
    """Install a library tracer (traced run) to read its counters."""
    tracer = repro_trace.Tracer(keep_events=False)
    with repro_trace.use(tracer):
        yield tracer


def checkpoint_image(source: str, image: str, keep: int) -> int:
    """Deterministic crash image of a sweep checkpoint.

    Keeps the header and the first ``keep`` point records (cut at a
    fixed record count), garbles one interior record with a fixed seed
    (a bad sector), and appends a torn half-record (death mid-append).
    Returns the number of records that survive the garble; resuming
    must re-execute every other point.
    """
    with open(source, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < keep + 1:
        raise RuntimeError(
            f"checkpoint {source} has {len(lines) - 1} records, "
            f"need {keep}"
        )
    with open(image, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[: keep + 1]) + "\n")
    garbled = corrupt_checkpoint(image, seed=GARBLE_SEED, n_lines=1)
    with open(image, "a", encoding="utf-8") as fh:
        fh.write(TORN_TAIL)
    return keep - len(garbled)


def checkpoint_records(path: str) -> int:
    """Point records in a sweep checkpoint (header and torn lines aside)."""
    count = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines()[1:]:
            try:
                count += "index" in json.loads(line)
            except ValueError:
                pass
    return count


def fresh_copy(source: str, target: str) -> str:
    """Copy a crash image (file or directory) to a fresh path."""
    if os.path.isdir(target):
        shutil.rmtree(target)
    elif os.path.exists(target):
        os.remove(target)
    if os.path.isdir(source):
        shutil.copytree(source, target)
    else:
        shutil.copyfile(source, target)
    return target


def timed_recoveries(report, speed, image: str, target: str, recover,
                     check) -> float:
    """Recover :data:`RECOVERIES` times, each from a fresh copy of ``image``.

    ``recover(path)`` is the timed part; ``check(attempt, path, state)``
    runs untimed on what it returned.  Appends the scaled ``recover_s``
    samples and returns the phase's start, for the span queries.
    """
    since = time.perf_counter()
    for attempt in range(RECOVERIES):
        path = fresh_copy(image, target)
        gc.collect()  # every timed recovery starts from a collected heap
        speed.mark()
        t0 = time.perf_counter()
        state = recover(path)
        elapsed = time.perf_counter() - t0
        speed.mark()
        report["recover_s"].append(elapsed * speed.scale())
        check(attempt, path, state)
    return since


def sweep_recovery(opts, report, speed, spans, resume, keep: int) -> int:
    """Crash-image recovery drill of a checkpointed sweep.

    ``resume(path)`` runs the workload's sweep with ``checkpoint=path``
    and returns its rows.  Run once from no checkpoint, it gives the
    reference rows and the crash image's source, cut after ``keep``
    records (:func:`checkpoint_image`).  Every timed resume of the image
    must reproduce the reference rows and re-execute exactly the lost
    points (the resume appends one record per re-executed point).
    Returns that number of points.
    """
    work = opts.workdir
    source = os.path.join(work, "load.jsonl")
    image = os.path.join(work, "image.jsonl")
    if os.path.exists(source):  # a checkpoint resumes: start from none
        os.remove(source)
    reference = resume(source)
    survivors = checkpoint_image(source, image, keep)
    expected = len(reference) - survivors
    checks = report["checks"]

    def check(attempt, path, rows):
        checks[f"resume {attempt}: rows == uninterrupted"] = (
            rows == reference)
        checks[
            f"resume {attempt}: re-ran exactly the {expected} lost points"
        ] = checkpoint_records(path) - survivors == expected

    since = timed_recoveries(report, speed, image,
                             os.path.join(work, "resume.jsonl"), resume,
                             check)
    if spans is not None:
        report["layers"].update(recovery_layers(spans, since, expected))
    return expected


def drive(opts, report, workload) -> None:
    """Run a workload: timed window, crash-image recovery, output checks.

    ``workload`` provides ``window(seconds, spans) -> units`` (one timed
    window; the units are whatever its checks need), ``patch(spans)``,
    ``layers(spans, counters, since, units) -> dict`` (per-layer
    metrics of the traced window; ``counters`` are the library
    tracer's), ``recover(spans) -> int`` (points re-run per recovery)
    and ``check(units)``.  Untraced, the window takes all of
    ``opts.seconds``.  Traced, an untraced half measures the plain rate,
    then the span wrappers go in for the second half and the
    recoveries.  Peak RSS is read before the checks, which run
    reference engines of their own.
    """
    if not opts.trace:
        units = workload.window(opts.seconds, None)
        report["recover_points"] = workload.recover(None)
    else:
        from .spans import Spans

        units = workload.window(opts.seconds / 2, None)
        plain = len(report["rates"])
        spans = Spans()
        workload.patch(spans)
        try:
            with repro_tracer() as tracer:
                since = time.perf_counter()
                traced = workload.window(opts.seconds / 2, spans)
                counters = dict(tracer.counters)
            layers = report["layers"]
            layers.update(workload.layers(spans, counters, since, traced))
            layers["trace.overhead_frac"] = overhead(report["rates"], plain)
            report["recover_points"] = workload.recover(spans)
            layers.update(self_time_layers(spans))
        finally:
            spans.unpatch()
        spans.dump(opts.trace_path)
        report["notes"]["trace_file"] = opts.trace_path
        units += traced
    report["rss_mb"] = rss_mb()
    report["layers"]["executor.child_rss_mb"] = child_rss_mb()
    workload.check(units)


def executor_layers(spans, since: float, points: int, workers: int,
                    wakeups: int) -> dict:
    """``executor.*`` metrics from executor spans and their point children.

    ``fn_s`` is in-point time per point; the overhead is the worker-time
    the executor spent on anything but points (fork, pickle, pipe, reap
    — or the inline loop), per point.
    """
    execs = spans.named("runtime.executor", since)
    wall = sum(r["end"] - r["start"] for r in execs)
    ids = {r["id"] for r in execs}
    fn = sum(
        r["end"] - r["start"]
        for r in spans.named("point", since)
        if r["parent"] in ids
    )
    capacity = wall * workers
    return {
        "executor.fn_s": fn / points if points else 0.0,
        "executor.overhead_ms_per_point":
            (capacity - fn) / points * 1e3 if points else 0.0,
        "executor.busy_frac": fn / capacity if capacity else 0.0,
        "executor.wakeups": wakeups / points if points else 0.0,
    }


def recovery_layers(spans, since: float, points_rerun: int) -> dict:
    """``recover.*`` / ``persistence.load_s`` over the recovery phase."""
    per = RECOVERIES
    load = spans.total("runtime.checkpoint.open", since) + spans.total(
        "service.persistence.load", since
    )
    return {
        "persistence.load_s": load / per,
        "recover.register_s":
            spans.total("service.register", since) / per,
        "recover.reexec_s":
            spans.total("runtime.executor", since) / per,
        "recover.points_rerun": points_rerun,
    }


def self_time_layers(spans) -> dict:
    """Each layer's share of all self time in the traced run."""
    selfs = spans.self_times()
    total = sum(selfs.values())
    return {
        f"self_frac.{layer}": (selfs.get(layer, 0.0) / total if total else 0.0)
        for layer in (
            "networks",
            "csp",
            "agents",
            "analysis.sweep",
            "runtime.executor",
            "runtime.checkpoint",
            "service",
            "service.persistence",
        )
    }


def patch_checkpoint(spans) -> None:
    """Span the journal open shared by sweep checkpoints and the service."""
    from repro.runtime.checkpoint import JournalFile

    spans.patch(JournalFile, "open", "runtime.checkpoint.open")
