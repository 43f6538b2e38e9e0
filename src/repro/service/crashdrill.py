"""R03: the crash-recovery drill — SIGKILL the service, lose nothing.

The drill proves the durability contract of
:mod:`repro.service.persistence` end to end, against a *real* process
death (``SIGKILL`` — no atexit handlers, no flush-on-close mercy) plus
deliberate on-disk damage:

1. **load** — a forked child process starts a durable
   :class:`~repro.service.ResilienceService` (``service_dir`` set) and
   submits several seeded jobs, one of them a twin of another (the
   in-flight dedupe case), then waits for completion.
2. **kill** — the drill polls the write-ahead journal counting
   ``point-done`` records and ``SIGKILL``s the child once a seeded
   threshold (between a quarter and half of the unique points) is
   journaled: the service dies with jobs accepted, rows stored, and
   work in flight.
3. **corrupt** — the drill then damages the survivors the way real
   crashes do: a *torn record* (a partial JSON line with no newline) is
   appended to the journal, simulating death mid-append, and one
   interior line of the result store is garbled with
   :func:`repro.runtime.chaos.corrupt_checkpoint`, simulating a bad
   sector under an otherwise-valid file.
4. **recover** — the drill's own process opens the same directory
   under a :class:`~repro.runtime.supervisor.Supervisor` recovery
   deadline.  It never ran the service, so it holds none of the dead
   child's memory and sees only what is on disk, as a freshly started
   process would: the torn tail is dropped, the garbled line is
   quarantined and the store healed, the journal replays, and every
   incomplete job re-admits and runs to completion.

Acceptance (checked structurally by :func:`run_crash_drill`): the kill
really was mid-run; every journaled job finishes after recovery with
zero lost points; recovery re-executes *exactly* the points that were
never durably stored (no duplicated work, no forgotten work — the
garbled store line re-executes, journaled-done rows do not); every
job's rows are byte-identical to an uninterrupted batch
:func:`~repro.analysis.sweep.grid_sweep` of the same grid and seed;
and recovery fits the supervisor's deadline budget.  The whole drill is
deterministic for a given seed — the benchmark harness runs it twice
and asserts identical rows.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

from ..analysis.sweep import grid_sweep
from ..errors import ConfigurationError
from ..rng import make_rng
from ..runtime.chaos import corrupt_checkpoint
from ..runtime import supervisor as supervisor_module
from ..runtime.supervisor import Supervisor
from .api import ResilienceService
from .jobs import DONE
from .loadtest import _grid_for, _grid_size, load_point
from .persistence import JOURNAL_NAME, RESULTS_NAME

__all__ = ["drill_point", "run_crash_drill"]

_BATCH = 8  # points per scheduler chunk, in both phases
_DEADLINE_S = 30.0  # the supervisor's budget for the journal replay


def drill_point(x: int, y: int, seed=None) -> dict:
    """Deterministic point, deliberately unhurried (a wide kill window).

    Module-level (importable by name) so the journal can resume it.
    The sleep spreads ~150 points over a couple of seconds, letting the
    drill land its ``SIGKILL`` mid-load with room to spare.
    """
    time.sleep(0.008)
    return load_point(x, y, seed)


def _count_done(journal_path: str) -> int:
    """Journaled ``point-done`` records so far (lenient raw scan)."""
    try:
        with open(journal_path, "rb") as fh:
            return fh.read().count(b'"record": "point-done"')
    except OSError:
        return 0


def _journal_state(journal_path: str) -> "tuple[dict, set]":
    """Lenient journal replay: accepted job -> fingerprints, final ids.

    The drill's ground truth for what recovery *must* do: jobs
    journaled ``completed``/``cancelled`` have to stay final, the rest
    have to re-admit, and only their never-stored points may re-run.
    """
    accepted: dict = {}
    final: set = set()
    with open(journal_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for line in lines[1:]:
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if not isinstance(record, dict):
            continue
        kind = record.get("record")
        if kind == "accepted":
            accepted[record["job"]] = list(record.get("fingerprints") or ())
        elif kind in ("completed", "cancelled"):
            final.add(record["job"])
    return accepted, final


def _durable_rows(results_path: str) -> dict:
    """Lenient replay of the result store: fingerprint -> row.

    Mirrors what :meth:`~repro.runtime.checkpoint.RowStore.open` will
    keep on the next open (invalid lines quarantined, newest wins), so
    the drill can predict exactly which points must re-execute.  It is
    an independent read-only oracle: opening the store would heal the
    file before the recovery under test sees it.
    """
    rows: dict = {}
    with open(results_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for line in lines[1:]:
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if (
            isinstance(record, dict)
            and isinstance(record.get("fingerprint"), str)
            and isinstance(record.get("row"), dict)
        ):
            rows[record["fingerprint"]] = record["row"]
    return rows


def _phase_load(
    service_dir: str, seed: int, n_jobs: int, points_per_job: int
) -> None:
    """Submit the drill jobs and run until killed (or, untested, done)."""
    grids = [_grid_for(j, points_per_job) for j in range(n_jobs)]
    with ResilienceService(
        workers=1, batch=_BATCH, service_dir=service_dir
    ) as svc:
        handles = [
            svc.submit(f"crash-{j}", drill_point, grid=grid, seed=seed)
            for j, grid in enumerate(grids)
        ]
        # the twin: identical experiment + grid + seed, must dedupe
        handles.append(
            svc.submit("crash-0", drill_point, grid=grids[0], seed=seed)
        )
        for handle in handles:
            handle.wait(300)


def run_crash_drill(
    seed: int = 2013,
    *,
    workdir: str,
    n_jobs: int = 3,
    points_per_job: int = 48,
    verbose: bool = False,
) -> dict:
    """Run the R03 drill end to end; returns the acceptance report.

    ``workdir`` must not hold a previous drill's service files: a reused
    journal would be recovered by the load phase itself, turning every
    submission into a cache hit, so it raises
    :class:`~repro.errors.ConfigurationError` instead.
    """
    service_dir = os.path.join(workdir, "service")
    journal_path = os.path.join(service_dir, JOURNAL_NAME)
    results_path = os.path.join(service_dir, RESULTS_NAME)
    for path in (journal_path, results_path):
        if os.path.exists(path):
            raise ConfigurationError(
                f"crash drill workdir is not fresh: {path} already exists"
            )
    os.makedirs(service_dir, exist_ok=True)
    grids = [_grid_for(j, points_per_job) for j in range(n_jobs)]
    unique_points = sum(_grid_size(grid) for grid in grids)
    rng = make_rng(seed)
    kill_after = int(
        rng.integers(unique_points // 4, unique_points // 2 + 1)
    )
    report: dict = {
        "seed": seed,
        "n_jobs": n_jobs + 1,  # the twin rides along
        "unique_points": unique_points,
        "kill_after_points": kill_after,
    }

    # -- phase 1+2: load in a forked child, SIGKILL it mid-run -------------
    start = time.perf_counter()
    victim = multiprocessing.get_context("fork").Process(
        target=_phase_load,
        args=(service_dir, seed, n_jobs, points_per_job),
    )
    victim.start()
    try:
        poll_deadline = time.monotonic() + 120
        while time.monotonic() < poll_deadline:
            if not victim.is_alive():
                break
            if _count_done(journal_path) >= kill_after:
                break
            time.sleep(0.01)
        exited_early = not victim.is_alive()
    finally:
        victim.kill()
        victim.join(60)
    done_at_kill = _count_done(journal_path)
    report.update(
        killed_mid_run=not exited_early,
        points_done_at_kill=done_at_kill,
    )

    # -- phase 3: damage the survivors the way real crashes do -------------
    with open(journal_path, "a", encoding="utf-8") as fh:
        # a torn record: death mid-append leaves a partial last line
        fh.write('{"record": "point-done", "fingerprint": "torn-by-')
    garbled = corrupt_checkpoint(results_path, seed=seed, n_lines=1)
    durable = _durable_rows(results_path)
    accepted, final_ids = _journal_state(journal_path)
    incomplete_ids = [j for j in accepted if j not in final_ids]
    needed = {
        fp for job_id in incomplete_ids for fp in accepted[job_id]
    }
    expected_rerun = len(needed - set(durable))
    report.update(
        garbled_store_lines=garbled,
        durable_rows_after_damage=len(durable),
        journaled_jobs=len(accepted),
        final_before_kill=sorted(final_ids),
        incomplete_at_kill=sorted(incomplete_ids),
        expected_reexecutions=expected_rerun,
    )

    # -- phase 4: recover in this process, from the files alone ------------
    svc = ResilienceService(workers=1, batch=_BATCH, service_dir=service_dir)
    try:
        sup = Supervisor(deadline_s=_DEADLINE_S)
        with supervisor_module.use(sup):
            # only the replay itself is under the recovery deadline — the
            # re-executions that follow are ordinary (already-accepted) work
            svc.start()
            within_deadline = not sup.deadline_exceeded()
        jobs = svc.jobs()
        for job in jobs:
            job.wait(300)
    finally:
        svc.close(drain=False)
    recovery_stats = svc.recovery or {}
    executed = int(svc.tracer.counters.get("service.points.executed", 0))
    report.update(
        elapsed_s=round(time.perf_counter() - start, 3),
        recovery=recovery_stats,
        within_deadline=within_deadline,
        executed_points=executed,
    )

    # -- acceptance --------------------------------------------------------
    all_done = bool(jobs) and all(job.state == DONE for job in jobs)
    lost = sum(
        progress["total"] - progress["filled"]
        for progress in (job.progress() for job in jobs)
    )
    baselines = {
        f"crash-{j}": list(grid_sweep(grid, drill_point, seed=seed).rows)
        for j, grid in enumerate(grids)
    }
    report["rows"] = {
        job.id: list(job.result().rows) if job.state == DONE else None
        for job in jobs
    }
    rows_match = bool(jobs) and all(
        report["rows"][job.id] == baselines.get(job.spec.experiment)
        for job in jobs
    )
    checks = {
        "service killed mid-run (SIGKILL, work in flight)":
            report["killed_mid_run"]
            and 0 < done_at_kill < unique_points
            and bool(incomplete_ids),
        "every submission was journaled before the kill":
            len(accepted) == n_jobs + 1,
        "every incomplete job recovered and finished":
            len(jobs) == len(incomplete_ids)
            and sorted(job.id for job in jobs) == sorted(incomplete_ids)
            and all_done
            and recovery_stats.get("skipped") == 0,
        "jobs completed before the kill stayed final":
            not any(job.id in final_ids for job in jobs),
        "zero points lost": bool(jobs) and lost == 0,
        "zero duplicated work (re-ran only never-stored points)":
            executed == expected_rerun,
        "torn journal tail + garbled store healed":
            recovery_stats.get("quarantined", 0) >= 1,
        "rows byte-identical to uninterrupted grid_sweep": rows_match,
        "recovery within the supervisor deadline": within_deadline,
    }
    report["checks"] = checks
    report["passed"] = all(checks.values())
    if verbose:
        for label, ok in checks.items():
            print(f"  {'ok  ' if ok else 'FAIL'} {label}")
    return report
