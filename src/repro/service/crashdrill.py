"""R03: the crash-recovery drill — SIGKILL the service, lose nothing.

The drill proves the durability contract of
:mod:`repro.service.persistence` end to end, against a *real* process
death (``SIGKILL`` — no atexit handlers, no flush-on-close mercy) plus
deliberate on-disk damage:

1. **load** — a subprocess starts a durable
   :class:`~repro.service.ResilienceService` (``service_dir`` set) and
   submits several seeded jobs, one of them a twin of another (the
   in-flight dedupe case), then waits for completion.
2. **kill** — the parent polls the write-ahead journal counting
   ``point-done`` records and sends ``SIGKILL`` once a seeded threshold
   (between a quarter and half of the unique points) is journaled: the
   service dies with jobs accepted, rows stored, and work in flight.
3. **corrupt** — the parent then damages the survivors the way real
   crashes do: a *torn record* (a partial JSON line with no newline) is
   appended to the journal, simulating death mid-append, and one
   interior line of the result store is garbled with
   :func:`repro.runtime.chaos.corrupt_checkpoint`, simulating a bad
   sector under an otherwise-valid file.
4. **recover** — a fresh subprocess opens the same directory under a
   :class:`~repro.runtime.supervisor.Supervisor` recovery deadline:
   the torn tail is dropped, the garbled line is quarantined and the
   store healed, the journal replays, and every incomplete job
   re-admits and runs to completion.

Acceptance (checked structurally by :func:`run_crash_drill`): the kill
really was mid-run; every journaled job finishes after recovery with
zero lost points; the recovered process re-executes *exactly* the
points that were never durably stored (no duplicated work, no
forgotten work — the garbled store line re-executes, journaled-done
rows do not); every job's rows are byte-identical to an uninterrupted
batch :func:`~repro.analysis.sweep.grid_sweep` of the same grid and
seed; and recovery fits the supervisor's ``deadline_s`` budget.  The
whole drill is deterministic for a given seed — the benchmark harness
runs it twice and asserts identical rows.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Optional

from ..analysis.sweep import grid_sweep
from ..rng import make_rng
from ..runtime.chaos import corrupt_checkpoint
from ..runtime import supervisor as supervisor_module
from ..runtime.supervisor import Supervisor
from .api import ResilienceService
from .jobs import DONE
from .loadtest import _grid_for, _grid_size, load_point
from .persistence import JOURNAL_NAME, RESULTS_NAME

__all__ = ["drill_point", "run_crash_drill"]

_REPORT_NAME = "recover_report.json"


def drill_point(x: int, y: int, seed=None) -> dict:
    """Deterministic point, deliberately unhurried (a wide kill window).

    Module-level (importable by name) so the journal can resume it.
    The sleep spreads ~150 points over a couple of seconds, letting the
    parent land its ``SIGKILL`` mid-load with room to spare.
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

    The parent's ground truth for what recovery *must* do: jobs
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

    Mirrors what :class:`~repro.runtime.checkpoint.JournalFile` will
    keep on the next open (invalid lines quarantined, newest wins), so
    the drill can predict exactly which points must re-execute.
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


# -- the two subprocess phases ----------------------------------------------


def _phase_load(
    service_dir: str, seed: int, n_jobs: int, points_per_job: int, batch: int
) -> None:
    """Submit the drill jobs and run until killed (or, untested, done)."""
    grids = [_grid_for(j, points_per_job) for j in range(n_jobs)]
    with ResilienceService(
        workers=1, batch=batch, service_dir=service_dir
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


def _phase_recover(
    service_dir: str,
    seed: int,
    n_jobs: int,
    points_per_job: int,
    batch: int,
    deadline_s: float,
    report_path: str,
) -> None:
    """Recover the directory, finish every job, write the report."""
    svc = ResilienceService(workers=1, batch=batch, service_dir=service_dir)
    sup = Supervisor(deadline_s=deadline_s)
    with supervisor_module.use(sup):
        # only the replay itself is under the recovery deadline — the
        # re-executions that follow are ordinary (already-accepted) work
        svc.start()
        within_deadline = not sup.deadline_exceeded()
    jobs = svc.jobs()
    for job in jobs:
        job.wait(300)
    report = {
        "recovery": svc.recovery,
        "deadline_s": deadline_s,
        "within_deadline": within_deadline,
        "executed_points": int(
            svc.tracer.counters.get("service.points.executed", 0)
        ),
        "jobs": [
            {
                "id": job.id,
                "experiment": job.spec.experiment,
                "state": job.state,
                "progress": job.progress(),
                "rows": job.result().rows if job.state == DONE else None,
            }
            for job in jobs
        ],
        "journal": svc.persistence.stats(),
    }
    svc.close()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
        fh.flush()
        os.fsync(fh.fileno())


# -- the drill (parent process) ---------------------------------------------


def _spawn(phase: str, service_dir: str, **options) -> subprocess.Popen:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    args = [
        sys.executable,
        "-m",
        "repro.service.crashdrill",
        "--phase",
        phase,
        "--dir",
        service_dir,
    ]
    for name, value in options.items():
        args.extend((f"--{name.replace('_', '-')}", str(value)))
    return subprocess.Popen(
        args, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )


def run_crash_drill(
    seed: int = 2013,
    *,
    workdir: str,
    n_jobs: int = 3,
    points_per_job: int = 48,
    deadline_s: float = 30.0,
    batch: int = 8,
    verbose: bool = False,
) -> dict:
    """Run the R03 drill end to end; returns the acceptance report."""
    service_dir = os.path.join(workdir, "service")
    os.makedirs(service_dir, exist_ok=True)
    grids = [_grid_for(j, points_per_job) for j in range(n_jobs)]
    unique_points = sum(_grid_size(grid) for grid in grids)
    rng = make_rng(seed)
    kill_after = int(
        rng.integers(unique_points // 4, unique_points // 2 + 1)
    )
    journal_path = os.path.join(service_dir, JOURNAL_NAME)
    results_path = os.path.join(service_dir, RESULTS_NAME)
    report: dict = {
        "seed": seed,
        "n_jobs": n_jobs + 1,  # the twin rides along
        "unique_points": unique_points,
        "kill_after_points": kill_after,
    }

    # -- phase 1+2: load in a subprocess, SIGKILL it mid-run ---------------
    start = time.perf_counter()
    proc = _spawn(
        "load",
        service_dir,
        seed=seed,
        jobs=n_jobs,
        points_per_job=points_per_job,
        batch=batch,
    )
    try:
        poll_deadline = time.monotonic() + 120
        while time.monotonic() < poll_deadline:
            if proc.poll() is not None:
                break
            if _count_done(journal_path) >= kill_after:
                break
            time.sleep(0.01)
        exited_early = proc.poll() is not None
        if not exited_early:
            proc.send_signal(signal.SIGKILL)
    finally:
        proc.wait(60)
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

    # -- phase 4: recover in a fresh subprocess ----------------------------
    report_path = os.path.join(workdir, _REPORT_NAME)
    if os.path.exists(report_path):
        os.remove(report_path)
    proc = _spawn(
        "recover",
        service_dir,
        seed=seed,
        jobs=n_jobs,
        points_per_job=points_per_job,
        batch=batch,
        deadline=deadline_s,
        report=report_path,
    )
    recover_rc = proc.wait(300)
    report["recover_exit_code"] = recover_rc
    report["elapsed_s"] = round(time.perf_counter() - start, 3)
    recovered: dict = {}
    if recover_rc == 0 and os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            recovered = json.load(fh)
    report["recover"] = recovered

    # -- acceptance --------------------------------------------------------
    jobs = recovered.get("jobs", [])
    recovery_stats = recovered.get("recovery") or {}
    all_done = bool(jobs) and all(j["state"] == DONE for j in jobs)
    lost = sum(
        j["progress"]["total"] - j["progress"]["filled"] for j in jobs
    )
    baselines = {
        # list(), matching the JSON round-trip of the recovered rows
        f"crash-{j}": list(grid_sweep(grid, drill_point, seed=seed).rows)
        for j, grid in enumerate(grids)
    }
    rows_match = bool(jobs) and all(
        j["rows"] == baselines.get(j["experiment"]) for j in jobs
    )
    report["rows"] = {j["id"]: j["rows"] for j in jobs}
    checks = {
        "service killed mid-run (SIGKILL, work in flight)":
            report["killed_mid_run"]
            and 0 < done_at_kill < unique_points
            and bool(incomplete_ids),
        "every submission was journaled before the kill":
            len(accepted) == n_jobs + 1,
        "every incomplete job recovered and finished":
            recover_rc == 0
            and len(jobs) == len(incomplete_ids)
            and sorted(j["id"] for j in jobs) == sorted(incomplete_ids)
            and all_done
            and recovery_stats.get("skipped") == 0,
        "jobs completed before the kill stayed final":
            not any(j["id"] in final_ids for j in jobs),
        "zero points lost": bool(jobs) and lost == 0,
        "zero duplicated work (re-ran only never-stored points)":
            recovered.get("executed_points") == expected_rerun,
        "torn journal tail + garbled store healed":
            recovery_stats.get("quarantined", 0) >= 1,
        "rows byte-identical to uninterrupted grid_sweep": rows_match,
        "recovery within the supervisor deadline":
            bool(recovered.get("within_deadline")),
    }
    report["checks"] = checks
    report["passed"] = all(checks.values())
    if verbose:
        for label, ok in checks.items():
            print(f"  {'ok  ' if ok else 'FAIL'} {label}")
    return report


def main(argv: "Optional[list[str]]" = None) -> int:
    parser = argparse.ArgumentParser(
        description="R03 crash-drill subprocess phases (internal)"
    )
    parser.add_argument("--phase", choices=("load", "recover"), required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--jobs", type=int, default=3)
    parser.add_argument("--points-per-job", type=int, default=48)
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--deadline", type=float, default=30.0)
    parser.add_argument("--report", default=None)
    opts = parser.parse_args(argv)
    if opts.phase == "load":
        _phase_load(
            opts.dir, opts.seed, opts.jobs, opts.points_per_job, opts.batch
        )
    else:
        _phase_recover(
            opts.dir,
            opts.seed,
            opts.jobs,
            opts.points_per_job,
            opts.batch,
            opts.deadline,
            opts.report or os.path.join(opts.dir, os.pardir, _REPORT_NAME),
        )
    return 0


if __name__ == "__main__":
    # re-dispatch through the canonical import so drill_point's
    # __module__ is its real path, not __main__ (which would make the
    # journaled jobs unresumable — the very thing the drill tests)
    from repro.service import crashdrill as _canonical

    sys.exit(_canonical.main())
