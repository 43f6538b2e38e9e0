"""Parameter-sweep harness used by every benchmark.

A sweep maps a callable over a parameter grid, keeping (parameters,
result) pairs in declaration order and rendering directly to the aligned
tables the benchmark suite prints.

Sweeps parallelize across processes (``n_jobs``) and thread determinism
through explicitly-spawned seeds: pass ``seed=`` and every grid point
receives its own :class:`numpy.random.SeedSequence` child, so the same
parent seed reproduces the same results at any worker count.

On top of that sits the fault-tolerant runtime (:mod:`repro.runtime`):

* ``on_error="keep"`` turns a crashing or hanging point into an *error
  row* (exception text, worker traceback, and the point's seed) instead
  of aborting the sweep — :attr:`SweepResult.ok_rows` and
  :attr:`SweepResult.failed` split the outcome;
* ``retries``/``retry_backoff`` re-attempt transient failures with
  exponential backoff, and ``timeout`` bounds each point's wall time
  (a hung worker process is terminated, not waited on);
* ``checkpoint="path.jsonl"`` appends each completed point to a JSONL
  file; re-running the same sweep against the same path skips completed
  points and replays their rows verbatim, so an interrupted or
  partially-failed sweep resumes instead of recomputing;
* every point is counted/timed through the active
  :class:`repro.runtime.trace.Tracer` (install one with
  :func:`repro.runtime.trace.use`);
* under an installed :class:`repro.runtime.supervisor.Supervisor` the
  sweep becomes *self-healing* through the MAPE pass of
  :func:`repro.runtime.executor.run_points`, the one the service's
  scheduler gets too: engine-attributable faults (``MemoryError``,
  per-point timeout, a worker process dying, or NaN-poisoned output)
  skip the in-place retry and trip the supervisor's circuit breakers,
  the engine seams degrade deterministically to the reference object
  engines, and the affected points are re-run once under the degraded
  engines — the supervisor's deadline also clamps per-point timeouts
  and pre-empts points once the run budget is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Mapping

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike
from ..runtime import trace as trace_module
from ..runtime.checkpoint import SweepCheckpoint, fingerprint
from ..runtime.executor import PointTask, run_points
from .tables import render_table

__all__ = ["PointFailure", "SweepResult", "expand_grid", "sweep", "grid_sweep"]


@dataclass(frozen=True)
class PointFailure:
    """One sweep point that failed after all retry attempts."""

    index: int  # position in the sweep's point order
    params: dict  # the point's parameter assignment
    seed: tuple[int | None, tuple[int, ...]] | None
    """``(entropy, spawn_key)`` of the point's SeedSequence (``None``
    for unseeded sweeps) — enough to re-run the point standalone."""
    error: str  # "ExceptionType: message" or "timed out after Ns"
    traceback: str | None  # worker-side formatted traceback, if any
    attempts: int

    def row(self) -> dict:
        """The failure as an error row (parameters + diagnosis)."""
        row = dict(self.params)
        row["error"] = self.error
        row["seed"] = self.seed
        row["traceback"] = self.traceback
        return row


@dataclass(frozen=True)
class SweepResult:
    """Results of a sweep: one row dict per parameter point.

    ``rows`` holds every point in sweep order; points that failed under
    ``on_error="keep"`` appear as error rows (parameters plus ``error``
    / ``seed`` / ``traceback`` keys).  ``failures`` carries the same
    failures with full structure.
    """

    rows: tuple[dict, ...]
    failures: tuple[PointFailure, ...] = ()

    @property
    def ok_rows(self) -> tuple[dict, ...]:
        """Rows of the points that completed successfully, in order."""
        failed = {f.index for f in self.failures}
        return tuple(r for i, r in enumerate(self.rows) if i not in failed)

    @property
    def failed(self) -> tuple[PointFailure, ...]:
        """The failed points (empty unless ``on_error="keep"`` kept any)."""
        return self.failures

    def column(self, key: str) -> list:
        """Extract one column across all rows."""
        missing = [i for i, r in enumerate(self.rows) if key not in r]
        if missing:
            raise ConfigurationError(
                f"column {key!r} missing from rows {missing[:5]}"
            )
        return [r[key] for r in self.rows]

    def to_table(self) -> str:
        """Aligned text table of all rows."""
        return render_table(list(self.rows))

    def __len__(self) -> int:
        return len(self.rows)


def expand_grid(grid: Mapping[str, Iterable]) -> list[dict]:
    """Materialize a parameter grid into its Cartesian-product points.

    The shared submit path: :func:`grid_sweep` and the service layer's
    job submission (:meth:`repro.service.ResilienceService.submit`) both
    expand grids through here, so a job submitted to the service names
    exactly the points the equivalent batch sweep would run — same
    declaration order, same dict shapes, same fingerprints.
    """
    if not grid:
        raise ConfigurationError("grid must have at least one parameter")
    grid = {name: list(values) for name, values in grid.items()}
    names = list(grid)
    for name, values in grid.items():
        if not values:
            raise ConfigurationError(f"grid parameter {name!r} has no values")
    return [
        dict(zip(names, combo))
        for combo in product(*(grid[n] for n in names))
    ]


def _spawn_seeds(
    seed: SeedLike, count: int
) -> list[np.random.SeedSequence | None]:
    """One independent child seed per sweep point (all ``None`` unseeded)."""
    if seed is None:
        return [None] * count
    if isinstance(seed, np.random.SeedSequence):
        return seed.spawn(count)
    if isinstance(seed, np.random.Generator):
        raise ConfigurationError(
            "sweep seeds must be an int or SeedSequence (a Generator "
            "cannot be split deterministically across processes)"
        )
    return np.random.SeedSequence(seed).spawn(count)


def _seed_label(seed: SeedLike) -> str:
    """Stable description of the parent seed for checkpoint fingerprints."""
    if seed is None:
        return "none"
    if isinstance(seed, np.random.SeedSequence):
        return f"seedseq:{seed.entropy}:{seed.spawn_key}"
    return f"int:{int(seed)}"


def _seed_id(
    seed: np.random.SeedSequence | None,
) -> tuple[int | None, tuple[int, ...]] | None:
    """Compact (entropy, spawn_key) identity of one point's child seed."""
    if seed is None:
        return None
    entropy = seed.entropy
    if isinstance(entropy, (list, tuple, np.ndarray)):  # pragma: no cover
        entropy = None
    return (entropy, tuple(int(k) for k in seed.spawn_key))


def _run_point(fn, value, seed):
    return fn(value) if seed is None else fn(value, seed)


def _run_grid_point(fn, params, seed):
    return fn(**params) if seed is None else fn(**params, seed=seed)


def _merge_row(params: dict, result: Mapping, what: str) -> dict:
    """One output row = parameter assignment + worker result mapping."""
    overlap = set(result) & set(params)
    if overlap:
        raise ConfigurationError(
            f"result keys collide with {what}: {sorted(overlap)}"
        )
    row = dict(params)
    row.update(result)
    return row


def _execute(
    worker: Callable,
    fn: Callable,
    param_rows: list[dict],
    inputs: list,
    seeds: list,
    *,
    what: str,
    n_jobs: int,
    on_error: str,
    retries: int,
    retry_backoff: float,
    timeout: float | None,
    checkpoint: str | None,
    seed_label: str,
) -> SweepResult:
    """Shared engine behind :func:`sweep` and :func:`grid_sweep`."""
    if on_error not in ("raise", "keep"):
        raise ConfigurationError(
            f"on_error must be 'raise' or 'keep', got {on_error!r}"
        )
    tr = trace_module.current()
    n_points = len(inputs)

    ckpt: SweepCheckpoint | None = None
    done: dict[int, dict] = {}
    if checkpoint is not None:
        fp = fingerprint(inputs, seed_label, extra=what)
        ckpt = SweepCheckpoint.open(checkpoint, n_points=n_points, fp=fp)
        done = ckpt.done
        for w in ckpt.warnings:
            tr.warning(f"checkpoint: {w['reason']}", line=w["line"])
        if ckpt.quarantined:
            tr.count("checkpoint.quarantined", ckpt.quarantined)

    tasks = [
        PointTask(index=i, value=inputs[i], seed=seeds[i])
        for i in range(n_points)
        if i not in done
    ]
    tr.event(
        "sweep.start",
        points=n_points,
        resumed=len(done),
        n_jobs=n_jobs,
        timeout=timeout,
        retries=retries,
    )
    try:
        with tr.timer("sweep.run"):
            outcomes = run_points(
                worker,
                fn,
                tasks,
                n_jobs=n_jobs,
                retries=retries,
                backoff=retry_backoff,
                timeout=timeout,
                tracer=tr,
            )

        rows: dict[int, dict] = {}
        failures: list[PointFailure] = []
        for index, row in done.items():
            rows[index] = row
            tr.count("sweep.points.resumed")
        for outcome in outcomes:
            index = outcome.index
            if outcome.ok:
                row = _merge_row(param_rows[index], outcome.value, what)
                if ckpt is not None:
                    row = ckpt.record(index, row)
                rows[index] = row
                tr.count("sweep.points.ok")
                tr.record_timing("sweep.point", outcome.elapsed_s)
                tr.event(
                    "point.ok",
                    index=index,
                    attempts=outcome.attempts,
                    elapsed_s=round(outcome.elapsed_s, 6),
                )
                continue
            tr.count("sweep.points.failed")
            tr.event(
                "point.fail",
                index=index,
                attempts=outcome.attempts,
                error=outcome.error,
                elapsed_s=round(outcome.elapsed_s, 6),
            )
            if on_error == "raise":
                tr.event("sweep.abort", index=index)
                outcome.reraise()
            failure = PointFailure(
                index=index,
                params=dict(param_rows[index]),
                seed=_seed_id(seeds[index]),
                error=outcome.error,
                traceback=outcome.traceback,
                attempts=outcome.attempts,
            )
            failures.append(failure)
            rows[index] = failure.row()
    finally:
        if ckpt is not None:
            ckpt.close()

    tr.event(
        "sweep.end",
        ok=n_points - len(failures),
        failed=len(failures),
    )
    return SweepResult(
        rows=tuple(rows[i] for i in range(n_points)),
        failures=tuple(sorted(failures, key=lambda f: f.index)),
    )


def sweep(
    values: Iterable,
    fn: Callable[..., Mapping],
    param_name: str = "param",
    n_jobs: int = 1,
    seed: SeedLike = None,
    *,
    on_error: str = "raise",
    retries: int = 0,
    retry_backoff: float = 0.1,
    timeout: float | None = None,
    checkpoint: str | None = None,
) -> SweepResult:
    """Run ``fn(value)`` for each value; each call returns a row mapping.

    ``values`` may be any iterable — a list, ``range``, numpy array, or
    generator; it is materialized once up front.  ``n_jobs`` > 1 fans
    the points out over a pool of forked worker processes (``-1`` uses
    every core; ``fn`` reaches the workers through fork, and each row
    must be picklable to come back).  When ``seed``
    is given, ``fn`` is called as ``fn(value, child_seed)`` where
    ``child_seed`` is a per-point ``SeedSequence`` spawned from the
    parent — deterministic for a given seed at any worker count.

    Fault tolerance: with ``on_error="keep"`` a raising, crashing, or
    timed-out point becomes an error row and the sweep completes;
    ``retries`` re-attempts each failing point with ``retry_backoff *
    2**k`` sleeps; ``timeout`` bounds one attempt's wall-clock seconds
    (forces process isolation, so each row must be picklable).
    ``checkpoint`` names a JSONL file for interrupt/resume.
    """
    values = list(values)
    if not values:
        raise ConfigurationError("sweep needs at least one value")
    seeds = _spawn_seeds(seed, len(values))
    return _execute(
        _run_point,
        fn,
        param_rows=[{param_name: v} for v in values],
        inputs=values,
        seeds=seeds,
        what=f"parameter name {param_name!r}",
        n_jobs=n_jobs,
        on_error=on_error,
        retries=retries,
        retry_backoff=retry_backoff,
        timeout=timeout,
        checkpoint=checkpoint,
        seed_label=_seed_label(seed),
    )


def grid_sweep(
    grid: Mapping[str, Iterable],
    fn: Callable[..., Mapping],
    n_jobs: int = 1,
    seed: SeedLike = None,
    *,
    on_error: str = "raise",
    retries: int = 0,
    retry_backoff: float = 0.1,
    timeout: float | None = None,
    checkpoint: str | None = None,
) -> SweepResult:
    """Cartesian-product sweep: ``fn(**params)`` per grid point.

    Grid values may be any iterables (numpy arrays, ranges, generators
    included); they are materialized once up front.  Parallelism,
    seeding, fault tolerance, checkpointing, and tracing all follow
    :func:`sweep`; with ``seed`` given, ``fn`` receives an extra
    ``seed=<SeedSequence>`` keyword (so the grid itself must not
    contain a ``seed`` parameter).
    """
    if seed is not None and "seed" in grid:
        raise ConfigurationError(
            "grid parameter 'seed' collides with the sweep's seed keyword"
        )
    points = expand_grid(grid)
    seeds = _spawn_seeds(seed, len(points))
    return _execute(
        _run_grid_point,
        fn,
        param_rows=[dict(p) for p in points],
        inputs=points,
        seeds=seeds,
        what="parameters",
        n_jobs=n_jobs,
        on_error=on_error,
        retries=retries,
        retry_backoff=retry_backoff,
        timeout=timeout,
        checkpoint=checkpoint,
        seed_label=_seed_label(seed),
    )
