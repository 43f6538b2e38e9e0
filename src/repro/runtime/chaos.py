"""Deterministic chaos harness: the paper's shock methodology, self-applied.

The paper validates *systems* by perturbing them and checking recovery
(§5.3's tiger-team fault injection); this module turns the same
methodology on the runtime itself.  A :class:`ChaosPlan` assigns at most
one :class:`ChaosFault` per sweep point — reusing
:class:`repro.faults.FaultSpec` as the sampling substrate — and
:func:`active` installs it as module state for a ``with`` block, the
way :func:`repro.runtime.supervisor.use` installs a supervisor.  Worker
processes are forked by the executor, so they inherit the installed
plan.  Workers call :func:`strike` / :func:`poison` at the top and
bottom of their point function; faults fire deterministically:

* ``raise`` — an ordinary worker crash, struck exactly once per run via
  an ``O_EXCL`` marker file, so the executor's retry budget absorbs it
  (it is *not* an engine fault and must not trip breakers);
* ``hang`` — the worker sleeps past the per-point timeout;
* ``oom`` — the worker raises :class:`MemoryError`;
* ``nan`` — the point's result row has its floats replaced with NaN.

``hang`` / ``oom`` / ``nan`` are **family-guarded**: they strike only
while their engine family still resolves to a fast engine, so once the
supervisor trips the family's breaker and degrades it, the fault stops
firing and the re-run succeeds — which is exactly the self-healing
contract under test.  Every decision derives from the installed plan,
the marker directory, and the engine seam's resolution; no wall-clock
or process-local randomness, so a drill reproduces bit-for-bit.  The
once-markers are files, not module state, because a retried ``raise``
fault must see a marker that a dead sibling process wrote.

:func:`run_drill` is the acceptance scenario in executable form: a
supervised, checkpointed sweep under a four-fault plan plus a mid-file
checkpoint corruption (:func:`corrupt_checkpoint`), resumed, and
compared row-for-row against a fault-free all-object-engine baseline.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from ..errors import ChaosError
from ..faults.spec import FaultSpec
from ..rng import SeedLike, make_rng
from . import supervisor as supervisor_module
from . import trace as trace_module
from .engines import SEAMS, effective_kind

__all__ = [
    "KINDS",
    "ChaosFault",
    "ChaosPlan",
    "active",
    "corrupt_checkpoint",
    "poison",
    "run_drill",
    "strike",
]

#: Injectable fault kinds, in the order :meth:`ChaosPlan.sample` assigns
#: them to sampled points.
KINDS = ("raise", "hang", "oom", "nan")

#: Kinds that must be tied to an engine family (see module docs).
_FAMILY_KINDS = frozenset({"hang", "oom", "nan"})


@dataclass(frozen=True)
class ChaosFault:
    """One injected runtime fault: ``kind`` striking sweep point ``point``.

    ``family`` names the engine family whose degradation disarms the
    fault; required for the family-guarded kinds (``hang``/``oom``/
    ``nan``), forbidden for ``raise`` (which disarms itself via its
    once-marker instead).
    """

    kind: str
    point: int
    family: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ChaosError(
                f"unknown chaos kind {self.kind!r}; "
                f"valid kinds: {sorted(KINDS)}"
            )
        if self.point < 0:
            raise ChaosError(f"point must be >= 0, got {self.point}")
        if self.kind in _FAMILY_KINDS:
            if self.family not in SEAMS:
                raise ChaosError(
                    f"{self.kind!r} faults need an engine family from "
                    f"{sorted(SEAMS)}, got {self.family!r}"
                )
        elif self.family is not None:
            raise ChaosError(
                f"{self.kind!r} faults take no family "
                f"(got {self.family!r}); they disarm via a once-marker"
            )


@dataclass(frozen=True)
class ChaosPlan:
    """A set of chaos faults, at most one per sweep point."""

    faults: tuple[ChaosFault, ...]

    def __post_init__(self) -> None:
        faults = tuple(self.faults)
        object.__setattr__(self, "faults", faults)
        points = [f.point for f in faults]
        if len(points) != len(set(points)):
            dupes = sorted({p for p in points if points.count(p) > 1})
            raise ChaosError(
                f"at most one fault per point; duplicated points: {dupes}"
            )

    def fault_for(self, point: int) -> Optional[ChaosFault]:
        """The fault targeting ``point``, if any."""
        for fault in self.faults:
            if fault.point == point:
                return fault
        return None

    @classmethod
    def sample(
        cls,
        n_points: int,
        seed: SeedLike = None,
        kinds: Sequence[str] = KINDS,
        family: str = "csp",
    ) -> "ChaosPlan":
        """Draw a plan striking ``len(kinds)`` distinct points (one each).

        The struck points come from one :class:`repro.faults.FaultSpec`
        (the tiger team's attack, aimed at sweep points instead of
        system components); kinds are assigned to them in the order
        given.  Deterministic for a given seed.
        """
        if n_points < len(kinds):
            raise ChaosError(
                f"need at least {len(kinds)} points for kinds {list(kinds)}, "
                f"got {n_points}"
            )
        rng = make_rng(seed)
        picks = rng.choice(n_points, size=len(kinds), replace=False)
        spec = FaultSpec(tuple(int(p) for p in picks), label="chaos")
        return cls(
            tuple(
                ChaosFault(
                    kind=kind,
                    point=point,
                    family=family if kind in _FAMILY_KINDS else None,
                )
                for kind, point in zip(kinds, spec.components)
            )
        )


#: The installed ``(plan, state_dir)``, or ``None`` (see :func:`active`).
_active: Optional[tuple[ChaosPlan, str]] = None


@contextmanager
def active(plan: ChaosPlan, state_dir: str) -> Iterator[ChaosPlan]:
    """Install ``plan`` for a ``with`` block; forked workers inherit it.

    ``state_dir`` (created if missing) holds the once-markers of
    ``raise`` faults; reusing a directory from an earlier drill keeps
    those faults disarmed, so resumed runs see the same world.  On exit
    the previously installed plan, if any, is reinstated.
    """
    global _active
    if not isinstance(plan, ChaosPlan):
        raise ChaosError(f"active() needs a ChaosPlan, got {type(plan).__name__}")
    os.makedirs(state_dir, exist_ok=True)
    previous = _active
    _active = (plan, state_dir)
    try:
        yield plan
    finally:
        _active = previous


def _active_fault(point: int) -> Optional[ChaosFault]:
    """The armed fault for ``point`` under the installed plan, if any."""
    if _active is None:
        return None
    plan, state_dir = _active
    fault = plan.fault_for(point)
    if fault is None or not _should_strike(fault, state_dir):
        return None
    return fault


def _should_strike(fault: ChaosFault, state_dir: str) -> bool:
    """Whether ``fault`` is still armed (see module docs)."""
    if fault.family is not None:
        # family-guarded: disarmed once the supervisor degrades the
        # family to its reference engine
        return effective_kind(fault.family) in SEAMS[fault.family].fast
    marker = os.path.join(state_dir, f"{fault.kind}-{fault.point}.struck")
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def strike(point: int) -> None:
    """Worker-side injection hook: fire any armed fault for ``point``.

    A no-op unless a plan is active (workers call this unconditionally).
    ``nan`` faults do nothing here — they poison the result on the way
    out via :func:`poison` instead.
    """
    fault = _active_fault(point)
    if fault is None or fault.kind == "nan":
        return
    if fault.kind == "raise":
        raise RuntimeError(f"chaos: injected worker crash at point {point}")
    if fault.kind == "oom":
        raise MemoryError(f"chaos: simulated out-of-memory at point {point}")
    # hang: sleep far past any sane per-point timeout; the executor
    # terminates the worker process, this never returns normally
    deadline = time.monotonic() + 600.0
    while time.monotonic() < deadline:  # pragma: no cover - killed early
        time.sleep(0.05)


def poison(point: int, row: Mapping) -> dict:
    """Worker-side result hook: NaN-poison ``row`` if a ``nan`` fault is armed.

    Replaces every float value with NaN, key set unchanged — the shape a
    numerically-broken engine would produce.  Returns ``row`` as a plain
    dict either way.
    """
    fault = _active_fault(point)
    if fault is None or fault.kind != "nan":
        return dict(row)
    return {
        key: float("nan") if isinstance(value, float) else value
        for key, value in row.items()
    }


def corrupt_checkpoint(
    path: str, seed: SeedLike = None, n_lines: int = 1
) -> list[int]:
    """Garble ``n_lines`` mid-file lines of a JSONL checkpoint, in place.

    Only interior lines are eligible — never the header (whose loss is a
    hard :class:`~repro.errors.CheckpointError` by design) and never the
    final line (a torn tail is a different, already-handled failure).
    Returns the corrupted line numbers (1-based).  Deterministic for a
    given seed.
    """
    if n_lines < 1:
        raise ChaosError(f"n_lines must be >= 1, got {n_lines}")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    eligible = list(range(1, len(lines) - 1))
    if len(eligible) < n_lines:
        raise ChaosError(
            f"checkpoint {path!r} has only {len(eligible)} interior "
            f"line(s); cannot corrupt {n_lines}"
        )
    rng = make_rng(seed)
    picks = sorted(
        int(i) for i in rng.choice(len(eligible), size=n_lines, replace=False)
    )
    struck = [eligible[i] for i in picks]
    for lineno in struck:
        # cut the line mid-token and splice in garbage: reliably not
        # JSON, regardless of the record's contents
        text = lines[lineno]
        lines[lineno] = text[: max(1, len(text) // 2)] + '~chaos~"'
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return [lineno + 1 for lineno in struck]


# -- the acceptance drill ---------------------------------------------------


def _drill_worker(value: int, seed) -> dict:
    """One drill point: a small recoverability query under chaos hooks.

    Module-level so worker processes can pickle it.  The CSP is boolean
    (so ``REPRO_CSP_ENGINE=tiled`` exercises the fast engine) and the row
    mixes bools, ints, and a seeded float draw — one of each JSON shape
    the baseline comparison must reproduce byte-for-byte.
    """
    from ..core.recoverability import BoundedComponentDamage, is_k_recoverable
    from ..csp.constraints import at_least_k_good
    from ..csp.problem import CSP
    from ..csp.variables import boolean_variables

    strike(value)
    variables = boolean_variables(6)
    names = [v.name for v in variables]
    csp = CSP(variables, [at_least_k_good(names, 2 + value % 3)])
    report = is_k_recoverable(csp, BoundedComponentDamage(2), k=2)
    rng = make_rng(seed)
    row = {
        "recoverable": bool(report.is_k_recoverable),
        "worst": -1 if report.worst_steps is None else int(report.worst_steps),
        "draw": float(rng.random()),
    }
    return poison(value, row)


def run_drill(
    seed: int = 0,
    *,
    n_points: int = 16,
    workdir: str,
    n_jobs: int = 2,
    timeout_s: float = 5.0,
) -> dict:
    """The chaos acceptance scenario, end to end.  Returns a report dict.

    A supervised, checkpointed ``n_points``-point sweep runs under a
    sampled four-fault plan (worker crash, hang, simulated OOM,
    NaN-poisoned output) with ``REPRO_CSP_ENGINE=tiled``; the hang/OOM/NaN
    faults trip the csp breaker, the sweep re-runs the suspects on the
    degraded object engine, and every point completes.  The checkpoint
    then gets one mid-file line corrupted and the sweep is resumed —
    the bad line is quarantined and its point recomputed.  Finally a
    fault-free, unsupervised, all-object-engine sweep recomputes the
    whole grid from scratch and the report says whether the two row
    sets are byte-identical (``baseline_identical`` — the self-healing
    contract).
    """
    from ..analysis.sweep import sweep  # local: runtime must not need analysis

    state_dir = os.path.join(workdir, "chaos-state")
    ckpt_path = os.path.join(workdir, "drill.jsonl")
    plan = ChaosPlan.sample(n_points, seed=seed)
    sup = supervisor_module.Supervisor(families=("csp",))
    tr = trace_module.Tracer()

    def run():
        return sweep(
            range(n_points),
            _drill_worker,
            n_jobs=n_jobs,
            seed=seed,
            on_error="keep",
            retries=1,
            retry_backoff=0.01,
            timeout=timeout_s,
            checkpoint=ckpt_path,
        )

    # pinned because _should_strike reads the caller's REPRO_CSP_ENGINE
    with _env_pinned({"REPRO_CSP_ENGINE": "tiled"}):
        with active(plan, state_dir), supervisor_module.use(sup), \
                trace_module.use(tr):
            chaos_result = run()
            corrupted = corrupt_checkpoint(ckpt_path, seed=seed)
            resumed_result = run()

    with _env_pinned(
        {
            "REPRO_AGENT_ENGINE": "object",
            "REPRO_NETWORK_ENGINE": "object",
            "REPRO_CSP_ENGINE": "object",
        }
    ):
        baseline = sweep(
            range(n_points), _drill_worker, n_jobs=1, seed=seed
        )

    def canon(rows) -> list[str]:
        return [json.dumps(row, sort_keys=True) for row in rows]

    counters = tr.counters
    return {
        "n_points": n_points,
        "plan": [
            {"kind": f.kind, "point": f.point, "family": f.family}
            for f in plan.faults
        ],
        "ok": len(resumed_result.ok_rows),
        "failed": len(resumed_result.failed),
        "rows": list(resumed_result.rows),
        "trips": counters.get("supervisor.trips", 0),
        "degradations": counters.get("supervisor.degradations", 0),
        "reruns": counters.get("supervisor.reruns", 0),
        "poisoned": counters.get("supervisor.poisoned", 0),
        "quarantined": counters.get("checkpoint.quarantined", 0),
        "corrupted_lines": corrupted,
        "breakers": sup.summary(),
        "chaos_ok": len(chaos_result.ok_rows),
        "baseline_identical": (
            canon(resumed_result.ok_rows) == canon(baseline.ok_rows)
        ),
    }


@contextmanager
def _env_pinned(pins: Mapping[str, str]) -> Iterator[None]:
    """Set environment variables for a ``with`` block, then restore."""
    saved = {var: os.environ.get(var) for var in pins}
    os.environ.update(pins)
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
