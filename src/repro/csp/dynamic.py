"""Dynamic constraint satisfaction: environments that change under shocks.

This is the heart of the paper's formal model (§4.2, Fig. 4):

* a system status is a bit string (or finite-domain assignment);
* the environment is a constraint set C; a configuration is fit iff it
  satisfies C;
* an event (a shock of some type D) may change the environment C → C'
  and/or damage the system state;
* the system then adapts, flipping a bounded number of bits per step,
  until it is fit again.

:class:`DynamicCSP` is the scripted sequence of such events;
:class:`DCSPSimulator` runs the adapt-repair loop and emits a
:class:`~repro.core.quality.QualityTrace` so the Bruneau metric and the
k-recoverability machinery both consume the same runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Sequence, Union

from ..core.quality import QualityTrace
from ..errors import ConfigurationError, SimulationError
from ..rng import SeedLike, make_rng
from ..runtime import trace
from .constraints import Constraint
from .problem import CSP
from .variables import Variable

__all__ = [
    "EnvironmentShift",
    "StateDamage",
    "Perturbation",
    "DynamicCSP",
    "DCSPRun",
    "DCSPSimulator",
]


@dataclass(frozen=True)
class EnvironmentShift:
    """An event that replaces the constraint set: C → C'.

    ``constraints`` is the complete new environment.  ``label`` names the
    shock type D for reporting.
    """

    time: int
    constraints: tuple[Constraint, ...]
    label: str = "environment-shift"

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"event time must be >= 0, got {self.time}")
        object.__setattr__(self, "constraints", tuple(self.constraints))


@dataclass(frozen=True)
class StateDamage:
    """An event that corrupts the system state (e.g. debris hits components).

    ``assignment_update`` maps variable names to forced new values.
    """

    time: int
    assignment_update: tuple[tuple[str, object], ...]
    label: str = "state-damage"

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"event time must be >= 0, got {self.time}")
        object.__setattr__(
            self, "assignment_update", tuple(tuple(p) for p in self.assignment_update)
        )

    @classmethod
    def failing(cls, time: int, names: Iterable[str], label: str = "state-damage"):
        """Damage that sets each named boolean component to 0 (failed)."""
        return cls(time, tuple((n, 0) for n in names), label)


Perturbation = Union[EnvironmentShift, StateDamage]


class DynamicCSP:
    """A CSP whose constraint set evolves under a scripted event stream."""

    def __init__(
        self,
        variables: Sequence[Variable],
        initial_constraints: Sequence[Constraint],
        events: Sequence[Perturbation] = (),
    ):
        self.variables = tuple(variables)
        self.initial_constraints = tuple(initial_constraints)
        self.events = tuple(sorted(events, key=lambda e: e.time))
        # validate every environment against the variable set
        CSP(self.variables, self.initial_constraints)
        for event in self.events:
            if isinstance(event, EnvironmentShift):
                CSP(self.variables, event.constraints)
            elif isinstance(event, StateDamage):
                names = {v.name for v in self.variables}
                for name, _ in event.assignment_update:
                    if name not in names:
                        raise ConfigurationError(
                            f"damage event at t={event.time} touches unknown "
                            f"variable {name!r}"
                        )
            else:  # pragma: no cover - defensive
                raise ConfigurationError(f"unknown event type: {event!r}")
        # one CSP per distinct environment (constraint tuple), built
        # lazily: csp_at is called every simulated step, and a stable
        # CSP identity lets the fast engine cache its compiled form
        self._csp_cache: Dict[int, CSP] = {}

    def csp_at(self, time: int) -> CSP:
        """The environment (as a static CSP) in force at integer time ``time``.

        Environments are interned: the same constraint set always maps
        to the same :class:`CSP` instance (CSPs are immutable), so
        repeated calls cost a scan over the event list, not a rebuild.
        """
        constraints = self.initial_constraints
        for event in self.events:
            if event.time <= time and isinstance(event, EnvironmentShift):
                constraints = event.constraints
        key = id(constraints)
        cached = self._csp_cache.get(key)
        if cached is None:
            cached = CSP(self.variables, constraints)
            self._csp_cache[key] = cached
        return cached

    def events_at(self, time: int) -> list[Perturbation]:
        """Events that fire exactly at ``time``."""
        return [e for e in self.events if e.time == time]

    @property
    def horizon(self) -> int:
        """Last scripted event time (0 when the stream is empty)."""
        return max((e.time for e in self.events), default=0)


RepairFn = Callable[[CSP, Dict[str, object]], Dict[str, object]]


@dataclass
class DCSPRun:
    """Result of simulating a dynamic CSP.

    ``trace`` is the Q(t) signal (fraction of satisfied constraints);
    ``states`` holds the assignment after each step; ``fit`` flags
    whether the system was fit at each step; ``events_applied`` records
    (time, label) for every perturbation that fired.
    """

    trace: QualityTrace
    states: list[Dict[str, object]]
    fit: list[bool]
    events_applied: list[tuple[int, str]] = field(default_factory=list)

    @property
    def always_fit(self) -> bool:
        """Whether the system never left the fit set."""
        return all(self.fit)

    def recovery_steps_after(self, time: int) -> Optional[int]:
        """Steps from ``time`` until the system is next fit (None = never)."""
        if time < 0 or time >= len(self.fit):
            raise ConfigurationError(f"time {time} outside the simulated horizon")
        for t in range(time, len(self.fit)):
            if self.fit[t]:
                return t - time
        return None


class DCSPSimulator:
    """Run the adapt-repair loop of the paper's model.

    Each integer step: (1) apply the events scheduled for this step;
    (2) if the configuration is unfit, flip up to ``flips_per_step``
    greedily-chosen bits toward satisfaction; (3) record quality.

    ``flips_per_step`` is the adaptability parameter; higher values model
    systems that can adapt faster (paper §4.4).

    ``engine`` selects the CSP kernels (see
    :func:`repro.csp.engine.make_csp_engine`; default honours
    ``REPRO_CSP_ENGINE``).  The fast kinds compile each distinct
    environment once and replay the greedy repair on packed state
    masks — identical runs, draw-for-draw, to the object engine.  A
    single-block :class:`~repro.csp.tiledengine.TiledBitCSP` answers
    each tick from its violation table; past one block it computes just
    the ``mask ^ flip_masks`` neighborhoods each tick, so DCSP runs
    scale past n = 20 with per-tick cost Θ(n · n_constraints).  Non-boolean CSPs, ``n`` beyond the enumeration
    cap, and damage events forcing non-boolean values all fall back to
    the object loop automatically.
    """

    def __init__(
        self,
        dynamic: DynamicCSP,
        flips_per_step: int = 1,
        engine=None,
    ):
        from .engine import make_csp_engine

        if flips_per_step < 0:
            raise ConfigurationError(
                f"flips_per_step must be >= 0, got {flips_per_step}"
            )
        self.dynamic = dynamic
        self.flips_per_step = flips_per_step
        self.engine = make_csp_engine(engine)

    def _compiled_timeline(self, horizon: int):
        """One compiled environment per step, or ``None`` to fall back."""
        for event in self.dynamic.events:
            if isinstance(event, StateDamage) and event.time < horizon:
                for _, value in event.assignment_update:
                    if not (value == 0 or value == 1):
                        return None
        comps = []
        for t in range(horizon):
            comp = self.engine.try_compile(self.dynamic.csp_at(t))
            if comp is None:
                return None
            comps.append(comp)
        return comps

    def run(
        self,
        initial: Dict[str, object],
        horizon: Optional[int] = None,
        seed: SeedLike = None,
    ) -> DCSPRun:
        """Simulate from ``initial`` for ``horizon`` steps (>= event horizon)."""
        rng = make_rng(seed)
        horizon = self.dynamic.horizon + len(self.dynamic.variables) + 1 \
            if horizon is None else horizon
        if horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
        state = dict(initial)
        csp = self.dynamic.csp_at(0)
        csp.validate_assignment(state)
        if not csp.is_complete(state):
            raise SimulationError("initial assignment must bind every variable")

        tr = trace.current()
        comps = self._compiled_timeline(horizon)
        if comps is not None:
            with tr.timer("csp.dcsp.tiled"):
                result = self._run_bits(state, horizon, rng, comps)
            tr.count("csp.dcsp.runs.tiled")
            return result
        with tr.timer("csp.dcsp.object"):
            result = self._run_object(state, horizon, rng)
        tr.count("csp.dcsp.runs.object")
        return result

    def _run_object(
        self, state: Dict[str, object], horizon: int, rng
    ) -> DCSPRun:
        times: list[float] = []
        quality: list[float] = []
        states: list[Dict[str, object]] = []
        fit: list[bool] = []
        applied: list[tuple[int, str]] = []

        for t in range(horizon):
            for event in self.dynamic.events_at(t):
                applied.append((t, event.label))
                if isinstance(event, StateDamage):
                    for name, value in event.assignment_update:
                        state[name] = value
            csp = self.dynamic.csp_at(t)
            if not csp.is_fit(state) and self.flips_per_step > 0:
                state = self._repair_step(csp, state, rng)
            times.append(float(t))
            quality.append(csp.quality(state))
            states.append(dict(state))
            fit.append(csp.is_fit(state))

        if len(times) == 1:  # QualityTrace needs two samples
            times.append(times[0] + 1.0)
            quality.append(quality[0])
        return DCSPRun(
            trace=QualityTrace.from_samples(times, quality),
            states=states,
            fit=fit,
            events_applied=applied,
        )

    def _repair_step(
        self,
        csp: CSP,
        state: Dict[str, object],
        rng,
    ) -> Dict[str, object]:
        """Flip up to ``flips_per_step`` variables, each greedily chosen."""
        state = dict(state)
        for _ in range(self.flips_per_step):
            if csp.is_fit(state):
                break
            best_move: Optional[tuple[str, object]] = None
            best_count = csp.conflict_count(state)
            candidates: list[tuple[str, object]] = []
            for var in csp.variables:
                for value in var.domain:
                    if value == state[var.name]:
                        continue
                    trial = dict(state)
                    trial[var.name] = value
                    count = csp.conflict_count(trial)
                    if count < best_count:
                        best_count = count
                        candidates = [(var.name, value)]
                    elif count == best_count and candidates:
                        candidates.append((var.name, value))
            if candidates:
                best_move = candidates[rng.integers(len(candidates))]
                state[best_move[0]] = best_move[1]
            else:
                # No improving move: random walk on a conflicted variable.
                conflicted = sorted(
                    {v for c in csp.violated_constraints(state) for v in c.scope}
                )
                if not conflicted:
                    break
                name = conflicted[rng.integers(len(conflicted))]
                domain = [v for v in csp.by_name[name].domain if v != state[name]]
                if domain:
                    state[name] = domain[rng.integers(len(domain))]
        return state

    # -- compiled bit-matrix path ----------------------------------------

    def _run_bits(
        self, state: Dict[str, object], horizon: int, rng, comps
    ) -> DCSPRun:
        """The adapt-repair loop on packed masks (one env table per step)."""
        comp0 = comps[0]
        name_index = {name: i for i, name in enumerate(comp0.names)}
        mask = comp0.mask_of(state)

        times: list[float] = []
        quality: list[float] = []
        states: list[Dict[str, object]] = []
        fit: list[bool] = []
        applied: list[tuple[int, str]] = []

        for t in range(horizon):
            for event in self.dynamic.events_at(t):
                applied.append((t, event.label))
                if isinstance(event, StateDamage):
                    for name, value in event.assignment_update:
                        i = name_index[name]
                        if value:
                            mask |= 1 << i
                        else:
                            mask &= ~(1 << i)
            comp = comps[t]
            if comp.violations[mask] != 0 and self.flips_per_step > 0:
                for _ in range(self.flips_per_step):
                    if comp.violations[mask] == 0:
                        break
                    counts = comp.violations[mask ^ comp.flip_masks]
                    mask = self._pick_flip(comp, mask, counts, rng)
            times.append(float(t))
            quality.append(float(comp.quality_table()[mask]))
            states.append(comp.assignment_of(mask))
            fit.append(bool(comp.violations[mask] == 0))

        if len(times) == 1:  # QualityTrace needs two samples
            times.append(times[0] + 1.0)
            quality.append(quality[0])
        return DCSPRun(
            trace=QualityTrace.from_samples(times, quality),
            states=states,
            fit=fit,
            events_applied=applied,
        )

    @staticmethod
    def _pick_flip(comp, mask: int, counts, rng) -> int:
        """One greedy flip on a packed mask, draw-for-draw with the
        object :meth:`_repair_step` body (candidate list in variable
        declaration order, ties appended only after an improving move,
        random walk over name-sorted conflicted variables — including
        the object path's draw for the single-element boolean domain).
        """
        best_count = int(comp.violations[mask])
        candidates: list[int] = []
        for i in range(comp.n):
            count = int(counts[i])
            if count < best_count:
                best_count = count
                candidates = [i]
            elif count == best_count and candidates:
                candidates.append(i)
        if candidates:
            i = candidates[int(rng.integers(len(candidates)))]
            return mask ^ (1 << i)
        conflicted = comp.conflicted_variable_order(mask)
        if not conflicted:  # pragma: no cover - unfit implies conflicts
            return mask
        i = conflicted[int(rng.integers(len(conflicted)))]
        rng.integers(1)  # the object path indexes the 1-element domain
        return mask ^ (1 << i)
