"""The hypothetical spacecraft system (paper §4.2 example).

"The system consists of a fixed set of n components, each of which has a
single binary variable n_i representing the availability of the
component ... the constraint C = 1^n at every time t requires that every
component of the spacecraft is good, and the spacecraft is occasionally
hit by space debris causing at most k component failures.  If the
spacecraft can fix one component at each time step, we consider that the
spacecraft is k-recoverable."

:class:`Spacecraft` packages this example end-to-end: the boolean CSP,
exact k-recoverability analysis, a K-maintainability transition system,
and mission simulation producing Bruneau-ready quality traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.quality import QualityTrace
from ..core.recoverability import (
    BoundedComponentDamage,
    RecoverabilityReport,
    is_k_recoverable,
    minimal_recovery_bound,
)
from ..csp.bitstring import BitString
from ..csp.constraints import Constraint, all_components_good, at_least_k_good
from ..csp.problem import CSP, boolean_csp
from ..errors import ConfigurationError
from ..planning.transition import TransitionSystem
from ..rng import SeedLike, make_rng
from .debris import DebrisHit, DebrisStream
from .repair import FirstFailedRepair, RepairStrategy

__all__ = ["MissionResult", "Spacecraft"]


@dataclass(frozen=True)
class MissionResult:
    """One simulated mission: quality trace plus recovery bookkeeping."""

    trace: QualityTrace
    hits: tuple[DebrisHit, ...]
    recovery_times: tuple[int, ...]  # steps to full recovery after each hit
    always_recovered: bool

    @property
    def worst_recovery(self) -> Optional[int]:
        """Slowest observed recovery (None when no hit landed)."""
        return max(self.recovery_times) if self.recovery_times else None


class Spacecraft:
    """An n-component spacecraft under debris damage and stepwise repair.

    Parameters
    ----------
    n_components:
        Number of binary availability variables.
    required_good:
        If ``None`` (default) the environment is the paper's C = 1^n;
        otherwise a degraded-mode constraint requiring at least this many
        good components.
    repairs_per_step:
        Repair capacity per time step (the paper's example fixes one).
    """

    def __init__(
        self,
        n_components: int,
        required_good: Optional[int] = None,
        repairs_per_step: int = 1,
    ):
        if n_components < 1:
            raise ConfigurationError(
                f"n_components must be >= 1, got {n_components}"
            )
        if repairs_per_step < 1:
            raise ConfigurationError(
                f"repairs_per_step must be >= 1, got {repairs_per_step}"
            )
        self.n = n_components
        self.repairs_per_step = repairs_per_step
        names = [f"x{i}" for i in range(n_components)]
        if required_good is None:
            constraint: Constraint = all_components_good(names)
        else:
            if not 0 <= required_good <= n_components:
                raise ConfigurationError(
                    f"required_good must be in [0, {n_components}], "
                    f"got {required_good}"
                )
            constraint = at_least_k_good(names, required_good)
        self.required_good = (
            n_components if required_good is None else required_good
        )
        self.csp: CSP = boolean_csp(n_components, [constraint])

    # -- analytic resilience ---------------------------------------------------

    def recoverability_report(
        self, max_debris_hits: int, k: int, engine=None
    ) -> RecoverabilityReport:
        """Exact k-recoverability under debris failing ≤ max_debris_hits.

        ``engine`` selects the CSP kernels (see
        :func:`repro.csp.engine.make_csp_engine`; default honours
        ``REPRO_CSP_ENGINE``).
        """
        return is_k_recoverable(
            self.csp,
            BoundedComponentDamage(max_debris_hits),
            k=k,
            flips_per_step=self.repairs_per_step,
            engine=engine,
        )

    def is_k_recoverable(
        self, max_debris_hits: int, k: int, engine=None
    ) -> bool:
        """The paper's predicate, exactly."""
        return self.recoverability_report(
            max_debris_hits, k, engine=engine
        ).is_k_recoverable

    def minimal_k(
        self, max_debris_hits: int, engine=None
    ) -> Optional[int]:
        """Smallest k making the craft k-recoverable (None = unrecoverable).

        For the paper's C = 1^n and one repair per step this equals
        ``max_debris_hits`` — each failed component costs one step.
        """
        return minimal_recovery_bound(
            self.csp,
            BoundedComponentDamage(max_debris_hits),
            flips_per_step=self.repairs_per_step,
            engine=engine,
        )

    # -- K-maintainability bridge ---------------------------------------------

    def to_transition_system(self, max_debris_hits: int) -> TransitionSystem:
        """Encode the spacecraft as a Baral–Eiter transition system.

        States are all 2^n configurations; agent actions ``repair_i`` fix
        one component (deterministic); the exogenous action ``debris``
        moves any fit state to each outcome with ≤ max_debris_hits new
        failures.  Exponential in n — use the model scale (n ≤ ~12).
        """
        if not 1 <= max_debris_hits <= self.n:
            raise ConfigurationError(
                f"max_debris_hits must be in [1, {self.n}], got {max_debris_hits}"
            )
        states = frozenset(
            BitString(self.n, mask) for mask in range(1 << self.n)
        )
        system = TransitionSystem(states=states)
        for state in states:
            for i in state.zeros_indices():
                system.add_agent_action(f"repair_{i}", state, [state.flip(i)])
        damage = BoundedComponentDamage(max_debris_hits)
        for state in self.fit_states():
            outcomes = [s for s in damage.outcomes(state) if s != state]
            if outcomes:
                system.add_exo_action("debris", state, outcomes)
        return system

    def maintainability(
        self, max_debris_hits: int, k: int, engine=None
    ):
        """K-maintainability of the spacecraft (paper §4.3, Baral–Eiter).

        Builds the debris/repair transition structure and runs the
        polynomial policy construction with the fit states as both
        starts and goals.  ``engine`` selects the CSP kernels: the
        object path materializes :meth:`to_transition_system` and calls
        :func:`repro.planning.kmaintain.construct_policy`; a compiled
        CSP runs :func:`repro.planning.kmaintain.construct_policy_tiled`
        on implicit index arrays, with no 2^n wall — the same
        :class:`~repro.planning.kmaintain.MaintainabilityResult`,
        field for field.  Result size is Θ(envelope), so very large
        ``n`` still wants small ``k`` and damage radii.
        """
        from ..csp.engine import make_csp_engine
        from ..planning.kmaintain import (
            construct_policy,
            construct_policy_tiled,
        )
        from ..runtime import trace

        if not 1 <= max_debris_hits <= self.n:
            raise ConfigurationError(
                f"max_debris_hits must be in [1, {self.n}], "
                f"got {max_debris_hits}"
            )
        engine = make_csp_engine(engine)
        tr = trace.current()
        compiled = engine.try_compile(self.csp)
        if compiled is not None:
            with tr.timer("csp.kmaintain.tiled"):
                result = construct_policy_tiled(
                    compiled, max_debris_hits, k
                )
            tr.count("csp.kmaintain.runs.tiled")
            return result
        with tr.timer("csp.kmaintain.object"):
            system = self.to_transition_system(max_debris_hits)
            goals = self.fit_states()
            result = construct_policy(system, goals, goals, k)
        tr.count("csp.kmaintain.runs.object")
        return result

    def fit_states(self) -> list[BitString]:
        """All configurations satisfying the constraint."""
        return sorted(self.csp.fit_bitstrings())

    # -- simulation --------------------------------------------------------------

    def fly(
        self,
        horizon: int,
        debris: DebrisStream,
        strategy: RepairStrategy | None = None,
        seed: SeedLike = None,
    ) -> MissionResult:
        """Simulate a mission: hits land, repair proceeds step by step.

        Quality at each step is the fraction of good components (×100),
        so Bruneau assessments of missions are directly comparable
        across spacecraft sizes.
        """
        if horizon < 2:
            raise ConfigurationError(f"horizon must be >= 2, got {horizon}")
        if debris.n_components != self.n:
            raise ConfigurationError(
                f"debris stream sized for {debris.n_components} components, "
                f"spacecraft has {self.n}"
            )
        rng = make_rng(seed)
        strategy = strategy or FirstFailedRepair()
        hits = debris.generate(horizon, rng)
        hits_by_time: dict[int, DebrisHit] = {h.time: h for h in hits}
        state = BitString.ones(self.n)
        times: list[float] = []
        quality: list[float] = []
        recovery_times: list[int] = []
        damaged_since: Optional[int] = None
        for t in range(horizon):
            hit = hits_by_time.get(t)
            if hit is not None:
                state = state.set_bits(hit.failed_components, 0)
                if damaged_since is None and state.popcount < self.n:
                    damaged_since = t
            if state.popcount < self.n:
                to_fix = strategy.choose(state, self.repairs_per_step, rng)
                if to_fix:
                    state = state.set_bits(to_fix, 1)
            if damaged_since is not None and state.popcount == self.n:
                recovery_times.append(t - damaged_since)
                damaged_since = None
            times.append(float(t))
            quality.append(100.0 * state.popcount / self.n)
        always_recovered = damaged_since is None
        return MissionResult(
            trace=QualityTrace.from_samples(times, quality),
            hits=tuple(hits),
            recovery_times=tuple(recovery_times),
            always_recovered=always_recovered,
        )
