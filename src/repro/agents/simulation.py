"""The evolutionary multi-agent simulation loop (paper §4.4).

"Our focus is to identify key parameters that makes an agent population,
which represents a decentralized complex system, resilient to a changing
environment, by conducting various multi-agent simulations while
changing the above system parameters."

Per step: the environment may shock (target constraint moves); every
organism adapts (≤ adaptability bit flips toward satisfaction), earns
income proportional to its fitness, pays a living cost from its resource
store; exhausted organisms die; well-resourced organisms self-replicate
with mutation, up to a carrying capacity.  The recorded population
health series doubles as a Q(t) quality trace so Bruneau assessments and
survival statistics come from the same run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.quality import QualityTrace
from ..dynamics.mutation import BitFlipMutator
from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng
from ..runtime import trace
from .environment import ConstraintEnvironment, ShockSchedule
from .organism import Organism
from .population import Population

__all__ = ["SimulationResult", "EvolutionSimulator"]


@dataclass(frozen=True)
class SimulationResult:
    """Time series and endpoint of one multi-agent run."""

    alive: np.ndarray  # population size per step
    mean_fitness: np.ndarray
    satisfied_fraction: np.ndarray
    diversity: np.ndarray  # paper's G over genotype classes
    shock_times: tuple[int, ...]
    final_population: Population
    survived: bool
    parents: dict[int, int | None] | None = None  # organism_id -> parent_id
    """Lineage map over every organism ever created (founders -> None);
    feed to :func:`repro.agents.lineage.founder_of`.  ``None`` unless the
    run was started with ``record_lineage=True`` — long sweeps should
    leave it off so results stop accumulating an unbounded id map."""

    @property
    def steps(self) -> int:
        """Number of simulated steps."""
        return len(self.alive)

    def quality_trace(self) -> QualityTrace:
        """Population health as a 0..100 quality signal.

        Quality = satisfied fraction × 100 (an extinct population scores
        zero), directly consumable by :mod:`repro.core.bruneau`.
        """
        q = np.clip(self.satisfied_fraction * 100.0, 0.0, 100.0)
        times = np.arange(len(q), dtype=float)
        if len(q) < 2:
            times = np.asarray([0.0, 1.0])
            q = np.asarray([q[0] if len(q) else 100.0] * 2)
        return QualityTrace(times, q)


class EvolutionSimulator:
    """Runs digital-organism populations through shock regimes.

    Parameters
    ----------
    income_rate:
        Resources earned per step by a perfectly fit organism (scaled
        linearly by fitness).
    living_cost:
        Resources burned per step just to stay alive.
    replication_threshold:
        Resource level at which an organism splits.
    mutation_rate:
        Per-locus flip probability at replication.
    capacity:
        Carrying capacity; replication pauses at or above it.
    """

    engine_name = "object"
    """Tag used by the tracing facade and :func:`make_engine`."""

    def __init__(
        self,
        income_rate: float = 1.5,
        living_cost: float = 1.0,
        replication_threshold: float = 6.0,
        mutation_rate: float = 0.02,
        capacity: int = 200,
    ):
        if income_rate < 0:
            raise ConfigurationError(f"income_rate must be >= 0, got {income_rate}")
        if living_cost < 0:
            raise ConfigurationError(f"living_cost must be >= 0, got {living_cost}")
        if replication_threshold <= 0:
            raise ConfigurationError(
                f"replication_threshold must be > 0, got {replication_threshold}"
            )
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.income_rate = income_rate
        self.living_cost = living_cost
        self.replication_threshold = replication_threshold
        self.mutator = BitFlipMutator(mutation_rate)
        self.capacity = capacity

    def run(
        self,
        population: Population,
        env: ConstraintEnvironment,
        steps: int,
        shocks: ShockSchedule | None = None,
        seed: SeedLike = None,
        record_lineage: bool = False,
    ) -> SimulationResult:
        """Simulate ``steps`` steps; the input population is not mutated.

        ``record_lineage=True`` additionally returns the id → parent-id
        map over every organism ever created (founders map to ``None``);
        it is off by default because the map grows without bound over
        long sweeps.

        The active :class:`repro.runtime.trace.Tracer` (if any) records
        a ``sim.run.<engine>`` timer, ``sim.runs.<engine>`` /
        ``sim.steps.<engine>`` counters.
        """
        tr = trace.current()
        tr.count(f"sim.runs.{self.engine_name}")
        with tr.timer(f"sim.run.{self.engine_name}"):
            return self._run_impl(
                population,
                env,
                steps,
                shocks=shocks,
                seed=seed,
                record_lineage=record_lineage,
            )

    def _run_impl(
        self,
        population: Population,
        env: ConstraintEnvironment,
        steps: int,
        shocks: ShockSchedule | None = None,
        seed: SeedLike = None,
        record_lineage: bool = False,
    ) -> SimulationResult:
        if steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {steps}")
        tr = trace.current()
        steps_counter = f"sim.steps.{self.engine_name}"
        rng = make_rng(seed)
        organisms = list(population.organisms)
        shocks = shocks or ShockSchedule(period=0, severity=0)
        parents: dict[int, int | None] | None = (
            {o.organism_id: None for o in organisms}
            if record_lineage
            else None
        )
        alive_series: list[int] = []
        fitness_series: list[float] = []
        satisfied_series: list[float] = []
        diversity_series: list[float] = []
        shock_times: list[int] = []

        for t in range(steps):
            if shocks.fires_at(t):
                env = env.shocked(shocks.severity, rng)
                shock_times.append(t)
            next_generation: list[Organism] = []
            for org in organisms:
                org = org.adapt_toward(env.target, rng)
                income = self.income_rate * env.fitness(org.genome)
                org = org.with_resources(
                    org.resources + income - self.living_cost
                ).aged()
                if org.alive:
                    next_generation.append(org)
            organisms = next_generation
            # replication pass (bounded by capacity)
            offspring: list[Organism] = []
            for i, org in enumerate(organisms):
                if (
                    org.resources >= self.replication_threshold
                    and len(organisms) + len(offspring) < self.capacity
                ):
                    child_genome = self.mutator.mutate(org.genome, rng)
                    parent, child = org.split(child_genome)
                    organisms[i] = parent
                    offspring.append(child)
                    if parents is not None:
                        parents[child.organism_id] = org.organism_id
            organisms.extend(offspring)

            snapshot = Population(organisms)
            alive_series.append(len(snapshot))
            fitness_series.append(snapshot.mean_fitness(env))
            satisfied_series.append(snapshot.satisfied_fraction(env))
            diversity_series.append(snapshot.diversity_index())
            tr.count(steps_counter)
            if not organisms:
                break

        return SimulationResult(
            alive=np.asarray(alive_series),
            mean_fitness=np.asarray(fitness_series),
            satisfied_fraction=np.asarray(satisfied_series),
            diversity=np.asarray(diversity_series),
            shock_times=tuple(shock_times),
            final_population=Population(organisms),
            survived=bool(organisms),
            parents=parents,
        )
