"""Populations of digital organisms and their strategy-level metrics.

The paper quantifies the three passive strategies on a population
(§4.4): redundancy = resource held per agent, diversity = the §3.2.4
diversity index over genotype classes, adaptability = bits flipped per
step.  :class:`Population` carries the organisms plus exactly those
measurements, and :func:`seed_population` maps a
:class:`~repro.core.strategies.StrategyMix` budget onto initial
resources, genotype spread and adaptation rate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..core.strategies import StrategyMix
from ..csp.bitstring import BitString, pack_matrix, packed_hamming, to_matrix
from ..dynamics.diversity import maruyama_diversity_index
from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng
from .environment import ConstraintEnvironment
from .organism import Organism

__all__ = ["Population", "seed_population"]


@dataclass
class Population:
    """A mutable collection of organisms with strategy metrics."""

    organisms: list[Organism] = field(default_factory=list)

    def __post_init__(self) -> None:
        lengths = {o.genome.n for o in self.organisms}
        if len(lengths) > 1:
            raise ConfigurationError(
                f"organisms have mixed genome lengths: {sorted(lengths)}"
            )

    def __len__(self) -> int:
        return len(self.organisms)

    @property
    def extinct(self) -> bool:
        """No organisms remain."""
        return not self.organisms

    def genotype_counts(self) -> Counter:
        """Counts per distinct genome — the 'species' of the testbed."""
        return Counter(o.genome for o in self.organisms)

    def diversity_index(self) -> float:
        """The paper's G over genotype-class populations (0 when extinct)."""
        counts = self.genotype_counts()
        if not counts:
            return 0.0
        return maruyama_diversity_index(list(counts.values()))

    def mean_resources(self) -> float:
        """Average redundancy buffer held per organism."""
        if not self.organisms:
            return 0.0
        return float(np.mean([o.resources for o in self.organisms]))

    def mean_adaptability(self) -> float:
        """Average bits-per-step adaptation capacity."""
        if not self.organisms:
            return 0.0
        return float(np.mean([o.adaptability for o in self.organisms]))

    def mean_fitness(self, env: ConstraintEnvironment) -> float:
        """Average graded environment fitness (0 when extinct)."""
        if not self.organisms:
            return 0.0
        return float(np.mean([env.fitness(o.genome) for o in self.organisms]))

    def satisfied_fraction(self, env: ConstraintEnvironment) -> float:
        """Share of organisms satisfying the crisp constraint."""
        if not self.organisms:
            return 0.0
        return float(
            np.mean([env.satisfies(o.genome) for o in self.organisms])
        )

    def mean_pairwise_hamming(self, sample: int = 200,
                              seed: SeedLike = None) -> float:
        """Genetic spread: mean Hamming distance over sampled pairs.

        Pairs are sampled *with replacement across pairs* (each pair is
        two distinct organisms, but the same pair may be drawn twice),
        in one vectorized batch: genomes are packed into uint64 words
        and distances come from XOR + popcount rather than a Python loop
        per pair.
        """
        n = len(self.organisms)
        if n < 2:
            return 0.0
        rng = make_rng(seed)
        draws = min(sample, n * (n - 1) // 2)
        i = rng.integers(0, n, size=draws)
        j = rng.integers(0, n - 1, size=draws)
        j = np.where(j >= i, j + 1, j)  # j != i, uniform over the rest
        packed = pack_matrix(to_matrix([o.genome for o in self.organisms]))
        return float(packed_hamming(packed[i], packed[j]).mean())


def seed_population(
    mix: StrategyMix,
    env: ConstraintEnvironment,
    n_agents: int = 50,
    budget: float = 100.0,
    max_adaptability: int = 4,
    seed: SeedLike = None,
) -> Population:
    """Materialize a strategy mix as an initial population.

    The paper's budget question (§4.4) becomes concrete arithmetic:

    * **redundancy share** buys starting resources: each agent receives
      ``2 + redundancy × budget / n_agents`` units (2 is subsistence);
    * **diversity share** buys genotype spread: each agent's genome
      starts at the (fit) target with ``round(diversity × n/4)`` random
      loci scrambled — standing variation paid for in initial fitness;
    * **adaptability share** buys repair speed: bits-per-step is
      ``1 + round(adaptability × (max_adaptability − 1))``.

    The agents are numbered ``0 .. n_agents - 1``, so a seeded population
    is the same whatever ran before it in the process.
    """
    if n_agents < 1:
        raise ConfigurationError(f"n_agents must be >= 1, got {n_agents}")
    if budget < 0:
        raise ConfigurationError(f"budget must be >= 0, got {budget}")
    if max_adaptability < 1:
        raise ConfigurationError(
            f"max_adaptability must be >= 1, got {max_adaptability}"
        )
    rng = make_rng(seed)
    resources = 2.0 + mix.redundancy * budget / n_agents
    adaptability = 1 + round(mix.adaptability * (max_adaptability - 1))
    scramble = round(mix.diversity * env.n / 4)
    organisms = []
    for agent_id in range(n_agents):
        genome = env.target
        if scramble > 0:
            flips = rng.choice(env.n, size=scramble, replace=False)
            genome = genome.flip(*(int(i) for i in flips))
        organisms.append(
            Organism(genome=genome, resources=resources,
                     adaptability=adaptability, organism_id=agent_id)
        )
    return Population(organisms)
