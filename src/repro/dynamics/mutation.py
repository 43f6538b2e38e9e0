"""Mutation models over bit-string genomes (paper §3.3.1, §3.1.1).

Evolutionary adaptability works through mutation: "When a life
reproduces, there are mutations on the genes.  These mutations could be
random, and the variations that fit the current environment most have
better chances to survive."  The stickleback case (§3.1.1) adds the
*dormant trait* mechanism: a genotype that is redundant in one
environment persists (neutral) and re-activates when predation pressure
returns.

:class:`BitFlipMutator` mutates genomes; :class:`TraitArchitecture`
maps genomes to trait scores with optional dormant (currently-neutral)
loci, which the stickleback experiment (E25) re-weights when the
environment changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..csp.bitstring import BitString
from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng

__all__ = ["BitFlipMutator", "TraitArchitecture"]


@dataclass(frozen=True)
class BitFlipMutator:
    """Independent per-locus bit-flip mutation with probability ``rate``."""

    rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError(f"mutation rate must be in [0, 1], got {self.rate}")

    def mutate(self, genome: BitString, seed: SeedLike = None) -> BitString:
        """Return a mutated copy of ``genome`` (no draw at rate 0)."""
        if self.rate == 0.0:
            return genome
        rng = make_rng(seed)
        flips = np.nonzero(rng.random(genome.n) < self.rate)[0]
        if len(flips) == 0:
            return genome
        return genome.flip(*(int(i) for i in flips))

    def mutate_population(
        self, genomes: Sequence[BitString], seed: SeedLike = None
    ) -> list[BitString]:
        """Mutate every genome with one shared random stream."""
        rng = make_rng(seed)
        return [self.mutate(g, rng) for g in genomes]

    def expected_flips(self, n: int) -> float:
        """Mean number of flipped loci per length-``n`` genome."""
        return self.rate * n


@dataclass(frozen=True)
class TraitArchitecture:
    """Maps genomes to a trait score with active and dormant loci.

    ``active_loci`` contribute to the trait in the current environment;
    ``dormant_loci`` are carried neutrally (the stickleback armor-plate
    genotype "was dormant (and thus, redundant) during the peaceful years
    but became active when the necessity arose").  Calling
    :meth:`awaken` moves dormant loci into the active set, modeling the
    return of predation pressure.
    """

    n: int
    active_loci: tuple[int, ...]
    dormant_loci: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "active_loci", tuple(self.active_loci))
        object.__setattr__(self, "dormant_loci", tuple(self.dormant_loci))
        all_loci = self.active_loci + self.dormant_loci
        if len(set(all_loci)) != len(all_loci):
            raise ConfigurationError("active and dormant loci must be disjoint")
        for locus in all_loci:
            if not 0 <= locus < self.n:
                raise ConfigurationError(
                    f"locus {locus} out of range for genome length {self.n}"
                )

    def trait_score(self, genome: BitString) -> int:
        """Number of set active loci — the expressed advantage x."""
        self._check(genome)
        return sum(genome[i] for i in self.active_loci)

    def dormant_score(self, genome: BitString) -> int:
        """Number of set dormant loci — standing variation held in reserve."""
        self._check(genome)
        return sum(genome[i] for i in self.dormant_loci)

    def awaken(self) -> "TraitArchitecture":
        """Environment change: dormant loci become selectively active."""
        return TraitArchitecture(
            n=self.n,
            active_loci=self.active_loci + self.dormant_loci,
            dormant_loci=(),
        )

    def _check(self, genome: BitString) -> None:
        if genome.n != self.n:
            raise ConfigurationError(
                f"genome has {genome.n} loci, architecture expects {self.n}"
            )
