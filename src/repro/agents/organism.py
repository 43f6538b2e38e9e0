"""Digital organisms (paper §4.4).

"Each agent in the system is a digital organism that can self-replicate,
mutate, or evolve."  An organism carries a bit-string genome (its
configuration against the environment's constraint), a resource store
(the redundancy factor: "an agent can remain alive until it uses up its
resources even if it does not satisfy a constraint"), and an adaptation
rate ("the number of bits an agent can flip at a time").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import count

import numpy as np

from ..csp.bitstring import BitString
from ..errors import ConfigurationError

__all__ = ["Organism"]

_ids = count()


@dataclass(frozen=True)
class Organism:
    """One digital organism.

    Organisms are immutable records; simulation steps produce updated
    copies, which keeps populations safe to snapshot and replay.
    """

    genome: BitString
    resources: float
    adaptability: int = 1
    age: int = 0
    organism_id: int = field(default_factory=lambda: next(_ids))
    parent_id: int | None = None

    def __post_init__(self) -> None:
        if self.resources < 0:
            raise ConfigurationError(
                f"resources must be >= 0, got {self.resources}"
            )
        if self.adaptability < 0:
            raise ConfigurationError(
                f"adaptability must be >= 0, got {self.adaptability}"
            )
        if self.age < 0:
            raise ConfigurationError(f"age must be >= 0, got {self.age}")

    @property
    def alive(self) -> bool:
        """Alive while any resource remains."""
        return self.resources > 0.0

    def with_resources(self, resources: float) -> "Organism":
        """Copy with an updated resource store (floored at zero)."""
        return replace(self, resources=max(0.0, resources))

    def aged(self) -> "Organism":
        """Copy one step older."""
        return replace(self, age=self.age + 1)

    def adapted(self, genome: BitString) -> "Organism":
        """Copy with a new genome (an adaptation move)."""
        if genome.n != self.genome.n:
            raise ConfigurationError(
                f"genome length changed: {self.genome.n} -> {genome.n}"
            )
        return replace(self, genome=genome)

    def adapt_toward(self, target: BitString,
                     rng: np.random.Generator) -> "Organism":
        """Flip up to ``adaptability`` mismatched bits toward ``target``.

        The organism senses which of its loci are maladapted (a local
        constraint-violation signal, not global knowledge) and fixes a
        random subset of them, at most ``adaptability`` per step — the
        paper's adaptation-speed dial.  Only a partial fix draws: one
        key per locus, fixing the mismatched loci whose key is at most
        the ``n_fix``-th smallest of theirs.
        """
        if target.n != self.genome.n:
            raise ConfigurationError(
                f"target length {target.n} != genome length {self.genome.n}"
            )
        mismatched = [
            i for i in range(self.genome.n) if self.genome[i] != target[i]
        ]
        n_fix = min(self.adaptability, len(mismatched))
        if n_fix == 0:
            return self
        if n_fix < len(mismatched):
            keys = rng.random(self.genome.n)
            kth = np.sort(keys[mismatched])[n_fix - 1]
            mismatched = [i for i in mismatched if keys[i] <= kth]
        return self.adapted(self.genome.flip(*mismatched))

    def split(
        self, mutated_genome: BitString, child_id: int
    ) -> tuple["Organism", "Organism"]:
        """Self-replicate: halve resources between parent and offspring.

        ``child_id`` comes from the caller's run, which numbers its
        offspring (see :meth:`EvolutionSimulator.run`).
        """
        half = self.resources / 2.0
        parent = replace(self, resources=half)
        child = Organism(
            genome=mutated_genome,
            resources=half,
            adaptability=self.adaptability,
            age=0,
            organism_id=child_id,
            parent_id=self.organism_id,
        )
        return parent, child
