"""Gene-knockout redundancy (paper §3.1.1).

"E. Coli has approximately 4,300 genes ... almost 4,000 of them are
known to be redundant – that is, knocking out one of them will not
hamper its ability to reproduce."  The mechanism: functions are backed
by overlapping gene sets, so losing one gene rarely leaves a function
uncovered.  :class:`GenomeModel` builds a random function←genes covering
design and :func:`knockout_scan` measures exactly the single-knockout
viability statistic the paper quotes (≈ 93 % redundant for the E. coli
parameters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng

__all__ = ["GenomeModel", "KnockoutScan", "knockout_scan", "ecoli_like_genome"]


@dataclass(frozen=True)
class GenomeModel:
    """A genome as a function-coverage design.

    ``coverage[f]`` is the tuple of gene indices able to perform
    essential function f.  The organism is viable iff every function has
    at least one surviving gene.
    """

    n_genes: int
    coverage: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n_genes < 1:
            raise ConfigurationError(f"n_genes must be >= 1, got {self.n_genes}")
        object.__setattr__(
            self, "coverage", tuple(tuple(sorted(set(c))) for c in self.coverage)
        )
        for f, genes in enumerate(self.coverage):
            if not genes:
                raise ConfigurationError(f"function {f} has no covering gene")
            for g in genes:
                if not 0 <= g < self.n_genes:
                    raise ConfigurationError(
                        f"function {f} references unknown gene {g}"
                    )

    @property
    def n_functions(self) -> int:
        """Number of essential functions."""
        return len(self.coverage)

    def viable(self, knocked_out: frozenset[int] | set[int]) -> bool:
        """Whether the organism reproduces with ``knocked_out`` genes gone."""
        for genes in self.coverage:
            if all(g in knocked_out for g in genes):
                return False
        return True

    def essential_genes(self) -> frozenset[int]:
        """Genes whose single knockout is lethal (sole cover of a function)."""
        essential: set[int] = set()
        for genes in self.coverage:
            if len(genes) == 1:
                essential.add(genes[0])
        return frozenset(essential)


@dataclass(frozen=True)
class KnockoutScan:
    """Results of the single-gene knockout screen."""

    n_genes: int
    n_viable: int

    @property
    def redundant_fraction(self) -> float:
        """Share of genes whose loss does not hamper reproduction."""
        return self.n_viable / self.n_genes


def knockout_scan(genome: GenomeModel) -> KnockoutScan:
    """Knock out each gene singly; count viable mutants (the Keio screen).

    A single knockout is lethal iff the gene is some function's sole
    cover, so the screen is one pass over the functions, not one
    :meth:`GenomeModel.viable` scan per gene.
    """
    return KnockoutScan(
        n_genes=genome.n_genes,
        n_viable=genome.n_genes - len(genome.essential_genes()),
    )


def ecoli_like_genome(
    n_genes: int = 4300,
    n_functions: int = 900,
    mean_redundancy: float = 3.0,
    seed: SeedLike = None,
) -> GenomeModel:
    """A random genome with the E. coli-like coverage statistics.

    Each essential function is covered by ``1 + Poisson(mean_redundancy−1)``
    distinct genes; remaining genes are non-essential (cover nothing).
    With the defaults roughly 90–95 % of genes are singly-knockable, the
    paper's ~4,000 / 4,300 figure.
    """
    if n_functions < 1:
        raise ConfigurationError(f"n_functions must be >= 1, got {n_functions}")
    if n_genes < n_functions:
        raise ConfigurationError(
            f"need at least one gene per function: {n_genes} < {n_functions}"
        )
    if mean_redundancy < 1:
        raise ConfigurationError(
            f"mean_redundancy must be >= 1, got {mean_redundancy}"
        )
    rng = make_rng(seed)
    coverage = []
    for _ in range(n_functions):
        copies = 1 + int(rng.poisson(mean_redundancy - 1.0))
        copies = min(copies, n_genes)
        genes = rng.choice(n_genes, size=copies, replace=False)
        coverage.append(tuple(int(g) for g in genes))
    return GenomeModel(n_genes=n_genes, coverage=tuple(coverage))
