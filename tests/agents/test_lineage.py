"""Tests for species clustering and lineage (repro.agents.lineage)."""

from __future__ import annotations

import pytest

from repro.agents.lineage import (
    cluster_species,
    founder_of,
    survival_flags_by_species,
)
from repro.agents.organism import Organism
from repro.agents.population import Population
from repro.analysis.granularity import granularity_scores
from repro.csp.bitstring import BitString
from repro.errors import ConfigurationError


def org(genome: str, resources: float = 1.0) -> Organism:
    return Organism(genome=BitString.from_string(genome), resources=resources)


class TestClusterSpecies:
    def test_radius_zero_is_exact_genotypes(self):
        pop = Population([org("0000"), org("0000"), org("1111"),
                          org("0001")])
        clustering = cluster_species(pop, radius=0)
        assert clustering.n_species == 3
        assert sorted(clustering.sizes()) == [1, 1, 2]

    def test_radius_groups_near_genomes(self):
        pop = Population([org("0000"), org("0001"), org("1111"),
                          org("1110")])
        clustering = cluster_species(pop, radius=1)
        assert clustering.n_species == 2
        assert clustering.sizes() == [2, 2]

    def test_huge_radius_single_species(self):
        pop = Population([org("0000"), org("1111"), org("1010")])
        clustering = cluster_species(pop, radius=4)
        assert clustering.n_species == 1

    def test_members(self):
        a, b = org("0000"), org("1111")
        clustering = cluster_species(Population([a, b]), radius=0)
        assert clustering.members(0) == (a.organism_id,)
        with pytest.raises(ConfigurationError):
            clustering.members(5)

    def test_negative_radius_rejected(self):
        with pytest.raises(ConfigurationError):
            cluster_species(Population([org("01")]), radius=-1)


class TestFounder:
    def test_walks_parent_chain(self):
        a = org("0000")
        pa, child = a.split(
            BitString.from_string("0001"), a.organism_id + 1
        )
        parents = {a.organism_id: None, child.organism_id: a.organism_id}
        assert founder_of(child, parents) == a.organism_id
        assert founder_of(a, parents) == a.organism_id

    def test_cycle_detected(self):
        a = org("00")
        parents = {a.organism_id: a.organism_id}
        with pytest.raises(ConfigurationError):
            founder_of(a, parents)


class TestSurvivalFlags:
    def test_flags_feed_granularity(self):
        survivors = [org("0000"), org("0001")]
        casualties = [org("1111"), org("1110")]
        before = Population(survivors + casualties)
        after = Population(list(survivors))
        flags = survival_flags_by_species(before, after, radius=1)
        assert len(flags) == 2
        scores = granularity_scores(flags)
        assert scores.individual == pytest.approx(0.5)
        assert scores.species == pytest.approx(0.5)
        assert scores.ecosystem == 1.0
        assert scores.is_monotone()

    def test_everything_survives(self):
        pop = Population([org("00"), org("11")])
        flags = survival_flags_by_species(pop, pop, radius=0)
        assert all(all(v) for v in flags.values())
