"""Tests for redundancy mechanisms (repro.redundancy)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.redundancy.interop import InteropNetwork, availability_under_outages
from repro.redundancy.knockout import (
    GenomeModel,
    ecoli_like_genome,
    knockout_scan,
)
from repro.redundancy.nversion import (
    RedundantComputer,
    simulate_failures,
    system_failure_probability,
)
from repro.redundancy.raid import RaidArray, RaidLevel
from repro.redundancy.reserve import ReserveBuffer, survival_through_interruption

import numpy as np


class TestReserveBuffer:
    def test_absorb_and_refill(self):
        buf = ReserveBuffer(initial=10.0, capacity=15.0)
        assert buf.absorb(4.0) == 0.0
        assert buf.level == 6.0
        assert buf.refill(20.0) == 11.0  # only 9 fit
        assert buf.level == 15.0

    def test_absorb_returns_uncovered(self):
        buf = ReserveBuffer(initial=3.0)
        assert buf.absorb(10.0) == 7.0
        assert buf.is_empty

    def test_uncapped_refill(self):
        buf = ReserveBuffer(initial=0.0)
        assert buf.refill(100.0) == 0.0
        assert buf.level == 100.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ReserveBuffer(initial=-1.0)
        with pytest.raises(ConfigurationError):
            ReserveBuffer(initial=10.0, capacity=5.0)
        buf = ReserveBuffer(initial=1.0)
        with pytest.raises(ConfigurationError):
            buf.absorb(-1.0)
        with pytest.raises(ConfigurationError):
            buf.refill(-1.0)

    def test_survival_closed_form(self):
        assert survival_through_interruption(100.0, 10.0, 10)
        assert not survival_through_interruption(99.0, 10.0, 10)


class TestKnockout:
    def test_viability_logic(self):
        genome = GenomeModel(n_genes=4, coverage=((0, 1), (2,)))
        assert genome.viable({0})  # gene 1 covers function 0
        assert not genome.viable({2})  # sole cover of function 1
        assert not genome.viable({0, 1})
        assert genome.essential_genes() == frozenset({2})

    def test_scan_counts(self):
        genome = GenomeModel(n_genes=4, coverage=((0, 1), (2,)))
        scan = knockout_scan(genome)
        # genes 0,1,3 survive single knockout; gene 2 lethal
        assert scan.n_viable == 3
        assert scan.redundant_fraction == pytest.approx(0.75)

    def test_ecoli_like_fraction_matches_paper(self):
        """§3.1.1: ~4,000 of ~4,300 genes are redundant (≈93 %)."""
        genome = ecoli_like_genome(seed=0)
        scan = knockout_scan(genome)
        assert 0.85 <= scan.redundant_fraction <= 0.99
        assert scan.n_genes == 4300

    def test_no_redundancy_means_all_covering_genes_essential(self):
        genome = ecoli_like_genome(
            n_genes=100, n_functions=50, mean_redundancy=1.0, seed=1
        )
        scan = knockout_scan(genome)
        # every function has exactly one covering gene, but one gene may
        # cover several functions: essential = distinct covering genes
        essential = genome.essential_genes()
        assert scan.n_viable == 100 - len(essential)
        assert len(essential) <= 50

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data(), n_genes=st.integers(1, 12))
    def test_scan_matches_per_gene_knockouts(self, data, n_genes):
        coverage = data.draw(st.lists(
            st.lists(st.integers(0, n_genes - 1), min_size=1, max_size=4),
            max_size=8,
        ))
        genome = GenomeModel(n_genes=n_genes, coverage=coverage)
        # the screen as the Keio collection runs it: every single knockout
        viable = sum(
            genome.viable(frozenset([g])) for g in range(n_genes)
        )
        assert knockout_scan(genome).n_viable == viable

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GenomeModel(n_genes=2, coverage=((5,),))
        with pytest.raises(ConfigurationError):
            GenomeModel(n_genes=2, coverage=((),))
        with pytest.raises(ConfigurationError):
            ecoli_like_genome(n_genes=10, n_functions=20)
        with pytest.raises(ConfigurationError):
            ecoli_like_genome(mean_redundancy=0.5)


class TestRaid:
    def test_tolerances(self):
        assert RaidLevel.RAID0.tolerated_failures(4) == 0
        assert RaidLevel.RAID1.tolerated_failures(4) == 3
        assert RaidLevel.RAID5.tolerated_failures(4) == 1
        assert RaidLevel.RAID6.tolerated_failures(4) == 2

    def test_capacity_cost(self):
        assert RaidLevel.RAID0.data_disks(4) == 4
        assert RaidLevel.RAID1.data_disks(4) == 1
        assert RaidLevel.RAID5.data_disks(4) == 3
        assert RaidLevel.RAID6.data_disks(4) == 2

    def test_single_period_loss_exact(self):
        arr = RaidArray(4, RaidLevel.RAID0, disk_failure_p=0.1)
        # loss iff any disk fails: 1 - 0.9^4
        assert arr.single_period_loss_probability() == pytest.approx(
            1 - 0.9**4
        )

    def test_redundancy_ordering(self):
        """§3.1.2: redundancy keeps the system functioning through
        disk failures."""
        p = 0.02
        horizon, trials = 60, 300
        survival = {}
        for level in (RaidLevel.RAID0, RaidLevel.RAID5, RaidLevel.RAID6):
            arr = RaidArray(6, level, p, rebuild_periods=1)
            survival[level] = arr.estimate_survival(
                horizon, trials, seed=7
            ).survival_probability
        assert survival[RaidLevel.RAID0] < survival[RaidLevel.RAID5]
        assert survival[RaidLevel.RAID5] <= survival[RaidLevel.RAID6]

    def test_rebuild_improves_survival(self):
        p = 0.03
        no_rebuild = RaidArray(5, RaidLevel.RAID5, p, rebuild_periods=0)
        rebuild = RaidArray(5, RaidLevel.RAID5, p, rebuild_periods=1)
        s0 = no_rebuild.estimate_survival(50, 300, seed=8).survival_probability
        s1 = rebuild.estimate_survival(50, 300, seed=8).survival_probability
        assert s1 > s0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RaidArray(2, RaidLevel.RAID5, 0.1)
        with pytest.raises(ConfigurationError):
            RaidArray(4, RaidLevel.RAID5, 1.5)
        arr = RaidArray(4, RaidLevel.RAID5, 0.1)
        with pytest.raises(ConfigurationError):
            arr.simulate_lifetime(0)
        with pytest.raises(ConfigurationError):
            arr.survives_concurrent(-1)


class TestInterop:
    def test_siloed_vs_full_availability(self):
        """§3.1.3: interoperability is a form of redundancy."""
        siloed = availability_under_outages(
            InteropNetwork.siloed(5), outage_p=0.3, trials=500, seed=0
        )
        full = availability_under_outages(
            InteropNetwork.fully_interoperable(5), outage_p=0.3,
            trials=500, seed=0,
        )
        assert full > siloed
        # siloed availability ≈ 1 - outage_p
        assert siloed == pytest.approx(0.7, abs=0.05)

    def test_missions_served_logic(self):
        net = InteropNetwork(
            2, ((True, True), (False, True))
        )  # agency 0 can cover both; agency 1 only itself
        assert net.missions_served(np.asarray([True, False])) == 2
        assert net.missions_served(np.asarray([False, True])) == 1
        assert net.missions_served(np.asarray([False, False])) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            InteropNetwork(2, ((True,),))
        with pytest.raises(ConfigurationError):
            InteropNetwork(2, ((False, True), (True, True)))  # no self-serve
        net = InteropNetwork.siloed(3)
        with pytest.raises(ConfigurationError):
            net.missions_served(np.asarray([True]))
        with pytest.raises(ConfigurationError):
            availability_under_outages(net, outage_p=1.5)


class TestNVersion:
    def test_design_diversity_reduces_common_mode_failure(self):
        """§3.2.2: identical designs share one flaw; diverse designs
        don't fail together."""
        p_ind, p_design = 1e-4, 1e-2
        identical = RedundantComputer.identical_triplex(p_ind, p_design)
        diverse = RedundantComputer.diverse_triplex(p_ind, p_design)
        p_identical = system_failure_probability(identical)
        p_diverse = system_failure_probability(diverse)
        # identical triplex fails at roughly the design-flaw rate
        assert p_identical == pytest.approx(p_design, rel=0.1)
        # diverse triplex is orders of magnitude safer
        assert p_diverse < p_identical / 20

    def test_simulation_matches_exact(self):
        computer = RedundantComputer.diverse_triplex(0.05, 0.05)
        exact = system_failure_probability(computer)
        estimate = simulate_failures(computer, trials=40_000, seed=1)
        assert estimate == pytest.approx(exact, abs=0.01)

    def test_quorum_of_one_is_most_forgiving(self):
        strict = RedundantComputer((0, 1, 2), 0.2, 0.0, quorum=3)
        loose = RedundantComputer((0, 1, 2), 0.2, 0.0, quorum=1)
        assert system_failure_probability(loose) < system_failure_probability(
            strict
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RedundantComputer((), 0.1, 0.1)
        with pytest.raises(ConfigurationError):
            RedundantComputer((0, 1), 1.5, 0.1)
        with pytest.raises(ConfigurationError):
            RedundantComputer((0, 1), 0.1, 0.1, quorum=3)


@settings(max_examples=25, deadline=None)
@given(
    p_design=st.floats(0.0, 0.3),
    p_ind=st.floats(0.0, 0.05),
)
def test_property_diversity_never_hurts_when_flaws_dominate(p_design, p_ind):
    """Diversity helps whenever design flaws dominate independent faults.

    (With high independent failure rates and a 2-of-3 quorum, *correlated*
    failures can actually lose quorum less often — so the property is
    stated, as in the paper's Boeing argument, for the regime where the
    shared design flaw is the dominant hazard.)"""
    identical = RedundantComputer.identical_triplex(p_ind, p_design)
    diverse = RedundantComputer.diverse_triplex(p_ind, p_design)
    assert (
        system_failure_probability(diverse)
        <= system_failure_probability(identical) + 1e-9
    )
