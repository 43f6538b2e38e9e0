"""Tests for mutation models (repro.dynamics.mutation)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.csp.bitstring import BitString
from repro.dynamics.mutation import BitFlipMutator, TraitArchitecture
from repro.errors import ConfigurationError
from repro.rng import make_rng


class TestBitFlipMutator:
    def test_zero_rate_is_identity(self):
        m = BitFlipMutator(0.0)
        g = BitString.random(32, seed=1)
        assert m.mutate(g, seed=2) == g

    def test_zero_rate_draws_nothing(self):
        rng, untouched = make_rng(4), make_rng(4)
        BitFlipMutator(0.0).mutate(BitString.random(32, seed=1), rng)
        assert rng.random() == untouched.random()

    def test_rate_one_flips_everything(self):
        m = BitFlipMutator(1.0)
        g = BitString.zeros(16)
        assert m.mutate(g, seed=3) == BitString.ones(16)

    def test_expected_flips(self):
        assert BitFlipMutator(0.25).expected_flips(100) == pytest.approx(25.0)

    def test_empirical_rate_close_to_nominal(self):
        m = BitFlipMutator(0.1)
        rng = make_rng(5)
        g = BitString.zeros(200)
        total = sum(m.mutate(g, rng).popcount for _ in range(50))
        assert total / (50 * 200) == pytest.approx(0.1, abs=0.02)

    def test_mutate_population_length(self):
        m = BitFlipMutator(0.5)
        genomes = [BitString.random(8, seed=i) for i in range(5)]
        out = m.mutate_population(genomes, seed=7)
        assert len(out) == 5

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            BitFlipMutator(-0.1)
        with pytest.raises(ConfigurationError):
            BitFlipMutator(1.1)


class TestTraitArchitecture:
    def test_scores(self):
        arch = TraitArchitecture(n=6, active_loci=(0, 1), dormant_loci=(4, 5))
        g = BitString.from_string("110011")
        assert arch.trait_score(g) == 2
        assert arch.dormant_score(g) == 2

    def test_awaken_moves_dormant_to_active(self):
        """The stickleback mechanism: dormant armor genes reactivate."""
        arch = TraitArchitecture(n=4, active_loci=(0,), dormant_loci=(2, 3))
        awake = arch.awaken()
        assert set(awake.active_loci) == {0, 2, 3}
        assert awake.dormant_loci == ()
        g = BitString.from_string("1011")
        assert arch.trait_score(g) == 1
        assert awake.trait_score(g) == 3

    def test_overlapping_loci_rejected(self):
        with pytest.raises(ConfigurationError):
            TraitArchitecture(n=4, active_loci=(0, 1), dormant_loci=(1,))

    def test_out_of_range_locus_rejected(self):
        with pytest.raises(ConfigurationError):
            TraitArchitecture(n=3, active_loci=(5,))

    def test_wrong_genome_length_rejected(self):
        arch = TraitArchitecture(n=4, active_loci=(0,))
        with pytest.raises(ConfigurationError):
            arch.trait_score(BitString.zeros(5))


@settings(max_examples=30)
@given(seed=st.integers(0, 1000), rate=st.floats(0.0, 1.0))
def test_property_mutation_preserves_length(seed, rate):
    m = BitFlipMutator(rate)
    g = BitString.random(24, seed=seed)
    assert m.mutate(g, seed=seed + 1).n == 24


@settings(max_examples=30)
@given(seed=st.integers(0, 1000))
def test_property_awaken_total_score_preserved(seed):
    """Awakening never changes the total (active + dormant) score."""
    arch = TraitArchitecture(n=10, active_loci=(0, 1, 2), dormant_loci=(7, 8))
    g = BitString.random(10, seed=seed)
    before = arch.trait_score(g) + arch.dormant_score(g)
    after = arch.awaken().trait_score(g)
    assert before == after
