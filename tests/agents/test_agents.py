"""Tests for the multi-agent testbed (repro.agents)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.environment import ConstraintEnvironment, ShockSchedule
from repro.agents.organism import Organism
from repro.agents.population import Population, seed_population
from repro.agents.simulation import EvolutionSimulator
from repro.core.strategies import Strategy, StrategyMix
from repro.csp.bitstring import BitString
from repro.errors import ConfigurationError
from repro.rng import make_rng


class TestOrganism:
    def test_alive_iff_resources_positive(self):
        org = Organism(genome=BitString.ones(4), resources=1.0)
        assert org.alive
        assert not org.with_resources(0.0).alive
        assert not org.with_resources(-5.0).alive  # floored at zero

    def test_adapt_toward_respects_budget(self):
        rng = make_rng(0)
        target = BitString.ones(8)
        org = Organism(genome=BitString.zeros(8), resources=1.0,
                       adaptability=3)
        adapted = org.adapt_toward(target, rng)
        assert adapted.genome.hamming(target) == 5  # fixed 3 of 8

    def test_adapt_when_already_fit_is_noop(self):
        rng = make_rng(1)
        target = BitString.ones(4)
        org = Organism(genome=target, resources=1.0, adaptability=2)
        assert org.adapt_toward(target, rng).genome == target

    def test_adapt_zero_adaptability_is_noop(self):
        rng = make_rng(2)
        org = Organism(genome=BitString.zeros(4), resources=1.0,
                       adaptability=0)
        assert org.adapt_toward(BitString.ones(4), rng).genome == \
            BitString.zeros(4)

    def test_split_halves_resources(self):
        org = Organism(genome=BitString.ones(4), resources=10.0)
        parent, child = org.split(BitString.zeros(4), 7)
        assert parent.resources == 5.0
        assert child.resources == 5.0
        assert child.organism_id == 7
        assert child.parent_id == org.organism_id
        assert child.age == 0

    def test_genome_length_change_rejected(self):
        org = Organism(genome=BitString.ones(4), resources=1.0)
        with pytest.raises(ConfigurationError):
            org.adapted(BitString.ones(5))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Organism(genome=BitString.ones(2), resources=-1.0)
        with pytest.raises(ConfigurationError):
            Organism(genome=BitString.ones(2), resources=1.0, adaptability=-1)


class TestConstraintEnvironment:
    def test_fitness_linear_in_distance(self):
        env = ConstraintEnvironment(target=BitString.ones(10))
        assert env.fitness(BitString.ones(10)) == 1.0
        assert env.fitness(BitString.zeros(10)) == 0.0
        g = BitString.ones(10).flip(0, 1)
        assert env.fitness(g) == pytest.approx(0.8)

    def test_satisfies_with_tolerance(self):
        env = ConstraintEnvironment(target=BitString.ones(6), tolerance=2)
        assert env.satisfies(BitString.ones(6).flip(0, 1))
        assert not env.satisfies(BitString.ones(6).flip(0, 1, 2))

    def test_shocked_moves_target_exactly_severity(self):
        env = ConstraintEnvironment.random(12, seed=0)
        shocked = env.shocked(4, seed=1)
        assert env.target.hamming(shocked.target) == 4
        assert shocked.tolerance == env.tolerance

    def test_zero_severity_is_identity(self):
        env = ConstraintEnvironment.random(6, seed=2)
        assert env.shocked(0) is env

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ConstraintEnvironment(target=BitString.ones(4), tolerance=-1)
        with pytest.raises(ConfigurationError):
            ConstraintEnvironment(target=BitString.ones(4), tolerance=5)
        env = ConstraintEnvironment.random(4, seed=3)
        with pytest.raises(ConfigurationError):
            env.shocked(9)


class TestShockSchedule:
    def test_periodic_firing(self):
        sched = ShockSchedule(period=10, severity=2)
        fires = [t for t in range(45) if sched.fires_at(t)]
        assert fires == [10, 20, 30, 40]

    def test_first_offset(self):
        sched = ShockSchedule(period=10, severity=2, first=5)
        fires = [t for t in range(30) if sched.fires_at(t)]
        assert fires == [5, 15, 25]

    def test_degenerate_never_fires(self):
        assert not any(
            ShockSchedule(period=0, severity=2).fires_at(t) for t in range(50)
        )
        assert not any(
            ShockSchedule(period=5, severity=0).fires_at(t) for t in range(50)
        )


class TestPopulation:
    def test_diversity_index_over_genotypes(self):
        genomes = [BitString.ones(4)] * 3 + [BitString.zeros(4)] * 3
        pop = Population([Organism(genome=g, resources=1.0) for g in genomes])
        # two genotype classes of size 3: G = 2 / (9 + 9) = 1/9
        assert pop.diversity_index() == pytest.approx(1.0 / 9.0)

    def test_empty_population_metrics(self):
        pop = Population([])
        assert pop.extinct
        assert pop.diversity_index() == 0.0
        assert pop.mean_resources() == 0.0

    def test_mixed_genome_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            Population([
                Organism(genome=BitString.ones(4), resources=1.0),
                Organism(genome=BitString.ones(5), resources=1.0),
            ])

    def test_satisfied_fraction(self):
        env = ConstraintEnvironment(target=BitString.ones(4))
        pop = Population([
            Organism(genome=BitString.ones(4), resources=1.0),
            Organism(genome=BitString.zeros(4), resources=1.0),
        ])
        assert pop.satisfied_fraction(env) == 0.5

    def test_mean_pairwise_hamming(self):
        pop = Population([
            Organism(genome=BitString.ones(4), resources=1.0),
            Organism(genome=BitString.zeros(4), resources=1.0),
        ])
        assert pop.mean_pairwise_hamming(seed=0) == pytest.approx(4.0)


class TestSeedPopulation:
    def test_redundancy_buys_resources(self):
        env = ConstraintEnvironment.random(16, seed=0)
        rich = seed_population(StrategyMix.pure(Strategy.REDUNDANCY), env,
                               n_agents=10, budget=100.0, seed=1)
        poor = seed_population(StrategyMix.pure(Strategy.ADAPTABILITY), env,
                               n_agents=10, budget=100.0, seed=1)
        assert rich.mean_resources() > poor.mean_resources()

    def test_diversity_buys_genome_spread(self):
        env = ConstraintEnvironment.random(16, seed=0)
        diverse = seed_population(StrategyMix.pure(Strategy.DIVERSITY), env,
                                  n_agents=20, seed=2)
        uniform = seed_population(StrategyMix.pure(Strategy.REDUNDANCY), env,
                                  n_agents=20, seed=2)
        assert diverse.diversity_index() > uniform.diversity_index()
        assert uniform.diversity_index() == pytest.approx(
            1.0 / 20.0**2 * 1, rel=1e-6
        ) or uniform.diversity_index() > 0

    def test_adaptability_buys_flip_speed(self):
        env = ConstraintEnvironment.random(16, seed=0)
        fast = seed_population(StrategyMix.pure(Strategy.ADAPTABILITY), env,
                               n_agents=10, max_adaptability=4, seed=3)
        slow = seed_population(StrategyMix.pure(Strategy.REDUNDANCY), env,
                               n_agents=10, max_adaptability=4, seed=3)
        assert fast.mean_adaptability() == 4.0
        assert slow.mean_adaptability() == 1.0

    def test_validation(self):
        env = ConstraintEnvironment.random(8, seed=0)
        with pytest.raises(ConfigurationError):
            seed_population(StrategyMix.uniform(), env, n_agents=0)
        with pytest.raises(ConfigurationError):
            seed_population(StrategyMix.uniform(), env, budget=-1.0)


class TestEvolutionSimulator:
    def test_quiet_environment_population_grows(self):
        env = ConstraintEnvironment.random(12, tolerance=2, seed=0)
        pop = seed_population(StrategyMix.uniform(), env, n_agents=20, seed=1)
        sim = EvolutionSimulator(capacity=100)
        result = sim.run(pop, env, steps=80, seed=2)
        assert result.survived
        assert result.alive[-1] > 20
        assert result.alive[-1] <= 100

    def test_input_population_not_mutated(self):
        env = ConstraintEnvironment.random(8, seed=0)
        pop = seed_population(StrategyMix.uniform(), env, n_agents=5, seed=1)
        before = list(pop.organisms)
        EvolutionSimulator().run(pop, env, steps=10, seed=2)
        assert pop.organisms == before

    def test_starvation_kills(self):
        """Unfit organisms with no income die when resources run out."""
        env = ConstraintEnvironment(target=BitString.ones(8))
        hopeless = Population([
            Organism(genome=BitString.zeros(8), resources=2.0,
                     adaptability=0)
        ])
        sim = EvolutionSimulator(income_rate=0.0, living_cost=1.0)
        result = sim.run(hopeless, env, steps=10, seed=0)
        assert not result.survived
        assert len(result.alive) < 10  # run stops at extinction

    def test_shocks_recorded_and_fitness_dips(self):
        env = ConstraintEnvironment.random(16, tolerance=2, seed=3)
        pop = seed_population(StrategyMix.uniform(), env, n_agents=30,
                              seed=4)
        sim = EvolutionSimulator()
        result = sim.run(
            pop, env, steps=60, shocks=ShockSchedule(period=25, severity=6),
            seed=5,
        )
        assert result.shock_times == (25, 50)
        # fitness right after the first shock is below the pre-shock level
        assert result.mean_fitness[25] < result.mean_fitness[24]

    def test_quality_trace_usable_by_bruneau(self):
        from repro.core.bruneau import assess

        env = ConstraintEnvironment.random(12, tolerance=2, seed=6)
        pop = seed_population(StrategyMix.uniform(), env, n_agents=25,
                              seed=7)
        result = EvolutionSimulator().run(
            pop, env, steps=50, shocks=ShockSchedule(period=20, severity=4),
            seed=8,
        )
        a = assess(result.quality_trace())
        assert a.loss >= 0.0

    def test_capacity_enforced(self):
        env = ConstraintEnvironment.random(8, tolerance=8, seed=9)
        pop = seed_population(StrategyMix.uniform(), env, n_agents=10,
                              seed=10)
        sim = EvolutionSimulator(capacity=30, income_rate=3.0)
        result = sim.run(pop, env, steps=60, seed=11)
        assert np.all(result.alive <= 30)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EvolutionSimulator(income_rate=-1.0)
        with pytest.raises(ConfigurationError):
            EvolutionSimulator(replication_threshold=0.0)
        with pytest.raises(ConfigurationError):
            EvolutionSimulator(capacity=0)
        env = ConstraintEnvironment.random(8, seed=0)
        pop = seed_population(StrategyMix.uniform(), env, n_agents=5, seed=1)
        with pytest.raises(ConfigurationError):
            EvolutionSimulator().run(pop, env, steps=0)
