"""Equivalence suite: object engine vs array engine (repro.agents).

The two engines draw one stream in one order, so a seeded run gives the
same result on either, and on the deterministic path the run seed does
not matter at all.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.agents.arrayengine import ArraySimulator, make_engine
from repro.agents.environment import ConstraintEnvironment, ShockSchedule
from repro.agents.lineage import founder_of
from repro.agents.organism import Organism
from repro.agents.population import Population, seed_population
from repro.agents.simulation import EvolutionSimulator
from repro.core.strategies import Strategy, StrategyMix
from repro.csp.bitstring import BitString
from repro.errors import ConfigurationError

N_SEEDS = 24

ENGINE_PARAMS = dict(
    income_rate=1.0, living_cost=1.0, replication_threshold=15.0,
    mutation_rate=0.01, capacity=120,
)


def paired_run(cls, seed, steps=80, shocks=ShockSchedule(period=12, severity=3)):
    env = ConstraintEnvironment.random(24, tolerance=3, seed=500 + seed)
    population = seed_population(
        StrategyMix.uniform(), env, n_agents=40, budget=400.0,
        seed=900 + seed,
    )
    return cls(**ENGINE_PARAMS).run(
        population, env, steps=steps, shocks=shocks, seed=seed
    )


class TestDeterministicPathExact:
    """No shocks + zero mutation + trivial adaptation = exact agreement."""

    def deterministic_pair(self, adaptability, seed=1):
        env = ConstraintEnvironment.random(16, tolerance=2, seed=0)
        population = seed_population(
            StrategyMix.pure(Strategy.DIVERSITY), env, n_agents=20,
            budget=60.0, seed=seed,
        )
        population.organisms = [
            replace(o, adaptability=adaptability)
            for o in population.organisms
        ]
        kw = dict(income_rate=1.5, living_cost=1.0,
                  replication_threshold=6.0, mutation_rate=0.0, capacity=60)
        # different run seeds on purpose: the path must not depend on them
        a = EvolutionSimulator(**kw).run(population, env, steps=40, seed=7)
        b = ArraySimulator(**kw).run(population, env, steps=40, seed=12345)
        return a, b

    @pytest.mark.parametrize("adaptability", [0, 16])
    def test_series_agree_exactly(self, adaptability):
        a, b = self.deterministic_pair(adaptability)
        assert np.array_equal(a.alive, b.alive)
        assert np.array_equal(a.mean_fitness, b.mean_fitness)
        assert np.array_equal(a.satisfied_fraction, b.satisfied_fraction)
        assert np.array_equal(a.diversity, b.diversity)
        assert a.survived == b.survived
        assert a.shock_times == b.shock_times == ()

    def test_final_population_state_agrees(self):
        a, b = self.deterministic_pair(16)
        assert len(a.final_population) == len(b.final_population)
        for oa, ob in zip(a.final_population.organisms,
                          b.final_population.organisms):
            assert oa.genome == ob.genome
            assert oa.resources == ob.resources
            assert oa.age == ob.age
            assert oa.adaptability == ob.adaptability


class TestStatisticalEquivalence:
    """Shocked, mutating runs agree seed for seed, byte for byte."""

    @pytest.fixture(scope="class")
    def ensembles(self):
        return {
            cls.__name__: [paired_run(cls, seed) for seed in range(N_SEEDS)]
            for cls in (EvolutionSimulator, ArraySimulator)
        }

    def series(self, ensembles, field):
        return (
            [getattr(r, field) for r in ensembles[name]]
            for name in ("EvolutionSimulator", "ArraySimulator")
        )

    def test_survived_distribution(self, ensembles):
        a, b = self.series(ensembles, "survived")
        assert a == b

    def test_alive_series(self, ensembles):
        for a, b in zip(*self.series(ensembles, "alive")):
            assert a.tobytes() == b.tobytes()

    def test_satisfied_fraction(self, ensembles):
        for field in ("satisfied_fraction", "mean_fitness", "diversity"):
            for a, b in zip(*self.series(ensembles, field)):
                assert a.tobytes() == b.tobytes()


class TestArrayEngineContract:
    """Array-engine behaviors that must mirror the object engine."""

    def test_input_population_not_mutated(self):
        env = ConstraintEnvironment.random(8, seed=0)
        pop = seed_population(StrategyMix.uniform(), env, n_agents=5, seed=1)
        before = list(pop.organisms)
        ArraySimulator().run(pop, env, steps=10, seed=2)
        assert pop.organisms == before

    def test_capacity_enforced(self):
        env = ConstraintEnvironment.random(8, tolerance=8, seed=9)
        pop = seed_population(StrategyMix.uniform(), env, n_agents=10,
                              seed=10)
        result = ArraySimulator(capacity=30, income_rate=3.0).run(
            pop, env, steps=60, seed=11
        )
        assert np.all(result.alive <= 30)

    def test_extinction_stops_run(self):
        env = ConstraintEnvironment(target=BitString.ones(8))
        hopeless = Population([
            Organism(genome=BitString.zeros(8), resources=2.0,
                     adaptability=0)
        ])
        result = ArraySimulator(income_rate=0.0, living_cost=1.0).run(
            hopeless, env, steps=10, seed=0
        )
        assert not result.survived
        assert len(result.alive) < 10

    def test_shock_times_and_severity(self):
        env = ConstraintEnvironment.random(16, tolerance=2, seed=3)
        pop = seed_population(StrategyMix.uniform(), env, n_agents=30,
                              seed=4)
        result = ArraySimulator().run(
            pop, env, steps=60, shocks=ShockSchedule(period=25, severity=6),
            seed=5,
        )
        assert result.shock_times == (25, 50)
        assert result.mean_fitness[25] < result.mean_fitness[24]

    def test_lineage_recording(self):
        env = ConstraintEnvironment.random(12, tolerance=2, seed=0)
        pop = seed_population(StrategyMix.uniform(), env, n_agents=10,
                              budget=50.0, seed=1)
        sim = ArraySimulator(income_rate=2.0, living_cost=1.0,
                             replication_threshold=4.0, capacity=80)
        silent = sim.run(pop, env, steps=60, seed=2)
        assert silent.parents is None
        result = sim.run(pop, env, steps=60, seed=2, record_lineage=True)
        founder_ids = {o.organism_id for o in pop.organisms}
        assert len(result.final_population) > len(pop)
        for organism in result.final_population.organisms:
            assert founder_of(organism, result.parents) in founder_ids

    def test_final_population_preserves_ids(self):
        env = ConstraintEnvironment.random(12, tolerance=4, seed=6)
        pop = seed_population(StrategyMix.uniform(), env, n_agents=15,
                              seed=7)
        result = ArraySimulator(replication_threshold=1e9).run(
            pop, env, steps=20, seed=8
        )
        initial_ids = {o.organism_id for o in pop.organisms}
        # no replication: every survivor is one of the founders
        assert {o.organism_id
                for o in result.final_population.organisms} <= initial_ids

    def test_genome_length_mismatch_rejected(self):
        env = ConstraintEnvironment.random(8, seed=0)
        pop = Population([Organism(genome=BitString.ones(6), resources=1.0)])
        with pytest.raises(ConfigurationError):
            ArraySimulator().run(pop, env, steps=5, seed=0)

    def test_quality_trace_usable_by_bruneau(self):
        from repro.core.bruneau import assess

        env = ConstraintEnvironment.random(12, tolerance=2, seed=6)
        pop = seed_population(StrategyMix.uniform(), env, n_agents=25,
                              seed=7)
        result = ArraySimulator().run(
            pop, env, steps=50, shocks=ShockSchedule(period=20, severity=4),
            seed=8,
        )
        assert assess(result.quality_trace()).loss >= 0.0


class TestMakeEngine:
    def test_kinds(self):
        assert isinstance(make_engine("object"), EvolutionSimulator)
        assert not isinstance(make_engine("object"), ArraySimulator)
        assert isinstance(make_engine("array"), ArraySimulator)

    def test_default_from_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_AGENT_ENGINE", raising=False)
        assert isinstance(make_engine(), ArraySimulator)
        monkeypatch.setenv("REPRO_AGENT_ENGINE", "object")
        engine = make_engine()
        assert isinstance(engine, EvolutionSimulator)
        assert not isinstance(engine, ArraySimulator)

    def test_params_forwarded(self):
        engine = make_engine("array", capacity=7, income_rate=2.5)
        assert engine.capacity == 7
        assert engine.income_rate == 2.5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_engine("vectorized")

    def test_unknown_env_value_rejected_naming_choices(self, monkeypatch):
        """A typo'd REPRO_AGENT_ENGINE must fail loudly, naming the
        valid choices and the env var — never silently fall back."""
        monkeypatch.setenv("REPRO_AGENT_ENGINE", "vectorised")
        with pytest.raises(ConfigurationError) as excinfo:
            make_engine()
        message = str(excinfo.value)
        assert "vectorised" in message
        assert "REPRO_AGENT_ENGINE" in message
        assert "'array'" in message and "'object'" in message

    def test_empty_env_value_means_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_AGENT_ENGINE", "")
        assert isinstance(make_engine(), ArraySimulator)

    def test_unknown_kind_error_names_choices(self):
        with pytest.raises(ConfigurationError) as excinfo:
            make_engine("vectorized")
        assert "'array'" in str(excinfo.value)
        assert "kind argument" in str(excinfo.value)
