"""The packed-word array engine against its uint8-matrix oracle.

:class:`~repro.agents.arrayengine.ArraySimulator` keeps genomes as
64-bit words; ``reference_arrayengine.ReferenceArraySimulator`` is the
uint8-matrix engine it replaced.  The two must agree exactly: every
series, the final population (types included), the lineage map and the
next draw of the run's generator.  The golden digests were computed
with the uint8-matrix engine on the benchmark configurations (E19,
E23, an E25-shaped population and wide genomes), so they also pin the
engine's output across later changes.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from itertools import count

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.agents import organism
from repro.agents.arrayengine import ArraySimulator
from repro.agents.environment import ConstraintEnvironment, ShockSchedule
from repro.agents.organism import Organism
from repro.agents.population import Population, seed_population
from repro.core.strategies import Strategy, StrategyMix
from repro.csp.bitstring import BitString

from . import reference_arrayengine as reference
from .reference_arrayengine import ReferenceArraySimulator


@contextmanager
def fresh_ids(start: int = 0):
    """Number organisms built without an id from ``start``."""
    saved = organism._ids
    organism._ids = count(start)
    try:
        yield
    finally:
        organism._ids = saved


def summary(result, rng) -> tuple:
    """Everything a run returns, with its types, plus the next draw."""
    series = tuple(
        (a.dtype.str, a.shape, a.tobytes())
        for a in (result.alive, result.mean_fitness,
                  result.satisfied_fraction, result.diversity)
    )
    final = tuple(
        (repr(o.genome), repr(o.resources), repr(o.adaptability),
         repr(o.age), repr(o.organism_id), repr(o.parent_id))
        for o in result.final_population.organisms
    )
    parents = (
        None if result.parents is None
        else repr(sorted(result.parents.items()))
    )
    return (series, repr(result.shock_times), final,
            repr(result.survived), parents, rng.random())


def digest(summaries) -> str:
    return hashlib.sha256(repr(list(summaries)).encode()).hexdigest()[:16]


# -- golden configurations ----------------------------------------------

E19_PARAMS = dict(income_rate=1.0, living_cost=1.0,
                  replication_threshold=15.0, mutation_rate=0.01,
                  capacity=120)
E19_REGIMES = {
    "frequent-small": (ShockSchedule(period=12, severity=3), 150),
    "rare-storm": (ShockSchedule(period=3, severity=14, first=60), 81),
}


def e19_cell(regime: str, mix: StrategyMix, record_lineage=False):
    """One E19 grid cell: eight seeded runs of 40 agents on 24 loci."""
    shocks, steps = E19_REGIMES[regime]
    for trial in range(8):
        env = ConstraintEnvironment.random(24, tolerance=3, seed=500 + trial)
        population = seed_population(
            mix, env, n_agents=40, budget=400.0, seed=900 + trial
        )
        rng = np.random.default_rng(trial)
        result = ArraySimulator(**E19_PARAMS).run(
            population, env, steps=steps, shocks=shocks, seed=rng,
            record_lineage=record_lineage,
        )
        yield summary(result, rng)


def e23_episodes():
    """E23's species episodes: five genome clusters, no replication."""
    for severity in (4, 8, 12):
        for seed in range(3):
            picks = np.random.default_rng(seed)
            env = ConstraintEnvironment.random(16, tolerance=2, seed=seed)
            organisms = []
            for s in range(5):
                base = env.target.flip(*(
                    int(i) for i in picks.choice(16, size=s, replace=False)
                )) if s else env.target
                organisms += [
                    Organism(genome=base, resources=3.0 + s,
                             adaptability=1 + s % 2)
                    for _ in range(8)
                ]
            rng = np.random.default_rng(seed)
            result = ArraySimulator(
                income_rate=1.1, living_cost=1.0,
                replication_threshold=1e9, capacity=200,
            ).run(
                Population(organisms), env, steps=60,
                shocks=ShockSchedule(period=20, severity=severity),
                seed=rng,
            )
            yield summary(result, rng)


def e25_shaped():
    """E25's population shape on the engine: 80 all-ones 20-locus
    genomes drifting under 1% mutation, then a shocked environment."""
    for seed in range(3):
        env = ConstraintEnvironment(target=BitString.ones(20), tolerance=2)
        population = Population([
            Organism(genome=BitString.ones(20), resources=8.0,
                     adaptability=seed)
            for _ in range(80)
        ])
        rng = np.random.default_rng(seed)
        result = ArraySimulator(
            income_rate=1.2, living_cost=1.0, replication_threshold=9.0,
            mutation_rate=0.01, capacity=160,
        ).run(population, env, steps=120,
              shocks=ShockSchedule(period=40, severity=6, first=40),
              seed=rng, record_lineage=True)
        yield summary(result, rng)


def wide_genomes():
    """Multi-word genomes, bit 63 included, with lineage on."""
    for n, adapt in ((63, 3), (64, 5), (65, 70), (100, 7), (130, 131)):
        env = ConstraintEnvironment.random(n, tolerance=n // 8, seed=n)
        population = seed_population(
            StrategyMix.uniform(), env, n_agents=30, budget=200.0, seed=n,
        )
        population.organisms = [
            Organism(genome=o.genome, resources=o.resources,
                     adaptability=adapt if i % 3 else o.adaptability,
                     organism_id=o.organism_id)
            for i, o in enumerate(population.organisms)
        ]
        rng = np.random.default_rng(n)
        result = ArraySimulator(
            income_rate=1.4, living_cost=1.0, replication_threshold=5.0,
            mutation_rate=0.02, capacity=70,
        ).run(population, env, steps=60,
              shocks=ShockSchedule(period=9, severity=n // 4),
              seed=rng, record_lineage=True)
        yield summary(result, rng)


GOLDEN_CASES = {
    "e19-frequent-small-uniform":
        lambda: e19_cell("frequent-small", StrategyMix.uniform()),
    "e19-rare-storm-uniform":
        lambda: e19_cell("rare-storm", StrategyMix.uniform()),
    "e19-frequent-small-adaptability-lineage":
        lambda: e19_cell("frequent-small",
                         StrategyMix.pure(Strategy.ADAPTABILITY),
                         record_lineage=True),
    "e23-episodes": e23_episodes,
    "e25-shaped": e25_shaped,
    "wide-genomes": wide_genomes,
}

# computed with the uint8-matrix engine (reference_arrayengine's code).
# Four were re-pinned when organism ids became run-local: seeded
# founders are 0..n-1 and a run numbers its offspring from one past its
# founders, where ids used to continue one process-wide count across
# the runs of a case.  Everything but the id labels digests as before.
GOLDEN = {
    "e19-frequent-small-adaptability-lineage": "a3ac89767441f51b",
    "e19-frequent-small-uniform": "d1af0bd1383a5ac1",
    "e19-rare-storm-uniform": "f1af7bb02eb9c421",
    "e23-episodes": "e8259bdf0a4005c7",
    "e25-shaped": "050d598b4fce6445",
    "wide-genomes": "b3919636d860d1a2",
}


def golden_digest(name: str) -> str:
    with fresh_ids():
        return digest(GOLDEN_CASES[name]())


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_digest(name):
    assert golden_digest(name) == GOLDEN[name]


def test_successive_runs_number_ids_alike():
    """Ids are run-local: a second same-seed cell in the same process,
    with no counter reset, digests like the first."""
    cell = GOLDEN_CASES["e19-frequent-small-uniform"]
    assert digest(cell()) == digest(cell()) == GOLDEN[
        "e19-frequent-small-uniform"]


# -- the packed engine against the oracle ---------------------------------

PINNED_N = (0, 1, 63, 64, 65, 128, 129, 130)


@st.composite
def scenarios(draw):
    n = draw(st.one_of(st.sampled_from(PINNED_N), st.integers(0, 130)))
    top = (1 << n) - 1
    # a few genotype classes, so diversity counts repeated genomes
    pool = draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
    organisms = [
        Organism(
            genome=BitString(n, draw(st.sampled_from(pool))),
            resources=draw(st.floats(0.0, 12.0)),
            adaptability=draw(st.integers(0, n + 2)),
            age=draw(st.integers(0, 3)),
            organism_id=10_000 + i,
            parent_id=draw(st.none() | st.integers(0, 9_999)),
        )
        for i in range(draw(st.integers(0, 12)))
    ]
    env = ConstraintEnvironment(
        target=BitString(n, draw(st.integers(0, top))),
        tolerance=draw(st.integers(0, n)),
    )
    params = dict(
        income_rate=draw(st.floats(0.0, 3.0)),
        living_cost=draw(st.floats(0.0, 2.0)),
        replication_threshold=draw(st.floats(0.5, 10.0)),
        mutation_rate=draw(st.sampled_from((0.0, 0.01, 0.5))),
        capacity=draw(st.integers(1, 30)),
    )
    shocks = ShockSchedule(
        period=draw(st.integers(0, 6)),
        severity=draw(st.integers(0, n)),
        first=draw(st.none() | st.integers(0, 5)),
    )
    return dict(
        population=Population(organisms), env=env, params=params,
        shocks=shocks, steps=draw(st.integers(1, 25)),
        record_lineage=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def run_both(case):
    out = []
    for cls in (ArraySimulator, ReferenceArraySimulator):
        rng = np.random.default_rng(case["seed"])
        result = cls(**case["params"]).run(
            case["population"], case["env"], steps=case["steps"],
            shocks=case["shocks"], seed=rng,
            record_lineage=case["record_lineage"],
        )
        out.append(summary(result, rng))
    return out


def _bit63_case(n, adaptability, mutation_rate):
    """Genomes whose first word has bit 63 set and mismatches there."""
    top = (1 << n) - 1
    high = 1 << 63
    genomes = [high | 0b1011, high | (top >> 1), high, top]
    return dict(
        population=Population([
            Organism(genome=BitString(n, g), resources=4.0,
                     adaptability=adaptability, organism_id=10_000 + i)
            for i, g in enumerate(genomes)
        ]),
        env=ConstraintEnvironment(target=BitString(n, 0b0110), tolerance=4),
        params=dict(income_rate=1.5, living_cost=1.0,
                    replication_threshold=4.5, mutation_rate=mutation_rate,
                    capacity=9),
        shocks=ShockSchedule(period=2, severity=min(n, 5)),
        steps=12, record_lineage=True, seed=63,
    )


def _extinction_case(n):
    """Organisms that starve part-way, after some replicate."""
    return dict(
        population=Population([
            Organism(genome=BitString(n, i % 2), resources=1.0 + 3 * i,
                     adaptability=1, organism_id=10_000 + i)
            for i in range(4)
        ]),
        env=ConstraintEnvironment(target=BitString.ones(n), tolerance=0),
        params=dict(income_rate=0.0, living_cost=1.0,
                    replication_threshold=6.0, mutation_rate=0.01,
                    capacity=5),
        shocks=ShockSchedule(period=0, severity=0),
        steps=20, record_lineage=True, seed=7,
    )


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(scenarios())
@example(_bit63_case(64, 2, 0.0))
@example(_bit63_case(65, 1, 0.01))
@example(_bit63_case(128, 70, 0.5))
@example(_bit63_case(129, 0, 0.01))
@example(_extinction_case(9))
def test_packed_engine_matches_oracle(case):
    packed, oracle = run_both(case)
    assert packed == oracle

