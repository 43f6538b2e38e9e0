"""Reference uint8-matrix array engine: the oracle of the packed engine.

This is the agents array engine as it ran before genomes became packed
words: the population is an ``(N, n)`` uint8 genome matrix plus one 1-D
array per organism field, rebuilt with ``to_matrix`` / ``from_matrix``
at the run's ends, and the diversity index hashes rows for a sort.
:class:`repro.agents.arrayengine.ArraySimulator` must reproduce it
exactly — every recorded series, the final population, the lineage map
and the RNG draws — which ``tests/agents/test_packed_engine.py`` checks.
"""

from __future__ import annotations

import numpy as np

from repro.agents.environment import ConstraintEnvironment, ShockSchedule
from repro.agents.organism import Organism, _ids
from repro.agents.population import Population
from repro.agents.simulation import EvolutionSimulator, SimulationResult
from repro.csp.bitstring import from_matrix, pack_matrix, to_matrix
from repro.errors import ConfigurationError
from repro.rng import SeedLike, make_rng

__all__ = ["ReferenceArraySimulator"]


class ReferenceArraySimulator(EvolutionSimulator):
    """The uint8-matrix array engine, kept as a test oracle."""

    engine_name = "reference"

    def _run_impl(
        self,
        population: Population,
        env: ConstraintEnvironment,
        steps: int,
        shocks: ShockSchedule | None = None,
        seed: SeedLike = None,
        record_lineage: bool = False,
    ) -> SimulationResult:
        if steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {steps}")
        rng = make_rng(seed)
        shocks = shocks or ShockSchedule(period=0, severity=0)
        orgs = population.organisms
        n = env.n

        if orgs:
            genomes = to_matrix([o.genome for o in orgs])
            if genomes.shape[1] != n:
                raise ConfigurationError(
                    f"target length {n} != genome length {genomes.shape[1]}"
                )
        else:
            genomes = np.zeros((0, n), dtype=np.uint8)
        resources = np.asarray([o.resources for o in orgs], dtype=float)
        adaptability = np.asarray(
            [o.adaptability for o in orgs], dtype=np.int64
        )
        age = np.asarray([o.age for o in orgs], dtype=np.int64)
        ids = np.asarray([o.organism_id for o in orgs], dtype=np.int64)
        parent_ids = np.asarray(
            [-1 if o.parent_id is None else o.parent_id for o in orgs],
            dtype=np.int64,
        )
        target = env.target.to_array()
        tolerance = env.tolerance
        parents: dict[int, int | None] | None = (
            {int(i): None for i in ids} if record_lineage else None
        )
        rate = self.mutator.rate

        alive_series: list[int] = []
        fitness_series: list[float] = []
        satisfied_series: list[float] = []
        diversity_series: list[float] = []
        shock_times: list[int] = []

        for t in range(steps):
            if shocks.fires_at(t):
                if shocks.severity > n:
                    raise ConfigurationError(
                        f"severity must be in [0, {n}], "
                        f"got {shocks.severity}"
                    )
                flips = rng.choice(n, size=shocks.severity, replace=False)
                target[flips] ^= 1
                shock_times.append(t)

            count = len(resources)
            if count:
                mismatch = genomes != target
                n_mismatched = mismatch.sum(axis=1)
                n_fix = np.minimum(adaptability, n_mismatched)
                fixing = n_fix > 0
                if n > 0 and fixing.any():
                    flip = mismatch & fixing[:, None]
                    partial = np.nonzero(n_fix < n_mismatched)[0]
                    partial = partial[fixing[partial]]
                    if partial.size:
                        sub = mismatch[partial]
                        keys = rng.random(sub.shape)
                        keys[~sub] = 2.0
                        kth = np.take_along_axis(
                            np.sort(keys, axis=1),
                            (n_fix[partial] - 1)[:, None],
                            axis=1,
                        )
                        flip[partial] = sub & (keys <= kth)
                    genomes = genomes ^ flip.astype(np.uint8)
                distance = n_mismatched - n_fix
                fitness = (
                    1.0 - distance / n if n else np.ones(count)
                )
                resources = (
                    resources + self.income_rate * fitness
                    - self.living_cost
                )
                alive = resources > 0.0
                genomes = genomes[alive]
                resources = resources[alive]
                adaptability = adaptability[alive]
                age = age[alive] + 1
                ids = ids[alive]
                parent_ids = parent_ids[alive]
                distance = distance[alive]

                slots = self.capacity - len(resources)
                eligible = resources >= self.replication_threshold
                if slots > 0 and eligible.any():
                    take = eligible & (np.cumsum(eligible) <= slots)
                    rep = np.nonzero(take)[0]
                    if rep.size:
                        resources[rep] *= 0.5
                        child_genomes = genomes[rep]
                        if rate > 0.0 and n > 0:
                            mutated = (
                                rng.random((rep.size, n)) < rate
                            )
                            child_genomes = child_genomes ^ mutated.astype(
                                np.uint8
                            )
                        child_distance = (child_genomes != target).sum(
                            axis=1
                        )
                        child_ids = np.fromiter(
                            (next(_ids) for _ in range(rep.size)),
                            dtype=np.int64,
                            count=rep.size,
                        )
                        if parents is not None:
                            for cid, pid in zip(child_ids, ids[rep]):
                                parents[int(cid)] = int(pid)
                        genomes = np.concatenate([genomes, child_genomes])
                        resources = np.concatenate(
                            [resources, resources[rep]]
                        )
                        adaptability = np.concatenate(
                            [adaptability, adaptability[rep]]
                        )
                        age = np.concatenate(
                            [age, np.zeros(rep.size, dtype=np.int64)]
                        )
                        parent_ids = np.concatenate([parent_ids, ids[rep]])
                        ids = np.concatenate([ids, child_ids])
                        distance = np.concatenate(
                            [distance, child_distance]
                        )

            count = len(resources)
            alive_series.append(count)
            if count:
                fitness_series.append(
                    1.0 - distance.sum() / (n * count) if n else 1.0
                )
                satisfied_series.append(
                    np.count_nonzero(distance <= tolerance) / count
                )
                diversity_series.append(_diversity(genomes))
            else:
                fitness_series.append(0.0)
                satisfied_series.append(0.0)
                diversity_series.append(0.0)
                break

        final = Population(
            [
                Organism(
                    genome=genome,
                    resources=float(res),
                    adaptability=int(adapt),
                    age=int(a),
                    organism_id=int(oid),
                    parent_id=None if pid < 0 else int(pid),
                )
                for genome, res, adapt, a, oid, pid in zip(
                    from_matrix(genomes),
                    resources,
                    adaptability,
                    age,
                    ids,
                    parent_ids,
                )
            ]
        )
        return SimulationResult(
            alive=np.asarray(alive_series),
            mean_fitness=np.asarray(fitness_series),
            satisfied_fraction=np.asarray(satisfied_series),
            diversity=np.asarray(diversity_series),
            shock_times=tuple(shock_times),
            final_population=final,
            survived=len(final) > 0,
            parents=parents,
        )


_POW2 = 2.0 ** np.arange(52)


def _diversity(genomes: np.ndarray) -> float:
    """The paper's G over genotype classes via a row-hash sort."""
    count, n = genomes.shape
    if n == 0:
        return 1.0 / (count * count)
    if n <= 52:
        words = np.sort(genomes @ _POW2[:n])
    else:
        packed = np.ascontiguousarray(pack_matrix(genomes))
        rows = packed.view(
            np.dtype((np.void, packed.shape[1] * packed.itemsize))
        )
        words = np.sort(rows.ravel())
    starts = np.concatenate(
        ([0], np.flatnonzero(words[1:] != words[:-1]) + 1, [count])
    )
    counts = np.diff(starts).astype(float)
    return float(counts.size / np.sum(counts**2))
