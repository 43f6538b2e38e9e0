"""Array-backed population engine (paper §4.4, performance lane).

:class:`ArraySimulator` is observationally equivalent to
:class:`~repro.agents.simulation.EvolutionSimulator` — same parameters,
same :class:`~repro.agents.simulation.SimulationResult`, statistically
identical dynamics — but keeps the whole population in the form each
step reads: one int64 state matrix with a row per organism, holding the
genome as ``W = max(1, ceil(n/64))`` packed 64-bit words (the
:func:`~repro.csp.bitstring.pack_matrix` layout) followed by
adaptability, age, id and parent id, plus one float array of
resources.  Mismatch counts are one ``np.bitwise_count`` over the
genome words XOR the target words; an organism that fixes every
mismatch takes the target words, and only partially-adapting rows are
unpacked to draw their per-locus keys.  Death is one gather and birth
one concatenate per array, mutation is a packed mask XORed in, the
diversity index sorts the words, and the final
:class:`~repro.csp.bitstring.BitString` genomes are built straight from
them.  Every step draws from a single
:class:`numpy.random.Generator`, which is what makes the paper's
"various multi-agent simulations while changing the above system
parameters" sweeps tractable at scale.

Equivalence contract (exercised by ``tests/agents/test_arrayengine.py``;
``tests/agents/test_packed_engine.py`` also holds this engine
draw-for-draw to the uint8-matrix reference engine in
``tests/agents/reference_arrayengine.py``):

* on the deterministic path — no shocks, zero mutation, adaptability
  either 0 or ≥ genome length — both engines agree *exactly* on every
  recorded series;
* on stochastic paths the random streams differ (the object engine draws
  per organism, this engine draws per step), so runs agree statistically
  over seeds rather than bit-for-bit.

:func:`make_engine` is the shared construction point: benchmarks and
sweeps build their engine through it so both implementations stay
benchmarkable against each other (``REPRO_AGENT_ENGINE=object`` flips a
whole run back to the reference engine).
"""

from __future__ import annotations

import numpy as np

from ..csp.bitstring import BitString, pack_matrix
from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng
from ..runtime import trace
from ..runtime.engines import resolve_engine_kind
from .environment import ConstraintEnvironment, ShockSchedule
from .organism import Organism
from .population import Population
from .simulation import EvolutionSimulator, SimulationResult, _next_id

__all__ = ["ArraySimulator", "make_engine"]


class ArraySimulator(EvolutionSimulator):
    """Vectorized drop-in replacement for :class:`EvolutionSimulator`."""

    engine_name = "array"

    def _run_impl(
        self,
        population: Population,
        env: ConstraintEnvironment,
        steps: int,
        shocks: ShockSchedule | None = None,
        seed: SeedLike = None,
        record_lineage: bool = False,
    ) -> SimulationResult:
        """Simulate ``steps`` steps; the input population is not mutated."""
        if steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {steps}")
        tr = trace.current()
        steps_counter = f"sim.steps.{self.engine_name}"
        rng = make_rng(seed)
        shocks = shocks or ShockSchedule(period=0, severity=0)
        orgs = population.organisms
        n = env.n
        lengths = {o.genome.n for o in orgs}
        if len(lengths) > 1:
            raise ConfigurationError(
                f"bit strings have mixed lengths: {sorted(lengths)}"
            )
        if lengths - {n}:
            raise ConfigurationError(
                f"target length {n} != genome length {lengths.pop()}"
            )

        # one int64 row per organism: W genome words, then the columns
        # ADAPT, AGE, ID, PARENT (-1 for a founder without one)
        W = max(1, -(-n // 64))
        ADAPT, AGE, ID, PARENT = range(W, W + 4)
        state = np.empty((len(orgs), W + 4), dtype=np.int64)
        state[:, :W].view(np.uint64)[:] = _pack_masks(
            [o.genome.mask for o in orgs], W
        )
        state[:, ADAPT:] = np.array(
            [
                (o.adaptability, o.age, o.organism_id,
                 -1 if o.parent_id is None else o.parent_id)
                for o in orgs
            ],
            dtype=np.int64,
        ).reshape(-1, 4)
        resources = np.asarray([o.resources for o in orgs], dtype=float)
        target_bits = env.target.to_array()
        target = _pack_masks([env.target.mask], W)[0]
        tolerance = env.tolerance
        parents: dict[int, int | None] | None = (
            dict.fromkeys(state[:, ID].tolist()) if record_lineage else None
        )
        rate = self.mutator.rate
        next_id = _next_id(state[:, ID].tolist())

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
                target_bits[flips] ^= 1
                target = pack_matrix(target_bits[None])[0]
                shock_times.append(t)

            count = len(resources)
            if count:
                # adapt: flip up to adaptability mismatched loci, chosen
                # uniformly without replacement, toward the target
                genomes = state[:, :W].view(np.uint64)
                flip = genomes ^ target
                # popcount through uint64: on int64 it counts |x|'s bits
                n_mismatched = np.bitwise_count(flip).sum(
                    axis=1, dtype=np.int64
                )
                n_fix = np.minimum(state[:, ADAPT], n_mismatched)
                fixing = n_fix > 0
                if fixing.any():
                    # organisms that fix every mismatch take the target
                    # words with no draw; only partially-adapting rows
                    # are unpacked to rank random keys per locus
                    flip[~fixing] = 0
                    partial = np.flatnonzero(fixing & (n_fix < n_mismatched))
                    if partial.size:
                        sub = _unpack(flip[partial], n)
                        keys = rng.random(sub.shape)
                        keys[~sub] = 2.0  # matched loci sort last
                        kth = np.take_along_axis(
                            np.sort(keys, axis=1),
                            (n_fix[partial] - 1)[:, None],
                            axis=1,
                        )
                        flip[partial] = pack_matrix(sub & (keys <= kth))
                    genomes ^= flip
                distance = n_mismatched - n_fix
                fitness = (
                    1.0 - distance / n if n else np.ones(count)
                )
                resources = (
                    resources + self.income_rate * fitness
                    - self.living_cost
                )
                alive = resources > 0.0
                state = state[alive]
                resources = resources[alive]
                distance = distance[alive]
                state[:, AGE] += 1

                # replication pass (bounded by capacity, in array order)
                slots = self.capacity - len(resources)
                eligible = resources >= self.replication_threshold
                if slots > 0 and eligible.any():
                    rep = np.flatnonzero(
                        eligible & (np.cumsum(eligible) <= slots)
                    )
                    resources[rep] *= 0.5
                    children = state[rep]
                    child_genomes = children[:, :W].view(np.uint64)
                    if rate > 0.0 and n > 0:
                        child_genomes ^= pack_matrix(
                            rng.random((rep.size, n)) < rate
                        )
                    child_distance = np.bitwise_count(
                        child_genomes ^ target
                    ).sum(axis=1, dtype=np.int64)
                    children[:, PARENT] = children[:, ID]
                    children[:, ID] = np.arange(next_id, next_id + rep.size)
                    next_id += rep.size
                    children[:, AGE] = 0
                    if parents is not None:
                        parents.update(zip(
                            children[:, ID].tolist(),
                            children[:, PARENT].tolist(),
                        ))
                    state = np.concatenate([state, children])
                    resources = np.concatenate([resources, resources[rep]])
                    distance = np.concatenate([distance, child_distance])

            count = len(resources)
            alive_series.append(count)
            tr.count(steps_counter)
            if count:
                fitness_series.append(
                    1.0 - distance.sum() / (n * count) if n else 1.0
                )
                satisfied_series.append(
                    np.count_nonzero(distance <= tolerance) / count
                )
                diversity_series.append(_diversity(state[:, :W]))
            else:
                fitness_series.append(0.0)
                satisfied_series.append(0.0)
                diversity_series.append(0.0)
                break

        final = Population(
            [
                Organism(
                    genome=BitString(n, mask),
                    resources=res,
                    adaptability=adapt,
                    age=a,
                    organism_id=oid,
                    parent_id=None if pid < 0 else pid,
                )
                for mask, res, (adapt, a, oid, pid) in zip(
                    _masks(state[:, :W].view(np.uint64)),
                    resources.tolist(),
                    state[:, ADAPT:].tolist(),
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


def _pack_masks(masks: list[int], words: int) -> np.ndarray:
    """``(len(masks), words)`` little-endian words of integer bit masks:
    bit ``i`` in word ``i // 64``, the layout of
    :func:`~repro.csp.bitstring.pack_matrix`."""
    raw = b"".join(m.to_bytes(8 * words, "little") for m in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), words)


def _masks(words: np.ndarray) -> list[int]:
    """Inverse of :func:`_pack_masks`: one integer mask per row."""
    raw = np.ascontiguousarray(words, dtype="<u8").tobytes()
    step = 8 * words.shape[1]
    return [
        int.from_bytes(raw[i : i + step], "little")
        for i in range(0, len(raw), step)
    ]


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """``(k, n)`` boolean loci of ``(k, W)`` genome words."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, count=n, bitorder="little").view(bool)


def _diversity(words: np.ndarray) -> float:
    """The paper's G over genotype classes: sort the genome words.

    One word per genome sorts as a scalar; wider genomes sort as
    fixed-size byte rows.  Equal genomes are adjacent either way, so
    class sizes are the run lengths.
    """
    count, width = words.shape
    if width == 1:
        keys = np.sort(words[:, 0])
    else:
        rows = np.ascontiguousarray(words).view(
            np.dtype((np.void, width * words.itemsize))
        )
        keys = np.sort(rows.ravel())
    edges = np.ones(count + 1, dtype=bool)
    edges[1:-1] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(edges)
    sizes = starts[1:] - starts[:-1]
    return sizes.size / float(sizes @ sizes)


_ENGINES = {"object": EvolutionSimulator, "array": ArraySimulator}


def make_engine(kind: str | None = None, **params) -> EvolutionSimulator:
    """Build an agent engine: ``'array'`` (vectorized) or ``'object'``.

    ``kind=None`` reads the ``REPRO_AGENT_ENGINE`` environment variable
    and defaults to ``'array'``, so a whole benchmark run can be flipped
    back to the reference object engine without touching code.  An
    unrecognized value — passed directly or set in the environment —
    raises :class:`~repro.errors.EngineError` naming the valid choices
    rather than silently falling back to a default engine (resolution is
    shared across all three engine seams by
    :func:`repro.runtime.engines.resolve_engine_kind`, which also lets
    an installed MAPE supervisor degrade ``array`` back to ``object``
    while its circuit breaker is open).  Keyword parameters are passed
    straight to the engine constructor.
    """
    return _ENGINES[resolve_engine_kind("agents", kind)](**params)
