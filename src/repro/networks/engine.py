"""Network engine selection: reference object kernels vs CSR kernels.

Mirrors :func:`repro.agents.arrayengine.make_engine` for the network
substrate.  :func:`make_network_engine` resolves an engine ``kind``
(``"object"``, ``"array"``, or ``"mmap"``) from its argument or the
``REPRO_NETWORK_ENGINE`` environment variable, defaulting to
``"object"`` so existing runs are bit-for-bit unchanged until a caller
opts in.  :func:`~repro.networks.percolation.percolation_curve`,
:class:`~repro.networks.cascades.LoadCascadeModel` /
:class:`~repro.networks.cascades.ProbabilisticCascadeModel`,
:class:`~repro.networks.epidemics.SISModel` /
:class:`~repro.networks.epidemics.SIRModel`, and
:class:`~repro.networks.healing.NetworkRecoverySimulator` all dispatch
their hot loops through the resolved engine.

The object engine hosts the original dict-of-sets loops verbatim (same
RNG draw order, same float accumulation order).  ``"array"`` and
``"mmap"`` name one engine, :class:`ArrayNetworkEngine`: block-streamed
CSR kernels that run on the graph's
:class:`~repro.networks.arraygraph.ArrayGraph` (a
:class:`~repro.networks.graph.Graph` is converted once and cached),
whose arrays may sit in RAM or in memory-mapped files; ``"mmap"`` is
kept only as a name.
Deterministic quantities (component sizes, percolation curves,
load-cascade failure sets, healing quality traces) match the object
engine exactly, while stochastic spreading (probabilistic cascades,
SIS/SIR) draws its randomness in frontier batches and therefore matches
the object engine statistically over seeds rather than draw-for-draw —
the same equivalence contract as the agents array engine — but is
byte-identical across block sizes and storages.  All engines report
``net.*`` timers/counters through :mod:`repro.runtime.trace`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, Sequence, Set

import numpy as np

from ..runtime import supervisor, trace
from ..runtime.engines import resolve_engine_kind
from .arraygraph import (
    ArrayGraph,
    as_arraygraph,
    bernoulli_indices,
    derive_chunk_elems,
    frontier_slices,
    gather_rows,
    newman_ziff_giants_at,
    sorted_distinct,
)
from .graph import Graph

__all__ = [
    "ArrayNetworkEngine",
    "NetworkEngine",
    "ObjectNetworkEngine",
    "make_network_engine",
]


class NetworkEngine(ABC):
    """One implementation of the network hot loops (see module docs)."""

    name: str

    def ordering_graph(self, g: "Graph | ArrayGraph"):
        """The graph view attack strategies should rank (engine-preferred)."""
        return g

    @abstractmethod
    def percolation_giant_sizes(
        self, g, order: Sequence[object], checkpoints: Sequence[int]
    ) -> list[int]:
        """Giant sizes ``[intact] + [after i removals for i in checkpoints]``."""

    @abstractmethod
    def load_cascade(
        self,
        graph,
        initial_load: Dict[object, float],
        capacity: Dict[object, float],
        seeds: frozenset,
    ) -> tuple[Set[object], int]:
        """Propagate a load-redistribution cascade; ``(failed, waves)``."""

    @abstractmethod
    def spread_cascade(
        self, graph, spread_p: float, seeds: frozenset, rng
    ) -> tuple[Set[object], int]:
        """Propagate an independent-cascade failure; ``(failed, waves)``."""

    @abstractmethod
    def sis(
        self, graph, beta: float, gamma: float, immune: frozenset,
        infected: Set[object], steps: int, rng,
    ) -> tuple[list[int], Set[object], int]:
        """SIS dynamics; ``(counts, final_infected, total_ever)``."""

    @abstractmethod
    def sir(
        self, graph, beta: float, gamma: float, immune: frozenset,
        infected: Set[object], max_steps: int, rng,
    ) -> tuple[list[int], Set[object], int]:
        """SIR dynamics; ``(counts, final_infected, total_ever)``."""

    @abstractmethod
    def healing_episode(
        self, graph, to_remove: Sequence[object], repairs_per_step: int,
        horizon: int, shock_time: int,
    ) -> tuple[list[float], list[float], bool]:
        """Attack-and-heal quality series; ``(times, quality, recovered)``."""


class ObjectNetworkEngine(NetworkEngine):
    """The reference dict-of-sets implementation (pre-array behavior)."""

    name = "object"

    @staticmethod
    def _graph(g) -> Graph:
        return g.to_graph() if isinstance(g, ArrayGraph) else g

    def percolation_giant_sizes(self, g, order, checkpoints):
        g = self._graph(g)
        tr = trace.current()
        with tr.timer("net.percolation.object"):
            wanted = set(checkpoints)
            work = g.copy()
            sizes = [work.giant_component_size()]
            for i, node in enumerate(order, start=1):
                work.remove_node(node)
                if i in wanted:
                    sizes.append(work.giant_component_size())
        tr.count("net.curves.object")
        return sizes

    def load_cascade(self, graph, initial_load, capacity, seeds):
        graph = self._graph(graph)
        tr = trace.current()
        with tr.timer("net.cascade.object"):
            load = dict(initial_load)
            failed: set = set()
            wave: set = set(seeds)
            waves = 0
            while wave:
                waves += 1
                # redistribute each failing node's load to live neighbours
                for node in wave:
                    failed.add(node)
                for node in wave:
                    neighbors = [
                        v for v in graph.neighbors(node) if v not in failed
                    ]
                    if not neighbors:
                        continue
                    share = load[node] / len(neighbors)
                    for v in neighbors:
                        load[v] += share
                wave = {
                    node
                    for node in graph.nodes()
                    if node not in failed and load[node] > capacity[node]
                }
        tr.count("net.cascades.object")
        return failed, waves

    def spread_cascade(self, graph, spread_p, seeds, rng):
        graph = self._graph(graph)
        tr = trace.current()
        with tr.timer("net.cascade.object"):
            failed: set = set(seeds)
            wave = set(seeds)
            waves = 0
            while wave:
                waves += 1
                nxt: set = set()
                for node in wave:
                    for neighbor in graph.neighbors(node):
                        if neighbor not in failed and \
                                rng.random() < spread_p:
                            nxt.add(neighbor)
                failed |= nxt
                wave = nxt
        tr.count("net.cascades.object")
        return failed, waves

    def sis(self, graph, beta, gamma, immune, infected, steps, rng):
        graph = self._graph(graph)
        tr = trace.current()
        with tr.timer("net.epidemic.object"):
            ever = set(infected)
            counts = [len(infected)]
            for _ in range(steps):
                if not infected:
                    break
                new_infections: Set[object] = set()
                for node in infected:
                    for neighbor in graph.neighbors(node):
                        if (
                            neighbor not in infected
                            and neighbor not in immune
                            and rng.random() < beta
                        ):
                            new_infections.add(neighbor)
                recoveries = {n for n in infected if rng.random() < gamma}
                infected = (infected - recoveries) | new_infections
                ever |= new_infections
                counts.append(len(infected))
        tr.count("net.epidemic.runs.object")
        tr.count("net.epidemic.steps.object", len(counts) - 1)
        return counts, infected, len(ever)

    def sir(self, graph, beta, gamma, immune, infected, max_steps, rng):
        graph = self._graph(graph)
        tr = trace.current()
        with tr.timer("net.epidemic.object"):
            recovered: Set[object] = set()
            ever = set(infected)
            counts = [len(infected)]
            for _ in range(max_steps):
                if not infected:
                    break
                new_infections: Set[object] = set()
                for node in infected:
                    for neighbor in graph.neighbors(node):
                        if (
                            neighbor not in infected
                            and neighbor not in recovered
                            and neighbor not in immune
                            and rng.random() < beta
                        ):
                            new_infections.add(neighbor)
                recoveries = {n for n in infected if rng.random() < gamma}
                recovered |= recoveries
                infected = (infected - recoveries) | new_infections
                ever |= new_infections
                counts.append(len(infected))
        tr.count("net.epidemic.runs.object")
        tr.count("net.epidemic.steps.object", len(counts) - 1)
        return counts, infected, len(ever)

    def healing_episode(self, graph, to_remove, repairs_per_step,
                        horizon, shock_time):
        graph = self._graph(graph)
        tr = trace.current()
        with tr.timer("net.healing.object"):
            n = graph.n_nodes
            original_edges = list(graph.edges())
            work = graph.copy()
            removed: list = []
            times: list[float] = []
            quality: list[float] = []
            for t in range(horizon):
                if t == shock_time:
                    for node in to_remove:
                        work.remove_node(node)
                        removed.append(node)
                elif t > shock_time and repairs_per_step > 0 and removed:
                    # triage: restore the most connective victims first
                    for _ in range(min(repairs_per_step, len(removed))):
                        node = removed.pop(0)
                        work.add_node(node)
                        for u, v in original_edges:
                            if u == node and v in work:
                                work.add_edge(u, v)
                            elif v == node and u in work:
                                work.add_edge(u, v)
                times.append(float(t))
                quality.append(100.0 * work.giant_component_size() / n)
            fully = not removed and work.giant_component_size() == n
        tr.count("net.healing.runs.object")
        return times, quality, fully


class ArrayNetworkEngine(NetworkEngine):
    """Block-streamed CSR kernels over an in-RAM or memory-mapped graph.

    One set of kernels serves both fast kinds: an
    :class:`~repro.networks.arraygraph.ArrayGraph` is walked where its
    arrays lie, in RAM or mapped from disk, and a
    :class:`~repro.networks.graph.Graph` through its cached
    :class:`~repro.networks.arraygraph.ArrayGraph`.  Every hot loop
    walks the ``indices`` array in fixed-size blocks, so the kernels'
    working memory is O(n + block) whatever the edge count: cascades
    and SIS/SIR expand their frontiers block by block with a two-pass
    draw that spends the RNG exactly as one whole-frontier gather would.
    Every output — deterministic or stochastic — is therefore
    byte-identical across block sizes and across the two storages of
    one CSR.

    Percolation and healing each make one
    :func:`~repro.networks.arraygraph.newman_ziff_giants_at` call that
    streams additions in reverse (Newman–Ziff) and returns the giant
    only where the output reads it: 1 + ``len(checkpoints)`` sizes for
    a curve, at most ``horizon`` + 1 for a healing series.  With at
    least :data:`~repro.networks.arraygraph.VECTOR_EDGES_PER_STOP`
    edges per distinct stop (a 10^5-node curve at ``resolution=64``
    has ~7,800), each stop interval's edges are unioned at once with
    numpy; below it (a 10^3-node, 32-point curve has ~64) the
    per-addition loop runs.  The sizes are the same either way.

    SIS and SIR keep one ``susceptible`` mask up to date across steps,
    so a gathered neighbour is a candidate by one lookup; SIR also
    keeps each node's count of susceptible neighbours and gathers only
    the infected rows that still have one.

    The block size comes from the supervisor's ``memory_budget_mb`` via
    :func:`~repro.networks.arraygraph.derive_chunk_elems`, so a budget
    *schedules* smaller blocks instead of refusing (an explicit
    ``block_elems`` overrides it; the equivalence tests use it to sweep
    block boundaries).
    """

    name = "array"

    def __init__(self, block_elems: "int | None" = None):
        self._block_elems = block_elems

    def _block(self) -> int:
        if self._block_elems is not None:
            return self._block_elems
        return derive_chunk_elems(
            supervisor.current().memory_budget_bytes()
        )

    def ordering_graph(self, g):
        return as_arraygraph(g)

    def percolation_giant_sizes(self, g, order, checkpoints):
        cg = as_arraygraph(g)
        tr = trace.current()
        with tr.timer("net.percolation.array"):
            n = cg.n_nodes
            order_idx = cg.indices_of(order)
            # removals evaluated in reverse as Newman–Ziff additions,
            # neighbor lists arriving in budget-sized blocks: i removals
            # leave n - i additions
            stops = n - np.asarray([0, *checkpoints], dtype=np.int64)
            out = newman_ziff_giants_at(
                cg.indptr, cg.indices, order_idx[::-1], stops,
                block_elems=self._block(),
            ).tolist()
        tr.count("net.curves.array")
        tr.count("net.nz_nodes.array", n)
        return out

    def load_cascade(self, graph, initial_load, capacity, seeds):
        cg = as_arraygraph(graph)
        tr = trace.current()
        with tr.timer("net.cascade.array"):
            n = cg.n_nodes
            labels = cg.labels
            load = np.asarray(
                [initial_load[lab] for lab in labels], dtype=float
            )
            cap = np.asarray(
                [capacity[lab] for lab in labels], dtype=float
            )
            failed = np.zeros(n, dtype=bool)
            wave = np.sort(cg.indices_of(seeds))
            waves = 0
            block = self._block()
            indptr, indices = cg.indptr, cg.indices
            while wave.size:
                waves += 1
                # marked failed first, so no block's shares reach a wave
                # node: each block reads the loads the wave started with
                failed[wave] = True
                for a, b in frontier_slices(indptr, wave, block):
                    rows = wave[a:b]
                    flat, counts = gather_rows(indptr, indices, rows)
                    flat = flat.astype(np.int64)
                    live = ~failed[flat]
                    owner_pos = np.repeat(
                        np.arange(len(rows), dtype=np.int64), counts
                    )
                    live_counts = np.bincount(
                        owner_pos, weights=live, minlength=len(rows)
                    )
                    share = np.zeros(len(rows))
                    has_live = live_counts > 0
                    share[has_live] = load[rows[has_live]] / \
                        live_counts[has_live]
                    np.add.at(
                        load, flat[live], np.repeat(share, counts)[live]
                    )
                wave = np.flatnonzero(~failed & (load > cap))
            failed_labels = {labels[int(i)] for i in np.flatnonzero(failed)}
        tr.count("net.cascades.array")
        return failed_labels, waves

    def _frontier_hits(self, cg, rows, candidate_mask, p, rng, block):
        """``candidates[hits]`` of one whole-frontier gather, in blocks.

        Pass 1 gathers each block's candidates (mask state frozen by the
        caller until this returns), keeping them while their running
        total fits one block; a single
        :func:`~repro.networks.arraygraph.bernoulli_indices` draw then
        covers the whole frontier, so the RNG is spent as if the
        frontier had been gathered at once; pass 2 re-gathers only the
        dropped blocks that hold hits, emitting candidates in frontier
        order.
        """
        indptr, indices = cg.indptr, cg.indices

        def candidates(a, b):
            flat, _ = gather_rows(indptr, indices, rows[a:b])
            flat = flat.astype(np.int64)
            return flat[candidate_mask(flat)]

        bounds = list(frontier_slices(indptr, rows, block))
        counts = np.empty(len(bounds), dtype=np.int64)
        kept: list = []
        kept_total = 0
        for k, (a, b) in enumerate(bounds):
            cands = candidates(a, b)
            counts[k] = len(cands)
            if kept_total + len(cands) <= block:
                kept.append(cands)
                kept_total += len(cands)
            else:
                kept.append(None)
        hits = bernoulli_indices(rng, int(counts.sum()), p)
        if len(hits) == 0:
            return np.empty(0, dtype=np.int64)
        out = []
        offsets = np.concatenate(([0], np.cumsum(counts)))
        for k, (a, b) in enumerate(bounds):
            sel = hits[(hits >= offsets[k]) & (hits < offsets[k + 1])]
            if len(sel) == 0:
                continue
            cands = candidates(a, b) if kept[k] is None else kept[k]
            out.append(cands[sel - offsets[k]])
        return np.concatenate(out)

    @staticmethod
    def _leave_susceptibles(cg, live, rows, block):
        """Take distinct ``rows`` out of ``live``, the per-node count of
        susceptible neighbours: the CSR is symmetric, so every node loses
        one per row it appears in."""
        for a, b in frontier_slices(cg.indptr, rows, block):
            flat, _ = gather_rows(cg.indptr, cg.indices, rows[a:b])
            np.subtract(live, np.bincount(flat, minlength=len(live)), out=live)

    def spread_cascade(self, graph, spread_p, seeds, rng):
        cg = as_arraygraph(graph)
        tr = trace.current()
        with tr.timer("net.cascade.array"):
            labels = cg.labels
            failed = np.zeros(cg.n_nodes, dtype=bool)
            wave = np.sort(cg.indices_of(seeds))
            failed[wave] = True
            waves = 0
            block = self._block()
            while wave.size:
                waves += 1
                hit = self._frontier_hits(
                    cg, wave, lambda flat: ~failed[flat],
                    spread_p, rng, block,
                )
                new = sorted_distinct(hit)
                failed[new] = True
                wave = new
            failed_labels = {labels[int(i)] for i in np.flatnonzero(failed)}
        tr.count("net.cascades.array")
        return failed_labels, waves

    def _epidemic(self, cg, beta, gamma, immune_mask, infected_mask,
                  max_steps, rng, recovered_mask):
        """Shared SIS/SIR frontier loop (SIR passes a recovered mask).

        One ``susceptible`` mask is kept up to date across steps: it
        starts as ``~(infected | immune | recovered)``, new infections
        clear it, and an SIS recovery sets it back to ``~immune`` (an
        SIR recovery leaves it clear).

        Returns ``(counts, infected_mask, ever, rows_gathered)``.
        """
        block = self._block()
        ever = infected_mask.copy()
        counts = [int(infected_mask.sum())]
        susceptible = ~(infected_mask | immune_mask)
        if recovered_mask is not None:
            susceptible &= ~recovered_mask

        # SIR only: live[v] = v's susceptible neighbours, the candidates
        # its row would add.  Every node leaves the susceptibles at most
        # once, so the upkeep is one gather of each row per run; in SIS
        # recoveries rejoin them every step, the upkeep costs more than
        # the rows it skips (measured), and every infected row is gathered
        live = None
        if recovered_mask is not None:
            live = np.diff(cg.indptr).astype(cg.indices.dtype)
            self._leave_susceptibles(
                cg, live, np.flatnonzero(infected_mask | immune_mask), block
            )
        rows_gathered = 0
        for _ in range(max_steps):
            infected_idx = np.flatnonzero(infected_mask)
            if infected_idx.size == 0:
                break
            rows = infected_idx
            if live is not None:
                # a row without candidates adds none to the frontier, so
                # skipping it leaves the candidate sequence — hence the
                # bernoulli_indices count and the RNG stream — unchanged
                rows = rows[live[rows] > 0]
            rows_gathered += rows.size
            # masks are mutated only after both draws, so pass 1 and
            # pass 2 of the frontier see identical candidate sets
            new = self._frontier_hits(
                cg, rows, lambda flat: susceptible[flat], beta, rng, block
            )
            recs = bernoulli_indices(rng, infected_idx.size, gamma)
            recovered_now = infected_idx[recs]
            infected_mask[recovered_now] = False
            if recovered_mask is not None:
                recovered_mask[recovered_now] = True
                self._leave_susceptibles(
                    cg, live, sorted_distinct(new), block
                )
            else:
                susceptible[recovered_now] = ~immune_mask[recovered_now]
            infected_mask[new] = True
            susceptible[new] = False
            ever[new] = True
            counts.append(int(infected_mask.sum()))
        return counts, infected_mask, int(ever.sum()), rows_gathered

    def _run_epidemic(self, graph, beta, gamma, immune, infected,
                      max_steps, rng, with_recovered):
        cg = as_arraygraph(graph)
        tr = trace.current()
        with tr.timer("net.epidemic.array"):
            n = cg.n_nodes
            immune_mask = np.zeros(n, dtype=bool)
            if immune:
                immune_mask[cg.indices_of(immune)] = True
            infected_mask = np.zeros(n, dtype=bool)
            if infected:
                infected_mask[cg.indices_of(infected)] = True
            recovered_mask = (
                np.zeros(n, dtype=bool) if with_recovered else None
            )
            counts, infected_mask, ever, rows = self._epidemic(
                cg, beta, gamma, immune_mask, infected_mask,
                max_steps, rng, recovered_mask,
            )
            labels = cg.labels
            final = {
                labels[int(i)] for i in np.flatnonzero(infected_mask)
            }
        tr.count("net.epidemic.runs.array")
        tr.count("net.epidemic.steps.array", len(counts) - 1)
        tr.count("net.epidemic.rows.array", rows)
        return counts, final, ever

    def sis(self, graph, beta, gamma, immune, infected, steps, rng):
        return self._run_epidemic(
            graph, beta, gamma, immune, infected, steps, rng,
            with_recovered=False,
        )

    def sir(self, graph, beta, gamma, immune, infected, max_steps, rng):
        return self._run_epidemic(
            graph, beta, gamma, immune, infected, max_steps, rng,
            with_recovered=True,
        )

    def healing_episode(self, graph, to_remove, repairs_per_step,
                        horizon, shock_time):
        cg = as_arraygraph(graph)
        tr = trace.current()
        with tr.timer("net.healing.array"):
            n = cg.n_nodes
            removed_idx = cg.indices_of(to_remove)
            n_removed = len(removed_idx)
            base = np.ones(n, dtype=bool)
            base[removed_idx] = False
            # healed[t] = victims restored by step t: none until after
            # the shock, then repairs_per_step more each step; before the
            # shock the graph is whole (all n_removed restored)
            steps = np.arange(horizon, dtype=np.int64)
            healed = np.minimum(
                n_removed,
                np.maximum(steps - shock_time, 0) * repairs_per_step,
            )
            healed[steps < shock_time] = n_removed
            # a series that ends before the shock restores nothing
            restored = int(healed[-1]) if shock_time < horizon else 0
            # one Newman–Ziff pass: survivors first, then victims restored
            # in triage order — read only at the counts the series shows
            giants = newman_ziff_giants_at(
                cg.indptr, cg.indices, removed_idx,
                np.append(healed, n_removed),
                base=np.flatnonzero(base),
                block_elems=self._block(),
            )
            full = int(giants[-1])
            times = [float(t) for t in range(horizon)]
            quality = (100.0 * giants[:-1] / n).tolist()
            fully = restored == n_removed and full == n
        tr.count("net.healing.runs.array")
        return times, quality, fully


_ENGINES = {
    "object": ObjectNetworkEngine,
    "array": ArrayNetworkEngine,
    # a storage name, not a kernel set: same engine as "array"
    "mmap": ArrayNetworkEngine,
}


def make_network_engine(
    kind: "str | NetworkEngine | None" = None,
) -> NetworkEngine:
    """Resolve a network engine: ``'object'``, ``'array'``, or ``'mmap'``.

    ``'array'`` and ``'mmap'`` both resolve to :class:`ArrayNetworkEngine`
    (the kernels follow the graph's own storage).  ``kind=None`` reads
    the ``REPRO_NETWORK_ENGINE`` environment variable and defaults to
    ``'object'``, preserving pre-array behavior unless a run opts in; an
    already-constructed engine passes through unchanged.  Unrecognized
    values — passed directly or set in the environment — raise
    :class:`~repro.errors.EngineError` naming the valid choices
    (resolution shared with the other seams via
    :func:`repro.runtime.engines.resolve_engine_kind`; an installed MAPE
    supervisor may degrade ``array``/``mmap`` to ``object`` while its
    breaker is open).
    """
    if isinstance(kind, NetworkEngine):
        return kind
    return _ENGINES[resolve_engine_kind("networks", kind)]()
