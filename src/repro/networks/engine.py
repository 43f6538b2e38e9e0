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
    chunked_newman_ziff_giant_sizes,
    derive_chunk_elems,
    frontier_slices,
    gather_rows,
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
    working memory is O(n + block) whatever the edge count: Newman–Ziff
    percolation and healing stream additions through
    :func:`~repro.networks.arraygraph.chunked_newman_ziff_giant_sizes`,
    cascades and SIS/SIR expand their frontiers block by block with a
    two-pass draw that spends the RNG exactly as one whole-frontier
    gather would.  Every output — deterministic or stochastic — is
    therefore byte-identical across block sizes and across the two
    storages of one CSR.

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
            # neighbor lists arriving in budget-sized blocks
            sizes = chunked_newman_ziff_giant_sizes(
                cg.indptr, cg.indices, order_idx[::-1],
                block_elems=self._block(),
            )
            out = [int(sizes[n])]
            out.extend(int(sizes[n - i]) for i in checkpoints)
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
                new = np.unique(hit)
                failed[new] = True
                wave = new
            failed_labels = {labels[int(i)] for i in np.flatnonzero(failed)}
        tr.count("net.cascades.array")
        return failed_labels, waves

    def _epidemic(self, cg, beta, gamma, immune_mask, infected_mask,
                  max_steps, rng, recovered_mask):
        """Shared SIS/SIR frontier loop (SIR passes a recovered mask)."""
        block = self._block()
        ever = infected_mask.copy()
        counts = [int(infected_mask.sum())]

        def candidate_mask(flat):
            m = ~infected_mask[flat] & ~immune_mask[flat]
            if recovered_mask is not None:
                m &= ~recovered_mask[flat]
            return m

        for _ in range(max_steps):
            infected_idx = np.flatnonzero(infected_mask)
            if infected_idx.size == 0:
                break
            # masks are mutated only after both draws, so pass 1 and
            # pass 2 of the frontier see identical candidate sets
            new = self._frontier_hits(
                cg, infected_idx, candidate_mask, beta, rng, block
            )
            recs = bernoulli_indices(rng, infected_idx.size, gamma)
            recovered_now = infected_idx[recs]
            infected_mask[recovered_now] = False
            if recovered_mask is not None:
                recovered_mask[recovered_now] = True
            infected_mask[new] = True
            ever[new] = True
            counts.append(int(infected_mask.sum()))
        return counts, infected_mask, int(ever.sum())

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
            counts, infected_mask, ever = self._epidemic(
                cg, beta, gamma, immune_mask, infected_mask,
                max_steps, rng, recovered_mask,
            )
            labels = cg.labels
            final = {
                labels[int(i)] for i in np.flatnonzero(infected_mask)
            }
        tr.count("net.epidemic.runs.array")
        tr.count("net.epidemic.steps.array", len(counts) - 1)
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
            # one Newman–Ziff pass: survivors first, then victims restored
            # in triage order — sizes[k] is the giant with k nodes healed
            sizes = chunked_newman_ziff_giant_sizes(
                cg.indptr, cg.indices, removed_idx,
                base=np.flatnonzero(base),
                block_elems=self._block(),
            )
            full = int(sizes[n_removed])
            times: list[float] = []
            quality: list[float] = []
            restored = 0
            for t in range(horizon):
                if t == shock_time:
                    giant = int(sizes[0])
                elif t > shock_time:
                    if repairs_per_step > 0 and restored < n_removed:
                        restored = min(
                            n_removed, restored + repairs_per_step
                        )
                    giant = int(sizes[restored])
                else:
                    giant = full
                times.append(float(t))
                quality.append(100.0 * giant / n)
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
