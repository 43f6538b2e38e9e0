"""CSR array graph and the vectorized primitives of the network kernels.

The §5.1 experiments (attack percolation, cascades, epidemics, healing)
were first written over the dict-of-sets :class:`~repro.networks.graph.
Graph`, whose ``percolation_curve`` recomputes the giant component from
scratch after every removal — O(n·(n+m)) per curve.  This module is the
network analogue of :mod:`repro.agents.arrayengine`: the same models on
a compressed-sparse-row adjacency (int32 ``indices``; ``indptr`` int32
until ``2·m`` outgrows it, then int64 — see
:data:`INT32_INDPTR_CAPACITY`) held in RAM, plus the array primitives
the network engine builds on:

* **ragged row gathers** (:func:`gather_rows`,
  :func:`directed_edge_blocks`) — boolean state masks plus CSR row
  gathers via ``np.repeat`` drive the frontier expansion of cascades
  and epidemics;
* **geometric-gap Bernoulli sampling** (:func:`bernoulli_indices`)
  replacing per-edge Python RNG calls;
* **union-find** (path halving + union by size) connected components
  over the CSR edge arrays, with a fully vectorized min-label
  pointer-jumping variant for one-shot component labelling;
* **reverse Newman–Ziff percolation** (:func:`newman_ziff_giant_sizes`):
  the giant-component curve built by *adding* nodes in reverse attack
  order, one near-O(1) union per incident edge — O((n+m)·α) for the
  whole curve instead of one BFS sweep per checkpoint.  This
  single-pass version is the reference the block-streamed
  :func:`~repro.networks.mmapgraph.chunked_newman_ziff_giant_sizes`
  (which the engine runs) is pinned against;
* **vectorized attack orderings**: degree ranking via ``np.lexsort``
  (exact ``(-degree, repr)`` tie-breaking, matching the object path
  bit-for-bit) and an incremental adaptive-degree order.

The kernels themselves live in :class:`repro.networks.engine.
ArrayNetworkEngine` (``make_network_engine`` / ``REPRO_NETWORK_ENGINE``),
which runs on an :class:`ArrayGraph` in RAM or a
:class:`~repro.networks.mmapgraph.MmapGraph` on disk; the equivalence
contract against the object engine is pinned by
``tests/networks/test_arraygraph.py``.
"""

from __future__ import annotations

import weakref
from typing import Dict, FrozenSet, Iterable, Iterator, Sequence

import numpy as np

from ..errors import ConfigurationError
from .graph import Graph

__all__ = [
    "ArrayGraph",
    "INT32_INDPTR_CAPACITY",
    "as_arraygraph",
    "bernoulli_indices",
    "connected_component_labels",
    "directed_edge_blocks",
    "gather_rows",
    "newman_ziff_giant_sizes",
    "union_find_labels",
]

#: largest directed-edge count (``2·m``, the final ``indptr`` entry)
#: representable in an int32 CSR offset array; graphs beyond it get
#: int64 ``indptr`` automatically (first step of the multi-million-node
#: ceiling item — node ids stay int32 until n itself approaches 2^31)
INT32_INDPTR_CAPACITY = int(np.iinfo(np.int32).max)


class ArrayGraph:
    """An immutable undirected graph in CSR form over nodes ``0..n-1``.

    ``indices[indptr[i]:indptr[i+1]]`` are the neighbors of node ``i``
    (both int32).  Arbitrary hashable node labels are kept in a side
    table so the array engine speaks the same node vocabulary as
    :class:`~repro.networks.graph.Graph`; kernels work purely on the
    integer indices.
    """

    __slots__ = ("indptr", "indices", "labels", "_index", "_edge_uv",
                 "__weakref__")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: Sequence[object] | None = None,
    ):
        # offsets run to 2·m: auto-promote past the int32 capacity so
        # wide graphs don't silently wrap (indices hold node ids, which
        # stay int32 far longer)
        offset_dtype = (
            np.int64 if len(indices) > INT32_INDPTR_CAPACITY else np.int32
        )
        self.indptr = np.ascontiguousarray(indptr, dtype=offset_dtype)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        n = len(self.indptr) - 1
        if n < 0 or self.indptr[0] != 0 or (
            len(self.indices) and self.indptr[-1] != len(self.indices)
        ):
            raise ConfigurationError("malformed CSR arrays")
        self.labels: list = (
            list(range(n)) if labels is None else list(labels)
        )
        if len(self.labels) != n:
            raise ConfigurationError(
                f"{len(self.labels)} labels for {n} CSR rows"
            )
        self._index: Dict[object, int] = {
            lab: i for i, lab in enumerate(self.labels)
        }
        if len(self._index) != n:
            raise ConfigurationError("node labels must be unique")
        self._edge_uv: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_graph(cls, g: "Graph | ArrayGraph") -> "ArrayGraph":
        """CSR snapshot of a :class:`Graph` (node order = insertion order)."""
        if isinstance(g, ArrayGraph):
            return g
        adj = g._adj  # sibling access: one pass, no per-node frozensets
        labels = list(adj)
        index = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        degs = np.fromiter(
            (len(adj[lab]) for lab in labels), dtype=np.int64, count=n
        )
        # accumulate in int64; __init__ narrows to int32 when it fits
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        dst: list[int] = []
        extend = dst.extend
        for lab in labels:
            extend(map(index.__getitem__, adj[lab]))
        indices = np.asarray(dst, dtype=np.int32)
        return cls(indptr, indices, labels)

    @classmethod
    def from_edges(
        cls,
        nodes: Iterable[object] | int,
        edges: Iterable[tuple],
    ) -> "ArrayGraph":
        """Build from a node list (or count) and an undirected edge list.

        Parallel edges are deduplicated and self-loops rejected, matching
        :class:`Graph` semantics.
        """
        labels = (
            list(range(nodes)) if isinstance(nodes, int) else list(nodes)
        )
        index = {lab: i for i, lab in enumerate(labels)}
        if len(index) != len(labels):
            raise ConfigurationError("node labels must be unique")
        n = len(labels)
        us, vs = [], []
        for a, b in edges:
            try:
                u, v = index[a], index[b]
            except KeyError as exc:
                raise ConfigurationError(
                    f"edge endpoint {exc.args[0]!r} not in node list"
                ) from None
            if u == v:
                raise ConfigurationError(
                    f"self-loop on node {a!r} is not allowed"
                )
            us.append(u)
            vs.append(v)
        u = np.asarray(us, dtype=np.int64)
        v = np.asarray(vs, dtype=np.int64)
        # canonicalize + dedupe undirected pairs
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        if len(lo):
            keys = np.unique(lo * n + hi)
            lo, hi = keys // n, keys % n
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        order = np.argsort(src, kind="stable")
        deg = np.bincount(src, minlength=n)
        # accumulate in int64; __init__ narrows to int32 when it fits
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        return cls(indptr, dst[order], labels)

    def to_graph(self) -> Graph:
        """Materialize back into a dict-of-sets :class:`Graph`."""
        g = Graph(nodes=self.labels)
        labels = self.labels
        indptr, indices = self.indptr, self.indices
        g.add_edges_from(
            (labels[i], labels[int(j)])
            for i in range(self.n_nodes)
            for j in indices[indptr[i]:indptr[i + 1]]
            if i < j
        )
        return g

    # -- queries -----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return len(self.indptr) - 1

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def __len__(self) -> int:
        return self.n_nodes

    def __contains__(self, node: object) -> bool:
        return node in self._index

    def nodes(self) -> Iterator[object]:
        """Iterate node labels in index order."""
        return iter(self.labels)

    def edges(self) -> Iterator[tuple]:
        """Iterate each undirected edge once (by ascending index pair)."""
        u, v = self.edge_arrays()
        labels = self.labels
        for a, b in zip(u.tolist(), v.tolist()):
            yield (labels[a], labels[b])

    def index_of(self, node: object) -> int:
        """CSR row index of a node label."""
        try:
            return self._index[node]
        except KeyError:
            raise ConfigurationError(f"node {node!r} not in graph") from None

    def indices_of(self, nodes: Iterable[object]) -> np.ndarray:
        """Vector of CSR row indices for an iterable of labels."""
        index = self._index
        try:
            return np.fromiter(
                (index[nd] for nd in nodes), dtype=np.int64
            )
        except KeyError as exc:
            raise ConfigurationError(
                f"node {exc.args[0]!r} not in graph"
            ) from None

    def degree_array(self) -> np.ndarray:
        """Degrees as an int64 vector aligned with node indices."""
        return np.diff(self.indptr).astype(np.int64)

    def degree(self, node: object) -> int:
        """Number of incident edges."""
        i = self.index_of(node)
        return int(self.indptr[i + 1] - self.indptr[i])

    def degrees(self) -> Dict[object, int]:
        """Degree of every node (label-keyed, for Graph API parity)."""
        return dict(zip(self.labels, self.degree_array().tolist()))

    def neighbors(self, node: object) -> FrozenSet[object]:
        """Adjacent node labels."""
        i = self.index_of(node)
        labels = self.labels
        return frozenset(
            labels[j] for j in
            self.indices[self.indptr[i]:self.indptr[i + 1]].tolist()
        )

    def has_edge(self, u: object, v: object) -> bool:
        """Whether the undirected edge {u, v} exists."""
        if u not in self._index or v not in self._index:
            return False
        return self._index[v] in set(
            self.indices[
                self.indptr[self._index[u]]:self.indptr[self._index[u] + 1]
            ].tolist()
        )

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Each undirected edge once as (u, v) index arrays with u < v."""
        if self._edge_uv is None:
            rows = np.repeat(
                np.arange(self.n_nodes, dtype=np.int64),
                np.diff(self.indptr),
            )
            cols = self.indices.astype(np.int64)
            mask = rows < cols
            self._edge_uv = (rows[mask], cols[mask])
        return self._edge_uv

    # -- structure ---------------------------------------------------------

    def component_labels(self) -> np.ndarray:
        """Connected-component label per node (root index, vectorized)."""
        u, v = self.edge_arrays()
        return connected_component_labels(self.n_nodes, u, v)

    def connected_components(self) -> list[FrozenSet[object]]:
        """All connected components as frozensets of labels."""
        comp = self.component_labels()
        order = np.argsort(comp, kind="stable")
        sorted_comp = comp[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_comp[1:] != sorted_comp[:-1]]
        )
        bounds = np.r_[starts, len(sorted_comp)]
        labels = self.labels
        return [
            frozenset(labels[int(i)] for i in order[a:b])
            for a, b in zip(bounds[:-1], bounds[1:])
        ]

    def giant_component_size(self) -> int:
        """Size of the largest connected component (0 for empty)."""
        if self.n_nodes == 0:
            return 0
        comp = self.component_labels()
        return int(np.bincount(comp, minlength=self.n_nodes).max())

    # -- vectorized attack orderings --------------------------------------

    def _label_reprs(self) -> np.ndarray:
        return np.array([repr(lab) for lab in self.labels])

    def degree_removal_order(self) -> list:
        """Labels from highest degree down, ties by ascending ``repr``.

        Bit-identical to the object path's
        ``sorted(degrees, key=lambda n: (-degrees[n], repr(n)))``.
        """
        order = np.lexsort((self._label_reprs(), -self.degree_array()))
        labels = self.labels
        return [labels[int(i)] for i in order]

    def adaptive_degree_removal_order(self) -> list:
        """Recompute-degree removal order (max ``(degree, repr)`` each step).

        Incremental: removing a node decrements its live neighbors'
        degrees instead of rebuilding the graph, so the whole order costs
        O(n² bitmask scans + m updates) in vectorized primitives rather
        than n graph copies.
        """
        n = self.n_nodes
        deg = self.degree_array().copy()
        active = np.ones(n, dtype=bool)
        indptr, indices, labels = self.indptr, self.indices, self.labels
        order: list = []
        for _ in range(n):
            top = int(np.max(np.where(active, deg, -1)))
            cands = np.flatnonzero(active & (deg == top))
            if len(cands) == 1:
                pick = int(cands[0])
            else:
                pick = int(max(cands, key=lambda i: repr(labels[int(i)])))
            order.append(labels[pick])
            active[pick] = False
            nbrs = indices[indptr[pick]:indptr[pick + 1]]
            live = nbrs[active[nbrs]]
            deg[live] -= 1
        return order


# -- conversion cache ------------------------------------------------------

_CSR_CACHE: "weakref.WeakKeyDictionary[Graph, tuple[int, ArrayGraph]]" = (
    weakref.WeakKeyDictionary()
)


def as_arraygraph(g: "Graph | ArrayGraph") -> ArrayGraph:
    """CSR view of ``g``, cached per :class:`Graph` mutation version.

    Benchmarks percolate the same graph under several attacks; the cache
    makes the conversion a once-per-graph cost instead of once-per-curve.
    """
    if isinstance(g, ArrayGraph):
        return g
    version = getattr(g, "_version", None)
    if version is not None:
        entry = _CSR_CACHE.get(g)
        if entry is not None and entry[0] == version:
            return entry[1]
    ag = ArrayGraph.from_graph(g)
    if version is not None:
        _CSR_CACHE[g] = (version, ag)
    return ag


# -- kernels ---------------------------------------------------------------


def gather_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate CSR rows: ``(flat neighbor array, per-row counts)``.

    The ragged equivalent of ``indices[indptr[r]:indptr[r+1]] for r in
    rows``, built from one ``np.repeat`` and one ``arange`` — the frontier
    expansion primitive for every BFS-style kernel below.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows].astype(np.int64)
    counts = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype), counts
    cum = np.cumsum(counts)
    flat_idx = np.arange(total, dtype=np.int64) + np.repeat(
        starts - (cum - counts), counts
    )
    return indices[flat_idx], counts


def directed_edge_blocks(
    indptr: np.ndarray,
    indices: np.ndarray,
    block_elems: int,
    aligned: bool = False,
):
    """Yield ``(u, v)`` int64 blocks of directed CSR entries in flat order.

    Concatenated, the blocks reproduce exactly the
    ``(np.repeat(arange(n), degrees), indices)`` pair that
    :meth:`ArrayGraph.edge_arrays` builds — but only ``block_elems``
    entries exist at a time, which is what lets the chunked kernels walk
    a memory-mapped ``indices`` without ever materializing the full
    edge list.  With ``aligned=True`` block boundaries snap back to row
    starts (a row larger than ``block_elems`` streams alone), the mode
    per-row invariant checks need.
    """
    total = len(indices)
    start = 0
    while start < total:
        stop = min(start + int(block_elems), total)
        if aligned and stop < total:
            row = int(np.searchsorted(indptr, stop, side="right")) - 1
            row_start = int(indptr[row])
            # defer the straddled row to the next block, unless it alone
            # overflows the block — then stream it whole
            stop = row_start if row_start > start else int(indptr[row + 1])
        pos = np.arange(start, stop, dtype=np.int64)
        u = np.searchsorted(indptr, pos, side="right").astype(np.int64) - 1
        v = np.asarray(indices[start:stop]).astype(np.int64)
        yield u, v
        start = stop


def union_find_labels(
    n: int, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Component root per node via union-find over an edge list.

    Path halving + union by size; the parent forest is flattened with
    vectorized pointer jumping at the end so every node reports its root
    directly.
    """
    parent = list(range(n))
    size = [1] * n
    for a, b in zip(
        np.asarray(u, dtype=np.int64).tolist(),
        np.asarray(v, dtype=np.int64).tolist(),
    ):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
    roots = np.asarray(parent, dtype=np.int64)
    while True:
        hop = roots[roots]
        if np.array_equal(hop, roots):
            return roots
        roots = hop


def connected_component_labels(
    n: int, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Min-label propagation components: fully vectorized, no edge loop.

    Each round every node adopts the smallest label among itself and its
    neighbors (``np.minimum.at`` over both edge directions), then labels
    are collapsed by pointer jumping; converges in O(log n) rounds, so
    total work is O((n + m) log n) array operations.
    """
    labels = np.arange(n, dtype=np.int64)
    if len(u) == 0:
        return labels
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    while True:
        nxt = labels.copy()
        np.minimum.at(nxt, u, labels[v])
        np.minimum.at(nxt, v, labels[u])
        while True:
            hop = nxt[nxt]
            if np.array_equal(hop, nxt):
                break
            nxt = hop
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt


def newman_ziff_giant_sizes(
    indptr: np.ndarray,
    indices: np.ndarray,
    order: np.ndarray,
    base: np.ndarray | None = None,
) -> np.ndarray:
    """Giant-component size after each node *addition* (Newman–Ziff).

    Starting from the (optional) ``base`` node set, nodes of ``order``
    are activated one at a time; activating a node unions it with its
    already-active neighbors.  Returns ``sizes`` of length
    ``len(order) + 1`` with ``sizes[k]`` = largest component after the
    first ``k`` additions (``sizes[0]`` = the base's giant).

    Because the giant component is monotone under additions, evaluating
    a removal process in reverse turns O(checkpoints · BFS) into one
    O((n + m)·α) sweep — the tentpole speedup behind the array
    percolation and healing engines.
    """
    n = len(indptr) - 1
    parent = list(range(n))
    size = [1] * n
    active = bytearray(n)
    ip = indptr.tolist()
    idx = indices.tolist()
    best = 0

    additions = np.asarray(order, dtype=np.int64).tolist()
    prefix = (
        [] if base is None else np.asarray(base, dtype=np.int64).tolist()
    )
    n_prefix = len(prefix)
    sizes = np.empty(len(additions) + 1, dtype=np.int64)
    sizes[0] = 0  # overwritten below unless the base is empty
    # one flat hot loop (no per-activation call overhead): base nodes are
    # unioned first (their final giant lands in sizes[0]), then each
    # addition records the running giant in sizes[1:]
    for i, node in enumerate(prefix + additions):
        active[node] = 1
        a = node
        for j in range(ip[node], ip[node + 1]):
            b = idx[j]
            if not active[b]:
                continue
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if a != b:
                if size[a] < size[b]:
                    a, b = b, a
                parent[b] = a
                size[a] += size[b]
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        if size[a] > best:
            best = size[a]
        if i >= n_prefix - 1:
            sizes[i - n_prefix + 1] = best
    return sizes


def bernoulli_indices(rng, count: int, p: float) -> np.ndarray:
    """Indices ``i`` in ``[0, count)`` where an independent Bernoulli(p)
    trial fires, in ascending order.

    For dense ``p`` this is one vectorized uniform draw; for sparse ``p``
    it samples the gaps between successes geometrically (the Newman–Ziff
    trick applied to infection draws), touching O(count·p) random numbers
    instead of O(count).  Either way the joint distribution of the
    returned index set is exactly Bernoulli(p) per slot.
    """
    if count <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(count, dtype=np.int64)
    if p > 0.1:
        return np.flatnonzero(rng.random(count) < p).astype(np.int64)
    chunks: list[np.ndarray] = []
    pos = -1
    while True:
        need = max(16, int((count - pos) * p * 1.3) + 4)
        # a gap past ``count`` ends the draw either way; clamping it
        # keeps the cumsum from overflowing int64 at subnormal-small p
        gaps = np.minimum(rng.geometric(p, size=need), count + 1)
        hits = np.cumsum(gaps) + pos
        if len(hits) == 0 or hits[-1] >= count:
            chunks.append(hits[hits < count])
            break
        chunks.append(hits)
        pos = int(hits[-1])
    return np.concatenate(chunks).astype(np.int64)
