"""CSR array graph and the block-streamed kernels of the network engine.

The §5.1 experiments (attack percolation, cascades, epidemics, healing)
were first written over the dict-of-sets :class:`~repro.networks.graph.
Graph`, whose ``percolation_curve`` recomputes the giant component from
scratch after every removal — O(n·(n+m)) per curve.  This module is the
network analogue of :mod:`repro.agents.arrayengine` and
:mod:`repro.csp.tiledengine`: the same models on one compressed-sparse-
row graph class, :class:`ArrayGraph` (int32 ``indices``; ``indptr``
int32 until ``2·m`` outgrows it, then int64 — see
:data:`INT32_INDPTR_CAPACITY`).  Its arrays live in RAM or in
memory-mapped ``.npy`` files; every query and kernel is the same for
both, so the two storages differ only in where the bytes are.

* **storage** — one way into each: :meth:`ArrayGraph.from_graph`
  builds in RAM from a :class:`~repro.networks.graph.Graph`;
  :meth:`ArrayGraph.from_edge_chunks` builds a mapped graph out of core
  from an edge stream by a two-pass spill-to-disk edge sort; and the
  constructor takes CSR arrays as they are, ``np.memmap`` views (say
  of ``np.load(f, mmap_mode="r")``) included.  Forked workers inherit
  either storage's arrays through fork.  Graphs built without labels
  use the identity labels ``0..n-1`` and keep no O(n) label or index
  side tables.
* **block-streamed kernels** — every kernel reads the CSR through one
  stream, :func:`row_blocks`, which gathers a list of rows (or walks
  every row) in blocks of at most a fixed number of entries
  (:func:`derive_chunk_elems` turns the supervisor's
  ``memory_budget_mb`` into a block size), so O(block + n) bytes are in
  flight regardless of edge count.  Reverse Newman–Ziff percolation
  builds the giant-component curve by *adding* nodes in reverse attack
  order, each edge unioned once from its later endpoint (the active
  ones filtered vectorized per block); the component union-find walks
  every row once.  :func:`newman_ziff_giants_at` reads
  the giant only at the addition counts a caller asks for and picks one
  of two paths by the edges per requested stop: with at least
  :data:`VECTOR_EDGES_PER_STOP`, :func:`vectorized_newman_ziff_giants_at`
  unions each stop interval's edges at once on int32 numpy arrays
  (nothing boxed); below it, the per-addition Python loop of
  :func:`chunked_newman_ziff_giant_sizes` (which boxes only a block's
  active neighbours) costs less than a few dozen numpy calls per
  interval.  Component sizes do not depend on union order, so both
  paths — and every block size — give the same sizes as the
  single-pass reference kernels kept in
  ``tests/networks/reference_kernels.py``.
* **array primitives** — geometric-gap Bernoulli sampling
  (:func:`bernoulli_indices`) replacing per-edge Python RNG calls.
* **vectorized attack orderings** — degree ranking by a stable sort
  (exact ``(-degree, repr)`` tie-breaking, matching the object path
  bit-for-bit) and an incremental adaptive-degree order.

The engine that runs these kernels is :class:`repro.networks.engine.
ArrayNetworkEngine` (``make_network_engine`` / ``REPRO_NETWORK_ENGINE``);
the equivalence contract against the object engine is pinned by
``tests/networks/test_arraygraph.py``, ``test_mmapgraph.py`` and
``test_engine_fuzz.py``.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from itertools import chain
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Sequence

import numpy as np

from .._arrays import sorted_distinct
from ..errors import ConfigurationError
from ..runtime import trace
from .graph import Graph

__all__ = [
    "ArrayGraph",
    "CHUNK_ELEM_BYTES",
    "DEFAULT_CHUNK_BITS",
    "INT32_INDPTR_CAPACITY",
    "MAX_CHUNK_BITS",
    "MIN_CHUNK_BITS",
    "VECTOR_EDGES_PER_STOP",
    "as_arraygraph",
    "bernoulli_indices",
    "chunked_newman_ziff_giant_sizes",
    "derive_chunk_elems",
    "newman_ziff_giants_at",
    "row_blocks",
    "sorted_distinct",
    "vectorized_newman_ziff_giants_at",
]

#: largest directed-edge count (``2·m``, the final ``indptr`` entry)
#: representable in an int32 CSR offset array; graphs beyond it get
#: int64 ``indptr`` automatically (first step of the multi-million-node
#: ceiling item — node ids stay int32 until n itself approaches 2^31)
INT32_INDPTR_CAPACITY = int(np.iinfo(np.int32).max)

#: block size used when no memory budget is installed (2^18 = 256K
#: gathered neighbor slots, 6–14 MiB in flight: see ``CHUNK_ELEM_BYTES``)
DEFAULT_CHUNK_BITS = 18
#: smallest scheduled block — below 2^12 the per-block Python overhead
#: dominates the vectorized gathers
MIN_CHUNK_BITS = 12
#: largest scheduled block (2^20 slots) — past this the block's own
#: in-flight footprint (~56 MiB at 2^20, see ``CHUNK_ELEM_BYTES``)
#: approaches the budget the chunking exists to respect, and measured
#: wall time stops improving (the per-element Python union-find loop
#: dominates, not the per-block gather overhead)
MAX_CHUNK_BITS = 20

#: per-slot bytes in flight while one block streams: the slope of the
#: tracemalloc peak from 2^16- to 2^20-slot blocks on a mapped 10^6-node
#: ER graph of mean degree 10 (the O(n) state is the same at both).
#: The numpy Newman–Ziff path takes 22 B and SIR 21 B; the
#: per-addition loop, which runs when stops are dense (a curve read
#: after every removal), takes 53 B, as it boxes the kept neighbours
#: into Python ints.  The constant covers the loop, so a budget holds
#: on every path.
CHUNK_ELEM_BYTES = 56

#: undirected edges per distinct stop from which
#: :func:`newman_ziff_giants_at` unions each stop interval with numpy
#: rather than the per-addition loop.  Measured break-even on
#: mean-degree-4 ER graphs of 10^3..2·10^4 nodes: ~360 edges per stop
#: still favour the loop (×0.84–0.95), ~500 favour numpy (×1.06–1.26);
#: the interval's fixed cost is a few dozen numpy calls.
VECTOR_EDGES_PER_STOP = 512


def derive_chunk_elems(memory_budget_bytes: Optional[int] = None) -> int:
    """Gathered-slots-per-block whose in-flight footprint fits the budget.

    The network mirror of :func:`repro.csp.tiledengine.derive_block_bits`:
    the supervisor's ``memory_budget_mb`` becomes block *scheduling*
    instead of an OOM — one streamed block costs
    ``2^b · CHUNK_ELEM_BYTES`` bytes, and the largest ``b`` in
    ``[MIN_CHUNK_BITS, MAX_CHUNK_BITS]`` keeping that under budget is
    picked.  An impossible budget degrades to more, smaller blocks —
    never a refusal.  (O(n) per-node state — union-find forests,
    frontier masks — rides outside this accounting, like the tiled CSP
    engine's fit sets.)
    """
    if memory_budget_bytes is None:
        return 1 << DEFAULT_CHUNK_BITS
    bits = MIN_CHUNK_BITS
    while (
        bits < MAX_CHUNK_BITS
        and (1 << (bits + 1)) * CHUNK_ELEM_BYTES <= memory_budget_bytes
    ):
        bits += 1
    return 1 << bits


def _offset_dtype(n_directed: int):
    """``indptr`` dtype for ``n_directed`` CSR entries (the one rule)."""
    return np.int64 if n_directed > INT32_INDPTR_CAPACITY else np.int32


def _as_stored(a, dtype) -> np.ndarray:
    """``a`` as a C-contiguous ``dtype`` array; a fitting one (a memmap
    included) is kept as is, never copied into RAM."""
    if isinstance(a, np.ndarray) and a.dtype == dtype and \
            a.flags.c_contiguous:
        return a
    return np.ascontiguousarray(a, dtype=dtype)


_INDPTR_FILE = "indptr.npy"
_INDICES_FILE = "indices.npy"


class ArrayGraph:
    """An immutable undirected graph in CSR form over nodes ``0..n-1``.

    ``indices[indptr[i]:indptr[i+1]]`` are the neighbors of node ``i``.
    The arrays are plain ndarrays or ``np.memmap`` views of ``.npy``
    files, kept as given.  A graph built by :meth:`from_edge_chunks`
    owns its files: :attr:`path` names their directory, which is
    deleted when the graph is collected (for any other graph it is
    ``None``).  Mapping a multi-million-node graph costs two page-table
    mappings, not its edge count, and forked workers share the mapped
    pages instead of pickling adjacency.

    Labels are the identity ``0..n-1`` exactly when the constructor gets
    none: :attr:`labels` is then a ``range`` and no label list or index
    dict exists.  Given labels (arbitrary hashables, as from a
    :class:`~repro.networks.graph.Graph`) are kept in a side table so
    the array engine speaks the same node vocabulary as the object
    engine; kernels work purely on the integer indices.
    """

    __slots__ = ("indptr", "indices", "path", "_labels", "_index",
                 "_finalizer", "__weakref__")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: Sequence[object] | None = None,
    ):
        # offsets run to 2·m: auto-promote past the int32 capacity so
        # wide graphs don't silently wrap (indices hold node ids, which
        # stay int32 far longer)
        self.indices = _as_stored(indices, np.int32)
        self.indptr = _as_stored(indptr, _offset_dtype(len(self.indices)))
        n = len(self.indptr) - 1
        if n < 0 or self.indptr[0] != 0 or (
            len(self.indices) and self.indptr[-1] != len(self.indices)
        ):
            raise ConfigurationError("malformed CSR arrays")
        self.path: str | None = None
        self._finalizer = None
        self._labels: list | None = None
        self._index: Dict[object, int] | None = None
        if labels is not None:
            self._labels = list(labels)
            if len(self._labels) != n:
                raise ConfigurationError(
                    f"{len(self._labels)} labels for {n} CSR rows"
                )
            self._index = {lab: i for i, lab in enumerate(self._labels)}
            if len(self._index) != n:
                raise ConfigurationError("node labels must be unique")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_graph(cls, g: "Graph | ArrayGraph") -> "ArrayGraph":
        """CSR snapshot of a :class:`Graph` (node order = insertion order).

        Rows keep each node's set iteration order, read in one pass.
        When the nodes are exactly the Python ``int``s ``0..n-1`` in
        insertion order (``bool`` and numpy integers do not qualify) the
        CSR is identity-labelled, so callers get the identity graph's
        behaviour: attack orders come back as int64 ndarrays and
        ``True`` is not a node.  Any other labels are kept in a list.
        """
        if isinstance(g, ArrayGraph):
            return g
        adj = g._adj  # sibling access: one pass, no per-node frozensets
        n = len(adj)
        degs = np.fromiter(map(len, adj.values()), dtype=np.int64, count=n)
        # accumulate in int64; __init__ narrows to int32 when it fits
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        dst = chain.from_iterable(adj.values())
        labels = list(adj)
        if labels == list(range(n)) and set(map(type, labels)) <= {int}:
            labels = None
        else:
            dst = map({lab: i for i, lab in enumerate(labels)}.__getitem__,
                      dst)
        indices = np.fromiter(dst, dtype=np.int32, count=int(indptr[-1]))
        return cls(indptr, indices, labels)

    @classmethod
    def from_edge_chunks(
        cls,
        n: int,
        edge_chunks: Iterable[tuple],
        *,
        check_duplicates: bool = True,
        spill_chunk: int = 1 << 20,
    ) -> "ArrayGraph":
        """Out-of-core CSR build from a stream of ``(u, v)`` array chunks.

        The two-pass spill-to-disk edge sort:

        1. each incoming chunk is validated (bounds, self-loops) and
           appended to a raw spill file while per-node degrees
           accumulate — nothing proportional to the edge count stays in
           RAM;
        2. ``indptr`` is the degree cumsum; the spill file is re-read
           chunkwise and every directed entry is scattered to its row
           via a per-chunk counting sort (stable ``argsort`` by source
           + within-run offsets), which *is* the edge sort.  Each row
           lists the edges it starts (its ``u`` entries) in stream
           order, then the edges it ends (its ``v`` entries) in stream
           order: a forward and a reverse cursor per row, the reverse
           one starting past the row's forward degree, so the CSR does
           not depend on ``spill_chunk``.

        The stream must be duplicate-free (both streaming generators
        are, by construction); ``check_duplicates`` adds one streamed
        verification pass that sorts each row and rejects parallel
        edges, matching :class:`~repro.networks.graph.Graph` semantics.
        Node labels are the identity ``0..n-1``.
        """
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        # the graph's own directory, deleted when the graph is collected
        path = tempfile.mkdtemp(
            prefix="repro-mmapgraph-",
            dir=os.environ.get("REPRO_MMAP_DIR") or tempfile.gettempdir(),
        )
        try:
            spill_path = os.path.join(path, "edges.spill")
            deg = np.zeros(n, dtype=np.int64)
            fwd_deg = np.zeros(n, dtype=np.int64)
            n_edges = 0
            # pass 1: count degrees, spill validated chunks
            with open(spill_path, "wb") as spill:
                for chunk_u, chunk_v in edge_chunks:
                    u = np.ascontiguousarray(chunk_u, dtype=np.int32)
                    v = np.ascontiguousarray(chunk_v, dtype=np.int32)
                    if u.shape != v.shape or u.ndim != 1:
                        raise ConfigurationError(
                            "edge chunks must be matching 1-D arrays"
                        )
                    if len(u) == 0:
                        continue
                    if u.min() < 0 or v.min() < 0 or \
                            u.max() >= n or v.max() >= n:
                        raise ConfigurationError(
                            f"edge endpoint out of range for n={n}"
                        )
                    if np.any(u == v):
                        bad = int(u[u == v][0])
                        raise ConfigurationError(
                            f"self-loop on node {bad!r} is not allowed"
                        )
                    fwd_chunk = np.bincount(u, minlength=n)
                    fwd_deg += fwd_chunk
                    deg += fwd_chunk
                    deg += np.bincount(v, minlength=n)
                    n_edges += len(u)
                    np.stack([u, v], axis=1).tofile(spill)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(deg, out=indptr[1:])
            mp = np.lib.format.open_memmap(
                os.path.join(path, _INDPTR_FILE), mode="w+",
                dtype=_offset_dtype(2 * n_edges), shape=(n + 1,),
            )
            mp[:] = indptr
            mp.flush()
            mi = np.lib.format.open_memmap(
                os.path.join(path, _INDICES_FILE), mode="w+",
                dtype=np.int32, shape=(2 * n_edges,),
            )
            # pass 2: counting-sort scatter of both edge directions, each
            # through its own cursor (a row's reverse entries start past
            # its forward degree)
            fwd_cursor = indptr[:-1].copy()
            rev_cursor = fwd_cursor + fwd_deg
            del deg, fwd_deg
            with open(spill_path, "rb") as spill:
                while True:
                    raw = np.fromfile(
                        spill, dtype=np.int32, count=2 * spill_chunk
                    )
                    if len(raw) == 0:
                        break
                    pairs = raw.reshape(-1, 2)
                    for src, dst, cursor in (
                        (pairs[:, 0], pairs[:, 1], fwd_cursor),
                        (pairs[:, 1], pairs[:, 0], rev_cursor),
                    ):
                        order = np.argsort(src, kind="stable")
                        src_sorted = src[order].astype(np.int64)
                        # within-run offset: position among equal sources
                        run_start = np.r_[
                            0,
                            np.flatnonzero(src_sorted[1:] != src_sorted[:-1])
                            + 1,
                        ]
                        occ = np.arange(len(src_sorted), dtype=np.int64) - \
                            np.repeat(run_start, np.diff(
                                np.r_[run_start, len(src_sorted)]
                            ))
                        mi[cursor[src_sorted] + occ] = dst[order]
                        np.add.at(
                            cursor,
                            src_sorted[run_start],
                            np.diff(np.r_[run_start, len(src_sorted)]),
                        )
            if n_edges:
                mi.flush()
            del mp, mi
            os.remove(spill_path)
        except BaseException:
            # a rejected or interrupted stream leaves no spill behind
            shutil.rmtree(path, ignore_errors=True)
            raise
        g = cls(np.load(os.path.join(path, _INDPTR_FILE), mmap_mode="r"),
                np.load(os.path.join(path, _INDICES_FILE), mmap_mode="r"))
        g.path = path
        g._finalizer = weakref.finalize(
            g, shutil.rmtree, path, ignore_errors=True
        )
        if check_duplicates:
            g._check_no_parallel_edges()
        return g

    def _check_no_parallel_edges(self, block_elems: int = 1 << 20) -> None:
        """One streamed pass rejecting duplicate (u, v) entries per row."""
        for a, b, v, counts in row_blocks(
            self.indptr, self.indices, block_elems=block_elems
        ):
            if len(v) < 2:
                continue
            u = np.repeat(np.arange(a, b), counts)
            order = np.lexsort((v, u))
            su, sv = u[order], v[order]
            dup = (su[1:] == su[:-1]) & (sv[1:] == sv[:-1])
            if np.any(dup):
                at = int(np.flatnonzero(dup)[0])
                raise ConfigurationError(
                    f"parallel edge ({int(su[at])!r}, {int(sv[at])!r}) "
                    "in edge stream"
                )

    def to_graph(self) -> Graph:
        """Materialize back into a dict-of-sets :class:`Graph`."""
        return Graph(nodes=self.labels, edges=self.edges())

    # -- queries -----------------------------------------------------------

    @property
    def labels(self):
        """Node labels in index order (a ``range`` for identity labels)."""
        return range(self.n_nodes) if self._labels is None else self._labels

    @property
    def identity_labels(self) -> bool:
        """Whether node labels are exactly ``0..n-1`` (none were given)."""
        return self._labels is None

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
        if self._index is not None:
            return node in self._index
        return (
            isinstance(node, (int, np.integer))
            and not isinstance(node, bool)
            and 0 <= int(node) < self.n_nodes
        )

    def nodes(self) -> Iterator[object]:
        """Iterate node labels in index order."""
        return iter(self.labels)

    def edges(self) -> Iterator[tuple]:
        """Iterate each undirected edge once (by ascending index pair)."""
        labels = self.labels
        for lo, hi, v, counts in row_blocks(
            self.indptr, self.indices, block_elems=1 << DEFAULT_CHUNK_BITS
        ):
            u = np.repeat(np.arange(lo, hi), counts)
            mask = u < v
            for a, b in zip(u[mask].tolist(), v[mask].tolist()):
                yield (labels[a], labels[b])

    def index_of(self, node: object) -> int:
        """CSR row index of a node label."""
        if node not in self:
            raise ConfigurationError(f"node {node!r} not in graph")
        return int(node) if self._index is None else self._index[node]

    def indices_of(self, nodes: Iterable[object]) -> np.ndarray:
        """Vector of CSR row indices for an iterable of labels.

        For identity labels an integer ndarray passes through with one
        vectorized bounds check — no per-node Python loop, the path the
        million-node attack orders take.
        """
        if self._index is None:
            if isinstance(nodes, np.ndarray) and np.issubdtype(
                nodes.dtype, np.integer
            ):
                idx = nodes.astype(np.int64, copy=False)
                bad = idx[(idx < 0) | (idx >= self.n_nodes)]
                if len(bad):
                    raise ConfigurationError(
                        f"node {int(bad[0])!r} not in graph"
                    )
                return idx
            return np.fromiter(map(self.index_of, nodes), dtype=np.int64)
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
            np.asarray(self.indices[self.indptr[i]:self.indptr[i + 1]])
            .tolist()
        )

    def has_edge(self, u: object, v: object) -> bool:
        """Whether the undirected edge {u, v} exists."""
        if u not in self or v not in self:
            return False
        i = self.index_of(u)
        row = self.indices[self.indptr[i]:self.indptr[i + 1]]
        return bool(np.any(row == self.index_of(v)))

    def check_removal_order(self, order) -> bool:
        """Whether ``order`` is a permutation of the nodes.

        :func:`~repro.networks.percolation.percolation_curve` validates
        attack outputs; on an identity-labelled million-node graph the
        generic ``set(order) == set(g.nodes())`` comparison alone costs
        hundreds of MB of boxed ints, so identity graphs get an O(n)
        array check.
        """
        n = self.n_nodes
        if len(order) != n:
            return False
        if self._index is not None:
            return set(order) == set(self._labels)
        try:
            idx = self.indices_of(
                order if isinstance(order, np.ndarray)
                else np.asarray(order, dtype=np.int64)
            )
        except (ConfigurationError, TypeError, ValueError):
            return False
        seen = np.zeros(n, dtype=bool)
        seen[idx] = True
        return bool(seen.all())

    # -- structure ---------------------------------------------------------

    def component_labels(self) -> np.ndarray:
        """Connected-component label per node: its component's smallest
        node index (the root :func:`_component_roots` finds)."""
        return _component_roots(self.indptr, self.indices)

    def connected_components(self) -> list[FrozenSet[object]]:
        """All connected components as frozensets of labels, ordered by
        their smallest node index (the object :class:`Graph`'s order)."""
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
        return int(np.bincount(self.component_labels()).max())

    # -- vectorized attack orderings --------------------------------------

    def degree_removal_order(self):
        """Labels from highest degree down, ties by ascending ``repr``.

        Bit-identical to the object path's
        ``sorted(degrees, key=lambda n: (-degrees[n], repr(n)))``.  For
        identity labels the decimal-string tie order depends only on n
        (:func:`_decimal_order`, no O(n) array of Python strings), and
        one stable sort of the degrees over it ranks the nodes; the
        result is an int64 ndarray of node ids.
        """
        deg = self.degree_array()
        if self._labels is None:
            base = _decimal_order(self.n_nodes)
            return base[_stable_descending(deg[base])]
        labels = self._labels
        reprs = np.array([repr(lab) for lab in labels])
        return [labels[int(i)] for i in np.lexsort((reprs, -deg))]

    def adaptive_degree_removal_order(self) -> list:
        """Recompute-degree removal order (max ``(degree, repr)`` each step).

        Incremental: removing a node decrements its live neighbors'
        degrees instead of rebuilding the graph, so the whole order costs
        O(n² bitmask scans + m updates) in vectorized primitives rather
        than n graph copies — still a small-graph tool.
        """
        n = self.n_nodes
        deg = self.degree_array()
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
            nbrs = np.asarray(indices[indptr[pick]:indptr[pick + 1]])
            live = nbrs[active[nbrs]]
            deg[live] -= 1
        return order


def _decimal_order(n: int) -> np.ndarray:
    """``0..n-1`` sorted like their decimal ``repr`` strings (int64).

    A number left-aligned to the D digits of ``n - 1`` sorts as its
    string does, with equal padded values (one string a prefix of the
    other, e.g. ``"12"`` vs ``"120"``) broken by digit count; the key
    ``padded · D + digits − 1`` orders both and stays below 10^11 for
    n < 2^31.  Each digit count is one ascending run of keys, so the
    stable (merging) sort does little more than merge D runs.
    """
    width = len(str(max(n - 1, 0)))
    key = np.empty(n, dtype=np.int64)
    lo = 0
    for digits in range(1, width + 1):
        hi = min(n, 10 ** digits)
        key[lo:hi] = np.arange(lo, hi, dtype=np.int64) * (
            10 ** (width - digits) * width
        ) + (digits - 1)
        lo = hi
    return np.argsort(key, kind="stable")


def _stable_descending(values: np.ndarray) -> np.ndarray:
    """Stable argsort of non-negative ints from largest to smallest; a
    range under 2^16 sorts as uint16 keys (numpy's radix sort)."""
    if values.size == 0:
        return np.empty(0, dtype=np.int64)
    top = int(values.max())
    if top < 1 << 16:
        return np.argsort((top - values).astype(np.uint16), kind="stable")
    return np.argsort(-values, kind="stable")


# -- conversion cache ------------------------------------------------------

_CSR_CACHE: "weakref.WeakKeyDictionary[Graph, tuple[int, ArrayGraph]]" = (
    weakref.WeakKeyDictionary()
)


def as_arraygraph(g: "Graph | ArrayGraph") -> ArrayGraph:
    """CSR view of ``g``, cached per :class:`Graph` mutation version.

    An :class:`ArrayGraph` (in RAM or mapped) passes through unchanged.
    Benchmarks percolate the same graph under several attacks; the cache
    makes the conversion a once-per-graph cost instead of once-per-curve.
    A graph over the ints ``0..n-1`` in insertion order (every
    generator's output) converts to an identity-labelled CSR: see
    :meth:`ArrayGraph.from_graph` for what callers then see.
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


def row_blocks(
    indptr: np.ndarray,
    indices: np.ndarray,
    rows: np.ndarray | None = None,
    block_elems: Optional[int] = None,
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Stream the CSR rows ``rows`` (every row in CSR order when None).

    Yields ``(a, b, flat, counts)`` for ``rows[a:b]``: ``flat`` is
    ``indices[indptr[r]:indptr[r+1]]`` of each row, concatenated, and
    ``counts`` the rows' degrees.  A block ends where the running
    degree total would pass ``block_elems`` (``searchsorted`` with
    ``side="right"``, so zero-degree rows join the block before them).
    It holds at least one row, so a hub larger than the block streams
    alone; ``block_elems=None`` streams one block.  Each row's offsets
    are read once.  Given ``rows``, each block is one ``np.repeat`` /
    ``arange`` gather, its index int32 whenever the CSR and the block
    fit it (the ``indptr`` rule, :func:`_offset_dtype`); with
    ``rows=None`` the bounds are ``indptr`` itself and ``flat`` is a slice of
    ``indices`` (a view: read it, do not write it), so O(block) bytes
    are in flight.  The one CSR stream under every kernel below and in
    the network engine.
    """
    if rows is None:
        starts = None
        ends = indptr[1:]
    else:
        rows = np.asarray(rows, dtype=np.int64)
        starts = indptr[rows]
        ends = np.cumsum(indptr[1:][rows] - starts, dtype=np.int64)
    a = base = 0
    while a < len(ends):
        if block_elems is None:
            b = len(ends)
        else:
            b = int(np.searchsorted(ends, base + block_elems, side="right"))
            b = max(b, a + 1)  # one oversized row: stream it alone
        top = int(ends[b - 1])
        prev = np.concatenate(([base], ends[a:b - 1]))
        counts = ends[a:b] - prev
        if starts is None:
            flat = np.asarray(indices[base:top])
        else:
            dtype = _offset_dtype(max(top - base, len(indices)))
            # a row's first entry sits at its block offset prev - base
            idx = np.repeat((starts[a:b] - (prev - base)).astype(dtype),
                            counts)
            idx += np.arange(top - base, dtype=dtype)
            flat = np.asarray(indices).take(idx)
        yield a, b, flat, counts
        a, base = b, top


def chunked_newman_ziff_giant_sizes(
    indptr: np.ndarray,
    indices: np.ndarray,
    order: np.ndarray,
    base: np.ndarray | None = None,
    block_elems: Optional[int] = None,
) -> np.ndarray:
    """Giant-component size after each node *addition* (Newman–Ziff).

    Starting from the (optional) ``base`` node set, nodes of ``order``
    are activated one at a time; activating a node unions it with its
    already-active neighbors.  Returns ``sizes`` of length
    ``len(order) + 1`` with ``sizes[k]`` = largest component after the
    first ``k`` additions (``sizes[0]`` = the base's giant).

    Because the giant component is monotone under additions, evaluating
    a removal process in reverse turns O(checkpoints · BFS) into one
    O((n + m)·α) sweep — the loop path of :func:`newman_ziff_giants_at`,
    which the array percolation and healing engines call.  Neighbor
    lists arrive via per-block CSR gathers
    (``O(block)`` boxed ints in flight) instead of one
    ``indices.tolist()`` of the whole edge array, and one numpy mask per
    block keeps only the already-active neighbors (added at an earlier
    position, read from an O(n) int32 ``pos`` array), so the Python
    union-find loop touches each edge once, from its later endpoint;
    ``net.nz_edges.array`` counts those edges.  The union order and
    size bookkeeping are the single-pass reference's, so the output is
    byte-identical to it at every block size.
    """
    if block_elems is None:
        block_elems = 1 << DEFAULT_CHUNK_BITS
    n = len(indptr) - 1
    parent = list(range(n))
    size = [1] * n
    best = 0
    seq, n_prefix, pos = _addition_positions(n, order, base)
    # giants[t] = largest component once the first t nodes of seq are in
    giants = np.empty(len(seq) + 1, dtype=np.int64)
    giants[0] = 0
    unioned = 0
    for lo, hi, flat, counts in row_blocks(indptr, indices, seq, block_elems):
        block_nodes = seq[lo:hi]
        t = np.repeat(np.arange(lo, hi, dtype=pos.dtype), counts)
        keep = pos[flat] < t
        idx = flat[keep].tolist()
        ends = np.cumsum(np.bincount(t[keep] - lo, minlength=hi - lo))
        unioned += len(idx)
        block_giants = []
        k = 0
        for node, end in zip(block_nodes.tolist(), ends.tolist()):
            a = node
            for b in idx[k:end]:
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
            k = end
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            if size[a] > best:
                best = size[a]
            block_giants.append(best)
        giants[lo + 1:hi + 1] = block_giants
    trace.current().count("net.nz_edges.array", unioned)
    return giants[n_prefix:]


def _addition_positions(
    n: int, order, base
) -> tuple[np.ndarray, int, np.ndarray]:
    """``(seq, len(base), pos)`` of a Newman–Ziff addition sequence.

    ``seq`` is ``base`` then ``order``; ``pos[v]`` is ``v``'s first
    position in it (``len(seq)`` if never added), so the node at
    position ``t`` finds exactly the neighbours with ``pos < t`` active.
    """
    additions = np.asarray(order, dtype=np.int64)
    prefix = (
        np.empty(0, dtype=np.int64) if base is None
        else np.asarray(base, dtype=np.int64)
    )
    seq = np.concatenate([prefix, additions])
    pos = np.full(n, len(seq), dtype=_offset_dtype(len(seq)))
    np.minimum.at(pos, seq, np.arange(len(seq), dtype=pos.dtype))
    return seq, len(prefix), pos


def newman_ziff_giants_at(
    indptr: np.ndarray,
    indices: np.ndarray,
    order: np.ndarray,
    stops: Sequence[int],
    base: np.ndarray | None = None,
    block_elems: Optional[int] = None,
) -> np.ndarray:
    """Giant-component size after ``k`` additions, for each ``k`` in ``stops``.

    The values of :func:`chunked_newman_ziff_giant_sizes` at ``stops``
    (any order, repeats allowed; each in ``0..len(order)``), computed
    by one of two paths chosen by the edges per stop interval:

    * at least :data:`VECTOR_EDGES_PER_STOP` undirected edges per
      distinct stop — :func:`vectorized_newman_ziff_giants_at` unions
      each interval's edges with numpy, recording the giant only at the
      stops;
    * fewer — the per-addition loop of
      :func:`chunked_newman_ziff_giant_sizes`, read at the stops, which
      is faster when there is little to vectorize per interval.

    Component sizes do not depend on union order, so both paths return
    the same sizes.
    """
    stops = np.asarray(stops, dtype=np.int64)
    if stops.size and (stops.min() < 0 or stops.max() > len(order)):
        raise ConfigurationError(
            f"stops must lie in 0..{len(order)} additions"
        )
    marks = sorted_distinct(stops)
    if len(indices) // 2 >= VECTOR_EDGES_PER_STOP * max(len(marks), 1):
        giants = vectorized_newman_ziff_giants_at(
            indptr, indices, order, marks, base, block_elems
        )
    else:
        giants = chunked_newman_ziff_giant_sizes(
            indptr, indices, order, base, block_elems
        )[marks]
    return giants[np.searchsorted(marks, stops)]


def vectorized_newman_ziff_giants_at(
    indptr: np.ndarray,
    indices: np.ndarray,
    order: np.ndarray,
    marks: np.ndarray,
    base: np.ndarray | None = None,
    block_elems: Optional[int] = None,
) -> np.ndarray:
    """Giant size after ``k`` additions for each ``k`` of the sorted,
    distinct ``marks``, by a vectorized union-find per stop interval.

    The additions stream in the loop's blocks (:func:`row_blocks` over
    the addition sequence, the same ``pos`` mask, so
    ``net.nz_edges.array`` counts the same kept edges).  The
    kept edges up to each mark are unioned at once on an int32
    ``parent`` array: endpoints find their roots by pointer jumping,
    the larger root of each edge hooks to the smaller one, and the
    touched roots jump until each points at a root again; this repeats
    until no edge joins two roots.  Hooked roots then pass their
    size on to their final root (``np.add.at``) and the running giant is
    read off the touched roots.  Nothing is boxed into Python objects.
    """
    if block_elems is None:
        block_elems = 1 << DEFAULT_CHUNK_BITS
    n = len(indptr) - 1
    seq, n_prefix, pos = _addition_positions(n, order, base)
    ends = np.asarray(marks, dtype=np.int64) + n_prefix
    giants = np.zeros(len(ends), dtype=np.int64)
    parent = np.arange(n, dtype=np.int32)
    size = np.ones(n, dtype=np.int32)
    # slot[v] = the index v last took in a dedupe (O(k), no sort)
    slot = np.empty(n, dtype=np.int32)
    seq32 = seq.astype(np.int32)
    best = 0
    unioned = 0
    k = int(np.searchsorted(ends, 0, side="right"))  # ends of 0 stay 0
    last = int(ends[-1]) if len(ends) else 0
    for lo, hi, flat, counts in row_blocks(
        indptr, indices, seq[:last], block_elems
    ):
        t = np.repeat(np.arange(lo, hi, dtype=pos.dtype), counts)
        keep = pos[flat] < t
        t = t[keep]
        u = seq32[t]
        v = flat[keep]
        unioned += len(v)
        j = int(np.searchsorted(ends, hi, side="right"))
        # t ascends, so each mark in (lo, hi] cuts the block's edges once
        cuts = np.searchsorted(t, ends[k:j]).tolist()
        start = 0
        for cut in cuts:
            best = max(best, _union_edges(
                parent, size, slot, u[start:cut], v[start:cut]
            ))
            giants[k] = max(best, 1)
            start = cut
            k += 1
        best = max(best, _union_edges(
            parent, size, slot, u[start:], v[start:]
        ))
    trace.current().count("net.nz_edges.array", unioned)
    return giants


def _find_roots(parent: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Roots of the nodes ``x`` by pointer jumping; ``x`` are then
    pointed straight at their roots."""
    r = parent[x]
    while True:
        up = parent[r]
        if np.array_equal(up, r):
            break
        r = up
    parent[x] = r
    return r


def _union_edges(
    parent: np.ndarray, size: np.ndarray, slot: np.ndarray,
    u: np.ndarray, v: np.ndarray,
) -> int:
    """Union the edges ``(u, v)`` into the forest, where each ``u`` is a
    root (Newman–Ziff passes nodes added with these edges); the largest
    size of a component they touched (0 for no edges)."""
    if not len(u):
        return 0
    rv = _find_roots(parent, v)
    # the distinct roots touched, deduped through slot[] in O(k)
    touched = np.concatenate([u, rv])
    at = np.arange(len(touched), dtype=np.int32)
    slot[touched] = at
    roots = touched[slot[touched] == at]
    lo, hi = np.minimum(u, rv), np.maximum(u, rv)
    while True:
        # hooks run from a larger root to a smaller one, so no cycle
        # forms; jump until every touched root points at a root
        parent[hi] = lo
        while True:
            up = parent[roots]
            top = parent[up]
            if np.array_equal(up, top):
                break
            parent[roots] = top
        lo, hi = parent[lo], parent[hi]
        apart = lo != hi
        if not apart.any():
            break
        lo, hi = lo[apart], hi[apart]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    final = parent[roots]
    hooked = final != roots
    np.add.at(size, final[hooked], size[roots[hooked]])
    return int(size[final].max())


def _component_roots(
    indptr: np.ndarray,
    indices: np.ndarray,
    block_elems: Optional[int] = None,
) -> np.ndarray:
    """Component root per node (int64): each undirected edge (``u < v``)
    streams once in blocks into the :func:`_union_edges` forest, with
    each ``u`` first replaced by its root.  Every hook and jump points a
    node at a smaller index, so each root is its component's smallest
    node index, at any block size."""
    if block_elems is None:
        block_elems = 1 << DEFAULT_CHUNK_BITS
    n = len(indptr) - 1
    parent = np.arange(n, dtype=np.int32)
    size = np.ones(n, dtype=np.int32)
    slot = np.empty(n, dtype=np.int32)
    for a, b, v, counts in row_blocks(indptr, indices, None, block_elems):
        u = np.repeat(np.arange(a, b, dtype=np.int32), counts)
        keep = u < v
        _union_edges(
            parent, size, slot, _find_roots(parent, u[keep]), v[keep]
        )
    return _find_roots(parent, np.arange(n)).astype(np.int64)


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
