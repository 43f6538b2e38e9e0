"""Out-of-core CSR graphs: memory-mapped adjacency + chunked kernels.

The single-pass :func:`~repro.networks.arraygraph.newman_ziff_giant_sizes`
calls ``indices.tolist()``, boxing every directed edge into a Python int
(~45 bytes each), so kernels built on it top out around 10^5 nodes.
This module is the network analogue of :mod:`repro.csp.tiledengine`:
the kernels stream the structure through fixed-budget blocks instead,
and the CSR itself may live on disk.

* :class:`MmapGraph` — a CSR graph whose ``indptr``/``indices`` live in
  memory-mapped ``.npy`` files.  Built once (either by copying an
  in-RAM CSR with :meth:`MmapGraph.from_arrays` or by the two-pass
  spill-to-disk edge sort of :meth:`MmapGraph.from_edge_chunks`),
  reopened read-only by forked workers via :meth:`MmapGraph.open`.
  Node labels default to the identity ``0..n-1`` so no O(n)
  label/index side tables are materialized.
* **chunked kernels** — :func:`chunked_newman_ziff_giant_sizes`,
  :func:`chunked_union_find_labels` and :func:`frontier_slices` walk
  ``indices`` in fixed-size blocks (:func:`derive_chunk_elems` turns
  the supervisor's ``memory_budget_mb`` into a block size, mirroring
  :func:`repro.csp.tiledengine.derive_block_bits`), so only
  O(block + n) bytes are ever boxed into Python objects regardless of
  edge count.  They take any CSR arrays, in RAM or mapped: the network
  engine (:class:`repro.networks.engine.ArrayNetworkEngine`) runs them
  on an :class:`~repro.networks.arraygraph.ArrayGraph` and an
  :class:`MmapGraph` alike.  Outputs are byte-identical to the
  single-pass reference kernels — same union order, same size
  bookkeeping — pinned by ``tests/networks/test_mmapgraph.py``.

Engine selection lives in :mod:`repro.networks.engine`
(``REPRO_NETWORK_ENGINE=object|array|mmap``; ``array`` and ``mmap``
name the same engine).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import weakref
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from . import arraygraph
from .arraygraph import directed_edge_blocks
from .graph import Graph

__all__ = [
    "CHUNK_ELEM_BYTES",
    "DEFAULT_CHUNK_BITS",
    "MAX_CHUNK_BITS",
    "MIN_CHUNK_BITS",
    "MmapGraph",
    "chunked_newman_ziff_giant_sizes",
    "chunked_union_find_labels",
    "derive_chunk_elems",
    "frontier_slices",
]

#: block size used when no memory budget is installed (2^18 = 256K
#: gathered neighbor slots ≈ 8 MiB in flight with temporaries)
DEFAULT_CHUNK_BITS = 18
#: smallest scheduled block — below 2^12 the per-block Python overhead
#: dominates the vectorized gathers
MIN_CHUNK_BITS = 12
#: largest scheduled block (2^20 slots) — past this the block's own
#: in-flight footprint (~128 MiB at 2^20, see ``CHUNK_ELEM_BYTES``)
#: approaches the budget the chunking exists to respect, and measured
#: wall time stops improving (the per-element Python union-find loop
#: dominates, not the per-block gather overhead)
MAX_CHUNK_BITS = 20

#: per-slot bytes in flight while one block streams, measured on the
#: Newman–Ziff kernel at n = 10^6: the int64 gathered neighbor array
#: (8), its int64 flat-index temporary (8), and — dominating — the
#: boxed Python ints of the block's ``tolist`` (~28 each plus the list
#: pointer: node ids exceed the small-int cache, so every slot boxes)
CHUNK_ELEM_BYTES = 128


def derive_chunk_elems(
    memory_budget_bytes: Optional[int] = None, workers: int = 1
) -> int:
    """Gathered-slots-per-block whose in-flight footprint fits the budget.

    The network mirror of :func:`repro.csp.tiledengine.derive_block_bits`:
    the supervisor's ``memory_budget_mb`` becomes block *scheduling*
    instead of an OOM — one streamed block costs
    ``2^b · CHUNK_ELEM_BYTES`` bytes, ``workers`` blocks may be in
    flight at once, and the largest ``b`` in
    ``[MIN_CHUNK_BITS, MAX_CHUNK_BITS]`` keeping that under budget is
    picked.  An impossible budget degrades to more, smaller blocks —
    never a refusal.  (O(n) per-node state — union-find forests,
    frontier masks — rides outside this accounting, like the tiled CSP
    engine's fit sets.)
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if memory_budget_bytes is None:
        return 1 << DEFAULT_CHUNK_BITS
    bits = MIN_CHUNK_BITS
    while (
        bits < MAX_CHUNK_BITS
        and (1 << (bits + 1)) * CHUNK_ELEM_BYTES * workers
        <= memory_budget_bytes
    ):
        bits += 1
    return 1 << bits


# -- the memory-mapped graph ------------------------------------------------

_INDPTR_FILE = "indptr.npy"
_INDICES_FILE = "indices.npy"
_META_FILE = "meta.json"


def _spill_root() -> str:
    """Directory new spill graphs are created under (REPRO_MMAP_DIR)."""
    return os.environ.get("REPRO_MMAP_DIR") or tempfile.gettempdir()


class MmapGraph:
    """An immutable undirected CSR graph backed by memory-mapped files.

    Same row layout as :class:`~repro.networks.arraygraph.ArrayGraph`
    (``indices[indptr[i]:indptr[i+1]]`` = neighbors of node ``i``), but
    the arrays are ``np.memmap`` views of ``.npy`` files, so opening a
    multi-million-node graph costs two page-table mappings, not its
    edge count — and forked workers reopen the same files read-only
    instead of pickling adjacency.  Labels default to the identity
    ``0..n-1`` (no O(n) side tables); graphs converted from a labelled
    :class:`~repro.networks.graph.Graph` keep their label vocabulary in
    RAM for API parity.
    """

    __slots__ = (
        "indptr", "indices", "path", "_labels", "_index", "_degrees",
        "_finalizer", "__weakref__",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: Sequence[object] | None = None,
        path: str | None = None,
        _owns_path: bool = False,
    ):
        n = len(indptr) - 1
        if n < 0 or indptr[0] != 0 or (
            len(indices) and indptr[-1] != len(indices)
        ):
            raise ConfigurationError("malformed CSR arrays")
        self.indptr = indptr
        self.indices = indices
        self.path = path
        self._labels = None if labels is None else list(labels)
        self._degrees: Optional[np.ndarray] = None
        if self._labels is not None:
            if len(self._labels) != n:
                raise ConfigurationError(
                    f"{len(self._labels)} labels for {n} CSR rows"
                )
            self._index: Optional[Dict[object, int]] = {
                lab: i for i, lab in enumerate(self._labels)
            }
            if len(self._index) != n:
                raise ConfigurationError("node labels must be unique")
        else:
            self._index = None
        self._finalizer = (
            weakref.finalize(self, shutil.rmtree, path, ignore_errors=True)
            if _owns_path and path is not None
            else None
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: Sequence[object] | None = None,
        path: str | None = None,
    ) -> "MmapGraph":
        """Spill an in-RAM CSR to memory-mapped files, preserving layout.

        Intra-row neighbor order is copied verbatim, so every chunked
        kernel sees exactly the byte sequence the array kernels would —
        the equivalence contract rests on this.
        """
        owns = path is None
        if owns:
            path = tempfile.mkdtemp(prefix="repro-mmapgraph-",
                                    dir=_spill_root())
        os.makedirs(path, exist_ok=True)
        offset_dtype = (
            np.int64
            if len(indices) > arraygraph.INT32_INDPTR_CAPACITY
            else np.int32
        )
        mp = np.lib.format.open_memmap(
            os.path.join(path, _INDPTR_FILE), mode="w+",
            dtype=offset_dtype, shape=(len(indptr),),
        )
        mp[:] = indptr
        mp.flush()
        mi = np.lib.format.open_memmap(
            os.path.join(path, _INDICES_FILE), mode="w+",
            dtype=np.int32, shape=(len(indices),),
        )
        if len(indices):
            mi[:] = indices
            mi.flush()
        cls._write_meta(path, len(indptr) - 1, labels is None)
        g = cls(
            np.load(os.path.join(path, _INDPTR_FILE), mmap_mode="r"),
            np.load(os.path.join(path, _INDICES_FILE), mmap_mode="r"),
            labels=labels, path=path, _owns_path=owns,
        )
        del mp, mi
        return g

    @classmethod
    def from_edge_chunks(
        cls,
        n: int,
        edge_chunks: Iterable[tuple],
        path: str | None = None,
        *,
        check_duplicates: bool = True,
        spill_chunk: int = 1 << 20,
    ) -> "MmapGraph":
        """Out-of-core CSR build from a stream of ``(u, v)`` array chunks.

        The two-pass spill-to-disk edge sort:

        1. each incoming chunk is validated (bounds, self-loops) and
           appended to a raw spill file while per-node degrees
           accumulate — nothing proportional to the edge count stays in
           RAM;
        2. ``indptr`` is the degree cumsum; the spill file is re-read
           chunkwise and every directed edge is scattered to its row
           via a per-chunk counting sort (stable ``argsort`` by source
           + within-run offsets), which *is* the edge sort — rows come
           out grouped, in stream order within each row.

        The stream must be duplicate-free (both streaming generators
        are, by construction); ``check_duplicates`` adds one streamed
        verification pass that sorts each row and rejects parallel
        edges, matching :class:`~repro.networks.graph.Graph` semantics.
        Node labels are the identity ``0..n-1``.
        """
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        owns = path is None
        if owns:
            path = tempfile.mkdtemp(prefix="repro-mmapgraph-",
                                    dir=_spill_root())
        os.makedirs(path, exist_ok=True)
        spill_path = os.path.join(path, "edges.spill")
        deg = np.zeros(n, dtype=np.int64)
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
                deg_chunk = np.bincount(u, minlength=n)
                deg_chunk += np.bincount(v, minlength=n)
                deg += deg_chunk
                n_edges += len(u)
                np.stack([u, v], axis=1).tofile(spill)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        offset_dtype = (
            np.int64
            if 2 * n_edges > arraygraph.INT32_INDPTR_CAPACITY
            else np.int32
        )
        mp = np.lib.format.open_memmap(
            os.path.join(path, _INDPTR_FILE), mode="w+",
            dtype=offset_dtype, shape=(n + 1,),
        )
        mp[:] = indptr
        mp.flush()
        mi = np.lib.format.open_memmap(
            os.path.join(path, _INDICES_FILE), mode="w+",
            dtype=np.int32, shape=(2 * n_edges,),
        )
        # pass 2: counting-sort scatter of both edge directions
        cursor = indptr[:-1].copy()
        with open(spill_path, "rb") as spill:
            while True:
                raw = np.fromfile(
                    spill, dtype=np.int32, count=2 * spill_chunk
                )
                if len(raw) == 0:
                    break
                pairs = raw.reshape(-1, 2)
                for src, dst in ((pairs[:, 0], pairs[:, 1]),
                                 (pairs[:, 1], pairs[:, 0])):
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
        os.remove(spill_path)
        cls._write_meta(path, n, True)
        g = cls(
            np.load(os.path.join(path, _INDPTR_FILE), mmap_mode="r"),
            np.load(os.path.join(path, _INDICES_FILE), mmap_mode="r"),
            labels=None, path=path, _owns_path=owns,
        )
        del mp, mi
        if check_duplicates:
            g._check_no_parallel_edges()
        return g

    @classmethod
    def open(cls, path: str) -> "MmapGraph":
        """Reopen a built graph read-only (e.g. from a forked worker).

        Only identity-labelled graphs round-trip through the on-disk
        format; label vocabularies live in the building process.
        """
        meta_path = os.path.join(path, _META_FILE)
        if not os.path.exists(meta_path):
            raise ConfigurationError(f"no mmap graph at {path!r}")
        with open(meta_path) as fh:
            meta = json.load(fh)
        if not meta.get("identity_labels", True):
            raise ConfigurationError(
                "only identity-labelled mmap graphs can be reopened"
            )
        return cls(
            np.load(os.path.join(path, _INDPTR_FILE), mmap_mode="r"),
            np.load(os.path.join(path, _INDICES_FILE), mmap_mode="r"),
            labels=None, path=path,
        )

    @staticmethod
    def _write_meta(path: str, n: int, identity_labels: bool) -> None:
        with open(os.path.join(path, _META_FILE), "w") as fh:
            json.dump(
                {"format": 1, "n_nodes": n,
                 "identity_labels": identity_labels},
                fh,
            )

    def _check_no_parallel_edges(self, block_elems: int = 1 << 20) -> None:
        """One streamed pass rejecting duplicate (u, v) entries per row."""
        for u, v in directed_edge_blocks(
            self.indptr, self.indices, block_elems, aligned=True
        ):
            if len(u) < 2:
                continue
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
        labels = self.labels
        g = Graph(nodes=labels)
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
    def labels(self):
        """Node labels (a ``range`` for identity-labelled graphs)."""
        return (
            range(self.n_nodes) if self._labels is None else self._labels
        )

    @property
    def identity_labels(self) -> bool:
        """Whether node labels are exactly ``0..n-1``."""
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
        for u, v in directed_edge_blocks(
            self.indptr, self.indices, 1 << DEFAULT_CHUNK_BITS
        ):
            mask = u < v
            for a, b in zip(u[mask].tolist(), v[mask].tolist()):
                yield (labels[a], labels[b])

    def index_of(self, node: object) -> int:
        """CSR row index of a node label."""
        if self._index is not None:
            try:
                return self._index[node]
            except KeyError:
                raise ConfigurationError(
                    f"node {node!r} not in graph"
                ) from None
        if node not in self:
            raise ConfigurationError(f"node {node!r} not in graph")
        return int(node)

    def indices_of(self, nodes: Iterable[object]) -> np.ndarray:
        """Vector of CSR row indices for an iterable of labels.

        For identity-labelled graphs an integer ndarray passes through
        with one vectorized bounds check — no per-node Python loop, the
        path the million-node attack orders take.
        """
        if self._index is None:
            if isinstance(nodes, np.ndarray) and np.issubdtype(
                nodes.dtype, np.integer
            ):
                idx = nodes.astype(np.int64, copy=False)
                if len(idx) and (
                    idx.min() < 0 or idx.max() >= self.n_nodes
                ):
                    bad = idx[(idx < 0) | (idx >= self.n_nodes)][0]
                    raise ConfigurationError(
                        f"node {int(bad)!r} not in graph"
                    )
                return idx
            return np.fromiter(
                (self.index_of(nd) for nd in nodes), dtype=np.int64
            )
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
        """Degrees as an int64 vector aligned with node indices (cached)."""
        if self._degrees is None:
            self._degrees = np.diff(self.indptr).astype(np.int64)
        return self._degrees

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
            np.asarray(
                self.indices[self.indptr[i]:self.indptr[i + 1]]
            ).tolist()
        )

    def has_edge(self, u: object, v: object) -> bool:
        """Whether the undirected edge {u, v} exists."""
        if u not in self or v not in self:
            return False
        i = self.index_of(u)
        row = np.asarray(self.indices[self.indptr[i]:self.indptr[i + 1]])
        return bool(np.any(row == self.index_of(v)))

    def check_removal_order(self, order) -> bool:
        """Whether ``order`` is a permutation of the nodes (vectorized).

        :func:`~repro.networks.percolation.percolation_curve` validates
        attack outputs; on an identity-labelled million-node graph the
        generic ``set(order) == set(g.nodes())`` comparison alone costs
        hundreds of MB of boxed ints, so this is the O(n) array check.
        """
        n = self.n_nodes
        if len(order) != n:
            return False
        if self._index is None:
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
        return set(order) == set(self.labels)

    # -- structure ---------------------------------------------------------

    def component_labels(self) -> np.ndarray:
        """Connected-component root per node (chunked union-find)."""
        return chunked_union_find_labels(self.indptr, self.indices)

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

    # -- attack orderings --------------------------------------------------

    def degree_removal_order(self):
        """Labels from highest degree down, ties by ascending ``repr``.

        Matches :meth:`ArrayGraph.degree_removal_order` bit-for-bit.
        For identity labels the decimal-string tie order is computed
        *numerically* — ``repr(i)`` of a non-negative int sorts like
        ``(i / 10^digits, digits)`` — so no O(n) array of Python
        strings is built; the result is an int64 ndarray of node ids.
        """
        deg = self.degree_array()
        if self._labels is not None:
            reprs = np.array([repr(lab) for lab in self._labels])
            order = np.lexsort((reprs, -deg))
            labels = self._labels
            return [labels[int(i)] for i in order]
        frac, digits = _decimal_sort_keys(self.n_nodes)
        order = np.lexsort((digits, frac, -deg))
        return order.astype(np.int64)

    def adaptive_degree_removal_order(self):
        """Recompute-degree removal order (max ``(degree, repr)`` per step).

        Same incremental algorithm as the array graph; inherently
        O(n²) scans, so it is a small-graph tool even here.
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
            nbrs = np.asarray(indices[indptr[pick]:indptr[pick + 1]])
            live = nbrs[active[nbrs]]
            deg[live] -= 1
        return order


def _decimal_sort_keys(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys ordering ``0..n-1`` like their decimal ``repr`` strings.

    ``repr(x)`` for non-negative ints sorts lexicographically exactly as
    ``x / 10^digits(x)`` sorts numerically, with equal keys (one string
    a prefix of the other, e.g. ``"123"`` vs ``"1230"``) broken by
    digit count.  Differences between distinct keys are ≥ 10^-10 for
    n < 2^31, far above float64 rounding, so the order is exact.
    """
    x = np.arange(n, dtype=np.int64)
    digits = np.ones(n, dtype=np.int64)
    bound = 10
    while bound <= max(n - 1, 1):
        digits[x >= bound] += 1
        bound *= 10
    frac = x / np.power(10.0, digits)
    return frac, digits


# -- chunked kernels -------------------------------------------------------


def frontier_slices(
    indptr: np.ndarray, rows: np.ndarray, block_elems: int
) -> Iterator[tuple[int, int]]:
    """Split ``rows`` into slices whose total degree fits one block.

    Yields ``(a, b)`` bounds over ``rows`` such that the gathered
    neighbors of ``rows[a:b]`` hold at most ``block_elems`` entries
    (always at least one row, so a single hub larger than the block
    still streams).  The scheduling primitive under every chunked
    frontier kernel.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) == 0:
        return
    deg = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    cum = np.cumsum(deg)
    a = 0
    base = 0
    while a < len(rows):
        b = int(np.searchsorted(cum, base + block_elems, side="right"))
        if b <= a:
            b = a + 1  # one oversized row: stream it alone
        yield a, b
        base = int(cum[b - 1])
        a = b


def chunked_newman_ziff_giant_sizes(
    indptr: np.ndarray,
    indices: np.ndarray,
    order: np.ndarray,
    base: np.ndarray | None = None,
    block_elems: Optional[int] = None,
) -> np.ndarray:
    """Block-streamed :func:`~repro.networks.arraygraph.newman_ziff_giant_sizes`.

    Byte-identical output: the same additions run through the same
    union-find in the same order — only the neighbor lists arrive via
    per-block CSR gathers (``O(block)`` boxed ints in flight) instead
    of one ``indices.tolist()`` of the whole edge array.
    """
    if block_elems is None:
        block_elems = 1 << DEFAULT_CHUNK_BITS
    n = len(indptr) - 1
    parent = list(range(n))
    size = [1] * n
    active = bytearray(n)
    best = 0

    additions = np.asarray(order, dtype=np.int64)
    prefix = (
        np.empty(0, dtype=np.int64) if base is None
        else np.asarray(base, dtype=np.int64)
    )
    n_prefix = len(prefix)
    seq = np.concatenate([prefix, additions])
    sizes = np.empty(len(additions) + 1, dtype=np.int64)
    sizes[0] = 0  # overwritten below unless the base is empty
    i = 0
    for lo, hi in frontier_slices(indptr, seq, block_elems):
        block_nodes = seq[lo:hi]
        flat, counts = arraygraph.gather_rows(indptr, indices, block_nodes)
        idx = flat.tolist()
        counts_list = counts.tolist()
        nodes_list = block_nodes.tolist()
        k = 0
        for local, node in enumerate(nodes_list):
            active[node] = 1
            a = node
            for _ in range(counts_list[local]):
                b = idx[k]
                k += 1
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
            i += 1
    if len(seq) == 0 or (n_prefix and len(additions) == 0):
        sizes[0] = best
    return sizes


def chunked_union_find_labels(
    indptr: np.ndarray,
    indices: np.ndarray,
    block_elems: Optional[int] = None,
) -> np.ndarray:
    """Component roots via union-find over block-streamed CSR edges.

    Streams each undirected edge once (``u < v``) in flat CSR order —
    the same edge sequence :meth:`ArrayGraph.edge_arrays` yields — so
    the parent forest, and therefore the returned root labels, are
    byte-identical to :func:`~repro.networks.arraygraph.
    union_find_labels` without ever materializing the full edge list.
    """
    if block_elems is None:
        block_elems = 1 << DEFAULT_CHUNK_BITS
    n = len(indptr) - 1
    parent = list(range(n))
    size = [1] * n
    for u_blk, v_blk in directed_edge_blocks(indptr, indices, block_elems):
        mask = u_blk < v_blk
        for a, b in zip(u_blk[mask].tolist(), v_blk[mask].tolist()):
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
