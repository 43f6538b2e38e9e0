"""Single-pass reference kernels the block-streamed ones are pinned to.

:func:`~repro.networks.arraygraph.chunked_newman_ziff_giant_sizes` and
:func:`~repro.networks.arraygraph.chunked_union_find_labels` must match
these byte for byte at every block size: same union order, same size
bookkeeping, same roots.  They box the whole edge array at once, so they
are test oracles only.
"""

from __future__ import annotations

import numpy as np


def undirected_edges(
    indptr: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each undirected edge once as (u, v) index arrays with u < v, in
    flat CSR order (the sequence the chunked union-find streams)."""
    rows = np.repeat(
        np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr)
    )
    cols = np.asarray(indices).astype(np.int64)
    mask = rows < cols
    return rows[mask], cols[mask]


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
