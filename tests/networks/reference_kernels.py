"""Reference kernels the fast array kernels are pinned to.

:func:`~repro.networks.arraygraph.chunked_newman_ziff_giant_sizes` must
match these byte for byte at every block size: same union order, same
size bookkeeping.  The array graph's component union-find must give
:func:`union_find_labels`' partition, each component named by its
smallest node index.  They box the whole edge array at once, so they
are test oracles only.

:func:`reference_sir` is the SIR loop the array engine ran before it
drew each step's infections ahead of its row gathers, and
:func:`lexsort_degree_order` the three-key sort its identity-labelled
degree order replaced.
"""

from __future__ import annotations

import numpy as np

from repro.networks.arraygraph import (
    bernoulli_indices,
    frontier_slices,
    gather_rows,
    sorted_distinct,
)


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


def _leave_by_bincount(cg, live, rows, block) -> None:
    """Take distinct ``rows`` out of the susceptible-neighbour counts."""
    for a, b in frontier_slices(cg.indptr, rows, block):
        flat, _ = gather_rows(cg.indptr, cg.indices, rows[a:b])
        np.subtract(live, np.bincount(flat, minlength=len(live)), out=live)


def reference_sir(engine, cg, beta, gamma, immune_mask, infected_mask,
                  max_steps, rng):
    """SIR as ``engine`` ran it before drawing ahead of its gathers.

    Every step scans the n-node masks: ``flatnonzero`` for the infected,
    the two-pass ``engine._frontier_hits`` over each infected row that
    still has a susceptible neighbour, a ``bincount`` upkeep of those
    counts and a mask ``sum`` for the count.  Returns ``(counts,
    final infected indices, ever infected)``.
    """
    block = engine._block()
    infected_mask = infected_mask.copy()
    ever = infected_mask.copy()
    counts = [int(infected_mask.sum())]
    susceptible = ~(infected_mask | immune_mask)
    live = np.diff(cg.indptr).astype(cg.indices.dtype)
    _leave_by_bincount(
        cg, live, np.flatnonzero(infected_mask | immune_mask), block
    )
    for _ in range(max_steps):
        infected_idx = np.flatnonzero(infected_mask)
        if infected_idx.size == 0:
            break
        rows = infected_idx[live[infected_idx] > 0]
        new = engine._frontier_hits(
            cg, rows, lambda flat: susceptible[flat], beta, rng, block
        )
        recs = bernoulli_indices(rng, infected_idx.size, gamma)
        infected_mask[infected_idx[recs]] = False
        _leave_by_bincount(cg, live, sorted_distinct(new), block)
        infected_mask[new] = True
        susceptible[new] = False
        ever[new] = True
        counts.append(int(infected_mask.sum()))
    return counts, np.flatnonzero(infected_mask), int(ever.sum())


def decimal_sort_keys(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys ordering ``0..n-1`` like their decimal ``repr`` strings:
    ``x / 10^digits(x)``, ties (one string a prefix of the other) by
    digit count."""
    x = np.arange(n, dtype=np.int64)
    digits = np.ones(n, dtype=np.int64)
    bound = 10
    while bound <= max(n - 1, 1):
        digits[x >= bound] += 1
        bound *= 10
    return x / np.power(10.0, digits), digits


def lexsort_degree_order(degrees: np.ndarray) -> np.ndarray:
    """Node ids by descending degree, ties by ascending ``repr``, as
    one three-key ``np.lexsort``."""
    frac, digits = decimal_sort_keys(len(degrees))
    return np.lexsort((digits, frac, -np.asarray(degrees))).astype(np.int64)
