"""Random-graph generators: scale-free vs. homogeneous ensembles.

Barabási's robust-yet-fragile result (paper §5.1) compares scale-free
networks (preferential attachment) against homogeneous random graphs.
All generators are written from scratch over :class:`repro.networks.Graph`
and cross-validated against networkx in the test suite.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng
from .graph import Graph

__all__ = [
    "erdos_renyi",
    "erdos_renyi_stream",
    "barabasi_albert",
    "barabasi_albert_stream",
    "watts_strogatz",
    "configuration_star",
    "degree_histogram",
]

#: pair count above which ``erdos_renyi_stream(method="auto")`` switches
#: from the exact one-draw-per-pair stream to geometric gap-jumping
#: (2^26 pairs ≈ 0.5 GB of uniforms — the last size where "exact" is
#: cheaper than the graph it generates)
ER_EXACT_MAX_PAIRS = 1 << 26


def erdos_renyi(n: int, p: float, seed: SeedLike = None) -> Graph:
    """G(n, p): each of the n(n−1)/2 possible edges appears with prob. p."""
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must be in [0, 1], got {p}")
    rng = make_rng(seed)
    g = Graph(nodes=range(n))
    if n < 2 or p == 0.0:
        return g
    # vectorized upper-triangle sampling: one uniform draw per pair (the
    # same stream as enumerating triu_indices), then only the hits are
    # decoded from linear index to (i, j) — row-major over the triangle,
    # so the edge set is identical to the per-pair loop this replaces
    n_pairs = n * (n - 1) // 2
    hits = np.flatnonzero(rng.random(n_pairs) < p)
    if hits.size:
        lengths = np.arange(n - 1, 0, -1, dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        i = np.searchsorted(starts, hits, side="right") - 1
        j = i + 1 + (hits - starts[i])
        g.add_edges_from(zip(i.tolist(), j.tolist()))
    return g


def erdos_renyi_stream(
    n: int,
    p: float,
    seed: SeedLike = None,
    chunk_pairs: int = 1 << 20,
    method: str = "auto",
):
    """G(n, p) as a stream of ``(u, v)`` int32 edge-array chunks.

    No :class:`Graph`, no full edge list — chunks feed straight into
    :meth:`repro.networks.arraygraph.ArrayGraph.from_edge_chunks`.  Edges
    are emitted in ascending linear pair index with ``u < v``, so the
    stream is self-loop- and duplicate-free by construction.

    ``method="exact"`` draws one uniform per pair in windows — since
    ``Generator.random`` consumes its bit stream call-by-call, the
    chunked draws reproduce :func:`erdos_renyi`'s single
    ``rng.random(n_pairs)`` exactly, giving the *identical edge set*
    for the same seed (pinned in the test suite).  ``method="gap"``
    samples the geometric gaps between hits (the
    :func:`~repro.networks.arraygraph.bernoulli_indices` trick), doing
    O(p·n²) work instead of O(n²) — the only viable path at 10^6+
    nodes; same ensemble, different draw stream.  ``"auto"`` picks
    ``exact`` up to :data:`ER_EXACT_MAX_PAIRS` pairs, ``gap`` beyond.
    """
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must be in [0, 1], got {p}")
    if chunk_pairs < 1:
        raise ConfigurationError(
            f"chunk_pairs must be >= 1, got {chunk_pairs}"
        )
    if method not in ("auto", "exact", "gap"):
        raise ConfigurationError(
            f"method must be 'auto', 'exact' or 'gap', got {method!r}"
        )
    if n < 2 or p == 0.0:
        return
    rng = make_rng(seed)
    n_pairs = n * (n - 1) // 2
    if method == "auto":
        method = "exact" if n_pairs <= ER_EXACT_MAX_PAIRS else "gap"
    # linear pair index -> (i, j) decode table: row i spans
    # starts[i] .. starts[i] + (n - 1 - i)
    lengths = np.arange(n - 1, 0, -1, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))

    def decode(hits: np.ndarray):
        i = np.searchsorted(starts, hits, side="right") - 1
        j = i + 1 + (hits - starts[i])
        return i.astype(np.int32), j.astype(np.int32)

    if method == "exact":
        for lo in range(0, n_pairs, chunk_pairs):
            width = min(chunk_pairs, n_pairs - lo)
            hits = np.flatnonzero(rng.random(width) < p) + lo
            if hits.size:
                yield decode(hits)
        return
    if p >= 1.0:
        for lo in range(0, n_pairs, chunk_pairs):
            width = min(chunk_pairs, n_pairs - lo)
            yield decode(np.arange(lo, lo + width, dtype=np.int64))
        return
    pos = -1
    need = max(1024, int(chunk_pairs * p) + 16)
    while True:
        gaps = rng.geometric(p, size=need)
        hits = np.cumsum(gaps) + pos
        if len(hits) == 0 or hits[-1] >= n_pairs:
            hits = hits[hits < n_pairs]
            if hits.size:
                yield decode(hits)
            return
        yield decode(hits)
        pos = int(hits[-1])


def _ba_edges(n: int, m: int, rng):
    """BA edges in chronological order (shared draw/emit core).

    The preferential-attachment multiset lives in a preallocated int32
    array instead of a Python list — the list version boxed ~2·n·m ints
    (~45 bytes each), dominating the generator's footprint.  Draw
    sequence (``rng.integers`` bounds, target-set insertion order) is
    identical to the historical list implementation, so adjacency is
    pinned byte-for-byte.
    """
    # seed clique of m+1 nodes so every early node has degree >= m
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            yield u, v
    # final multiset length: m entries per seed node, then m targets +
    # m self-copies per attached node
    total = (m + 1) * m + 2 * m * (n - m - 1)
    rep = np.empty(total, dtype=np.int32)
    fill = 0
    for u in range(m + 1):
        rep[fill:fill + m] = u
        fill += m
    for new in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            pick = int(rep[rng.integers(fill)])
            targets.add(pick)
        for t in targets:
            yield new, t
            rep[fill] = t
            fill += 1
        rep[fill:fill + m] = new
        fill += m


def barabasi_albert(n: int, m: int, seed: SeedLike = None) -> Graph:
    """BA preferential attachment: each new node links to ``m`` existing
    nodes chosen proportionally to their degree.

    Produces the scale-free degree distribution (P(k) ~ k^-3) whose hubs
    make the network robust to random failure but fragile to targeted
    attack.
    """
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    if n < m + 1:
        raise ConfigurationError(f"n must be >= m+1 = {m + 1}, got {n}")
    rng = make_rng(seed)
    g = Graph(nodes=range(n))
    # the attachment draws never read the graph, so edges stream into
    # one bulk insert in chronological order — identical draws,
    # identical adjacency
    g.add_edges_from(_ba_edges(n, m, rng))
    return g


def barabasi_albert_stream(
    n: int, m: int, seed: SeedLike = None, chunk_edges: int = 1 << 20
):
    """BA edges as ``(u, v)`` int32 array chunks, no :class:`Graph`.

    Runs the exact :func:`barabasi_albert` draw sequence (same seed →
    same edge stream, pinned in the test suite) but buffers edges into
    fixed-size array chunks for
    :meth:`repro.networks.arraygraph.ArrayGraph.from_edge_chunks`.  Every
    edge appears once with a fresh endpoint, so the stream is
    duplicate- and self-loop-free by construction.
    """
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    if n < m + 1:
        raise ConfigurationError(f"n must be >= m+1 = {m + 1}, got {n}")
    if chunk_edges < 1:
        raise ConfigurationError(
            f"chunk_edges must be >= 1, got {chunk_edges}"
        )
    rng = make_rng(seed)
    buf_u = np.empty(chunk_edges, dtype=np.int32)
    buf_v = np.empty(chunk_edges, dtype=np.int32)
    fill = 0
    for u, v in _ba_edges(n, m, rng):
        buf_u[fill] = u
        buf_v[fill] = v
        fill += 1
        if fill == chunk_edges:
            yield buf_u.copy(), buf_v.copy()
            fill = 0
    if fill:
        yield buf_u[:fill].copy(), buf_v[:fill].copy()


def watts_strogatz(n: int, k: int, p: float, seed: SeedLike = None) -> Graph:
    """WS small-world: ring lattice of degree ``k`` with rewiring prob ``p``."""
    if k < 2 or k % 2 != 0:
        raise ConfigurationError(f"k must be a positive even integer, got {k}")
    if n <= k:
        raise ConfigurationError(f"n must exceed k, got n={n}, k={k}")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must be in [0, 1], got {p}")
    rng = make_rng(seed)
    g = Graph(nodes=range(n))
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            g.add_edge(u, (u + offset) % n)
    if p == 0.0:
        return g
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            v = (u + offset) % n
            if rng.random() < p and g.has_edge(u, v):
                candidates = [w for w in range(n) if w != u and not g.has_edge(u, w)]
                if not candidates:
                    continue
                w = candidates[rng.integers(len(candidates))]
                g.remove_edge(u, v)
                g.add_edge(u, w)
    return g


def configuration_star(n_hubs: int, leaves_per_hub: int) -> Graph:
    """A deterministic hub-and-spoke graph: extreme scale-free caricature.

    Useful for analytic sanity checks: removing the ``n_hubs`` hubs
    shatters the graph completely.
    """
    if n_hubs < 1:
        raise ConfigurationError(f"n_hubs must be >= 1, got {n_hubs}")
    if leaves_per_hub < 1:
        raise ConfigurationError(
            f"leaves_per_hub must be >= 1, got {leaves_per_hub}"
        )
    g = Graph()
    node = 0
    hubs = []
    for _ in range(n_hubs):
        hub = node
        node += 1
        hubs.append(hub)
        g.add_node(hub)
        for _ in range(leaves_per_hub):
            g.add_edge(hub, node)
            node += 1
    # chain the hubs so the pristine graph is connected
    for a, b in zip(hubs, hubs[1:]):
        g.add_edge(a, b)
    return g


def degree_histogram(g: Graph) -> np.ndarray:
    """counts[k] = number of nodes of degree k (length = max degree + 1)."""
    degrees = list(g.degrees().values())
    if not degrees:
        return np.zeros(1, dtype=int)
    return np.bincount(np.asarray(degrees, dtype=np.intp))
