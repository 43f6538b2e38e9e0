"""A from-scratch undirected graph type.

The scale-free robustness experiments (§5.1) need only adjacency,
degrees, connected components and node removal; implementing them
directly keeps the substrate dependency-free (networkx is used only in
tests, as an independent oracle).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, Iterator, Set

from ..errors import ConfigurationError

__all__ = ["Graph", "NEIGHBOR_CACHE_MAX_NODES"]

#: node count above which :meth:`Graph.neighbors` stops caching its
#: frozenset views.  The cache is worth it on small graphs hammered by
#: the object-engine hot loops, but one retained frozenset per touched
#: node effectively *doubles* adjacency memory on large graphs — above
#: this threshold views are rebuilt per call instead of kept forever
NEIGHBOR_CACHE_MAX_NODES = 100_000


class Graph:
    """A simple undirected graph over integer-friendly hashable nodes."""

    def __init__(self, nodes: Iterable[object] = (), edges: Iterable[tuple] = ()):
        self._adj: Dict[object, Set[object]] = {node: set() for node in nodes}
        # per-node frozenset views handed out by neighbors(); invalidated
        # on mutation so hot loops don't rebuild a frozenset per call
        self._frozen: Dict[object, FrozenSet[object]] = {}
        # bumped on every mutation; lets derived structures (the CSR
        # ArrayGraph cache) detect staleness without hashing the graph
        self._version = 0
        self.add_edges_from(edges)

    # -- mutation ---------------------------------------------------------

    def add_node(self, node: object) -> None:
        """Insert an isolated node (no-op if present)."""
        if node not in self._adj:
            self._adj[node] = set()
            self._version += 1

    def add_edge(self, u: object, v: object) -> None:
        """Insert an undirected edge, creating endpoints as needed.

        Self-loops are rejected: none of the resilience models use them
        and they silently distort degree-based attack orderings.
        """
        self.add_edges_from(((u, v),))

    def add_edges_from(self, edges: Iterable[tuple]) -> None:
        """Bulk :meth:`add_edge`: one version bump for the batch.

        The generators funnel their (often vectorized) edge draws through
        this, so it allocates a set only for a new endpoint and drops
        frozen views only while :meth:`neighbors` has cached some.  Each
        edge inserts ``u`` then ``v``, so dict order and every set's
        layout depend on the edge order alone.
        """
        adj, frozen = self._adj, self._frozen
        # bumped first, so a batch that raises part-way still retires
        # the CSR cached for the old version
        self._version += 1
        for u, v in edges:
            if u == v:
                raise ConfigurationError(
                    f"self-loop on node {u!r} is not allowed"
                )
            nbrs = adj.get(u)
            if nbrs is None:
                adj[u] = {v}
            else:
                nbrs.add(v)
            nbrs = adj.get(v)
            if nbrs is None:
                adj[v] = {u}
            else:
                nbrs.add(u)
            if frozen:
                frozen.pop(u, None)
                frozen.pop(v, None)

    def remove_node(self, node: object) -> None:
        """Delete a node and its incident edges."""
        if node not in self._adj:
            raise ConfigurationError(f"node {node!r} not in graph")
        frozen = self._frozen
        for neighbor in self._adj.pop(node):
            self._adj[neighbor].discard(node)
            frozen.pop(neighbor, None)
        frozen.pop(node, None)
        self._version += 1

    def remove_edge(self, u: object, v: object) -> None:
        """Delete the edge {u, v}."""
        if u not in self._adj or v not in self._adj[u]:
            raise ConfigurationError(f"edge ({u!r}, {v!r}) not in graph")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._frozen.pop(u, None)
        self._frozen.pop(v, None)
        self._version += 1

    def copy(self) -> "Graph":
        """Deep copy of the adjacency structure."""
        g = Graph()
        g._adj = {node: set(neigh) for node, neigh in self._adj.items()}
        return g

    # -- queries -----------------------------------------------------------

    def __contains__(self, node: object) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(neigh) for neigh in self._adj.values()) // 2

    def nodes(self) -> Iterator[object]:
        """Iterate nodes in insertion order."""
        return iter(self._adj)

    def edges(self) -> Iterator[tuple]:
        """Iterate each undirected edge once, from its endpoint that
        comes first in node order."""
        visited: Set[object] = set()
        for u, neigh in self._adj.items():
            for v in neigh:
                if v not in visited:
                    yield (u, v)
            visited.add(u)

    def neighbors(self, node: object) -> FrozenSet[object]:
        """Adjacent nodes (a cached read-only view, rebuilt on mutation).

        Caching is bypassed past :data:`NEIGHBOR_CACHE_MAX_NODES` nodes
        — an unbounded one-frozenset-per-node cache would double the
        memory of exactly the graphs that can least afford it.
        """
        cached = self._frozen.get(node)
        if cached is not None:
            return cached
        if node not in self._adj:
            raise ConfigurationError(f"node {node!r} not in graph")
        cached = frozenset(self._adj[node])
        if len(self._adj) <= NEIGHBOR_CACHE_MAX_NODES:
            self._frozen[node] = cached
        return cached

    def degree(self, node: object) -> int:
        """Number of incident edges."""
        return len(self.neighbors(node))

    def degrees(self) -> Dict[object, int]:
        """Degree of every node."""
        return {node: len(neigh) for node, neigh in self._adj.items()}

    def has_edge(self, u: object, v: object) -> bool:
        """Whether the undirected edge {u, v} exists."""
        return u in self._adj and v in self._adj[u]

    def check_removal_order(self, order) -> bool:
        """Whether ``order`` is a permutation of the nodes: right length
        and right node set (a duplicate shrinks the set)."""
        return len(order) == len(self._adj) and set(order) == set(self._adj)

    # -- structure ---------------------------------------------------------------

    def connected_components(self) -> list[FrozenSet[object]]:
        """All connected components (BFS), largest not guaranteed first."""
        seen: Set[object] = set()
        components: list[FrozenSet[object]] = []
        for start in self._adj:
            if start in seen:
                continue
            queue = deque([start])
            component: Set[object] = set()
            while queue:
                node = queue.popleft()
                if node in component:
                    continue
                component.add(node)
                for neighbor in self._adj[node]:
                    if neighbor not in component:
                        queue.append(neighbor)
            seen |= component
            components.append(frozenset(component))
        return components

    def giant_component_size(self) -> int:
        """Size of the largest connected component (0 for the empty graph)."""
        components = self.connected_components()
        if not components:
            return 0
        return max(len(c) for c in components)

    def subgraph(self, keep: Iterable[object]) -> "Graph":
        """Induced subgraph on ``keep``."""
        keep_set = set(keep)
        unknown = keep_set - set(self._adj)
        if unknown:
            raise ConfigurationError(
                f"subgraph requested on unknown nodes: {sorted(map(repr, unknown))[:5]}"
            )
        return Graph(nodes=keep_set, edges=(
            (u, v) for u, v in self.edges()
            if u in keep_set and v in keep_set
        ))

    def shortest_path_length(self, source: object, target: object) -> int | None:
        """BFS hop count from source to target; None when disconnected."""
        if source not in self._adj or target not in self._adj:
            raise ConfigurationError("both endpoints must be in the graph")
        if source == target:
            return 0
        dist = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for neighbor in self._adj[node]:
                if neighbor not in dist:
                    dist[neighbor] = dist[node] + 1
                    if neighbor == target:
                        return dist[neighbor]
                    queue.append(neighbor)
        return None
