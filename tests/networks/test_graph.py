"""Tests for the from-scratch graph type (repro.networks.graph),
cross-validated against networkx."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.networks.generators import barabasi_albert, erdos_renyi
from repro.networks.graph import Graph


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.nodes())
    h.add_edges_from(g.edges())
    return h


class TestBasics:
    def test_add_nodes_and_edges(self):
        g = Graph(nodes=[1, 2], edges=[(1, 2), (2, 3)])
        assert g.n_nodes == 3
        assert g.n_edges == 2
        assert g.has_edge(1, 2)
        assert g.has_edge(2, 1)

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(ConfigurationError):
            g.add_edge(1, 1)

    def test_duplicate_edge_idempotent(self):
        g = Graph(edges=[(1, 2), (1, 2)])
        assert g.n_edges == 1

    def test_remove_node_cleans_edges(self):
        g = Graph(edges=[(1, 2), (2, 3)])
        g.remove_node(2)
        assert 2 not in g
        assert g.n_edges == 0
        assert g.degree(1) == 0

    def test_remove_missing_node_raises(self):
        with pytest.raises(ConfigurationError):
            Graph().remove_node(5)

    def test_remove_edge(self):
        g = Graph(edges=[(1, 2)])
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.n_nodes == 2

    def test_remove_missing_edge_raises(self):
        g = Graph(nodes=[1, 2])
        with pytest.raises(ConfigurationError):
            g.remove_edge(1, 2)

    def test_copy_is_independent(self):
        g = Graph(edges=[(1, 2)])
        h = g.copy()
        h.remove_node(1)
        assert g.has_edge(1, 2)

    def test_neighbors_and_degree(self):
        g = Graph(edges=[(1, 2), (1, 3)])
        assert g.neighbors(1) == frozenset([2, 3])
        assert g.degree(1) == 2
        with pytest.raises(ConfigurationError):
            g.neighbors(9)


class TestStructure:
    def test_connected_components(self):
        g = Graph(edges=[(1, 2), (3, 4)], nodes=[5])
        comps = {frozenset(c) for c in g.connected_components()}
        assert comps == {frozenset([1, 2]), frozenset([3, 4]), frozenset([5])}

    def test_giant_component_size(self):
        g = Graph(edges=[(1, 2), (2, 3), (4, 5)])
        assert g.giant_component_size() == 3

    def test_empty_graph_giant_is_zero(self):
        assert Graph().giant_component_size() == 0

    def test_subgraph(self):
        g = Graph(edges=[(1, 2), (2, 3), (3, 1)])
        sub = g.subgraph([1, 2])
        assert sub.n_nodes == 2
        assert sub.has_edge(1, 2)
        assert not sub.has_edge(2, 3)

    def test_subgraph_unknown_node_raises(self):
        with pytest.raises(ConfigurationError):
            Graph(nodes=[1]).subgraph([1, 2])

    def test_shortest_path_length(self):
        g = Graph(edges=[(1, 2), (2, 3), (3, 4)])
        assert g.shortest_path_length(1, 4) == 3
        assert g.shortest_path_length(1, 1) == 0

    def test_shortest_path_disconnected_is_none(self):
        g = Graph(edges=[(1, 2)], nodes=[3])
        assert g.shortest_path_length(1, 3) is None


@settings(max_examples=25, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=40,
    )
)
def test_property_components_match_networkx(edges):
    g = Graph(edges=edges)
    h = to_networkx(g)
    ours = sorted(sorted(map(str, c)) for c in g.connected_components())
    theirs = sorted(sorted(map(str, c)) for c in nx.connected_components(h))
    assert ours == theirs


@settings(max_examples=25, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 10), st.integers(0, 10)).filter(
            lambda e: e[0] != e[1]
        ),
        min_size=1,
        max_size=30,
    )
)
def test_property_degrees_match_networkx(edges):
    g = Graph(edges=edges)
    h = to_networkx(g)
    assert g.degrees() == dict(h.degree())
    assert g.n_edges == h.number_of_edges()


def frozenset_edges(g: Graph):
    """Graph.edges deduped the old way: a frozenset per edge seen."""
    seen = set()
    for u, neigh in g._adj.items():
        for v in neigh:
            key = frozenset((u, v))
            if key not in seen:
                seen.add(key)
                yield (u, v)


@settings(max_examples=40, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=60,
    ),
    isolated=st.lists(st.integers(0, 20), max_size=4),
    removed=st.lists(st.integers(0, 15), max_size=3),
    as_str=st.booleans(),
)
def test_edges_match_frozenset_dedupe(edges, isolated, removed, as_str):
    label = str if as_str else int
    g = Graph(edges=[(label(u), label(v)) for u, v in edges],
              nodes=[label(x) for x in isolated])
    for x in removed:  # removals reorder nothing but leave gaps
        if label(x) in g:
            g.remove_node(label(x))
    assert list(g.edges()) == list(frozenset_edges(g))


@pytest.mark.parametrize("as_str", [False, True])
def test_edges_match_frozenset_dedupe_on_generated_graphs(as_str):
    for g in (barabasi_albert(300, 3, seed=1), erdos_renyi(200, 0.05, seed=2)):
        if as_str:
            g = Graph(edges=[(f"n{u}", f"n{v}") for u, v in g.edges()])
        edges = list(g.edges())
        assert edges == list(frozenset_edges(g))
        assert len(edges) == g.n_edges


class TestNeighborCacheBound:
    """Regression: the per-node frozenset cache must not grow unbounded
    on large graphs (it used to retain one frozenset per touched node
    forever, doubling adjacency memory)."""

    def test_cache_bypassed_above_threshold(self, monkeypatch):
        from repro.networks import graph as graph_mod

        monkeypatch.setattr(graph_mod, "NEIGHBOR_CACHE_MAX_NODES", 5)
        g = Graph(nodes=range(10), edges=[(i, i + 1) for i in range(9)])
        for node in list(g.nodes()):
            g.neighbors(node)
        assert g._frozen == {}
        # correctness is unchanged, only the caching is skipped
        assert g.neighbors(4) == frozenset({3, 5})

    def test_cache_still_used_below_threshold(self):
        g = Graph(nodes=range(4), edges=[(0, 1), (1, 2)])
        first = g.neighbors(1)
        assert g.neighbors(1) is first
        g.add_edge(1, 3)
        assert g.neighbors(1) is not first
        assert g.neighbors(1) == frozenset({0, 2, 3})
