"""Tests for betweenness centrality (repro.networks.centrality),
cross-validated against networkx."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.networks.arraygraph import as_arraygraph
from repro.networks.attacks import TargetedDegreeAttack
from repro.networks.centrality import BetweennessAttack, betweenness_centrality
from repro.networks.generators import barabasi_albert, erdos_renyi
from repro.networks.graph import Graph
from repro.networks.percolation import critical_fraction, percolation_curve

from .mapped import mapped_twin


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.nodes())
    h.add_edges_from(g.edges())
    return h


class TestBetweennessCentrality:
    def test_path_graph_middle_node(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        scores = betweenness_centrality(g, normalized=False)
        assert scores[1] == pytest.approx(1.0)  # mediates the (0,2) pair
        assert scores[0] == scores[2] == 0.0

    def test_star_hub_mediates_everything(self):
        g = Graph(edges=[("hub", i) for i in range(5)])
        scores = betweenness_centrality(g)
        assert scores["hub"] == pytest.approx(1.0)  # normalized maximum
        assert all(scores[i] == 0.0 for i in range(5))

    def test_cycle_is_uniform(self):
        g = Graph(edges=[(i, (i + 1) % 6) for i in range(6)])
        scores = betweenness_centrality(g)
        values = list(scores.values())
        assert max(values) == pytest.approx(min(values))

    def test_matches_networkx_on_random_graphs(self):
        for seed in (0, 1):
            g = erdos_renyi(40, 0.12, seed=seed)
            ours = betweenness_centrality(g)
            theirs = nx.betweenness_centrality(to_networkx(g))
            for node in g.nodes():
                assert ours[node] == pytest.approx(theirs[node], abs=1e-9)

    def test_matches_networkx_on_ba(self):
        g = barabasi_albert(60, 2, seed=2)
        ours = betweenness_centrality(g)
        theirs = nx.betweenness_centrality(to_networkx(g))
        for node in g.nodes():
            assert ours[node] == pytest.approx(theirs[node], abs=1e-9)

    def test_mapped_twin_matches_in_ram_csr_exactly(self):
        # one CSR, two storages: the same vectorized Brandes pass, so
        # the scores agree bit for bit, not just to rounding
        ag = as_arraygraph(barabasi_albert(60, 2, seed=2))
        mapped = mapped_twin(ag.indptr, ag.indices, ag.labels)
        assert betweenness_centrality(mapped) == betweenness_centrality(ag)

    def test_disconnected_components_handled(self):
        g = Graph(edges=[(0, 1), (1, 2), (10, 11)])
        scores = betweenness_centrality(g, normalized=False)
        assert scores[1] == pytest.approx(1.0)
        assert scores[10] == 0.0


class TestBetweennessAttack:
    def test_order_is_permutation(self):
        g = barabasi_albert(50, 2, seed=3)
        order = BetweennessAttack().removal_order(g)
        assert sorted(map(repr, order)) == sorted(map(repr, g.nodes()))

    def test_at_least_as_damaging_as_degree_attack_on_ba(self):
        g = barabasi_albert(200, 2, seed=4)
        bet_curve = percolation_curve(g, BetweennessAttack(), resolution=40)
        deg_curve = percolation_curve(g, TargetedDegreeAttack(),
                                      resolution=40)
        # betweenness targeting shatters no later than degree targeting
        assert critical_fraction(bet_curve, 0.1) <= \
            critical_fraction(deg_curve, 0.1) + 0.05

    def test_bridge_node_removed_before_high_degree_leafy_node(self):
        """A low-degree bridge can out-mediate a high-degree periphery."""
        g = Graph()
        # two cliques of 4 joined by a degree-2 bridge node "b"
        for base in ("L", "R"):
            members = [f"{base}{i}" for i in range(4)]
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    g.add_edge(u, v)
        g.add_edge("L0", "b")
        g.add_edge("b", "R0")
        order = BetweennessAttack().removal_order(g)
        # the bridge or its endpoints lead the ranking
        assert order[0] in ("b", "L0", "R0")


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 500))
def test_property_matches_networkx(seed):
    g = erdos_renyi(25, 0.15, seed=seed)
    ours = betweenness_centrality(g)
    theirs = nx.betweenness_centrality(to_networkx(g))
    for node in g.nodes():
        assert ours[node] == pytest.approx(theirs[node], abs=1e-9)
