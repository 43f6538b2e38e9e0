"""Tests for graph generators (repro.networks.generators)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.networks.generators import (
    barabasi_albert,
    configuration_star,
    degree_histogram,
    erdos_renyi,
    erdos_renyi_stream,
    watts_strogatz,
)


class TestErdosRenyi:
    def test_p_zero_has_no_edges(self):
        g = erdos_renyi(20, 0.0, seed=0)
        assert g.n_edges == 0
        assert g.n_nodes == 20

    def test_p_one_is_complete(self):
        g = erdos_renyi(10, 1.0, seed=0)
        assert g.n_edges == 45

    def test_edge_count_near_expectation(self):
        n, p = 100, 0.1
        g = erdos_renyi(n, p, seed=1)
        expected = p * n * (n - 1) / 2
        assert g.n_edges == pytest.approx(expected, rel=0.2)

    def test_deterministic_by_seed(self):
        a = erdos_renyi(30, 0.2, seed=5)
        b = erdos_renyi(30, 0.2, seed=5)
        assert sorted(map(sorted, a.edges())) == sorted(map(sorted, b.edges()))

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            erdos_renyi(-1, 0.5)
        with pytest.raises(ConfigurationError):
            erdos_renyi(5, 1.5)


def _per_edge_reference(n: int, p: float, rng) -> dict:
    """G(n, p) the long way: one scalar ``rng.geometric(p)`` gap at a
    time from before the first pair (every gap 1 at p = 1), each hit
    pair decoded by walking the rows and added edge by edge to a plain
    dict of sets."""
    adj = {v: set() for v in range(n)}
    if p == 0.0:
        return adj
    n_pairs = n * (n - 1) // 2
    i, start, pos = 0, 0, -1  # row i holds pairs start .. start+n-2-i
    while True:
        pos += 1 if p == 1.0 else int(rng.geometric(p))
        if pos >= n_pairs:
            return adj
        while pos >= start + n - 1 - i:
            start += n - 1 - i
            i += 1
        j = i + 1 + pos - start
        adj[i].add(j)
        adj[j].add(i)


class _CountingRng(np.random.Generator):
    """A generator that records the size of each ``geometric`` batch."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.batches = []

    def geometric(self, p, size=None):
        self.batches.append(size)
        return super().geometric(p, size)


class TestErdosRenyiWindows:
    """``erdos_renyi`` draws its geometric gaps in capped batches."""

    # one batch of gaps below 2^20 pairs; 2,000 and 2,500 nodes take
    # two and three (p >= 1/3 is numpy's search method, p < 1/3 its
    # inversion)
    @pytest.mark.parametrize("n, p", [
        (0, 0.5), (1, 0.5), (2, 1.0), (40, 0.0), (40, 1.0),
        (362, 0.01), (363, 0.3), (725, 0.004), (2000, 0.003),
        (2500, 0.002),
    ])
    def test_matches_per_edge_reference(self, n, p):
        g = erdos_renyi(n, p, seed=np.random.default_rng(n))
        ref = _per_edge_reference(n, p, np.random.default_rng(n))
        assert list(g.nodes()) == list(ref)
        # each set's iteration order, not just its contents
        assert [list(g._adj[v]) for v in ref] == \
            [list(nbrs) for nbrs in ref.values()]

    def test_draws_in_window_memory(self):
        erdos_renyi(50, 0.1, seed=0)  # warm imports and caches
        tracemalloc.start()
        try:
            erdos_renyi(4000, 0.001, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the graph holds ~2 MB; one uniform per pair would be 64 MB
        # for the ~8·10^6 pairs, a gap batch is ~8 KB
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("n, p", [(60, 0.9), (300, 0.9), (400, 0.3)])
    def test_dense_batch_capped_at_expected_hits(self, n, p):
        # one batch of the expected hits plus four standard deviations
        # plus 16, not ~chunk_pairs·p gaps for a graph of far fewer pairs
        rng = _CountingRng(n)
        edges = sum(len(u) for u, _ in erdos_renyi_stream(n, p, rng))
        mean = n * (n - 1) // 2 * p
        assert rng.batches == [int(mean + 4 * np.sqrt(mean * (1 - p))) + 16]
        assert edges < rng.batches[0]

    def test_sparse_batches_follow_chunk_pairs(self):
        # p·chunk_pairs + 16 gaps a batch (at least 1,024) until the cap
        # of the pairs still ahead takes over
        rng = _CountingRng(5)
        edges = sum(len(u) for u, _ in erdos_renyi_stream(
            3000, 0.002, rng, chunk_pairs=2_000_000
        ))
        assert rng.batches[0] == 4016
        assert all(b <= 4016 for b in rng.batches)
        assert edges < sum(rng.batches) <= edges + 4016

    def test_tiny_p_does_not_overflow(self):
        # each gap is ~10^300 pairs: clipped at the last pair, their
        # running sum cannot wrap around int64 into negative pair indices
        assert list(erdos_renyi_stream(20_000, 1e-300, seed=0)) == []


class TestBarabasiAlbert:
    def test_node_and_edge_counts(self):
        n, m = 200, 3
        g = barabasi_albert(n, m, seed=0)
        assert g.n_nodes == n
        # seed clique C(m+1, 2) plus m edges per added node
        expected = m * (m + 1) // 2 + (n - m - 1) * m
        assert g.n_edges == expected

    def test_min_degree_at_least_m(self):
        g = barabasi_albert(100, 2, seed=1)
        assert min(g.degrees().values()) >= 2

    def test_heavy_tailed_degrees(self):
        """BA should develop hubs: max degree far above the median."""
        g = barabasi_albert(500, 2, seed=2)
        degrees = np.asarray(list(g.degrees().values()))
        assert degrees.max() > 5 * np.median(degrees)

    def test_more_hubs_than_er_with_same_density(self):
        gb = barabasi_albert(300, 2, seed=3)
        mean_k = 2 * gb.n_edges / gb.n_nodes
        ge = erdos_renyi(300, mean_k / 299, seed=3)
        assert max(gb.degrees().values()) > 2 * max(ge.degrees().values())

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            barabasi_albert(5, 0)
        with pytest.raises(ConfigurationError):
            barabasi_albert(3, 3)


class TestWattsStrogatz:
    def test_ring_lattice_at_p_zero(self):
        g = watts_strogatz(20, 4, 0.0, seed=0)
        assert all(d == 4 for d in g.degrees().values())
        assert g.n_edges == 40

    def test_rewiring_keeps_edge_count(self):
        g = watts_strogatz(30, 4, 0.5, seed=1)
        assert g.n_edges == 60

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            watts_strogatz(10, 3, 0.1)  # odd k
        with pytest.raises(ConfigurationError):
            watts_strogatz(4, 4, 0.1)  # n <= k
        with pytest.raises(ConfigurationError):
            watts_strogatz(10, 4, 2.0)


class TestConfigurationStar:
    def test_structure(self):
        g = configuration_star(3, 5)
        assert g.n_nodes == 3 * 6
        # hubs have leaves + chain links
        degrees = sorted(g.degrees().values(), reverse=True)
        assert degrees[0] >= 5

    def test_connected(self):
        g = configuration_star(4, 3)
        assert g.giant_component_size() == g.n_nodes

    def test_removing_hubs_shatters(self):
        g = configuration_star(2, 10)
        hubs = sorted(g.degrees(), key=g.degrees().get, reverse=True)[:2]
        for h in hubs:
            g.remove_node(h)
        assert g.giant_component_size() == 1

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            configuration_star(0, 5)
        with pytest.raises(ConfigurationError):
            configuration_star(2, 0)


class TestDegreeHistogram:
    def test_counts(self):
        g = configuration_star(1, 3)  # one hub with 3 leaves
        hist = degree_histogram(g)
        assert hist[1] == 3
        assert hist[3] == 1

    def test_empty_graph(self):
        from repro.networks.graph import Graph

        hist = degree_histogram(Graph())
        assert hist.tolist() == [0]


class TestBarabasiAlbertArrayDraw:
    """Regression for the array-backed preferential-attachment multiset:
    the historical list-backed implementation is inlined as an oracle —
    same ``rng.integers`` bounds, same target-set insertions, so the
    emitted edge stream (and therefore adjacency) is pinned exactly."""

    @staticmethod
    def _reference_edges(n, m, rng):
        edges = []
        for u in range(m + 1):
            for v in range(u + 1, m + 1):
                edges.append((u, v))
        repeated = []
        for u in range(m + 1):
            repeated.extend([u] * m)
        for new in range(m + 1, n):
            targets = set()
            while len(targets) < m:
                pick = repeated[rng.integers(len(repeated))]
                targets.add(pick)
            for t in targets:
                edges.append((new, t))
                repeated.append(t)
            repeated.extend([new] * m)
        return edges

    @pytest.mark.parametrize("n,m,seed", [(50, 1, 0), (120, 2, 7), (60, 4, 3)])
    def test_edge_stream_pinned_to_list_reference(self, n, m, seed):
        from repro.networks.generators import _ba_edges
        from repro.rng import make_rng

        ref = self._reference_edges(n, m, make_rng(seed))
        got = list(_ba_edges(n, m, make_rng(seed)))
        assert got == ref
