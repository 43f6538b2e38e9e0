"""Object/array network-engine equivalence suite.

The array engine's contract (mirroring the agents array engine): exact
equality wherever the computation is deterministic — components,
percolation curves, load cascades, healing quality traces, attack
orderings — and statistical agreement over seeds for the stochastic
spreaders (probabilistic cascades, SIS/SIR), whose random streams are
drawn in frontier batches instead of per-edge.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.networks import (
    AdaptiveDegreeAttack,
    ArrayGraph,
    BetweennessAttack,
    Graph,
    LoadCascadeModel,
    NetworkRecoverySimulator,
    ProbabilisticCascadeModel,
    RandomFailure,
    SIRModel,
    SISModel,
    TargetedDegreeAttack,
    as_arraygraph,
    barabasi_albert,
    betweenness_centrality,
    erdos_renyi,
    make_network_engine,
    modular_graph,
    percolation_curve,
    watts_strogatz,
)
from repro.networks.arraygraph import bernoulli_indices, gather_rows
from repro.rng import make_rng

from .reference_kernels import (
    newman_ziff_giant_sizes,
    undirected_edges,
    union_find_labels,
)


def _graphs():
    return [
        barabasi_albert(200, 2, seed=7),
        erdos_renyi(150, 0.03, seed=11),
        watts_strogatz(120, 4, 0.1, seed=3),
        modular_graph(4, 20, intra_p=0.3, bridges=2, seed=5),
    ]


# -- CSR structure ----------------------------------------------------------


class TestArrayGraphStructure:
    def test_roundtrip_preserves_graph(self):
        for g in _graphs():
            ag = ArrayGraph.from_graph(g)
            back = ag.to_graph()
            assert set(back.nodes()) == set(g.nodes())
            assert {frozenset(e) for e in back.edges()} == \
                {frozenset(e) for e in g.edges()}

    def test_from_edges_dedupes_and_rejects_self_loops(self):
        ag = ArrayGraph.from_edges(4, [(0, 1), (1, 0), (0, 1), (2, 3)])
        assert ag.n_edges == 2
        assert ag.has_edge(1, 0) and ag.has_edge(3, 2)
        with pytest.raises(ConfigurationError):
            ArrayGraph.from_edges(3, [(1, 1)])

    def test_degrees_and_neighbors_match(self):
        for g in _graphs():
            ag = as_arraygraph(g)
            assert ag.degrees() == g.degrees()
            for node in g.nodes():
                assert ag.neighbors(node) == g.neighbors(node)

    def test_components_match(self):
        # list equality (the object Graph's component order) on both
        # storages of one CSR
        for g in _graphs() + [erdos_renyi(200, 0.01, seed=8)]:
            ag = as_arraygraph(g)
            mapped = ArrayGraph.from_arrays(ag.indptr, ag.indices, ag.labels)
            for cg in (ag, mapped):
                assert cg.connected_components() == g.connected_components()
                assert cg.giant_component_size() == g.giant_component_size()

    def test_conversion_cache_invalidated_on_mutation(self):
        g = erdos_renyi(30, 0.1, seed=0)
        first = as_arraygraph(g)
        assert as_arraygraph(g) is first
        u = next(iter(g.nodes()))
        g.remove_node(u)
        second = as_arraygraph(g)
        assert second is not first
        assert second.n_nodes == g.n_nodes


# -- kernels ----------------------------------------------------------------


class TestKernels:
    def test_gather_rows_matches_slices(self):
        ag = as_arraygraph(barabasi_albert(60, 3, seed=1))
        rows = np.asarray([5, 0, 17, 5])
        flat, counts = gather_rows(ag.indptr, ag.indices, rows)
        expected = np.concatenate([
            ag.indices[ag.indptr[r]:ag.indptr[r + 1]] for r in rows
        ])
        assert np.array_equal(flat, expected)
        assert np.array_equal(counts, np.diff(ag.indptr)[rows])

    def test_component_labels_are_min_index_of_union_find(self):
        ag = as_arraygraph(erdos_renyi(80, 0.02, seed=4))
        roots = union_find_labels(
            ag.n_nodes, *undirected_edges(ag.indptr, ag.indices)
        )
        labels = ag.component_labels()
        # same partition as the reference union-find, each component
        # named by its smallest node index
        for root in np.unique(roots):
            members = np.flatnonzero(roots == root)
            assert (labels[members] == members.min()).all()

    def test_newman_ziff_matches_incremental_object_graph(self):
        g = erdos_renyi(50, 0.05, seed=8)
        ag = as_arraygraph(g)
        order = list(g.nodes())
        make_rng(3).shuffle(order)
        sizes = newman_ziff_giant_sizes(
            ag.indptr, ag.indices, ag.indices_of(order)
        )
        assert sizes[0] == 0
        work = Graph()
        for k, node in enumerate(order, start=1):
            work.add_node(node)
            for nb in g.neighbors(node):
                if nb in work:
                    work.add_edge(node, nb)
            assert sizes[k] == work.giant_component_size()

    def test_bernoulli_indices_edge_cases(self):
        rng = make_rng(0)
        assert bernoulli_indices(rng, 0, 0.5).size == 0
        assert bernoulli_indices(rng, 10, 0.0).size == 0
        assert np.array_equal(
            bernoulli_indices(rng, 5, 1.0), np.arange(5)
        )

    @pytest.mark.parametrize("p", [1e-18, 1e-300, 5e-324])
    def test_bernoulli_indices_tiny_p_terminates(self, p):
        # geometric gaps near 2^63 used to overflow the cumsum: the draw
        # looped forever or returned negative indices
        assert bernoulli_indices(make_rng(0), 10, p).size == 0

    @pytest.mark.parametrize("p", [0.01, 0.05, 0.3])
    def test_bernoulli_indices_rate(self, p):
        rng = make_rng(42)
        count = 200_000
        hits = bernoulli_indices(rng, count, p)
        assert hits.size == 0 or (0 <= hits[0] and hits[-1] < count)
        assert np.all(np.diff(hits) > 0)
        assert abs(hits.size / count - p) < 5 * np.sqrt(p / count)


# -- exact equivalence ------------------------------------------------------


ATTACKS = [RandomFailure(), TargetedDegreeAttack(), AdaptiveDegreeAttack(),
           BetweennessAttack()]


class TestExactEquivalence:
    @pytest.mark.parametrize("attack", ATTACKS, ids=lambda a: a.label)
    def test_percolation_curves_identical(self, attack):
        for g in _graphs()[:2]:
            obj = percolation_curve(g, attack, seed=13, resolution=30,
                                    engine="object")
            arr = percolation_curve(g, attack, seed=13, resolution=30,
                                    engine="array")
            assert np.array_equal(obj.removed_fraction, arr.removed_fraction)
            assert np.array_equal(obj.giant_fraction, arr.giant_fraction)

    def test_percolation_every_step_identical(self):
        g = erdos_renyi(60, 0.05, seed=2)
        obj = percolation_curve(g, TargetedDegreeAttack(), engine="object")
        arr = percolation_curve(g, TargetedDegreeAttack(), engine="array")
        assert np.array_equal(obj.giant_fraction, arr.giant_fraction)

    def test_attack_orderings_identical(self):
        for g in _graphs():
            ag = as_arraygraph(g)
            assert TargetedDegreeAttack().removal_order(ag) == \
                TargetedDegreeAttack().removal_order(g)
            assert AdaptiveDegreeAttack().removal_order(ag) == \
                AdaptiveDegreeAttack().removal_order(g)

    def test_load_cascades_identical(self):
        for g in _graphs():
            for tol in (0.05, 0.2, 1.0):
                obj = LoadCascadeModel(g, tol, engine="object")
                arr = LoadCascadeModel(g, tol, engine="array")
                a, b = obj.hub_trigger(), arr.hub_trigger()
                assert a.failed == b.failed
                assert a.waves == b.waves
                a, b = obj.random_trigger(seed=5), arr.random_trigger(seed=5)
                assert a.failed == b.failed and a.waves == b.waves

    def test_healing_traces_identical(self):
        g = barabasi_albert(120, 2, seed=9)
        for repairs in (0, 1, 3):
            obj = NetworkRecoverySimulator(
                g, TargetedDegreeAttack(), repairs, engine="object"
            ).run(0.3, horizon=30, shock_time=2, seed=1)
            arr = NetworkRecoverySimulator(
                g, TargetedDegreeAttack(), repairs, engine="array"
            ).run(0.3, horizon=30, shock_time=2, seed=1)
            assert obj.removed == arr.removed
            assert np.array_equal(obj.trace.quality, arr.trace.quality)
            assert obj.fully_recovered == arr.fully_recovered

    def test_betweenness_scores_close_and_order_exact_when_separated(self):
        g = barabasi_albert(80, 2, seed=6)
        obj = betweenness_centrality(g)
        arr = betweenness_centrality(as_arraygraph(g))
        assert set(obj) == set(arr)
        for node in obj:
            assert obj[node] == pytest.approx(arr[node], abs=1e-12)


# -- statistical equivalence (stochastic spreaders) -------------------------


class TestStatisticalEquivalence:
    def test_probabilistic_cascade_mean_damage(self):
        g = barabasi_albert(150, 2, seed=4)
        obj = ProbabilisticCascadeModel(g, 0.25, engine="object")
        arr = ProbabilisticCascadeModel(g, 0.25, engine="array")
        a = obj.mean_damage(trials=120, seed=17)
        b = arr.mean_damage(trials=120, seed=17)
        assert abs(a - b) <= 0.08

    def test_sir_attack_rate_distribution(self):
        g = barabasi_albert(200, 2, seed=12)
        rates = {}
        for kind in ("object", "array"):
            model = SIRModel(g, beta=0.3, gamma=0.25, engine=kind)
            vals = [
                model.run([0], seed=s).attack_rate(g.n_nodes)
                for s in range(40)
            ]
            rates[kind] = float(np.mean(vals))
        assert abs(rates["object"] - rates["array"]) <= 0.1

    def test_sis_counts_plausible(self):
        g = erdos_renyi(120, 0.05, seed=1)
        res = SISModel(g, beta=0.4, gamma=0.2, engine="array").run(
            [0, 1], steps=30, seed=5
        )
        assert res.infected_counts[0] == 2
        assert res.steps <= 30
        assert 0 <= res.total_ever_infected <= g.n_nodes
        assert res.total_ever_infected >= len(res.final_infected)

    def test_immune_nodes_never_infected(self):
        g = barabasi_albert(100, 2, seed=2)
        immune = frozenset(range(10, 30))
        res = SIRModel(g, beta=0.9, gamma=0.1, immune=immune,
                       engine="array").run([0], seed=3)
        assert not (set(res.final_infected) & immune)


# -- engine selection -------------------------------------------------------


class TestEngineSelection:
    def test_default_is_object(self, monkeypatch):
        monkeypatch.delenv("REPRO_NETWORK_ENGINE", raising=False)
        assert make_network_engine().name == "object"

    def test_empty_env_var_means_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_NETWORK_ENGINE", "")
        assert make_network_engine().name == "object"

    def test_env_var_selects_array(self, monkeypatch):
        monkeypatch.setenv("REPRO_NETWORK_ENGINE", "array")
        assert make_network_engine().name == "array"
        model = LoadCascadeModel(erdos_renyi(20, 0.2, seed=0))
        assert model.engine.name == "array"

    def test_explicit_kind_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NETWORK_ENGINE", "array")
        assert make_network_engine("object").name == "object"

    def test_engine_instance_passes_through(self):
        eng = make_network_engine("array")
        assert make_network_engine(eng) is eng

    def test_unknown_kind_fails_loudly(self, monkeypatch):
        with pytest.raises(ConfigurationError) as exc:
            make_network_engine("vectorised")
        assert "object" in str(exc.value) and "array" in str(exc.value)
        monkeypatch.setenv("REPRO_NETWORK_ENGINE", "csr")
        with pytest.raises(ConfigurationError) as exc:
            make_network_engine()
        assert "REPRO_NETWORK_ENGINE" in str(exc.value)


# -- permutation check (satellite: Counter-based) ---------------------------


class _EqualReprAttack(RandomFailure):
    """Returns the same node twice — distinct multiset, equal repr sort."""

    def removal_order(self, g, seed=None):
        order = list(g.nodes())
        order[1] = order[0]
        return order


def test_permutation_check_catches_duplicates():
    g = erdos_renyi(10, 0.3, seed=0)
    with pytest.raises(ConfigurationError):
        percolation_curve(g, _EqualReprAttack(), engine="object")


# -- neighbors cache (satellite: hot-path allocation) -----------------------


class TestNeighborsCache:
    def test_repeated_calls_return_same_object(self):
        g = erdos_renyi(20, 0.2, seed=1)
        node = next(iter(g.nodes()))
        assert g.neighbors(node) is g.neighbors(node)

    def test_cache_invalidated_on_mutation(self):
        g = Graph(nodes=[0, 1, 2])
        g.add_edge(0, 1)
        before = g.neighbors(0)
        g.add_edge(0, 2)
        after = g.neighbors(0)
        assert before == frozenset({1})
        assert after == frozenset({1, 2})
        g.remove_edge(0, 1)
        assert g.neighbors(0) == frozenset({2})
        g.remove_node(2)
        assert g.neighbors(0) == frozenset()

    def test_copy_does_not_share_cache(self):
        g = Graph(edges=[(0, 1)])
        _ = g.neighbors(0)
        h = g.copy()
        h.add_edge(0, 2)
        assert g.neighbors(0) == frozenset({1})
        assert h.neighbors(0) == frozenset({1, 2})


# -- int64 indptr promotion (satellite: multi-million-node ceiling) ---------


class TestIndptrPromotion:
    def test_small_graphs_stay_int32(self):
        for g in _graphs():
            ag = ArrayGraph.from_graph(g)
            assert ag.indptr.dtype == np.int32
            assert ag.indices.dtype == np.int32

    def test_wide_degree_graph_promotes_to_int64(self, monkeypatch):
        # a real 2^31-edge graph cannot be allocated in a test, so
        # shrink the capacity and check the same promotion logic on a
        # synthetic wide-degree (star-heavy) graph
        import repro.networks.arraygraph as agmod

        monkeypatch.setattr(agmod, "INT32_INDPTR_CAPACITY", 64)
        hub = 0
        leaves = list(range(1, 60))
        edges = [(hub, leaf) for leaf in leaves]  # 2m = 118 > 64
        ag = ArrayGraph.from_edges(60, edges)
        assert ag.indptr.dtype == np.int64
        assert ag.indices.dtype == np.int32  # node ids still fit
        assert ag.n_edges == len(leaves)
        assert ag.degree(hub) == len(leaves)
        # kernels run unchanged on the promoted offsets
        labels = ag.component_labels()
        assert (labels == labels[hub]).all()
        flat, counts = gather_rows(
            ag.indptr, ag.indices, np.array([hub], dtype=np.int64)
        )
        assert counts.tolist() == [len(leaves)]
        assert sorted(flat.tolist()) == leaves

    def test_promoted_roundtrip_matches_object_graph(self, monkeypatch):
        import repro.networks.arraygraph as agmod

        monkeypatch.setattr(agmod, "INT32_INDPTR_CAPACITY", 8)
        g = erdos_renyi(40, 0.2, seed=13)
        ag = ArrayGraph.from_graph(g)
        assert ag.indptr.dtype == np.int64
        back = ag.to_graph()
        assert set(map(frozenset, back.edges())) == set(
            map(frozenset, g.edges())
        )
