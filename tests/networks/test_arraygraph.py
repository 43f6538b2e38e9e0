"""Object/array network-engine equivalence suite.

The array engine's contract (mirroring the agents array engine): exact
equality with the object engine everywhere — components, percolation
curves, load cascades, healing quality traces, attack orderings, and
the stochastic spreaders (probabilistic cascades, SIS/SIR), which both
engines draw in one order.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from repro.networks import arraygraph as arraygraph_mod
from repro.networks.arraygraph import bernoulli_indices, row_blocks
from repro.networks.engine import ArrayNetworkEngine
from repro.networks.epidemics import immunize
from repro.rng import make_rng

from .mapped import mapped_twin
from .reference_kernels import (
    lexsort_degree_order,
    newman_ziff_giant_sizes,
    row_slices,
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
            mapped = mapped_twin(ag.indptr, ag.indices, ag.labels)
            for cg in (ag, mapped):
                assert cg.connected_components() == g.connected_components()
                assert cg.giant_component_size() == g.giant_component_size()

    def test_identity_int_labels_convert_to_identity_csr(self):
        for g in (Graph(), Graph(nodes=range(3), edges=[(2, 0)]),
                  erdos_renyi(50, 0.1, seed=2)):
            ag = as_arraygraph(g)
            assert ag.identity_labels
            assert ag.labels == range(g.n_nodes)
            assert True not in ag

    @pytest.mark.parametrize("nodes", [
        [False, True], [np.int64(0), np.int64(1)], [1, 0], ["0", "1"],
        [0, 2],
    ], ids=["bool", "np.int64", "out-of-order", "str", "gap"])
    def test_other_labels_stay_labelled(self, nodes):
        ag = as_arraygraph(Graph(nodes=nodes, edges=[tuple(nodes)]))
        assert not ag.identity_labels
        assert [(type(a), a) for a in ag.labels] == \
            [(type(a), a) for a in nodes]

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


def _star(leaves: int) -> ArrayGraph:
    """Hub 0 joined to nodes 1..leaves, then one isolated node, as a raw
    identity CSR: degrees span the whole range 0..leaves."""
    indptr = np.concatenate((
        [0, leaves], np.arange(leaves) + leaves + 1, [2 * leaves],
    ))
    indices = np.concatenate((np.arange(1, leaves + 1), np.zeros(leaves)))
    return ArrayGraph(indptr.astype(np.int64), indices.astype(np.int32))


@st.composite
def csr_streams(draw):
    """A CSR (zero-degree rows, one hub of up to 80 entries, arbitrary
    column ids) and the rows to stream: None (every row) or a list with
    repeats."""
    n = draw(st.integers(1, 30))
    degrees = draw(st.lists(
        st.sampled_from((0, 0, 1, 2, 3, 5)), min_size=n, max_size=n
    ))
    degrees[draw(st.integers(0, n - 1))] = draw(st.integers(0, 80))
    indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
    indices = np.asarray(draw(st.lists(
        st.integers(0, n - 1), min_size=int(indptr[-1]),
        max_size=int(indptr[-1]),
    )), dtype=np.int32)
    rows = draw(st.none() | st.lists(st.integers(0, n - 1), max_size=40))
    return indptr, indices, rows


class TestOrderingAndGatherOracles:
    """Identity degree order against the three-key ``np.lexsort`` it
    replaced, and the ``row_blocks`` stream against per-row slices."""

    @pytest.mark.parametrize("g", [
        Graph(nodes=range(12)),
        Graph(nodes=range(30), edges=[(i, (i + 1) % 30) for i in range(30)]),
        Graph(nodes=range(101), edges=[
            (u, v) for u in range(101) for v in range(u + 1, 101)
        ]),
    ], ids=["no-edges", "ring", "complete"])
    def test_equal_degrees_keep_decimal_order(self, g):
        ag = as_arraygraph(g)
        order = ag.degree_removal_order()
        assert np.array_equal(order, lexsort_degree_order(ag.degree_array()))
        assert order.tolist() == sorted(range(g.n_nodes), key=repr)

    @pytest.mark.parametrize("n", [1, 2, 10, 11, 100, 101, 1000, 1001])
    @pytest.mark.parametrize("make", [
        lambda n: erdos_renyi(n, min(1.0, 3.0 / n), seed=n),
        lambda n: barabasi_albert(n, 1, seed=n) if n > 1 else Graph([0]),
    ], ids=["er", "ba"])
    def test_matches_lexsort_at_decimal_boundaries(self, n, make):
        g = make(n)
        ag = as_arraygraph(g)
        assert ag.identity_labels
        order = ag.degree_removal_order()
        assert order.dtype == np.int64
        assert np.array_equal(order, lexsort_degree_order(ag.degree_array()))
        degrees = g.degrees()
        assert order.tolist() == sorted(
            degrees, key=lambda v: (-degrees[v], repr(v))
        )

    @pytest.mark.parametrize("leaves", [2**16 - 1, 2**16])
    def test_hub_degree_at_uint16_limit(self, leaves):
        # 65,535 is the widest degree range the uint16 keys hold;
        # one more takes the int64 fallback
        ag = _star(leaves)
        order = ag.degree_removal_order()
        assert order[0] == 0 and order[-1] == leaves + 1
        assert np.array_equal(order, lexsort_degree_order(ag.degree_array()))

    @pytest.mark.parametrize("top", [0, 1, 255, 2**16 - 1, 2**16, 2**40])
    def test_stable_descending_matches_lexsort(self, top):
        rng = make_rng(top)
        for n in (1, 10, 1000, 12345):
            values = rng.integers(0, top + 1, size=n)
            values[rng.permutation(n)[:2]] = (top, 0)[:n]
            base = arraygraph_mod._decimal_order(n)
            got = base[arraygraph_mod._stable_descending(values[base])]
            assert np.array_equal(got, lexsort_degree_order(values))

    def test_decimal_order_matches_repr_sort(self):
        for n in (0, 1, 9, 10, 11, 99, 100, 101, 1000, 1234, 10001):
            assert arraygraph_mod._decimal_order(n).tolist() == sorted(
                range(n), key=repr
            )

    @pytest.mark.parametrize("block", [1, 37, 2**18, None])
    @pytest.mark.parametrize("capacity", [None, 8], ids=["int32", "int64"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(stream=csr_streams())
    def test_row_blocks_oracle(self, capacity, block, stream):
        indptr, indices, rows = stream
        want_rows = np.arange(len(indptr) - 1) if rows is None else \
            np.asarray(rows, dtype=np.int64)
        deg = np.diff(indptr)[want_rows]
        with pytest.MonkeyPatch.context() as mp:
            if capacity is not None:  # int64 offsets and flat index
                mp.setattr(arraygraph_mod, "INT32_INDPTR_CAPACITY", capacity)
            ag = ArrayGraph(indptr, indices)
            for g in (ag, mapped_twin(indptr, indices)):
                assert g.indptr.dtype == (
                    np.int64 if capacity and len(indices) > capacity
                    else np.int32
                )
                blocks = list(row_blocks(g.indptr, g.indices, rows, block))
                # contiguous ranges from 0 covering every row
                assert [0] + [b for _, b, _, _ in blocks] == \
                    [a for a, _, _, _ in blocks] + [len(want_rows)]
                for a, b, flat, counts in blocks:
                    assert b > a
                    assert type(flat) is np.ndarray
                    assert flat.dtype == np.int32
                    assert counts.tolist() == deg[a:b].tolist()
                    assert flat.tolist() == row_slices(
                        indptr, indices, want_rows[a:b]
                    ).tolist()
                    if block is None:
                        assert (a, b) == (0, len(want_rows))
                        continue
                    # within the block unless one hub row streams alone,
                    # and ended only where the next row would not fit
                    assert deg[a:b].sum() <= block or b - a == 1
                    assert b == len(want_rows) or deg[a:b + 1].sum() > block


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
            assert list(TargetedDegreeAttack().removal_order(ag)) == \
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
    """Seeded runs agree exactly, seed for seed."""

    def test_probabilistic_cascade_mean_damage(self):
        g = barabasi_albert(150, 2, seed=4)
        obj = ProbabilisticCascadeModel(g, 0.25, engine="object")
        arr = ProbabilisticCascadeModel(g, 0.25, engine="array")
        a = obj.mean_damage(trials=120, seed=17)
        b = arr.mean_damage(trials=120, seed=17)
        assert a == b

    def test_sir_attack_rate_distribution(self):
        g = barabasi_albert(200, 2, seed=12)
        rates = {}
        for kind in ("object", "array"):
            model = SIRModel(g, beta=0.3, gamma=0.25, engine=kind)
            rates[kind] = [
                model.run([0], seed=s).attack_rate(g.n_nodes)
                for s in range(40)
            ]
        assert rates["object"] == rates["array"]

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


# -- the draw stream, pinned across versions --------------------------------

#: literal array-engine outputs on ``barabasi_albert(150, 2, seed=31)``
#: with 15% of it immune, recorded from an earlier version of the engine.
#: The block-size and storage suites compare one version with itself; a
#: change to what, how much or in which order the kernels draw fails
#: here.  ``(counts, sorted final, total ever)`` for SIR/SIS and
#: ``(sorted failed, waves)`` for the cascade.
PINNED_DRAWS = {
    ("sir", 0.05): (
        [3, 6, 9, 9, 9, 8, 12, 12, 8],
        [13, 18, 25, 31, 42, 43, 95, 119],
        24,
    ),
    ("sir", 0.3): (
        [3, 19, 34, 48, 51, 53, 50, 53, 49],
        [4, 5, 11, 12, 14, 15, 17, 20, 22, 23, 25, 27, 28, 32, 36, 38,
         44, 53, 55, 56, 57, 58, 59, 60, 61, 73, 75, 77, 78, 80, 85, 86,
         87, 88, 89, 92, 94, 95, 98, 100, 110, 111, 112, 117, 120, 122,
         130, 138, 139],
        108,
    ),
    ("sis", 0.05): (
        [3, 6, 8, 7, 9, 10, 11, 10, 4, 6, 5, 4, 3],
        [14, 15, 126],
        23,
    ),
    ("sis", 0.3): (
        [3, 19, 37, 45, 64, 59, 69, 69, 78, 80, 81, 76, 80],
        [1, 4, 6, 9, 11, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 24, 25,
         26, 27, 28, 29, 30, 31, 33, 34, 35, 36, 38, 39, 43, 44, 45, 51,
         53, 55, 56, 57, 59, 62, 65, 68, 69, 74, 75, 76, 77, 78, 87, 88,
         89, 91, 92, 93, 95, 96, 97, 98, 100, 104, 106, 108, 111, 112,
         114, 115, 116, 117, 118, 119, 122, 127, 128, 129, 130, 131, 132,
         135, 136, 138, 144],
        127,
    ),
    ("cascade", 0.05): ([0, 3, 5], 2),
    ("cascade", 0.3): (
        [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 15, 16, 18, 19, 20, 26,
         29, 30, 33, 34, 35, 36, 37, 39, 41, 45, 46, 48, 49, 57, 58, 59,
         64, 68, 70, 72, 79, 81, 82, 86, 90, 98, 101, 102, 104, 114, 118,
         120, 121, 123, 131, 134, 137, 138, 145],
        7,
    ),
}


class TestDrawStreamPinned:
    # beta on both sides of bernoulli_indices' dense/sparse split (0.1)
    @pytest.mark.parametrize("beta", (0.05, 0.3))
    @pytest.mark.parametrize("block", (None, 16))
    def test_array_engine_draws_pinned(self, beta, block):
        g = barabasi_albert(150, 2, seed=31)
        immune = immunize(g, 0.15, "random", seed=4)
        eng = ArrayNetworkEngine(block_elems=block)
        patients = [0, 1, 2, 3]  # node 3 is immune and is dropped
        sir = SIRModel(g, beta=beta, gamma=0.2, immune=immune,
                       engine=eng).run(patients, max_steps=8, seed=7)
        sis = SISModel(g, beta=beta, gamma=0.3, immune=immune,
                       engine=eng).run(patients, steps=12, seed=7)
        for kind, res in (("sir", sir), ("sis", sis)):
            assert (
                res.infected_counts.tolist(),
                sorted(res.final_infected),
                res.total_ever_infected,
            ) == PINNED_DRAWS[(kind, beta)]
        cascade = ProbabilisticCascadeModel(
            g, spread_p=beta, engine=eng
        ).trigger([0, 5], seed=7)
        assert (sorted(cascade.failed), cascade.waves) == \
            PINNED_DRAWS[("cascade", beta)]


def _handoff_digest() -> str:
    """sha256 over 64 seeded ``erdos_renyi(1000, 4/999)`` graphs: each
    one's CSR, targeted array-engine percolation curve and array-engine
    SIR run, and the next draw of the RNG threaded through all three."""
    h = hashlib.sha256()
    for seed in range(64):
        rng = np.random.default_rng(seed)
        g = erdos_renyi(1000, 4 / 999, seed=rng)
        ag = as_arraygraph(g)
        h.update(np.asarray(ag.indptr, dtype=np.int64).tobytes())
        h.update(np.asarray(ag.indices, dtype=np.int64).tobytes())
        curve = percolation_curve(
            g, TargetedDegreeAttack(), seed=rng, engine="array"
        )
        h.update(curve.removed_fraction.tobytes())
        h.update(curve.giant_fraction.tobytes())
        patients = rng.choice(1000, 5, replace=False).tolist()
        res = SIRModel(g, beta=0.3, gamma=0.2, engine="array").run(
            patients, max_steps=200, seed=rng
        )
        h.update(np.asarray(res.infected_counts, dtype=np.int64).tobytes())
        h.update(repr(sorted(res.final_infected)).encode())
        h.update(repr(
            (res.total_ever_infected, res.steps, rng.random())
        ).encode())
    return h.hexdigest()


def test_handoff_outputs_pinned():
    # computed with the labelled conversion and the single-draw
    # erdos_renyi; the identity handoff must reproduce it byte for byte
    assert _handoff_digest() == (
        "2607d421a3a6744a6647f429de0f02ce20dcc4c26ced015722434b2f5bacf5cc"
    )


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


@pytest.mark.parametrize("engine", ["object", "array"])
def test_healing_and_array_percolation_check_permutation(engine):
    g = erdos_renyi(10, 0.3, seed=0)
    with pytest.raises(ConfigurationError, match="permutation"):
        percolation_curve(g, _EqualReprAttack(), engine=engine)
    sim = NetworkRecoverySimulator(g, _EqualReprAttack(), engine=engine)
    with pytest.raises(ConfigurationError, match="permutation"):
        sim.run(0.3, horizon=5)


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
        ag = ArrayGraph.from_graph(Graph(nodes=range(60), edges=edges))
        assert ag.indptr.dtype == np.int64
        assert ag.indices.dtype == np.int32  # node ids still fit
        assert ag.n_edges == len(leaves)
        assert ag.degree(hub) == len(leaves)
        # kernels run unchanged on the promoted offsets
        labels = ag.component_labels()
        assert (labels == labels[hub]).all()
        [(_, _, flat, counts)] = row_blocks(
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
