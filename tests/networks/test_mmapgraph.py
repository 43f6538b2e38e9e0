"""Out-of-core suite: memory-mapped CSR graphs and the chunked kernels.

The network engine runs block-streamed kernels on whatever CSR a graph
holds, so its contract is byte-identity for deterministic **and**
stochastic outputs across block sizes and across in-RAM vs
memory-mapped storage of one CSR — the chunked frontier kernels consume
the RNG stream exactly as one whole-frontier gather would (one
``bernoulli_indices`` draw over the whole frontier), so curves,
cascades, and epidemics match draw-for-draw on the same graph and seed.
The chunked union-find kernels are pinned to the single-pass reference
kernels of ``tests/networks/reference_kernels.py``.  The mapped twin of
a graph is an :class:`~repro.networks.arraygraph.ArrayGraph` whose
constructor got ``np.load(f, mmap_mode="r")`` views of its CSR's two
``.npy`` files (``tests/networks/mapped.py``); a mapped graph built from
an edge stream comes from
:meth:`~repro.networks.arraygraph.ArrayGraph.from_edge_chunks`.
"""

import math
import os

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.networks import (
    ArrayGraph,
    Graph,
    RandomFailure,
    SIRModel,
    SISModel,
    TargetedDegreeAttack,
    as_arraygraph,
    barabasi_albert,
    erdos_renyi,
    make_network_engine,
    percolation_curve,
)
from repro.networks import engine as engine_mod
from repro.networks.arraygraph import (
    CHUNK_ELEM_BYTES,
    DEFAULT_CHUNK_BITS,
    MAX_CHUNK_BITS,
    MIN_CHUNK_BITS,
    _component_roots,
    chunked_newman_ziff_giant_sizes,
    derive_chunk_elems,
)
from repro.networks.engine import ArrayNetworkEngine
from repro.networks.generators import (
    barabasi_albert_stream,
    erdos_renyi_stream,
)
from repro.rng import make_rng
from repro.runtime import supervisor, trace

from .mapped import mapped_twin
from .reference_kernels import (
    newman_ziff_giant_sizes,
    undirected_edges,
    union_find_labels,
)

BLOCK_SIZES = (1, 7, 64, 1 << 18)


@pytest.fixture
def ba_graph():
    return barabasi_albert(300, 2, seed=5)


@pytest.fixture
def er_graph():
    return erdos_renyi(200, 0.03, seed=8)


def to_mmap(g) -> ArrayGraph:
    """``g``'s CSR copied verbatim to memory-mapped files."""
    ag = as_arraygraph(g)
    identity = list(ag.labels) == list(range(ag.n_nodes))
    return mapped_twin(
        ag.indptr, ag.indices, labels=None if identity else ag.labels
    )


def reload(mg: ArrayGraph) -> ArrayGraph:
    """A mapped graph's ``.npy`` files under ``mg.path``, loaded again
    with ``mmap_mode="r"`` and passed to the constructor."""
    return ArrayGraph(
        *(np.load(os.path.join(mg.path, f), mmap_mode="r")
          for f in ("indptr.npy", "indices.npy"))
    )


# -- CSR construction ------------------------------------------------------


class TestMmapGraphBuild:
    def test_from_arrays_matches_arraygraph(self, ba_graph):
        # the mapped twin (the constructor over np.load(..., mmap_mode=
        # "r") arrays) holds the in-RAM CSR's bytes
        ag = as_arraygraph(ba_graph)
        mg = to_mmap(ba_graph)
        assert np.array_equal(np.asarray(mg.indptr), ag.indptr)
        assert np.array_equal(np.asarray(mg.indices), ag.indices)
        assert mg.n_nodes == ag.n_nodes
        assert mg.n_edges == ag.n_edges

    def test_from_edge_chunks_matches_graph(self, er_graph):
        mg = ArrayGraph.from_edge_chunks(
            200,
            erdos_renyi_stream(200, 0.03, seed=8, chunk_pairs=53),
        )
        assert mg.n_edges == er_graph.n_edges
        for node in er_graph.nodes():
            assert mg.neighbors(node) == er_graph.neighbors(node)

    def test_from_edge_chunks_small_spill_chunks(self, er_graph):
        # re-reading the spill file in tiny chunks exercises the
        # two-pass counting-sort scatter across chunk boundaries
        mg = ArrayGraph.from_edge_chunks(
            200,
            erdos_renyi_stream(200, 0.03, seed=8, chunk_pairs=53),
            spill_chunk=17,
        )
        for node in er_graph.nodes():
            assert mg.neighbors(node) == er_graph.neighbors(node)

    def test_mapped_arrays_stay_file_backed(self, er_graph):
        # building, reloading or wrapping mapped arrays never copies
        # them into RAM: both stay np.memmap views of the .npy files
        built = ArrayGraph.from_edge_chunks(
            200, erdos_renyi_stream(200, 0.03, seed=8, chunk_pairs=53)
        )
        reopened = reload(built)
        for g in (built, reopened, to_mmap(er_graph),
                  ArrayGraph(reopened.indptr, reopened.indices)):
            for arr in (g.indptr, g.indices):
                assert isinstance(arr, np.memmap)
                assert not arr.flags.owndata
        assert reopened.identity_labels and reopened.labels == range(200)

    def test_int64_indptr_round_trip(self, monkeypatch):
        # force promotion past the (monkeypatched) int32 offset capacity
        monkeypatch.setattr(
            "repro.networks.arraygraph.INT32_INDPTR_CAPACITY", 4
        )
        mg = ArrayGraph.from_edge_chunks(
            6, [(np.array([0, 1, 2]), np.array([1, 2, 3]))]
        )
        assert mg.indptr.dtype == np.int64
        reopened = reload(mg)
        assert isinstance(reopened.indptr, np.memmap)
        assert reopened.indptr.dtype == np.int64
        assert reopened.giant_component_size() == 4
        order = reopened.degree_removal_order()
        assert reopened.check_removal_order(order)

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ConfigurationError, match="parallel edge"):
            ArrayGraph.from_edge_chunks(
                4, [(np.array([0, 0]), np.array([1, 1]))]
            )

    def test_duplicate_across_chunks_rejected(self):
        with pytest.raises(ConfigurationError, match="parallel edge"):
            ArrayGraph.from_edge_chunks(
                4,
                [
                    (np.array([0]), np.array([1])),
                    (np.array([1]), np.array([0])),
                ],
            )

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError, match="self-loop"):
            ArrayGraph.from_edge_chunks(
                4, [(np.array([2]), np.array([2]))]
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            ArrayGraph.from_edge_chunks(
                3, [(np.array([0]), np.array([5]))]
            )

    def test_spill_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_MMAP_DIR", str(tmp_path))
        mg = ArrayGraph.from_edge_chunks(
            3, [(np.array([0]), np.array([1]))]
        )
        assert os.path.dirname(mg.path) == str(tmp_path)

    def test_rejected_stream_leaves_no_spill(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_MMAP_DIR", str(tmp_path))

        def broken():
            yield np.array([0]), np.array([1])
            raise RuntimeError("stream broke")

        for stream, error in (
            ([(np.array([2]), np.array([2]))], ConfigurationError),
            ([(np.array([0]), np.array([5]))], ConfigurationError),
            (broken(), RuntimeError),
        ):
            with pytest.raises(error):
                ArrayGraph.from_edge_chunks(4, stream)
        assert os.listdir(tmp_path) == []

    def test_row_order_independent_of_spill_chunk(self):
        # each row lists the edges it starts, then the edges it ends,
        # each in stream order, whatever size the spill is re-read in
        edges = [
            (u, v)
            for cu, cv in erdos_renyi_stream(2000, 0.004, seed=7)
            for u, v in zip(cu.tolist(), cv.tolist())
        ]
        starts = [[] for _ in range(2000)]
        ends = [[] for _ in range(2000)]
        for u, v in edges:
            starts[u].append(v)
            ends[v].append(u)
        ref = np.concatenate([np.asarray(a + b, dtype=np.int32)
                              for a, b in zip(starts, ends)])
        built = [
            ArrayGraph.from_edge_chunks(
                2000,
                erdos_renyi_stream(2000, 0.004, seed=7, chunk_pairs=997),
                **kw,
            )
            for kw in ({"spill_chunk": 7}, {"spill_chunk": 500}, {})
        ]
        for mg in built:
            assert np.asarray(mg.indptr).tobytes() == \
                np.asarray(built[-1].indptr).tobytes()
            assert np.asarray(mg.indices).tobytes() == ref.tobytes()
        # the stream [(1, 0), (0, 2)]: row 0 starts (0, 2), ends (1, 0)
        for spill_chunk in (1, 2):
            mg = ArrayGraph.from_edge_chunks(
                3, [(np.array([1, 0]), np.array([0, 2]))],
                spill_chunk=spill_chunk,
            )
            assert mg.indices[:2].tolist() == [2, 1]

    def test_spill_cleaned_up_on_gc(self):
        mg = ArrayGraph.from_edge_chunks(
            3, [(np.array([0]), np.array([1]))]
        )
        path = mg.path
        assert os.path.isdir(path)
        mg._finalizer()
        assert not os.path.exists(path)


class TestMmapGraphQueries:
    def test_graph_api_parity(self, ba_graph):
        mg = to_mmap(ba_graph)
        assert len(mg) == ba_graph.n_nodes
        assert list(mg.nodes()) == list(range(300))
        assert mg.degrees() == ba_graph.degrees()
        assert 0 in mg and 299 in mg and 300 not in mg
        assert "0" not in mg and True not in mg  # bool is not a node id
        assert mg.has_edge(0, 1) == ba_graph.has_edge(0, 1)
        assert not mg.has_edge(0, 300)
        assert sorted(tuple(sorted(e)) for e in mg.edges()) == sorted(
            tuple(sorted(e)) for e in ba_graph.edges()
        )

    def test_to_graph_round_trip(self, er_graph):
        back = to_mmap(er_graph).to_graph()
        assert back.n_nodes == er_graph.n_nodes
        assert {tuple(sorted(e)) for e in back.edges()} == {
            tuple(sorted(e)) for e in er_graph.edges()
        }

    def test_indices_of_ndarray_fast_path(self, ba_graph):
        mg = to_mmap(ba_graph)
        idx = mg.indices_of(np.array([5, 0, 299]))
        assert idx.tolist() == [5, 0, 299]
        with pytest.raises(ConfigurationError, match="not in graph"):
            mg.indices_of(np.array([0, 300]))

    def test_check_removal_order(self, ba_graph):
        mg = to_mmap(ba_graph)
        n = mg.n_nodes
        assert mg.check_removal_order(np.random.default_rng(0).permutation(n))
        assert mg.check_removal_order(list(range(n)))
        assert not mg.check_removal_order(list(range(n - 1)))
        dup = list(range(n)); dup[0] = 1
        assert not mg.check_removal_order(dup)
        assert not mg.check_removal_order(["x"] * n)

    def test_labelled_graph_preserves_labels(self):
        g = Graph(edges=[("a", "b"), ("b", "c")])
        mg = to_mmap(g)
        assert not mg.identity_labels
        assert mg.neighbors("b") == frozenset({"a", "c"})
        assert set(mg.degree_removal_order()) == {"a", "b", "c"}

    def test_components_match_arraygraph(self):
        # 33 components: the mapped twin lists them in the object
        # Graph's order, not just as the same sets
        g = erdos_renyi(200, 0.01, seed=8)
        ref = g.connected_components()
        assert len(ref) == 33
        ag = as_arraygraph(g)
        for cg in (ag, to_mmap(g)):
            assert cg.connected_components() == ref
            assert cg.giant_component_size() == g.giant_component_size()
        assert np.array_equal(
            to_mmap(g).component_labels(), ag.component_labels()
        )


# -- chunked kernels: byte-identity across block sizes ---------------------


def _isolated_graph() -> ArrayGraph:
    """Twelve nodes; 0, 4 and 11 have no edges."""
    return ArrayGraph.from_graph(Graph(nodes=range(12), edges=[
        (1, 2), (2, 3), (3, 5), (6, 7), (7, 8), (8, 9), (9, 10), (1, 10)
    ]))


def _nz_params(cases):
    """``(case, block)`` parameters: the BA graph over every block size
    (ids are the bare block size), then each edge case at the extremes."""
    return [pytest.param("ba", b, id=str(b)) for b in BLOCK_SIZES] + [
        pytest.param(case, b, id=f"{case}-{b}")
        for case in cases for b in (1, 1 << 18)
    ]


class TestChunkedKernels:
    @pytest.mark.parametrize("case,block", _nz_params(["isolated", "empty"]))
    def test_newman_ziff_identical(self, ba_graph, case, block):
        g = _isolated_graph() if case == "isolated" else ba_graph
        ag = as_arraygraph(g)
        mg = to_mmap(g)
        order = np.random.default_rng(2).permutation(ag.n_nodes)
        if case == "empty":
            order = order[:0]
        ref = newman_ziff_giant_sizes(ag.indptr, ag.indices, order)
        got = chunked_newman_ziff_giant_sizes(
            mg.indptr, mg.indices, order, block_elems=block
        )
        assert np.array_equal(ref, got)

    @pytest.mark.parametrize(
        "case,block", _nz_params(["isolated", "all-base", "empty"])
    )
    def test_newman_ziff_with_base_identical(self, ba_graph, case, block):
        g = _isolated_graph() if case == "isolated" else ba_graph
        ag = as_arraygraph(g)
        mg = to_mmap(g)
        n = ag.n_nodes
        cut = {"ba": 120, "isolated": 6, "all-base": n, "empty": 0}[case]
        base = np.arange(cut)
        adds = np.arange(cut, 0 if case == "empty" else n)
        ref = newman_ziff_giant_sizes(
            ag.indptr, ag.indices, adds, base=base
        )
        got = chunked_newman_ziff_giant_sizes(
            mg.indptr, mg.indices, adds, base=base, block_elems=block
        )
        assert np.array_equal(ref, got)

    def test_work_counters(self, ba_graph):
        # a full curve unions each edge once, from its later endpoint
        ag = as_arraygraph(ba_graph)
        eng = ArrayNetworkEngine(block_elems=64)
        tr = trace.Tracer()
        with trace.use(tr):
            percolation_curve(
                ag, TargetedDegreeAttack(), resolution=16, engine=eng
            )
        assert tr.counters["net.nz_edges.array"] == ag.n_edges
        # SIS gathers every infected row each step; SIR gathers only the
        # rows holding a hit, never one whose neighbours are all
        # infected, recovered or immune
        rows, every_row = {}, {}
        for model in (SISModel, SIRModel):
            tr = trace.Tracer()
            with trace.use(tr):
                res = model(ag, beta=0.6, gamma=0.2, engine=eng).run(
                    [0, 1], 20, seed=3
                )
            rows[model] = tr.counters["net.epidemic.rows.array"]
            every_row[model] = int(res.infected_counts[:-1].sum())
        assert rows[SISModel] == every_row[SISModel]
        assert 0 < rows[SIRModel] < every_row[SIRModel]
        # a hub whose leaves are all immune has no candidates to gather
        star = ArrayGraph.from_graph(
            Graph(edges=[(0, leaf) for leaf in range(1, 6)])
        )
        tr = trace.Tracer()
        with trace.use(tr):
            res = SIRModel(star, beta=0.9, gamma=0.2, immune=range(1, 6),
                           engine=eng).run([0], 20, seed=3)
        assert res.steps > 0
        assert tr.counters["net.epidemic.rows.array"] == 0

    @pytest.mark.parametrize("block", BLOCK_SIZES)
    def test_union_find_identical(self, er_graph, block):
        ag = as_arraygraph(er_graph)
        mg = to_mmap(er_graph)
        u, v = undirected_edges(ag.indptr, ag.indices)
        ref = union_find_labels(ag.n_nodes, u, v)
        first = np.full(ag.n_nodes, ag.n_nodes, dtype=np.int64)
        np.minimum.at(first, ref, np.arange(ag.n_nodes, dtype=np.int64))
        got = _component_roots(mg.indptr, mg.indices, block_elems=block)
        # the reference's partition, each component named by its
        # smallest node index, at every block size
        assert np.array_equal(first[ref], got)


# -- block sizing ----------------------------------------------------------------


class TestBudgetDerivation:
    def test_default_block(self):
        assert derive_chunk_elems(None) == 1 << DEFAULT_CHUNK_BITS

    def test_budget_monotone_and_clamped(self):
        tiny = derive_chunk_elems(1)
        huge = derive_chunk_elems(1 << 40)
        assert tiny == 1 << MIN_CHUNK_BITS
        assert huge == 1 << MAX_CHUNK_BITS
        prev = 0
        for mb in (1, 4, 16, 64, 256, 1024):
            blk = derive_chunk_elems(mb << 20)
            assert blk >= prev
            assert blk * CHUNK_ELEM_BYTES <= max(
                mb << 20, (1 << MIN_CHUNK_BITS) * CHUNK_ELEM_BYTES
            )
            prev = blk


# -- engine equivalence: byte-identity across blocks and storage ---------


class TestMmapEngineEquivalence:
    """Reference: the default-block engine on the in-RAM graph.

    Subjects: small ``block_elems`` (so frontiers and Newman–Ziff
    additions straddle many blocks) and the same CSR memory-mapped.
    """

    @pytest.mark.parametrize("block", (13, 256, 1 << 18))
    def test_percolation_curves_identical(self, ba_graph, block):
        mg = to_mmap(ba_graph)
        for attack in (TargetedDegreeAttack(), RandomFailure()):
            ref = percolation_curve(
                ba_graph, attack, seed=42, engine="array"
            )
            for g in (ba_graph, mg):
                got = percolation_curve(
                    g, attack, seed=42,
                    engine=ArrayNetworkEngine(block_elems=block),
                )
                assert np.array_equal(
                    ref.giant_fraction, got.giant_fraction
                )
                assert np.array_equal(
                    ref.removed_fraction, got.removed_fraction
                )

    def test_percolation_on_mmap_input(self, ba_graph):
        # percolating the mapped graph itself exercises check_removal_order
        # and the ndarray ordering fast path end-to-end
        mg = to_mmap(ba_graph)
        ref = percolation_curve(
            ba_graph, TargetedDegreeAttack(), engine="array"
        )
        got = percolation_curve(
            mg, TargetedDegreeAttack(), engine="mmap"
        )
        assert np.array_equal(ref.giant_fraction, got.giant_fraction)

    @pytest.mark.parametrize("block", (13, 1 << 18))
    def test_sir_draw_identical(self, ba_graph, block):
        # block 13 keeps some pass-1 candidate blocks and re-gathers
        # the rest; 2^18 holds every frontier in one kept block
        ref = SIRModel(ba_graph, 0.3, 0.25, engine="array").run(
            [0, 1], seed=7
        )
        for g in (ba_graph, to_mmap(ba_graph)):
            got = SIRModel(
                g, 0.3, 0.25,
                engine=ArrayNetworkEngine(block_elems=block),
            ).run([0, 1], seed=7)
            assert np.array_equal(
                ref.infected_counts, got.infected_counts
            )
            assert ref.final_infected == got.final_infected
            assert ref.total_ever_infected == got.total_ever_infected

    @pytest.mark.parametrize("beta", (0.04, 0.5))
    def test_sis_draw_identical_sparse_and_dense(self, ba_graph, beta):
        # beta above and below the bernoulli_indices dense/sparse split
        ref = SISModel(ba_graph, beta, 0.3, engine="array").run(
            [0, 1, 2], steps=40, seed=13
        )
        got = SISModel(
            to_mmap(ba_graph), beta, 0.3,
            engine=ArrayNetworkEngine(block_elems=13),
        ).run([0, 1, 2], steps=40, seed=13)
        assert np.array_equal(ref.infected_counts, got.infected_counts)
        assert ref.final_infected == got.final_infected

    def test_load_cascade_float_identical(self, ba_graph):
        init = {n: 1.0 for n in ba_graph.nodes()}
        cap = {n: 1.8 for n in ba_graph.nodes()}
        ea = make_network_engine("array")
        em = ArrayNetworkEngine(block_elems=29)
        ref = ea.load_cascade(ba_graph, init, cap, frozenset([0, 5]))
        for g in (ba_graph, to_mmap(ba_graph)):
            assert em.load_cascade(g, init, cap, frozenset([0, 5])) == ref

    def test_spread_cascade_draw_identical(self, ba_graph):
        ea = make_network_engine("array")
        em = ArrayNetworkEngine(block_elems=51)
        mg = to_mmap(ba_graph)
        for seed in range(4):
            for p in (0.04, 0.5):
                ref = ea.spread_cascade(
                    ba_graph, p, frozenset([0, 1]), make_rng(seed)
                )
                for g in (ba_graph, mg):
                    assert em.spread_cascade(
                        g, p, frozenset([0, 1]), make_rng(seed)
                    ) == ref

    def test_healing_identical(self, ba_graph):
        ea = make_network_engine("array")
        em = ArrayNetworkEngine(block_elems=33)
        ref = ea.healing_episode(ba_graph, [0, 1, 2, 3], 2, 12, 3)
        for g in (ba_graph, to_mmap(ba_graph)):
            assert em.healing_episode(g, [0, 1, 2, 3], 2, 12, 3) == ref

    def test_ordering_identical(self, ba_graph):
        ag = as_arraygraph(ba_graph)
        mg = to_mmap(ba_graph)
        assert list(ag.degree_removal_order()) == [
            int(x) for x in mg.degree_removal_order()
        ]
        small = barabasi_albert(40, 2, seed=1)
        assert as_arraygraph(small).adaptive_degree_removal_order() == \
            to_mmap(small).adaptive_degree_removal_order()

    def test_object_engine_accepts_mmap_graph(self, er_graph):
        mg = to_mmap(er_graph)
        eng = make_network_engine("object")
        ref = make_network_engine("array").percolation_giant_sizes(
            er_graph, list(range(200)), [50, 200]
        )
        assert eng.percolation_giant_sizes(
            mg, list(range(200)), [50, 200]
        ) == ref


# -- supervisor budget: block scheduling, never a spill --------------------


class TestBudgetDegrade:
    @staticmethod
    def _run_budgeted(ba_graph, monkeypatch, tmp_path, budget_mb):
        """Percolate under ``budget_mb``: (ref, got, blocks, sup, counters)."""
        monkeypatch.setenv("REPRO_MMAP_DIR", str(tmp_path))
        eng = ArrayNetworkEngine()
        ref = eng.percolation_giant_sizes(
            ba_graph, list(range(300)), [100, 300]
        )
        blocks = []
        giants_at = engine_mod.newman_ziff_giants_at

        def spy(*args, block_elems, **kwargs):
            blocks.append(block_elems)
            return giants_at(*args, block_elems=block_elems, **kwargs)

        monkeypatch.setattr(engine_mod, "newman_ziff_giants_at", spy)
        sup = supervisor.Supervisor(memory_budget_mb=budget_mb)
        tr = trace.Tracer()
        with supervisor.use(sup), trace.use(tr):
            got = eng.percolation_giant_sizes(
                ba_graph, list(range(300)), [100, 300]
            )
        return ref, got, blocks, sup, tr.counters

    def test_array_engine_degrades_over_budget(
        self, ba_graph, monkeypatch, tmp_path
    ):
        # Over budget the engine degrades to small blocks, not a spill.
        ref, got, blocks, sup, counters = self._run_budgeted(
            ba_graph, monkeypatch, tmp_path, 0.001
        )
        assert got == ref
        assert blocks == [derive_chunk_elems(sup.memory_budget_bytes())]
        assert blocks[0] < 1 << DEFAULT_CHUNK_BITS
        assert counters["net.curves.array"] == 1
        assert "supervisor.preemptions" not in counters
        assert list(tmp_path.iterdir()) == []  # nothing spilled to disk

    def test_array_engine_stays_in_ram_under_budget(
        self, ba_graph, monkeypatch, tmp_path
    ):
        ref, got, blocks, sup, counters = self._run_budgeted(
            ba_graph, monkeypatch, tmp_path, 1024
        )
        assert got == ref
        assert blocks == [derive_chunk_elems(sup.memory_budget_bytes())]
        assert counters["net.curves.array"] == 1
        assert "supervisor.preemptions" not in counters
        assert list(tmp_path.iterdir()) == []

    def test_mmap_block_derives_from_budget(self):
        sup = supervisor.Supervisor(memory_budget_mb=1)
        with supervisor.use(sup):
            assert ArrayNetworkEngine()._block() == derive_chunk_elems(
                1 << 20
            )
        assert ArrayNetworkEngine()._block() == 1 << DEFAULT_CHUNK_BITS


# -- streaming generators --------------------------------------------------


class TestStreamGenerators:
    def test_er_stream_exact_pinned_to_erdos_renyi(self):
        # same seed, same gaps: the stream's edges are erdos_renyi's,
        # in its insertion order
        g = erdos_renyi(80, 0.07, seed=11)
        got = [
            (int(a), int(b))
            for cu, cv in erdos_renyi_stream(80, 0.07, seed=11,
                                             chunk_pairs=97)
            for a, b in zip(cu, cv)
        ]
        assert got == sorted(tuple(sorted(e)) for e in g.edges())
        assert got == sorted(got)

    # 600 nodes at p=0.05 hold ~9,000 edges: nine gap batches at
    # chunk_pairs 1 or 53 (1,024 gaps each), two at 10^5, one above
    @pytest.mark.parametrize("chunk_pairs", (1, 53, 100_000, 1 << 20))
    def test_er_stream_exact_chunk_invariant(self, chunk_pairs):
        ref = [
            e
            for cu, cv in erdos_renyi_stream(
                600, 0.05, seed=4, chunk_pairs=10**9
            )
            for e in zip(cu.tolist(), cv.tolist())
        ]
        got = [
            e
            for cu, cv in erdos_renyi_stream(
                600, 0.05, seed=4, chunk_pairs=chunk_pairs
            )
            for e in zip(cu.tolist(), cv.tolist())
        ]
        assert got == ref

    def test_er_stream_gap_same_ensemble(self):
        # the G(n, p) ensemble over seeds: edge counts against the
        # binomial over n(n-1)/2 pairs, pooled degrees against
        # Binomial(n-1, p)
        n, p, seeds = 400, 0.02, 20
        counts, degrees = [], []
        for s in range(seeds):
            deg = np.zeros(n, dtype=np.int64)
            m = 0
            for cu, cv in erdos_renyi_stream(n, p, seed=s):
                deg += np.bincount(cu, minlength=n)
                deg += np.bincount(cv, minlength=n)
                m += len(cu)
            counts.append(m)
            degrees.append(deg)
        pairs = n * (n - 1) // 2
        expect, sd = p * pairs, np.sqrt(pairs * p * (1 - p))
        # the mean of 20 counts within four standard errors
        assert abs(np.mean(counts) - expect) < 4 * sd / np.sqrt(seeds)
        assert 0.5 < np.std(counts) / sd < 1.5
        pooled = np.concatenate(degrees)
        k = n - 1
        assert pooled.mean() == pytest.approx(k * p, rel=0.03)
        assert pooled.var() == pytest.approx(k * p * (1 - p), rel=0.1)
        # total-variation distance to the binomial pmf
        hist = np.bincount(pooled) / len(pooled)
        ks = np.arange(len(hist))
        log_pmf = (
            np.array([math.lgamma(k + 1) - math.lgamma(x + 1)
                      - math.lgamma(k - x + 1) for x in ks])
            + ks * np.log(p) + (k - ks) * np.log1p(-p)
        )
        assert 0.5 * np.abs(hist - np.exp(log_pmf)).sum() < 0.03

    def test_er_stream_gap_valid_edges(self):
        seen = set()
        for cu, cv in erdos_renyi_stream(50, 0.3, seed=2, chunk_pairs=37):
            assert np.all(cu < cv)
            for e in zip(cu.tolist(), cv.tolist()):
                assert e not in seen
                seen.add(e)

    def test_er_stream_p_one(self):
        total = sum(
            len(cu)
            for cu, _ in erdos_renyi_stream(20, 1.0, seed=0, chunk_pairs=7)
        )
        assert total == 20 * 19 // 2

    def test_er_stream_empty(self):
        assert list(erdos_renyi_stream(1, 0.5, seed=0)) == []
        assert list(erdos_renyi_stream(10, 0.0, seed=0)) == []

    def test_er_stream_validation(self):
        with pytest.raises(ConfigurationError):
            list(erdos_renyi_stream(-1, 0.5))
        with pytest.raises(ConfigurationError):
            list(erdos_renyi_stream(5, 1.5))
        with pytest.raises(ConfigurationError):
            list(erdos_renyi_stream(5, 0.5, chunk_pairs=0))
        with pytest.raises(TypeError):
            list(erdos_renyi_stream(5, 0.5, method="exact"))

    def test_ba_stream_pinned_to_barabasi_albert(self):
        g = barabasi_albert(150, 3, seed=9)
        got = sorted(
            tuple(sorted((int(a), int(b))))
            for cu, cv in barabasi_albert_stream(
                150, 3, seed=9, chunk_edges=37
            )
            for a, b in zip(cu, cv)
        )
        assert got == sorted(tuple(sorted(e)) for e in g.edges())

    def test_ba_stream_chronological_chunk_invariant(self):
        ref = [
            e
            for cu, cv in barabasi_albert_stream(100, 2, seed=6)
            for e in zip(cu.tolist(), cv.tolist())
        ]
        got = [
            e
            for cu, cv in barabasi_albert_stream(
                100, 2, seed=6, chunk_edges=11
            )
            for e in zip(cu.tolist(), cv.tolist())
        ]
        assert got == ref

    def test_ba_stream_validation(self):
        with pytest.raises(ConfigurationError):
            list(barabasi_albert_stream(5, 0))
        with pytest.raises(ConfigurationError):
            list(barabasi_albert_stream(2, 3))
        with pytest.raises(ConfigurationError):
            list(barabasi_albert_stream(10, 2, chunk_edges=0))

    def test_stream_to_mmap_end_to_end(self):
        # the full out-of-core path: stream -> spill build -> kernels,
        # against the in-RAM path from the same seed
        n = 200
        mg = ArrayGraph.from_edge_chunks(
            n,
            erdos_renyi_stream(n, 0.04, seed=21, chunk_pairs=101),
        )
        g = erdos_renyi(n, 0.04, seed=21)
        ref = percolation_curve(
            g, TargetedDegreeAttack(), engine="array", resolution=20
        )
        got = percolation_curve(
            mg, TargetedDegreeAttack(), engine="mmap", resolution=20
        )
        assert np.array_equal(ref.giant_fraction, got.giant_fraction)
