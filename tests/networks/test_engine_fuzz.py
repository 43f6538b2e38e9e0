"""Differential fuzzing of the block-streamed network engine.

Random small graphs — isolated nodes and empty edge sets included — run
through :class:`~repro.networks.engine.ArrayNetworkEngine` at block
sizes from one slot to past ``2m`` (every frontier and Newman–Ziff
addition split differently), on both storages of one CSR: the in-RAM
:class:`~repro.networks.arraygraph.ArrayGraph` and its memory-mapped
twin (``tests/networks/mapped.py``).

* deterministic kernels (percolation sizes, load cascades, healing)
  must equal :class:`~repro.networks.engine.ObjectNetworkEngine`
  exactly, at every checkpoint or at a sparse subset, on whichever
  Newman–Ziff path the edges per checkpoint select (a spy pins the
  selection, a fixed graph above the threshold takes the numpy path);
* the numpy Newman–Ziff path itself must equal the single-pass
  reference kernel at every drawn stop, base prefix and block size;
* stochastic kernels (SIR, SIS, spread cascades) must be byte-identical
  to the default-block engine on the in-RAM graph, same seed.

The ``Graph`` → CSR handoff is fuzzed against a per-node labelled
reference conversion: same bytes, and the same output from every
kernel on the identity and the labelled CSR.  The graph API itself is
fuzzed too: identity-labelled and labelled (string labels, shuffled
node order) graphs on both storages must answer every query as the
object :class:`~repro.networks.graph.Graph` does.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.networks import (
    AdaptiveDegreeAttack,
    ArrayGraph,
    Graph,
    TargetedDegreeAttack,
    as_arraygraph,
)
from repro.networks import arraygraph as arraygraph_mod
from repro.networks.arraygraph import (
    VECTOR_EDGES_PER_STOP,
    newman_ziff_giants_at,
    vectorized_newman_ziff_giants_at,
)
from repro.networks.engine import ArrayNetworkEngine, ObjectNetworkEngine
from repro.networks.generators import erdos_renyi
from repro.runtime import trace

from .mapped import mapped_twin
from .reference_kernels import newman_ziff_giant_sizes

BLOCKS = (1, 7, 13, 64, 1 << 18)
#: keeps capacities off every small-denominator rational, so the order
#: in which the engines sum load shares cannot flip a ``load > cap``
_NUDGE = 2 ** -0.5 * 1e-3

FUZZ = settings(max_examples=30, deadline=None)


@st.composite
def graphs(draw, max_nodes: int = 12) -> Graph:
    n = draw(st.integers(1, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = (
        draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    )
    return Graph(nodes=range(n), edges=edges)


def subjects(g: Graph, data):
    """``(engine, graph)`` for every block size and both storages."""
    ag = as_arraygraph(g)
    assert list(ag.labels) == list(range(ag.n_nodes))
    mg = mapped_twin(ag.indptr, ag.indices)
    drawn = data.draw(st.integers(1, 2 * ag.n_edges + 2), label="block")
    for block in BLOCKS + (drawn,):
        engine = ArrayNetworkEngine(block_elems=block)
        yield engine, ag
        yield engine, mg


def node_subset(data, n: int, label: str, min_size: int = 0) -> list:
    return data.draw(
        st.lists(
            st.integers(0, n - 1), min_size=min_size, max_size=n,
            unique=True,
        ),
        label=label,
    )


# -- deterministic kernels: equal to the object engine ---------------------


@FUZZ
@given(g=graphs(), data=st.data())
def test_percolation_matches_object(g, data):
    n = g.n_nodes
    order = data.draw(st.permutations(range(n)), label="order")
    sparse = sorted(set(data.draw(
        st.lists(st.integers(1, n), max_size=4), label="checkpoints"
    )))
    for checkpoints in (list(range(1, n + 1)), sparse):
        ref = ObjectNetworkEngine().percolation_giant_sizes(
            g, order, checkpoints
        )
        for engine, cg in subjects(g, data):
            assert engine.percolation_giant_sizes(
                cg, order, checkpoints
            ) == ref


@FUZZ
@given(
    g=graphs(), data=st.data(),
    tol=st.sampled_from((0.0, 0.2, 0.5, 1.0)),
)
def test_load_cascade_matches_object(g, data, tol):
    load = {v: float(g.degree(v) + 1) for v in g.nodes()}
    cap = {v: (1.0 + tol) * load[v] + _NUDGE for v in g.nodes()}
    seeds = frozenset(node_subset(data, g.n_nodes, "seeds", min_size=1))
    ref = ObjectNetworkEngine().load_cascade(g, load, cap, seeds)
    for engine, cg in subjects(g, data):
        assert engine.load_cascade(cg, load, cap, seeds) == ref


@FUZZ
@given(
    g=graphs(), data=st.data(), repairs=st.integers(0, 13),
    horizon=st.integers(2, 8),
)
def test_healing_matches_object(g, data, repairs, horizon):
    # repairs > 1 reads the restoration curve at a sparse subset of
    # counts; past n_removed one step heals every victim
    victims = data.draw(
        st.permutations(range(g.n_nodes)), label="triage"
    )[:data.draw(st.integers(0, g.n_nodes), label="n_removed")]
    shock = data.draw(st.integers(0, horizon - 1), label="shock_time")
    ref = ObjectNetworkEngine().healing_episode(
        g, victims, repairs, horizon, shock
    )
    for engine, cg in subjects(g, data):
        assert engine.healing_episode(
            cg, victims, repairs, horizon, shock
        ) == ref


# -- the Graph → CSR handoff: identity CSR == the labelled conversion ------


def labelled_csr(g: Graph) -> ArrayGraph:
    """Per-node reference conversion with an explicit label list: each
    row in its adjacency set's iteration order, mapped through a
    label → index dict."""
    labels = list(g.nodes())
    index = {lab: i for i, lab in enumerate(labels)}
    rows = [[index[v] for v in g._adj[lab]] for lab in labels]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = [v for row in rows for v in row]
    return ArrayGraph(indptr, indices, labels=labels)


@FUZZ
@given(g=graphs(), data=st.data())
def test_identity_handoff_matches_labelled_csr(g, data):
    n = g.n_nodes
    ident, ref = as_arraygraph(g), labelled_csr(g)
    assert ident.identity_labels and not ref.identity_labels
    assert ident.indptr.tobytes() == ref.indptr.tobytes()
    assert ident.indices.tobytes() == ref.indices.tobytes()
    assert list(ident.degree_removal_order()) == ref.degree_removal_order()
    assert ident.adaptive_degree_removal_order() == \
        ref.adaptive_degree_removal_order()
    order = data.draw(st.permutations(range(n)), label="order")
    seeds = frozenset(node_subset(data, n, "seeds", min_size=1))
    immune = frozenset(node_subset(data, n, "immune"))
    load = {v: float(g.degree(v) + 1) for v in g.nodes()}
    cap = {v: 1.2 * load[v] + _NUDGE for v in g.nodes()}
    victims = order[:data.draw(st.integers(0, n), label="n_removed")]
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    eng = ArrayNetworkEngine()
    runs = (
        lambda cg, rng: eng.percolation_giant_sizes(
            cg, order, list(range(1, n + 1))
        ),
        lambda cg, rng: eng.sir(cg, 0.4, 0.3, immune, set(seeds), 10, rng),
        lambda cg, rng: eng.sis(cg, 0.4, 0.3, immune, set(seeds), 10, rng),
        lambda cg, rng: eng.spread_cascade(cg, 0.5, seeds, rng),
        lambda cg, rng: eng.load_cascade(cg, load, cap, seeds),
        lambda cg, rng: eng.healing_episode(cg, victims, 2, 6, 1),
    )
    for run in runs:
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (run(ident, a), a.random()) == (run(ref, b), b.random())


# -- the two Newman–Ziff paths --------------------------------------------


@FUZZ
@given(g=graphs(max_nodes=30), data=st.data())
def test_vectorized_newman_ziff_matches_reference(g, data):
    ag = as_arraygraph(g)
    n = ag.n_nodes
    perm = np.asarray(
        data.draw(st.permutations(range(n)), label="sequence"),
        dtype=np.int64,
    )
    cut = data.draw(st.integers(0, n), label="base size")
    no_base = cut == 0 and data.draw(st.booleans(), label="base=None")
    base = None if no_base else perm[:cut]
    order = perm[cut:]
    ref = newman_ziff_giant_sizes(ag.indptr, ag.indices, order, base=base)
    stops = data.draw(
        st.lists(st.integers(0, len(order)), max_size=6), label="stops"
    )
    marks = np.unique([0, len(order), *stops])
    block = data.draw(
        st.sampled_from(BLOCKS) | st.integers(1, 2 * ag.n_edges + 2),
        label="block",
    )
    for cg in (ag, mapped_twin(ag.indptr, ag.indices)):
        got = vectorized_newman_ziff_giants_at(
            cg.indptr, cg.indices, order, marks, base, block
        )
        assert got.tolist() == ref[marks].tolist()
        # the dispatcher reads any stops, unsorted and repeated
        assert newman_ziff_giants_at(
            cg.indptr, cg.indices, order, stops, base, block
        ).tolist() == ref[stops].tolist()


@pytest.fixture(scope="module")
def dense_graph() -> Graph:
    """~6000 edges: a few checkpoints put it above the threshold."""
    return erdos_renyi(2000, 0.003, seed=4)


def test_above_threshold_matches_object(dense_graph):
    g = dense_graph
    n = g.n_nodes
    order = list(np.random.default_rng(1).permutation(n))
    checkpoints = [n // 8, n // 3, n // 2, 3 * n // 4, n]
    assert g.n_edges >= VECTOR_EDGES_PER_STOP * (len(checkpoints) + 1)
    victims = order[: n // 3]
    for engine, cg in ((ArrayNetworkEngine(), g),
                       (ArrayNetworkEngine(block_elems=999),
                        mapped_twin(*_csr(g)))):
        assert engine.percolation_giant_sizes(
            cg, order, checkpoints
        ) == ObjectNetworkEngine().percolation_giant_sizes(
            g, order, checkpoints
        )
        assert engine.healing_episode(
            cg, victims, 150, 6, 1
        ) == ObjectNetworkEngine().healing_episode(g, victims, 150, 6, 1)


def _csr(g):
    ag = as_arraygraph(g)
    return ag.indptr, ag.indices


def _ring(n: int, reach: int) -> ArrayGraph:
    """Each node joined to its next ``reach`` nodes: ``n·reach`` edges."""
    edges = [(i, (i + d) % n) for i in range(n) for d in range(1, reach + 1)]
    return ArrayGraph.from_graph(Graph(nodes=range(n), edges=edges))


@pytest.mark.parametrize("extra_stop,path", [(False, "numpy"), (True, "loop")])
def test_engine_path_flips_at_threshold(monkeypatch, extra_stop, path):
    # 1024·2 edges and 4 distinct stops sit exactly on the threshold
    # (2048 = 512·4); one more stop drops below it
    assert VECTOR_EDGES_PER_STOP == 512
    g = _ring(1024, 2)
    calls = []
    for name, label in (("vectorized_newman_ziff_giants_at", "numpy"),
                        ("chunked_newman_ziff_giant_sizes", "loop")):
        real = getattr(arraygraph_mod, name)

        def spy(*args, _real=real, _label=label, **kwargs):
            calls.append(_label)
            return _real(*args, **kwargs)

        monkeypatch.setattr(arraygraph_mod, name, spy)
    checkpoints = [256, 512, 1024] + ([768] if extra_stop else [])
    order = list(range(1024))
    tr = trace.Tracer()
    with trace.use(tr):
        got = ArrayNetworkEngine().percolation_giant_sizes(
            g, order, sorted(checkpoints)
        )
    assert calls == [path]
    # a full curve unions each kept edge once on either path
    assert tr.counters["net.nz_edges.array"] == g.n_edges
    assert got == ObjectNetworkEngine().percolation_giant_sizes(
        g.to_graph(), order, sorted(checkpoints)
    )


# -- stochastic kernels: byte-identical across blocks and storage ----------


def _same_draws(g, data, run):
    """``run(engine, graph, rng)`` agrees with the default in-RAM run."""
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    ref = run(ArrayNetworkEngine(), g, np.random.default_rng(seed))
    for engine, cg in subjects(g, data):
        assert run(engine, cg, np.random.default_rng(seed)) == ref


@FUZZ
@given(
    g=graphs(), data=st.data(), beta=st.floats(0.0, 1.0),
    gamma=st.floats(0.0, 1.0), steps=st.integers(0, 12),
)
def test_sir_identical_across_blocks_and_storage(
    g, data, beta, gamma, steps
):
    immune = frozenset(node_subset(data, g.n_nodes, "immune"))
    infected = node_subset(data, g.n_nodes, "infected", min_size=1)
    _same_draws(g, data, lambda engine, cg, rng: engine.sir(
        cg, beta, gamma, immune, set(infected), steps, rng
    ))


@FUZZ
@given(
    g=graphs(), data=st.data(), beta=st.floats(0.0, 1.0),
    gamma=st.floats(0.0, 1.0), steps=st.integers(0, 12),
)
def test_sis_identical_across_blocks_and_storage(
    g, data, beta, gamma, steps
):
    immune = frozenset(node_subset(data, g.n_nodes, "immune"))
    infected = node_subset(data, g.n_nodes, "infected", min_size=1)
    _same_draws(g, data, lambda engine, cg, rng: engine.sis(
        cg, beta, gamma, immune, set(infected), steps, rng
    ))


@FUZZ
@given(g=graphs(), data=st.data(), p=st.floats(0.0, 1.0))
def test_spread_cascade_identical_across_blocks_and_storage(g, data, p):
    seeds = frozenset(node_subset(data, g.n_nodes, "seeds", min_size=1))
    _same_draws(g, data, lambda engine, cg, rng: engine.spread_cascade(
        cg, p, seeds, rng
    ))


# -- the graph API: every storage and labelling vs the object Graph --------


@st.composite
def labelled_graphs(draw) -> Graph:
    """:func:`graphs` as is, relabelled to strings, or in shuffled order."""
    g = draw(graphs())
    style = draw(st.sampled_from(("identity", "strings", "shuffled")))
    if style == "identity":
        return g
    perm = draw(st.permutations(range(g.n_nodes)))
    name = (lambda i: f"n{i}") if style == "strings" else (lambda i: i)
    return Graph(
        nodes=[name(i) for i in perm],
        edges=[(name(u), name(v)) for u, v in g.edges()],
    )


def storages(g: Graph) -> list:
    """Labelled CSR twins of ``g`` in RAM and mapped, plus identity twins
    when ``g``'s nodes are exactly ``0..n-1`` in order."""
    ag = as_arraygraph(g)
    out = [ag, mapped_twin(ag.indptr, ag.indices, ag.labels)]
    if list(g.nodes()) == list(range(g.n_nodes)):
        out += [ArrayGraph(ag.indptr, ag.indices),
                mapped_twin(ag.indptr, ag.indices)]
    return out


def _min_index_labels(g: Graph) -> list:
    """Per node: the smallest node index of its component."""
    index = {v: i for i, v in enumerate(g.nodes())}
    out = [0] * g.n_nodes
    for comp in g.connected_components():
        low = min(index[v] for v in comp)
        for v in comp:
            out[index[v]] = low
    return out


@FUZZ
@given(g=labelled_graphs())
@example(g=Graph(nodes=range(11)))  # "10" sorts between "1" and "2"
@example(g=Graph(nodes=range(12), edges=[(0, 11), (11, 10), (2, 10)]))
def test_graph_api_matches_object_graph(g):
    nodes = list(g.nodes())
    n = len(nodes)
    degrees = g.degrees()
    edge_set = {frozenset(e) for e in g.edges()}
    targeted = TargetedDegreeAttack().removal_order(g)
    adaptive = AdaptiveDegreeAttack().removal_order(g)
    for cg in storages(g):
        assert list(cg.nodes()) == nodes
        edges = list(cg.edges())
        assert len(edges) == g.n_edges
        assert {frozenset(e) for e in edges} == edge_set
        assert cg.degrees() == degrees
        for u in nodes:
            assert u in cg
            assert cg.neighbors(u) == g.neighbors(u)
            for v in nodes:
                assert cg.has_edge(u, v) == g.has_edge(u, v)
        for absent in ("absent", n, -1):
            assert absent not in cg
            assert not cg.has_edge(absent, nodes[0])
            with pytest.raises(ConfigurationError, match="not in graph"):
                cg.index_of(absent)
            with pytest.raises(ConfigurationError, match="not in graph"):
                cg.indices_of(nodes + [absent])
        assert cg.indices_of(nodes).tolist() == list(range(n))
        if cg.identity_labels:
            # identity ids are ints proper: no bools, floats or overflow
            assert True not in cg and 5.0 not in cg and n not in cg
            assert np.int64(n - 1) in cg
            assert cg.indices_of(np.arange(n)[::-1]).tolist() == \
                list(range(n))[::-1]
            with pytest.raises(ConfigurationError, match="not in graph"):
                cg.indices_of(np.array([0, n]))
        assert cg.component_labels().tolist() == _min_index_labels(g)
        assert cg.connected_components() == g.connected_components()
        assert cg.giant_component_size() == g.giant_component_size()
        back = cg.to_graph()
        assert list(back.nodes()) == nodes
        assert {frozenset(e) for e in back.edges()} == edge_set
        order = cg.degree_removal_order()
        if cg.identity_labels:
            assert isinstance(order, np.ndarray) and order.dtype == np.int64
        assert list(order) == targeted
        assert cg.adaptive_degree_removal_order() == adaptive
        assert cg.check_removal_order(order)
        assert cg.check_removal_order(nodes[::-1])
        assert not cg.check_removal_order(nodes[1:])
        if n >= 2:
            assert not cg.check_removal_order([nodes[0]] + nodes[:-1])
