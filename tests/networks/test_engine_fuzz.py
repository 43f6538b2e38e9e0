"""Differential fuzzing of the block-streamed network engine.

Random small graphs — isolated nodes and empty edge sets included — run
through :class:`~repro.networks.engine.ArrayNetworkEngine` at block
sizes from one slot to past ``2m`` (every frontier and Newman–Ziff
addition split differently), on both storages of one CSR: the in-RAM
:class:`~repro.networks.arraygraph.ArrayGraph` and its
:meth:`~repro.networks.arraygraph.ArrayGraph.from_arrays` copy.

* deterministic kernels (percolation sizes, load cascades, healing)
  must equal :class:`~repro.networks.engine.ObjectNetworkEngine`
  exactly;
* stochastic kernels (SIR, SIS, spread cascades) must be byte-identical
  to the default-block engine on the in-RAM graph, same seed.

The graph API itself is fuzzed too: identity-labelled and labelled
(string labels, shuffled node order) graphs on both storages must answer
every query as the object :class:`~repro.networks.graph.Graph` does.
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
from repro.networks.engine import ArrayNetworkEngine, ObjectNetworkEngine

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
    mg = ArrayGraph.from_arrays(ag.indptr, ag.indices)
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
    checkpoints = list(range(1, n + 1))
    ref = ObjectNetworkEngine().percolation_giant_sizes(
        g, order, checkpoints
    )
    for engine, cg in subjects(g, data):
        assert engine.percolation_giant_sizes(cg, order, checkpoints) == ref


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
    g=graphs(), data=st.data(), repairs=st.integers(0, 3),
    horizon=st.integers(2, 8),
)
def test_healing_matches_object(g, data, repairs, horizon):
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
    out = [ag, ArrayGraph.from_arrays(ag.indptr, ag.indices, ag.labels)]
    if list(g.nodes()) == list(range(g.n_nodes)):
        out += [ArrayGraph(ag.indptr, ag.indices),
                ArrayGraph.from_arrays(ag.indptr, ag.indices)]
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
