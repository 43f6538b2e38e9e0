"""Differential fuzzing of the block-streamed network engine.

Random small graphs — isolated nodes and empty edge sets included — run
through :class:`~repro.networks.engine.ArrayNetworkEngine` at block
sizes from one slot to past ``2m`` (every frontier and Newman–Ziff
addition split differently), on both storages of one CSR: the in-RAM
:class:`~repro.networks.arraygraph.ArrayGraph` and its
:meth:`~repro.networks.mmapgraph.MmapGraph.from_arrays` copy.

* deterministic kernels (percolation sizes, load cascades, healing)
  must equal :class:`~repro.networks.engine.ObjectNetworkEngine`
  exactly;
* stochastic kernels (SIR, SIS, spread cascades) must be byte-identical
  to the default-block engine on the in-RAM graph, same seed.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.networks import Graph, MmapGraph, as_arraygraph
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
    mg = MmapGraph.from_arrays(ag.indptr, ag.indices)
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
