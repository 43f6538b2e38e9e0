"""The array engine's stochastic spreaders against the object engine.

Both engines draw in one order: the infected (or the cascade's wave) in
node-index order, each row's candidates in CSR order, one
:func:`~repro.networks.arraygraph.bernoulli_indices` draw over them,
then one over the infected for recoveries.  So the object engine is the
exact oracle for SIS, SIR and the spread cascade.  On generated graphs —
ER and BA components side by side, isolated nodes, node ids shuffled
across components — with immune nodes, some of them among the first
infected (only the engine API admits that), both engines must give the
same counts, final set and ever-infected total (the cascade: failed set
and waves) and leave the RNG at the same draw, whether they get the
:class:`Graph` or its CSR in RAM or memory-mapped, at several block
sizes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.networks import Graph, as_arraygraph
from repro.networks.arraygraph import ArrayGraph
from repro.networks.engine import ArrayNetworkEngine, ObjectNetworkEngine
from repro.networks.generators import barabasi_albert, erdos_renyi

from .mapped import mapped_twin

BLOCKS = (37, 512, None)


@st.composite
def graphs(draw) -> Graph:
    """Nodes ``0..n-1``: ER and BA components, isolated nodes."""
    parts = draw(st.lists(
        st.one_of(
            st.tuples(st.just("er"), st.integers(2, 40),
                      st.sampled_from((0.05, 0.15, 0.4))),
            st.tuples(st.just("ba"), st.integers(4, 40),
                      st.integers(1, 3)),
        ),
        min_size=1, max_size=3,
    ))
    isolated = draw(st.integers(0, 5))
    edges, n = [], 0
    for k, (kind, size, param) in enumerate(parts):
        g = (erdos_renyi(size, param, seed=k) if kind == "er"
             else barabasi_albert(size, param, seed=k))
        edges += [(u + n, v + n) for u, v in g.edges()]
        n += size
    n += isolated
    perm = draw(st.permutations(range(n)))
    return Graph(nodes=range(n), edges=[(perm[u], perm[v]) for u, v in edges])


def inputs(g):
    """The graph itself, then its CSR in RAM and memory-mapped."""
    cg = as_arraygraph(g)
    yield g
    yield ArrayGraph(np.array(cg.indptr), np.array(cg.indices))
    yield mapped_twin(cg.indptr, cg.indices)


def run(engine, kind, g, rates, immune, infected, seed):
    rng = np.random.default_rng(seed)
    beta, gamma = rates
    if kind == "cascade":
        failed, waves = engine.spread_cascade(g, beta, infected, rng)
        out = (sorted(failed), waves)
    else:
        counts, final, ever = getattr(engine, kind)(
            g, beta, gamma, immune, set(infected), 30, rng
        )
        out = (counts, sorted(final), ever)
    return out, rng.random()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    g=graphs(), data=st.data(),
    beta=st.sampled_from((0.05, 0.3, 0.7, 1.0)),
    gamma=st.sampled_from((0.0, 0.1, 0.5, 1.0)),
    seed=st.integers(0, 2**16),
)
def test_array_engine_matches_object_engine(g, data, beta, gamma, seed):
    n = g.n_nodes
    immune = frozenset(data.draw(
        st.sets(st.integers(0, n - 1), max_size=n // 3), label="immune"
    ))
    infected = frozenset(data.draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
        label="infected",
    ))
    args = ((beta, gamma), immune, infected, seed)
    for kind in ("sis", "sir", "cascade"):
        want = run(ObjectNetworkEngine(), kind, g, *args)
        for h in inputs(g):
            assert run(ObjectNetworkEngine(), kind, h, *args) == want
            for block in BLOCKS:
                engine = ArrayNetworkEngine(block_elems=block)
                assert run(engine, kind, h, *args) == want
