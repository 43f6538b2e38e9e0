"""The array engine's SIR against the loop it replaced.

:func:`~.reference_kernels.reference_sir` is the SIR loop the array
engine ran before it drew each step's infections ahead of its row
gathers: a whole-frontier two-pass gather, a ``bincount`` upkeep of the
susceptible-neighbour counts and O(n) mask sums.  On generated graphs —
ER and BA components side by side, isolated nodes, node ids shuffled
across components — with immune nodes, some of them among the first
infected (only the engine API admits that), both must give the same
infection counts, final set and ever-infected total and leave the RNG
at the same draw, on both CSR storages and at several block sizes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.networks import Graph, as_arraygraph
from repro.networks.arraygraph import ArrayGraph
from repro.networks.engine import ArrayNetworkEngine
from repro.networks.generators import barabasi_albert, erdos_renyi

from .reference_kernels import reference_sir

BLOCKS = (37, 512, None)


@st.composite
def graphs(draw) -> ArrayGraph:
    """Identity-labelled CSR: ER and BA components, isolated nodes."""
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
    return as_arraygraph(Graph(
        nodes=range(n), edges=[(perm[u], perm[v]) for u, v in edges]
    ))


def storages(cg):
    yield ArrayGraph(np.array(cg.indptr), np.array(cg.indices))
    yield ArrayGraph.from_arrays(cg.indptr, cg.indices)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    cg=graphs(), data=st.data(),
    beta=st.sampled_from((0.05, 0.3, 0.7, 1.0)),
    gamma=st.sampled_from((0.0, 0.1, 0.5, 1.0)),
    seed=st.integers(0, 2**16),
)
def test_sir_matches_reference(cg, data, beta, gamma, seed):
    n = cg.n_nodes
    immune = data.draw(st.sets(st.integers(0, n - 1), max_size=n // 3),
                       label="immune")
    infected = data.draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=4),
        label="infected",
    )
    immune_mask = np.zeros(n, dtype=bool)
    immune_mask[sorted(immune)] = True
    infected_mask = np.zeros(n, dtype=bool)
    infected_mask[sorted(infected)] = True
    for g in storages(cg):
        for block in BLOCKS:
            engine = ArrayNetworkEngine(block_elems=block)
            rng = np.random.default_rng(seed)
            counts, final, ever = reference_sir(
                g, beta, gamma, immune_mask, infected_mask, 30, rng
            )
            want = (counts, final.tolist(), ever, rng.random())
            rng = np.random.default_rng(seed)
            counts, final, ever = engine.sir(
                g, beta, gamma, immune, infected, 30, rng
            )
            assert (counts, sorted(final), ever, rng.random()) == want
