"""Golden digests of seeded SIR/SIS runs on the array engine.

The digests were computed before the engine kept one maintained
susceptible mask, so they pin its infection counts, final sets,
ever-infected totals and RNG consumption (the next draw of the run's
generator) on both CSR storages and across block sizes.  Immune nodes
are included, and the engine-level runs start some immune nodes
infected (the models drop those; the engine must still treat them as
neither susceptible nor able to become so).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.networks.arraygraph import ArrayGraph, as_arraygraph
from repro.networks.engine import ArrayNetworkEngine
from repro.networks.epidemics import SIRModel, SISModel
from repro.networks.generators import barabasi_albert

from .mapped import mapped_twin
from .reference_kernels import per_pair_erdos_renyi


def _graphs():
    # the ER input is the one-uniform-per-pair graph the digests were
    # computed on (they pin the engine, not the generator)
    er = as_arraygraph(per_pair_erdos_renyi(400, 0.015, seed=3))
    ba = as_arraygraph(barabasi_albert(300, 2, seed=4))
    return {"er": er, "ba": ba}


GRAPHS = _graphs()


def _storage(cg, kind):
    if kind == "ram":
        return ArrayGraph(np.array(cg.indptr), np.array(cg.indices))
    return mapped_twin(cg.indptr, cg.indices)


def _summary(counts, final, ever, rng):
    return (np.asarray(counts, dtype=np.int64).tobytes(), sorted(final),
            int(ever), rng.random())


def _model_runs(g, engine):
    n = g.n_nodes
    out = []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        immune = rng.choice(n, n // 10, replace=False).tolist()
        patients = rng.choice(n, 6, replace=False).tolist()
        sir = SIRModel(g, beta=0.3, gamma=0.2, immune=immune, engine=engine)
        r = sir.run(patients, max_steps=200, seed=rng)
        out.append(_summary(r.infected_counts, r.final_infected,
                            r.total_ever_infected, rng))
        sis = SISModel(g, beta=0.25, gamma=0.3, immune=immune,
                       engine=engine)
        r = sis.run(patients, steps=40, seed=rng)
        out.append(_summary(r.infected_counts, r.final_infected,
                            r.total_ever_infected, rng))
    return out


def _engine_runs(g, engine):
    """Immune ∩ initially infected, which only the engine API admits."""
    n = g.n_nodes
    out = []
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        immune = set(rng.choice(n, n // 8, replace=False).tolist())
        infected = set(rng.choice(n, 10, replace=False).tolist())
        infected |= set(sorted(immune)[:4])
        out.append(_summary(*engine.sir(
            g, 0.35, 0.25, immune, infected, 200, rng), rng))
        out.append(_summary(*engine.sis(
            g, 0.3, 0.35, immune, infected, 40, rng), rng))
    return out


CASES = {"models": _model_runs, "engine": _engine_runs}

# computed before the maintained susceptible mask
GOLDEN = {
    "ba-engine": "b9ef82f2bec5e740",
    "ba-models": "dc504d6484518a9b",
    "er-engine": "5d190299da865aaa",
    "er-models": "045a14d90faa718f",
}


def epidemic_digest(graph: str, case: str, storage="ram", block=None):
    g = _storage(GRAPHS[graph], storage)
    engine = ArrayNetworkEngine(block_elems=block)
    out = CASES[case](g, engine)
    return hashlib.sha256(repr(out).encode()).hexdigest()[:16]


@pytest.mark.parametrize("storage,block", [
    ("ram", None), ("mmap", None), ("ram", 37), ("mmap", 512),
])
@pytest.mark.parametrize("graph,case", [
    (graph, case) for graph in sorted(GRAPHS) for case in sorted(CASES)
])
def test_epidemic_golden(graph, case, storage, block):
    assert epidemic_digest(graph, case, storage, block) == \
        GOLDEN[f"{graph}-{case}"]
