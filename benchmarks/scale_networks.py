#!/usr/bin/env python
"""Network-engine scale axis: one percolation curve + one SIR run vs n.

Each point builds an Erdős–Rényi graph of mean degree
:data:`MEAN_DEGREE` from the streaming generator (never materializing a
Python edge list), runs one targeted-attack percolation curve and one
SIR epidemic on it, and records wall times plus the process's peak RSS.

Every point runs in its **own subprocess** (``--engine/--n`` CLI below):
``ru_maxrss`` is a process-wide high-water mark, so points sharing a
process would inherit each other's peaks — a fresh interpreter per
point is the only honest way to attribute memory.  The mmap points run
under a :class:`~repro.runtime.supervisor.Supervisor` memory budget of
:data:`SCALE_BUDGET_MB`, so the out-of-core acceptance criterion
("10^6-node percolation + SIR under a 512 MB budget") is checked by the
benchmark itself, not just claimed.

Engines cover the axis up to their practical envelope
(:data:`SCALE_CAP`): the object engine's per-node Python structures
stop at 10^4, the ``array`` kind's in-RAM CSR at 10^5, and the ``mmap``
kind — the same block-streamed kernels over a memory-mapped CSR —
streams the full axis to 4·10^6 nodes.  ``smoke=True`` shrinks
the axis (and caps) by ~three orders of magnitude so CI exercises every
code path in seconds.

Used by ``run_benchmarks.py --scale-networks`` (which embeds the axis
in the schema-3 ``BENCH_networks.json`` snapshot); also runnable
standalone::

    PYTHONPATH=../src python scale_networks.py --engine mmap \
        --n 1000000 --budget-mb 512
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath(os.path.join(HERE, "..", "src"))

#: full scale axis (nodes) and the smoke-mode miniature of it
SCALE_NS = (10_000, 100_000, 1_000_000, 4_000_000)
SCALE_NS_SMOKE = (300, 1_000, 3_000)
#: largest n each engine is asked to run — the object engine's boxed
#: adjacency and the array engine's in-RAM CSR both have practical
#: ceilings; only the mmap engine covers the full axis
SCALE_CAP = {"object": 10_000, "array": 100_000, "mmap": 4_000_000}
SCALE_CAP_SMOKE = {"object": 300, "array": 1_000, "mmap": 3_000}

#: ER mean degree — every point uses p = MEAN_DEGREE / (n - 1), well
#: above the giant-component threshold so percolation and SIR both see
#: a connected bulk
MEAN_DEGREE = 10.0
#: supervisor memory budget (MB) installed for the mmap points
SCALE_BUDGET_MB = 512
#: measured percolation points per curve (evenly spaced removals)
RESOLUTION = 64
SEED = 93
SIR_BETA = 0.2
SIR_GAMMA = 0.1
#: target edges per streamed chunk when the gap method is in play
_TARGET_CHUNK_EDGES = 500_000


def _edge_stream(n: int, p: float, seed: int):
    """ER edge chunks sized so gap-mode yields ~5·10^5 edges each.

    The gap method's per-yield cost is O(edges in the chunk), so the
    default ``chunk_pairs`` (tuned for exact mode) would emit tiny
    chunks at 10^6+ nodes — scale ``chunk_pairs`` by 1/p instead.
    """
    from repro.networks.generators import (
        ER_EXACT_MAX_PAIRS,
        erdos_renyi_stream,
    )

    n_pairs = n * (n - 1) // 2
    if n_pairs <= ER_EXACT_MAX_PAIRS:
        return erdos_renyi_stream(n, p, seed=seed, chunk_pairs=1 << 22)
    chunk_pairs = max(1 << 22, int(_TARGET_CHUNK_EDGES / p))
    return erdos_renyi_stream(
        n, p, seed=seed, chunk_pairs=chunk_pairs, method="gap"
    )


def run_point(
    engine: str,
    n: int,
    seed: int = SEED,
    budget_mb: float | None = None,
) -> dict:
    """Build the graph, time percolation + SIR, report peak RSS (MB)."""
    import resource

    import numpy as np

    from repro.networks.arraygraph import ArrayGraph
    from repro.networks.attacks import TargetedDegreeAttack
    from repro.networks.epidemics import SIRModel
    from repro.networks.percolation import (
        critical_fraction,
        percolation_curve,
    )
    from repro.runtime import supervisor

    p = MEAN_DEGREE / (n - 1)
    start = time.perf_counter()
    mg = ArrayGraph.from_edge_chunks(
        n, _edge_stream(n, p, seed), check_duplicates=False
    )
    if engine == "mmap":
        g = mg
    elif engine == "array":
        # np.array() forces in-RAM copies — the constructor would keep
        # the disk-backed memmaps and silently benchmark mmap I/O
        g = ArrayGraph(np.array(mg.indptr), np.array(mg.indices))
    else:
        g = mg.to_graph()
    build_s = time.perf_counter() - start

    budget_ctx = (
        supervisor.use(supervisor.Supervisor(memory_budget_mb=budget_mb))
        if budget_mb is not None
        else contextlib.nullcontext()
    )
    with budget_ctx:
        start = time.perf_counter()
        curve = percolation_curve(
            g, TargetedDegreeAttack(), seed=seed,
            resolution=RESOLUTION, engine=engine,
        )
        percolation_s = time.perf_counter() - start

        model = SIRModel(g, beta=SIR_BETA, gamma=SIR_GAMMA, engine=engine)
        start = time.perf_counter()
        result = model.run([0], max_steps=200, seed=seed)
        sir_s = time.perf_counter() - start

    # ru_maxrss is KB on Linux; the subprocess-per-point protocol makes
    # this the honest peak for exactly this build + these two kernels
    max_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "engine": engine,
        "n": n,
        "n_edges": mg.n_edges,
        "build_s": round(build_s, 4),
        "percolation_s": round(percolation_s, 4),
        "sir_s": round(sir_s, 4),
        "max_rss_mb": round(max_rss_mb, 1),
        "budget_mb": budget_mb,
        # sanity landmarks, pinned loosely by the tier-2 test
        "giant_fraction_0": round(float(curve.giant_fraction[0]), 4),
        "critical_fraction": round(critical_fraction(curve), 4),
        "sir_ever_fraction": round(result.total_ever_infected / n, 4),
    }


def time_network_scale(
    smoke: bool = False, budget_mb: float = SCALE_BUDGET_MB
) -> dict:
    """Run the axis, one subprocess per (n, engine) point.

    Returns ``{str(n): {engine: point-dict}}`` — the ``scale_ns`` extra
    of the schema-3 network snapshot.  Points past an engine's cap are
    simply absent, so n >= 10^6 carries mmap-only columns.
    """
    ns = SCALE_NS_SMOKE if smoke else SCALE_NS
    caps = SCALE_CAP_SMOKE if smoke else SCALE_CAP
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    axis: dict = {}
    for n in ns:
        axis[str(n)] = {}
        for engine in ("object", "array", "mmap"):
            if n > caps[engine]:
                continue
            cmd = [
                sys.executable, os.path.abspath(__file__),
                "--engine", engine, "--n", str(n), "--seed", str(SEED),
            ]
            if engine == "mmap":
                cmd += ["--budget-mb", str(budget_mb)]
            proc = subprocess.run(
                cmd, env=env, capture_output=True, text=True
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"scale point n={n} engine={engine} failed:\n"
                    f"{proc.stderr}"
                )
            point = json.loads(proc.stdout.strip().splitlines()[-1])
            axis[str(n)][engine] = point
            print(
                f"net scale n={n:<9d} {engine:8s} "
                f"build {point['build_s']:8.3f} s  "
                f"perc {point['percolation_s']:8.3f} s  "
                f"sir {point['sir_s']:7.3f} s  "
                f"rss {point['max_rss_mb']:7.1f} MB"
            )
    return axis


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--engine", required=True,
                        choices=("object", "array", "mmap"))
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--budget-mb", type=float, default=None)
    args = parser.parse_args(argv)
    point = run_point(
        args.engine, args.n, seed=args.seed, budget_mb=args.budget_mb
    )
    print(json.dumps(point))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    raise SystemExit(main())
