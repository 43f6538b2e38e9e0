"""E02 — Spacecraft k-recoverability (paper Fig. 4 + §4.2 example).

Claim: with constraint C = 1^n, debris failing at most k components, and
one repair per step, the spacecraft is exactly k-recoverable; faster
repair divides the bound.  We regenerate the full phase table of minimal
k over (n, debris hits, repairs/step).

Engine-aware: the CSP kernels honour ``REPRO_CSP_ENGINE`` (object vs
the ``bit`` kind, i.e. the packed tiled engine), so ``run_benchmarks.py``
times both columns of the same table.  The grid is sized so the object column is well into
measurable territory (n = 14 enumerates 16384 configurations per CSP).
"""

from __future__ import annotations

import math

from conftest import run_once, scaled

from repro.analysis.tables import render_table
from repro.spacecraft.system import Spacecraft

COMPONENTS = scaled((6, 10, 14), (4, 6))
HITS = scaled((1, 2, 3, 4), (1, 2))
REPAIRS = (1, 2)


def run_experiment():
    rows = []
    for n in COMPONENTS:
        for hits in HITS:
            for repairs in REPAIRS:
                craft = Spacecraft(n, repairs_per_step=repairs)
                rows.append({
                    "n_components": n,
                    "max_debris_hits": hits,
                    "repairs_per_step": repairs,
                    "minimal_k": craft.minimal_k(hits),
                    "is_k_recoverable_at_k": craft.is_k_recoverable(
                        hits, math.ceil(hits / repairs)
                    ),
                })
    return rows


def test_e02_spacecraft_recoverability(benchmark):
    rows = run_once(benchmark, run_experiment)
    print("\nE02: minimal k for the paper's spacecraft example")
    print(render_table(rows))
    for row in rows:
        expected = math.ceil(
            min(row["max_debris_hits"], row["n_components"])
            / row["repairs_per_step"]
        )
        assert row["minimal_k"] == expected
        assert row["is_k_recoverable_at_k"]
