"""Importable point functions for the forked and service workloads.

They live in their own module (not in a ``__main__`` script) so worker
processes can unpickle them by reference and the service journal can
rebuild jobs from their import path.  Each point is a small real kernel:
an Erdős–Rényi graph of :data:`SMALL_N` nodes built from the point's own
seed, then one targeted-attack percolation curve.  Rows hold only
JSON-native values, so a service row (normalized through the cache) and
a batch-sweep row compare equal byte for byte.
"""

from __future__ import annotations

import time

import numpy as np

from repro.networks.attacks import TargetedDegreeAttack
from repro.networks.generators import erdos_renyi
from repro.networks.percolation import critical_fraction, percolation_curve

SMALL_N = 1000
SMALL_MEAN_DEGREE = 4.0
RESOLUTION = 32


def percolate_small(seed) -> dict:
    """One graph from ``seed`` and its targeted-attack curve."""
    rng = np.random.default_rng(seed)
    g = erdos_renyi(SMALL_N, SMALL_MEAN_DEGREE / (SMALL_N - 1), seed=rng)
    curve = percolation_curve(
        g, TargetedDegreeAttack(), seed=rng, resolution=RESOLUTION,
        engine="array",
    )
    return {
        "critical": float(critical_fraction(curve)),
        "robustness": float(curve.robustness_index()),
    }


def sweep_point(value, seed) -> dict:
    """``sweep`` signature: ``fn(value, seed)``."""
    return percolate_small(seed)


def job_point(x, seed=None) -> dict:
    """Service / ``grid_sweep`` signature: ``fn(x=..., seed=...)``."""
    return percolate_small(seed)


class ChildTimed:
    """Picklable wrapper that reports a point's in-process start/end.

    Used only by the traced run: the times travel back inside the row
    (keys ``_t0``/``_t1``, stripped by the parent), because the
    library's executor ships nothing else back through its pipe.
    """

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, value, seed):
        t0 = time.perf_counter()
        row = dict(self.fn(value, seed))
        row["_t0"] = t0
        row["_t1"] = time.perf_counter()
        return row
