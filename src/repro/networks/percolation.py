"""Percolation curves: connectivity as nodes are removed.

The robust-yet-fragile signature (E21) is read off the giant-component
curve S(f): under random failure a scale-free network keeps a giant
component up to very high removed fractions f; under targeted hub attack
S(f) collapses after removing a few percent of nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError, ConfigurationError
from ..rng import SeedLike, make_rng
from .attacks import AttackStrategy
from .engine import NetworkEngine, make_network_engine
from .graph import Graph

__all__ = ["PercolationCurve", "percolation_curve", "critical_fraction"]


@dataclass(frozen=True)
class PercolationCurve:
    """Giant-component sizes along a removal sequence.

    ``removed_fraction[i]`` nodes removed → ``giant_fraction[i]`` of the
    original node count still in the largest component.
    """

    removed_fraction: np.ndarray
    giant_fraction: np.ndarray

    def __post_init__(self) -> None:
        rf = np.asarray(self.removed_fraction, dtype=float)
        gf = np.asarray(self.giant_fraction, dtype=float)
        object.__setattr__(self, "removed_fraction", rf)
        object.__setattr__(self, "giant_fraction", gf)
        if rf.shape != gf.shape or rf.ndim != 1:
            raise ConfigurationError("curve arrays must be matching 1-D shapes")

    def giant_at(self, f: float) -> float:
        """Interpolated giant-component fraction after removing fraction f."""
        return float(np.interp(f, self.removed_fraction, self.giant_fraction))

    def robustness_index(self) -> float:
        """R = mean giant fraction over the removal sequence (Schneider R).

        Bounded by ~0.5 for a perfectly robust graph; near 0 for one that
        shatters immediately.
        """
        return float(np.trapezoid(self.giant_fraction, self.removed_fraction))


def percolation_curve(
    g: Graph,
    attack: AttackStrategy,
    seed: SeedLike = None,
    resolution: int | None = None,
    engine: "str | NetworkEngine | None" = None,
) -> PercolationCurve:
    """Remove nodes in attack order, tracking the giant component.

    ``resolution`` caps how many points are measured (evenly spaced along
    the removal sequence); default measures after every removal.
    ``engine`` picks the kernel implementation (see
    :func:`~repro.networks.engine.make_network_engine`); the array engine
    evaluates the whole curve in one reverse Newman–Ziff pass instead of
    recomputing components after every removal, with identical output.
    """
    n = g.n_nodes
    if n == 0:
        raise ConfigurationError("cannot percolate an empty graph")
    eng = make_network_engine(engine)
    order = attack.removal_order(eng.ordering_graph(g), make_rng(seed))
    # a permutation = right length + right node set (duplicates shrink the
    # set); compares nodes themselves, not their reprs.  An ArrayGraph
    # supplies its own validator, vectorized for identity labels — at
    # 10^6+ nodes the set comparison alone would box hundreds of MB of
    # ints.
    check = getattr(g, "check_removal_order", None)
    if check is not None:
        is_permutation = bool(check(order))
    else:
        is_permutation = len(order) == n and set(order) == set(g.nodes())
    if not is_permutation:
        raise ConfigurationError(
            f"attack {attack.label} did not return a permutation of the nodes"
        )
    if resolution is not None:
        if resolution < 2:
            raise ConfigurationError(f"resolution must be >= 2, got {resolution}")
        marks = {int(round(i * n / (resolution - 1))) for i in range(resolution)}
        checkpoints = sorted(marks - {0})
    else:
        checkpoints = list(range(1, n + 1))
    sizes = eng.percolation_giant_sizes(g, order, checkpoints)
    removed_fraction = [0.0] + [i / n for i in checkpoints]
    giant_fraction = [s / n for s in sizes]
    return PercolationCurve(
        np.asarray(removed_fraction), np.asarray(giant_fraction)
    )


def critical_fraction(curve: PercolationCurve, threshold: float = 0.05) -> float:
    """Smallest removed fraction at which the giant component falls below
    ``threshold`` of the original size (1.0 if it never does).

    This is the experiment's fragility landmark: tiny for targeted
    attacks on scale-free nets, near 1 for random failures.
    """
    if not 0 < threshold < 1:
        raise AnalysisError(f"threshold must be in (0, 1), got {threshold}")
    below = np.nonzero(curve.giant_fraction < threshold)[0]
    if len(below) == 0:
        return 1.0
    return float(curve.removed_fraction[below[0]])
