"""Network attack-and-healing: connectivity as a quality signal.

Ties the §5.1 network substrate into the paper's core metric: an attack
removes nodes at the shock time; repair crews restore a bounded number
of nodes (with their original edges) per step; the giant-component
fraction ×100 is the Q(t) the Bruneau machinery assesses.  The network
becomes one more ResilientSystem whose redundancy (spare paths),
repair rate (adaptability) and topology can be traded off in the same
currency as everything else in the library.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.quality import QualityTrace
from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng
from .attacks import AttackStrategy
from .engine import NetworkEngine, make_network_engine
from .graph import Graph

__all__ = ["NetworkRecoveryResult", "NetworkRecoverySimulator"]


@dataclass(frozen=True)
class NetworkRecoveryResult:
    """One attack-and-heal episode."""

    trace: QualityTrace
    removed: tuple
    restored_per_step: int
    fully_recovered: bool


class NetworkRecoverySimulator:
    """Attack a graph at t=shock_time, then heal nodes per step.

    Healing restores removed nodes in reverse severity order (the most
    connective first — repair crews triage), re-attaching each node's
    original edges whose other endpoint is currently present.
    """

    def __init__(self, graph: Graph, attack: AttackStrategy,
                 repairs_per_step: int = 1,
                 engine: "str | NetworkEngine | None" = None):
        if graph.n_nodes < 2:
            raise ConfigurationError("need at least 2 nodes")
        if repairs_per_step < 0:
            raise ConfigurationError(
                f"repairs_per_step must be >= 0, got {repairs_per_step}"
            )
        self.graph = graph
        self.attack = attack
        self.repairs_per_step = repairs_per_step
        self.engine = make_network_engine(engine)

    def run(
        self,
        attack_fraction: float,
        horizon: int,
        shock_time: int = 1,
        seed: SeedLike = None,
    ) -> NetworkRecoveryResult:
        """Remove ``attack_fraction`` of nodes at ``shock_time``; heal."""
        if not 0.0 <= attack_fraction <= 1.0:
            raise ConfigurationError(
                f"attack_fraction must be in [0, 1], got {attack_fraction}"
            )
        if horizon < 2:
            raise ConfigurationError(f"horizon must be >= 2, got {horizon}")
        if not 0 <= shock_time < horizon:
            raise ConfigurationError(
                f"shock_time must be in [0, {horizon}), got {shock_time}"
            )
        rng = make_rng(seed)
        n = self.graph.n_nodes
        order = self.attack.removal_order(
            self.engine.ordering_graph(self.graph), rng
        )
        n_remove = int(round(attack_fraction * n))
        to_remove = order[:n_remove]
        times, quality, fully_recovered = self.engine.healing_episode(
            self.graph, to_remove, self.repairs_per_step,
            horizon, shock_time,
        )
        # an identity-labelled graph ranks into an ndarray: the engine
        # takes it unboxed, the result gets plain Python labels
        if isinstance(to_remove, np.ndarray):
            to_remove = to_remove.tolist()
        return NetworkRecoveryResult(
            trace=QualityTrace.from_samples(times, quality),
            removed=tuple(to_remove),
            restored_per_step=self.repairs_per_step,
            fully_recovered=fully_recovered,
        )
