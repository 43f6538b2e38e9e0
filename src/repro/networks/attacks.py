"""Node-removal strategies: random failure vs. targeted hub attack.

Paper §5.1: scale-free systems "are extremely robust against random
failures of system components.  However, when we consider a containment
of a spreading virus that is deliberately designed to attack the hubs of
the network, such connectivity becomes a vulnerability."  An attack is an
*ordering* over nodes; percolation curves are computed by removing nodes
in that order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng
from .arraygraph import ArrayGraph
from .graph import Graph

__all__ = [
    "AttackStrategy",
    "RandomFailure",
    "TargetedDegreeAttack",
    "AdaptiveDegreeAttack",
]


class AttackStrategy(ABC):
    """Produces the removal order for a graph."""

    @abstractmethod
    def removal_order(self, g: Graph, seed: SeedLike = None) -> list[object]:
        """Every node of ``g`` exactly once, first-removed first."""

    @property
    def label(self) -> str:
        """Display name for experiment tables."""
        return type(self).__name__


class RandomFailure(AttackStrategy):
    """Uniformly random component failures (the benign regime)."""

    def removal_order(self, g: Graph, seed: SeedLike = None) -> list[object]:
        rng = make_rng(seed)
        order = list(g.nodes())
        rng.shuffle(order)
        return order


class TargetedDegreeAttack(AttackStrategy):
    """Remove nodes from highest initial degree down (the hub-seeking attack).

    Degrees are ranked once on the intact graph; ties break on node repr
    for determinism.
    """

    def removal_order(self, g: Graph, seed: SeedLike = None) -> list[object]:
        if isinstance(g, ArrayGraph):
            return g.degree_removal_order()
        degrees = g.degrees()
        return sorted(degrees, key=lambda node: (-degrees[node], repr(node)))


class AdaptiveDegreeAttack(AttackStrategy):
    """Recompute degrees after every removal (the smartest attacker).

    Strictly stronger than the static ranking on graphs whose hub
    structure shifts as nodes disappear.
    """

    def removal_order(self, g: Graph, seed: SeedLike = None) -> list[object]:
        if isinstance(g, ArrayGraph):
            return g.adaptive_degree_removal_order()
        work = g.copy()
        order: list[object] = []
        while work.n_nodes:
            degrees = work.degrees()
            target = max(degrees, key=lambda node: (degrees[node], repr(node)))
            order.append(target)
            work.remove_node(target)
        return order


def make_attack(name: str) -> AttackStrategy:
    """Factory: ``random``, ``targeted`` or ``adaptive``."""
    table = {
        "random": RandomFailure,
        "targeted": TargetedDegreeAttack,
        "adaptive": AdaptiveDegreeAttack,
    }
    if name not in table:
        raise ConfigurationError(
            f"unknown attack {name!r}; expected one of {sorted(table)}"
        )
    return table[name]()
