"""repro — a Systems Resilience library.

A production-quality reproduction of Maruyama & Minami, "Towards Systems
Resilience" (2013): the dynamic-constraint-satisfaction resilience model
(k-recoverability, K-maintainability, the Bruneau loss metric), the three
passive resilience strategies (redundancy, diversity, adaptability) and
active resilience (anticipation, mode switching), plus the evolutionary
multi-agent testbed and the discussion-section substrates (scale-free
robustness, self-organized criticality, heavy-tailed X-events).

Quickstart::

    from repro.spacecraft import Spacecraft

    craft = Spacecraft(n_components=6)
    print(craft.minimal_k(max_debris_hits=2))   # -> 2

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
per-claim experiment index.
"""

from __future__ import annotations

import importlib

__version__ = "1.0.0"

from .rng import make_rng

__all__ = [
    "agents",
    "analysis",
    "anticipation",
    "core",
    "csp",
    "dynamics",
    "faults",
    "management",
    "modes",
    "networks",
    "planning",
    "redundancy",
    "runtime",
    "shocks",
    "soc",
    "spacecraft",
    "make_rng",
    "__version__",
]


def __getattr__(name: str):
    # PEP 562: a subpackage loads on first touch, so ``import repro``
    # costs numpy and ``repro.rng`` only
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
