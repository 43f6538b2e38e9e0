"""Network substrates: from-scratch graphs, scale-free generators,
attack/failure percolation, load cascades, and epidemics (paper §4.5,
§5.1).
"""

from __future__ import annotations

import importlib

# public name -> the submodule defining it; a submodule loads when one of
# its names is first touched, so importing one module (say
# ``repro.networks.arraygraph``) loads only what that module imports
_MODULES = {
    "ArrayGraph": "arraygraph",
    "as_arraygraph": "arraygraph",
    "AdaptiveDegreeAttack": "attacks",
    "AttackStrategy": "attacks",
    "RandomFailure": "attacks",
    "TargetedDegreeAttack": "attacks",
    "make_attack": "attacks",
    "ArrayNetworkEngine": "engine",
    "NetworkEngine": "engine",
    "ObjectNetworkEngine": "engine",
    "make_network_engine": "engine",
    "derive_chunk_elems": "arraygraph",
    "BetweennessAttack": "centrality",
    "betweenness_centrality": "centrality",
    "CascadeResult": "cascades",
    "LoadCascadeModel": "cascades",
    "ProbabilisticCascadeModel": "cascades",
    "modular_graph": "cascades",
    "EpidemicResult": "epidemics",
    "SIRModel": "epidemics",
    "SISModel": "epidemics",
    "immunize": "epidemics",
    "barabasi_albert": "generators",
    "barabasi_albert_stream": "generators",
    "configuration_star": "generators",
    "degree_histogram": "generators",
    "erdos_renyi": "generators",
    "erdos_renyi_stream": "generators",
    "watts_strogatz": "generators",
    "Graph": "graph",
    "NetworkRecoveryResult": "healing",
    "NetworkRecoverySimulator": "healing",
    "assortativity": "metrics",
    "average_clustering": "metrics",
    "average_path_length": "metrics",
    "clustering_coefficient": "metrics",
    "degree_tail_exponent": "metrics",
    "PercolationCurve": "percolation",
    "critical_fraction": "percolation",
    "percolation_curve": "percolation",
}

__all__ = list(_MODULES)


def __getattr__(name: str):
    # PEP 562, as in ``repro/__init__.py``
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
