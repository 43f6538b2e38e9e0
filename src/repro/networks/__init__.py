"""Network substrates: from-scratch graphs, scale-free generators,
attack/failure percolation, load cascades, and epidemics (paper §4.5,
§5.1).
"""

from .arraygraph import ArrayGraph, as_arraygraph
from .attacks import (
    AdaptiveDegreeAttack,
    AttackStrategy,
    RandomFailure,
    TargetedDegreeAttack,
    make_attack,
)
from .centrality import BetweennessAttack, betweenness_centrality
from .cascades import (
    CascadeResult,
    LoadCascadeModel,
    ProbabilisticCascadeModel,
    modular_graph,
)
from .engine import (
    ArrayNetworkEngine,
    NetworkEngine,
    ObjectNetworkEngine,
    make_network_engine,
)
from .epidemics import EpidemicResult, SIRModel, SISModel, immunize
from .generators import (
    barabasi_albert,
    barabasi_albert_stream,
    configuration_star,
    degree_histogram,
    erdos_renyi,
    erdos_renyi_stream,
    watts_strogatz,
)
from .graph import Graph
from .healing import NetworkRecoveryResult, NetworkRecoverySimulator
from .mmapgraph import MmapGraph, derive_chunk_elems
from .metrics import (
    assortativity,
    average_clustering,
    average_path_length,
    clustering_coefficient,
    degree_tail_exponent,
)
from .percolation import PercolationCurve, critical_fraction, percolation_curve

__all__ = [
    "ArrayGraph",
    "as_arraygraph",
    "AdaptiveDegreeAttack",
    "AttackStrategy",
    "RandomFailure",
    "TargetedDegreeAttack",
    "make_attack",
    "ArrayNetworkEngine",
    "NetworkEngine",
    "ObjectNetworkEngine",
    "make_network_engine",
    "MmapGraph",
    "derive_chunk_elems",
    "BetweennessAttack",
    "betweenness_centrality",
    "CascadeResult",
    "LoadCascadeModel",
    "ProbabilisticCascadeModel",
    "modular_graph",
    "EpidemicResult",
    "SIRModel",
    "SISModel",
    "immunize",
    "barabasi_albert",
    "barabasi_albert_stream",
    "configuration_star",
    "degree_histogram",
    "erdos_renyi",
    "erdos_renyi_stream",
    "watts_strogatz",
    "Graph",
    "NetworkRecoveryResult",
    "NetworkRecoverySimulator",
    "assortativity",
    "average_clustering",
    "average_path_length",
    "clustering_coefficient",
    "degree_tail_exponent",
    "PercolationCurve",
    "critical_fraction",
    "percolation_curve",
]
