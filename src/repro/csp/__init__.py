"""Constraint-satisfaction substrate for the resilience model (paper §4.2).

Exports the bit-string configuration space, finite-domain CSPs, solvers,
local repair, and the dynamic (shock-driven) CSP simulator.
"""

from .bitengine import BitEngineUnsupported
from .bitstring import BitSpace, BitString
from .constraints import (
    AllDifferentConstraint,
    Assignment,
    CardinalityConstraint,
    Constraint,
    LinearConstraint,
    PredicateConstraint,
    TableConstraint,
    all_components_good,
    at_least_k_good,
)
from .dynamic import (
    DCSPRun,
    DCSPSimulator,
    DynamicCSP,
    EnvironmentShift,
    Perturbation,
    StateDamage,
)
from .engine import (
    CSPEngine,
    ObjectCSPEngine,
    TiledCSPEngine,
    make_csp_engine,
)
from .generators import random_binary_csp, random_clause_csp
from .problem import CSP, boolean_csp
from .propagation import PropagationResult, ac3
from .soft import SoftCSP, WeightedConstraint
from .tiledengine import (
    TiledBitCSP,
    compile_tiled,
    derive_block_bits,
)
from .solvers import (
    RepairResult,
    backtracking_solve,
    greedy_bitflip_repair,
    min_conflicts,
)
from .variables import Variable, boolean_variable, boolean_variables

__all__ = [
    "BitEngineUnsupported",
    "CSPEngine",
    "ObjectCSPEngine",
    "TiledCSPEngine",
    "TiledBitCSP",
    "compile_tiled",
    "derive_block_bits",
    "make_csp_engine",
    "BitSpace",
    "BitString",
    "AllDifferentConstraint",
    "Assignment",
    "CardinalityConstraint",
    "Constraint",
    "LinearConstraint",
    "PredicateConstraint",
    "TableConstraint",
    "all_components_good",
    "at_least_k_good",
    "DCSPRun",
    "DCSPSimulator",
    "DynamicCSP",
    "EnvironmentShift",
    "Perturbation",
    "StateDamage",
    "CSP",
    "boolean_csp",
    "random_binary_csp",
    "random_clause_csp",
    "PropagationResult",
    "ac3",
    "SoftCSP",
    "WeightedConstraint",
    "RepairResult",
    "backtracking_solve",
    "greedy_bitflip_repair",
    "min_conflicts",
    "Variable",
    "boolean_variable",
    "boolean_variables",
]
