"""Lowering of a boolean CSP to packed-state array kernels.

The paper's formal model (§4.2, Fig. 4) puts the whole resilience
machinery on one substrate: a system status is a length-``n`` bit
string, the environment is a constraint set C, and resilience questions
(k-recoverability, K-maintainability, Q(t)) are all functions of the fit
set C ⊆ {0,1}^n.  The object engine answers them by enumerating
``dict``-per-assignment states and re-dispatching every constraint per
query.  This module lowers a boolean :class:`~repro.csp.problem.CSP`
*once* into vectorized evaluators over packed state masks (state ``m``
has bit ``i`` set iff variable ``i`` is 1):

* cardinality constraints via one popcount over a scope mask;
* linear constraints via ordered float accumulation (matching Python's
  left-to-right ``sum`` bit-for-bit);
* table/predicate constraints via a precomputed support array over the
  scope's 2^m subcube, gathered for any batch of states.

The compiled form that runs these evaluators over the state space —
streamed in blocks, with one table when the space is a single block —
is :class:`~repro.csp.tiledengine.TiledBitCSP`.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..errors import ConfigurationError
from .constraints import (
    CardinalityConstraint,
    Constraint,
    LinearConstraint,
    TableConstraint,
    _COMPARATORS,
)
from .problem import CSP

__all__ = [
    "SAT_ROW_BYTES",
    "BitEngineUnsupported",
    "PackedStateBridge",
    "lower_constraint",
    "lower_csp",
]

#: per-state bytes of one constraint's satisfaction row (bool)
SAT_ROW_BYTES = 1

_NP_COMPARATORS = {
    "<=": np.less_equal,
    ">=": np.greater_equal,
    "<": np.less,
    ">": np.greater,
    "==": np.equal,
    "!=": np.not_equal,
}
assert set(_NP_COMPARATORS) == set(_COMPARATORS)


class BitEngineUnsupported(ConfigurationError):
    """The CSP cannot be lowered to packed-state form.

    Raised for non-boolean variables and for state spaces beyond the
    2^``max_bits`` enumeration cap.  The engine seam catches this and
    falls back to the object engine.
    """


def _subcube_index(scope_idx: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Index of each state within the scope's 2^m subcube."""
    sub = np.zeros(states.shape, dtype=np.int64)
    for j, i in enumerate(scope_idx):
        sub |= ((states >> np.int64(i)) & 1) << np.int64(j)
    return sub


def _bit_domain_bridge(csp: CSP) -> list[tuple]:
    """Per variable, the actual domain objects whose ``int()`` is 0 and 1.

    0/1 may be stored as bools (or other int-like objects) in the
    domain; predicates must see the originals, not raw bits.
    """
    out: list[tuple] = []
    for v in csp.variables:
        zero = next(x for x in v.domain if int(x) == 0)
        one = next(x for x in v.domain if int(x) == 1)
        out.append((zero, one))
    return out


def lower_constraint(
    c: Constraint, scope_idx: np.ndarray, val_for_bit: Sequence[tuple]
):
    """Pre-lower one constraint into a reusable block evaluator.

    Returns a callable mapping any array of packed state masks (any
    shape) to the constraint's satisfaction over those states.  All
    compile-time work — scope masks, table/predicate support over the
    scope's 2^m subcube — happens once here, so the evaluator can be
    applied to fixed-size state blocks without re-lowering (the tiled
    engine, :mod:`repro.csp.tiledengine`, calls it once per streamed
    block or once over a single-block space).
    """
    if type(c) is CardinalityConstraint:
        # cardinality constraint → one popcount over the scope mask
        scope_mask = np.int64(0)
        for i in scope_idx:
            scope_mask |= np.int64(1) << np.int64(i)
        m, lo, hi, value = len(scope_idx), c.lo, c.hi, c.value

        def evaluate(states: np.ndarray) -> np.ndarray:
            ones = np.bitwise_count(states & scope_mask).astype(np.int64)
            if value == 1:  # covers True as well (True == 1)
                count = ones
            elif value == 0:
                count = m - ones
            else:  # no boolean value ever equals the required value
                count = np.zeros_like(ones)
            return (lo <= count) & (count <= hi)

        return evaluate

    if type(c) is LinearConstraint:
        # linear constraint → ordered float accumulation + comparator;
        # terms accumulate left-to-right exactly like the object
        # engine's ``sum(w * float(x) for ...)`` so float results are
        # bit-identical
        weights = tuple(c.weights)
        idx = tuple(int(i) for i in scope_idx)
        op, bound = _NP_COMPARATORS[c.op], c.bound

        def evaluate(states: np.ndarray) -> np.ndarray:
            total = np.zeros(states.shape, dtype=np.float64)
            for w, i in zip(weights, idx):
                bit = ((states >> np.int64(i)) & 1).astype(np.float64)
                total = total + w * bit
            return op(total, bound)

        return evaluate

    if type(c) is TableConstraint:
        # table constraint → support array over the scope subcube
        m = len(scope_idx)
        support = np.zeros(1 << m, dtype=bool)
        for row in c.allowed:
            # rows mentioning non-boolean values never match a bit state
            if all(v == 0 or v == 1 for v in row):
                sub = 0
                for j, v in enumerate(row):
                    sub |= int(v) << j
                support[sub] = True
    else:
        # any constraint → evaluate ``satisfied`` once per scope
        # subcube cell: 2^m predicate calls at lowering time (m = scope
        # arity), then one gather broadcasts the support to any block
        m = len(scope_idx)
        support = np.empty(1 << m, dtype=bool)
        scope_vals = [val_for_bit[i] for i in scope_idx]
        assignment: Dict[str, object] = {}
        for sub in range(1 << m):
            for j, name in enumerate(c.scope):
                assignment[name] = scope_vals[j][(sub >> j) & 1]
            support[sub] = bool(c.satisfied(assignment))

    def evaluate(states: np.ndarray) -> np.ndarray:
        return support[_subcube_index(scope_idx, states)]

    return evaluate


def lower_csp(csp: CSP):
    """Lower every constraint of a boolean CSP once.

    Returns ``(evaluators, scope_mat, val_for_bit)``: one block
    evaluator per constraint (see :func:`lower_constraint`), the
    ``(n_constraints, n)`` scope-membership matrix, and the bit→domain
    value bridge.  Raises :class:`BitEngineUnsupported` for non-boolean
    variables.
    """
    for v in csp.variables:
        if not v.is_boolean:
            raise BitEngineUnsupported(
                f"variable {v.name!r} is not boolean; "
                "only boolean CSPs lower to packed states"
            )
    val_for_bit = _bit_domain_bridge(csp)
    names = csp.names
    var_index = {name: i for i, name in enumerate(names)}
    n, n_c = len(names), len(csp.constraints)
    scope_mat = np.zeros((n_c, n), dtype=bool)
    evaluators = []
    for ci, c in enumerate(csp.constraints):
        scope_idx = np.array(
            [var_index[name] for name in c.scope], dtype=np.int64
        )
        scope_mat[ci, scope_idx] = True
        evaluators.append(lower_constraint(c, scope_idx, val_for_bit))
    return evaluators, scope_mat, val_for_bit


class PackedStateBridge:
    """State ↔ assignment conversions of the packed compiled CSP form.

    Implementors provide ``names`` and ``_val_for_bit``; state ``m``
    (an integer mask) assigns variable ``i`` the domain value whose
    ``int()`` is bit ``i`` of ``m`` — the convention of
    :meth:`CSP.bits_from_assignment`.
    """

    names: tuple
    _val_for_bit: list

    def assignment_of(self, mask: int) -> Dict[str, object]:
        """The assignment dict for state ``mask`` (original domain values)."""
        return {
            name: self._val_for_bit[i][(mask >> i) & 1]
            for i, name in enumerate(self.names)
        }

    def mask_of(self, assignment) -> int:
        """Pack a complete assignment into a state mask."""
        mask = 0
        for i, name in enumerate(self.names):
            if name not in assignment:
                raise ConfigurationError(
                    f"assignment misses variable {name!r}"
                )
            if int(assignment[name]) == 1:
                mask |= 1 << i
        return mask


def _flip_masks(n: int) -> np.ndarray:
    return np.int64(1) << np.arange(n, dtype=np.int64)
