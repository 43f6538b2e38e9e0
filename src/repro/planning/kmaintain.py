"""Polynomial-time construction of k-maintainable policies (Baral–Eiter).

Paper §4.3: "We say that a system is K-maintainable if, for any
non-normal state of the system, there exists a sequence of actions (i.e.,
events controllable by a system administrator) that move the system back
to one of the normal states within k steps," citing Baral & Eiter's
polynomial-time algorithm [4].

The construction is a backward fixpoint over the AND-OR structure of
nondeterministic agent actions:

* level 0: the normal (goal) states;
* level i: states with some applicable agent action whose *every*
  nondeterministic outcome lies at level < i.

A state at level i recovers in at most i agent steps against worst-case
nondeterminism, assuming — as the paper's spacecraft example does — that
no further exogenous event strikes during the recovery window.  The
system is k-maintainable iff the exogenous closure of the start states
is contained in level ≤ k.  Each (state, action) pair is relaxed at most
once, so the whole construction is O(|S| · |A| · branching), i.e.
polynomial, unlike naive policy enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional

import numpy as np

from ..errors import ConfigurationError, UnmaintainableError
from .policy import MaintenancePolicy
from .transition import State, TransitionSystem

__all__ = [
    "MaintainabilityResult",
    "compute_levels",
    "construct_policy",
    "construct_policy_tiled",
]


@dataclass(frozen=True)
class MaintainabilityResult:
    """Outcome of a k-maintainability analysis.

    ``levels`` maps every maintainable state to its exact recovery level;
    ``uncovered`` holds states in the damage envelope that no policy can
    bring back within ``k`` steps (empty iff ``maintainable``).
    """

    k: int
    maintainable: bool
    policy: Optional[MaintenancePolicy]
    levels: Dict[State, int]
    envelope: FrozenSet[State]
    uncovered: FrozenSet[State]


def compute_levels(
    system: TransitionSystem,
    goal_states: Iterable[State],
    max_level: Optional[int] = None,
) -> tuple[Dict[State, int], Dict[State, str]]:
    """Backward-induction recovery levels and a witnessing action per state.

    Returns ``(levels, actions)`` where ``levels[s]`` is the minimum
    worst-case number of agent steps from ``s`` into the goal set and
    ``actions[s]`` is an action achieving it (absent for goal states).
    States that can never be recovered are absent from ``levels``.
    ``max_level`` truncates the fixpoint early (useful when only
    k-maintainability for a specific k matters).
    """
    goals = frozenset(goal_states)
    unknown = goals - system.states
    if unknown:
        raise ConfigurationError(f"unknown goal states: {sorted(map(repr, unknown))}")
    max_level = len(system.states) if max_level is None else max_level
    if max_level < 0:
        raise ConfigurationError(f"max_level must be >= 0, got {max_level}")

    levels: Dict[State, int] = {s: 0 for s in goals}
    actions: Dict[State, str] = {}
    level = 0
    while level < max_level:
        level += 1
        added = False
        for state in system.states:
            if state in levels:
                continue
            for action in system.applicable_agent_actions(state):
                outcomes = system.agent_outcomes(state, action)
                if all(o in levels and levels[o] <= level - 1 for o in outcomes):
                    levels[state] = level
                    actions[state] = action
                    added = True
                    break
        if not added:
            break
    return levels, actions


def construct_policy(
    system: TransitionSystem,
    start_states: Iterable[State],
    goal_states: Iterable[State],
    k: int,
) -> MaintainabilityResult:
    """Build a k-maintainable policy, or report why none exists.

    The damage envelope is the exogenous closure of ``start_states``
    together with the goal states (shocks can strike again once the
    system is back to normal).  The system is k-maintainable iff every
    envelope state sits at recovery level ≤ k; the returned policy then
    guarantees recovery within k agent steps against worst-case action
    nondeterminism.
    """
    if k < 0:
        raise ConfigurationError(f"k must be >= 0, got {k}")
    goals = frozenset(goal_states)
    starts = frozenset(start_states)
    envelope = system.exo_closure(starts | goals)
    levels, actions = compute_levels(system, goals, max_level=k)
    uncovered = frozenset(
        s for s in envelope if s not in levels or levels[s] > k
    )
    if uncovered:
        return MaintainabilityResult(
            k=k,
            maintainable=False,
            policy=None,
            levels=levels,
            envelope=envelope,
            uncovered=uncovered,
        )
    policy = MaintenancePolicy(
        actions={s: a for s, a in actions.items() if s in envelope or s in actions},
        levels=dict(levels),
        goal_states=goals,
        k=k,
    )
    return MaintainabilityResult(
        k=k,
        maintainable=True,
        policy=policy,
        levels=levels,
        envelope=envelope,
        uncovered=frozenset(),
    )


def construct_policy_tiled(
    tiled, max_debris_hits: int, k: int
) -> MaintainabilityResult:
    """:func:`construct_policy` for the spacecraft encoding, on index arrays.

    Operates directly on a :class:`~repro.csp.tiledengine.TiledBitCSP`
    instead of the materialized :class:`TransitionSystem` of
    :meth:`Spacecraft.to_transition_system`, whose exponential
    dict-of-frozensets construction dominates the object path.  The
    encoding is fixed: goal states are the fit configurations, agent
    actions are the deterministic ``repair_i`` (set bit ``i``,
    applicable iff it is 0), and the ``debris`` exogenous action moves
    any fit state to each outcome with ≤ ``max_debris_hits`` cleared
    bits.  Under that encoding:

    * recovery levels are the reverse add-bit BFS from the fit set
      (:func:`~repro.csp.tiledengine.implicit_add_bit_levels`,
      truncated at ``k`` like ``compute_levels(max_level=k)``);
    * the damage envelope is the clear-bit ball of radius
      ``max_debris_hits`` around the fit set
      (:func:`~repro.csp.tiledengine.implicit_clear_bit_ball`) — one
      pass suffices because every fit state is already a seed;
    * the witnessing action per state is the first ``repair_i`` in
      lexicographic action-name order whose outcome sits one level
      down, matching ``applicable_agent_actions``'s sorted order.

    Every set is a sorted int64 mask array, with coverage and
    successor-level lookups by ``searchsorted`` — Θ(envelope + leveled
    set) memory instead of Θ(2^n).  The returned result is
    field-for-field identical to the object construction (levels,
    envelope, uncovered, policy actions).
    """
    from ..csp.bitstring import BitString
    from ..csp.tiledengine import (
        _isin_sorted,
        implicit_add_bit_levels,
        implicit_clear_bit_ball,
    )

    if k < 0:
        raise ConfigurationError(f"k must be >= 0, got {k}")
    n = tiled.n
    if not 1 <= max_debris_hits <= n:
        raise ConfigurationError(
            f"max_debris_hits must be in [1, {n}], got {max_debris_hits}"
        )
    fit = tiled.fit_indices
    chunk = tiled.block_size
    lv_states, lv_vals = implicit_add_bit_levels(
        fit, n, max_level=k, chunk=chunk
    )
    envelope_states = implicit_clear_bit_ball(
        fit, n, max_debris_hits, chunk=chunk
    )

    goals = frozenset(BitString(n, int(m)) for m in fit)
    envelope = frozenset(BitString(n, int(m)) for m in envelope_states)
    levels = {
        BitString(n, int(m)): int(lv)
        for m, lv in zip(lv_states, lv_vals)
    }
    covered = _isin_sorted(envelope_states, lv_states)
    uncovered = frozenset(
        BitString(n, int(m)) for m in envelope_states[~covered]
    )
    if uncovered:
        return MaintainabilityResult(
            k=k,
            maintainable=False,
            policy=None,
            levels=levels,
            envelope=envelope,
            uncovered=uncovered,
        )

    # witnessing actions: first repair_i (lex name order) one level down
    leveled = lv_vals >= 1
    states = lv_states[leveled]
    state_levels = lv_vals[leveled].astype(np.int64)
    action_idx = np.full(states.size, -1, dtype=np.int32)
    unassigned = np.ones(states.size, dtype=bool)
    for i in sorted(range(n), key=lambda j: f"repair_{j}"):
        bit = np.int64(1) << np.int64(i)
        succ = states | bit
        pos = np.searchsorted(lv_states, succ)
        pos = np.minimum(pos, lv_states.size - 1)
        found = lv_states[pos] == succ
        succ_lvl = np.where(found, lv_vals[pos].astype(np.int64), -1)
        ok = (
            unassigned
            & ((states & bit) == 0)
            & (succ_lvl >= 0)
            & (succ_lvl <= state_levels - 1)
        )
        action_idx[ok] = i
        unassigned &= ~ok
    actions = {
        BitString(n, int(m)): f"repair_{int(a)}"
        for m, a in zip(states, action_idx)
    }
    policy = MaintenancePolicy(
        actions=actions,
        levels=dict(levels),
        goal_states=goals,
        k=k,
    )
    return MaintainabilityResult(
        k=k,
        maintainable=True,
        policy=policy,
        levels=levels,
        envelope=envelope,
        uncovered=frozenset(),
    )


def require_policy(
    system: TransitionSystem,
    start_states: Iterable[State],
    goal_states: Iterable[State],
    k: int,
) -> MaintenancePolicy:
    """Like :func:`construct_policy` but raising when unmaintainable."""
    result = construct_policy(system, start_states, goal_states, k)
    if not result.maintainable or result.policy is None:
        raise UnmaintainableError(
            f"system is not {k}-maintainable; uncovered states: "
            f"{sorted(map(repr, result.uncovered))[:10]}"
        )
    return result.policy
