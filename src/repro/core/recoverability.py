"""k-recoverability: the paper's resilience criterion for DCSP systems.

Paper §4.2: "If the system can fix its configuration for any perturbation
of type D within k steps, we call the system k-recoverable."  Because the
repair process flips one bit per step (or ``r`` bits per step for an
adaptability-``r`` system), the optimal recovery time from a damaged
state is the Hamming distance to the nearest fit configuration divided by
the per-step flip budget.

This module checks k-recoverability *exactly* by exhausting the damage
envelope of an event type, and reports the binding worst case so callers
can see which perturbation saturates the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from ..csp.bitstring import (
    BitSpace,
    BitString,
    pack_matrix,
    packed_hamming,
    to_matrix,
)
from ..csp.problem import CSP
from ..errors import ConfigurationError

__all__ = [
    "DamageModel",
    "BoundedComponentDamage",
    "AdversarialBitDamage",
    "PackedFitSet",
    "RecoverabilityReport",
    "recovery_steps",
    "is_k_recoverable",
    "minimal_recovery_bound",
    "adaptation_bound",
]


class PackedFitSet:
    """A fit set packed once into uint64 words for batched queries.

    The exhaustive recoverability checks ask "distance to the nearest fit
    configuration" once per damage outcome; scanning the fit set with
    scalar :meth:`BitString.hamming` per query is O(|outcomes|·|fit|·n)
    Python work.  Packing the fit set once (``pack_matrix``) turns each
    batch of queries into one XOR + popcount broadcast
    (:func:`packed_hamming`), with identical distances.
    """

    def __init__(self, fit: Iterable[BitString]):
        self.members: list[BitString] = list(fit)
        self._n = self.members[0].n if self.members else 0
        self._words = (
            pack_matrix(to_matrix(self.members)) if self.members else None
        )

    def __len__(self) -> int:
        return len(self.members)

    def min_distances(self, states: Sequence[BitString]) -> np.ndarray:
        """Min Hamming distance from each state into the fit set.

        Returns ``-1`` per state when the fit set is empty (recovery
        impossible), matching :meth:`BitSpace.recovery_distance`.
        """
        states = list(states)
        if self._words is None:
            return np.full(len(states), -1, dtype=np.int64)
        if not states:
            return np.zeros(0, dtype=np.int64)
        matrix = to_matrix(states)
        if matrix.shape[1] != self._n:
            raise ConfigurationError(
                f"states have {matrix.shape[1]} bits but fit set has {self._n}"
            )
        packed = pack_matrix(matrix)
        dists = packed_hamming(packed[:, None, :], self._words[None, :, :])
        return dists.min(axis=1)


class DamageModel:
    """An event type D: the set of post-damage states reachable from a state."""

    def outcomes(self, state: BitString) -> Iterator[BitString]:
        """Enumerate every state the event can leave the system in."""
        raise NotImplementedError

    @property
    def label(self) -> str:
        """Human-readable event-type name."""
        return type(self).__name__


@dataclass(frozen=True)
class BoundedComponentDamage(DamageModel):
    """Space-debris-style damage: at most ``max_failures`` good components fail.

    Matches the paper's spacecraft example: "occasionally hit by space
    debris causing at most k component failures."  Damage only clears bits
    (working → failed); it never repairs.
    """

    max_failures: int

    def __post_init__(self) -> None:
        if self.max_failures < 0:
            raise ConfigurationError(
                f"max_failures must be >= 0, got {self.max_failures}"
            )

    def outcomes(self, state: BitString) -> Iterator[BitString]:
        good = state.ones_indices()
        budget = min(self.max_failures, len(good))
        for r in range(budget + 1):
            for idxs in combinations(good, r):
                yield state.set_bits(idxs, 0)

    @property
    def label(self) -> str:
        return f"debris(max_failures={self.max_failures})"


@dataclass(frozen=True)
class AdversarialBitDamage(DamageModel):
    """Worst-case damage: any configuration within Hamming radius ``radius``.

    Unlike :class:`BoundedComponentDamage` this may also *flip on* bits,
    modelling corruption rather than pure failure.
    """

    radius: int

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ConfigurationError(f"radius must be >= 0, got {self.radius}")

    def outcomes(self, state: BitString) -> Iterator[BitString]:
        yield from BitSpace(state.n).ball(state, self.radius)

    @property
    def label(self) -> str:
        return f"adversarial(radius={self.radius})"


@dataclass(frozen=True)
class RecoverabilityReport:
    """Outcome of an exhaustive k-recoverability check.

    ``worst_steps`` is the maximum over all fit starting states and all
    damage outcomes of the optimal recovery step count; ``witness`` is a
    (start, damaged) pair achieving it.  ``recoverable`` additionally
    requires that recovery is possible at all (the fit set of the
    post-event environment is non-empty and reachable).
    """

    k: int
    worst_steps: Optional[int]
    recoverable: bool
    witness: Optional[tuple[BitString, BitString]]
    event_label: str

    @property
    def is_k_recoverable(self) -> bool:
        """True iff every damage outcome recovers within k steps."""
        return self.recoverable and self.worst_steps is not None \
            and self.worst_steps <= self.k


def recovery_steps(
    damaged: BitString,
    fit: "Sequence[BitString] | frozenset[BitString] | PackedFitSet",
    flips_per_step: int = 1,
) -> Optional[int]:
    """Optimal number of repair steps from ``damaged`` into the fit set.

    With a budget of ``flips_per_step`` bit flips per step, the optimum is
    ``ceil(hamming_distance / flips_per_step)``.  Returns ``None`` when
    the fit set is empty.  Passing a :class:`PackedFitSet` (built once
    for many queries) or a
    :class:`~repro.csp.tiledengine.TiledBitCSP` — anything exposing
    ``min_distances`` — uses the batched fast path.
    """
    if flips_per_step < 1:
        raise ConfigurationError(f"flips_per_step must be >= 1, got {flips_per_step}")
    if hasattr(fit, "min_distances"):
        distance = int(fit.min_distances([damaged])[0])
    else:
        distance = BitSpace(damaged.n).recovery_distance(damaged, fit)
    if distance < 0:
        return None
    return math.ceil(distance / flips_per_step)


def is_k_recoverable(
    csp: CSP,
    damage: DamageModel,
    k: int,
    post_event_csp: Optional[CSP] = None,
    flips_per_step: int = 1,
    start_states: Optional[Iterable[BitString]] = None,
    engine=None,
) -> RecoverabilityReport:
    """Exhaustively decide k-recoverability of a boolean CSP system.

    For every fit state ``s`` of ``csp`` (or the supplied ``start_states``)
    and every outcome of ``damage``, the optimal recovery step count into
    the fit set of ``post_event_csp`` (defaults to the same environment)
    must be at most ``k``.

    ``engine`` selects the CSP kernels (see
    :func:`repro.csp.engine.make_csp_engine`; default honours
    ``REPRO_CSP_ENGINE``).  The fast kinds compile both environments
    once, stream the state space in blocks for the fit sets and answer
    distances from the fit set directly or by an implicit BFS frontier,
    reproducing the object engine's report exactly, witness included,
    up to n ≈ 24+.  Non-boolean CSPs and ``n`` beyond the enumeration
    cap fall back to the object path automatically.

    Exhaustive over 2^n states, so intended for the model-scale systems
    the paper analyses; larger systems should use the sampled
    fault-injection harness in :mod:`repro.faults`.
    """
    from ..csp.engine import make_csp_engine
    from ..runtime import trace

    if k < 0:
        raise ConfigurationError(f"k must be >= 0, got {k}")
    if flips_per_step < 1:
        raise ConfigurationError(
            f"flips_per_step must be >= 1, got {flips_per_step}"
        )
    engine = make_csp_engine(engine)
    target = csp if post_event_csp is None else post_event_csp
    tr = trace.current()
    compiled = engine.try_compile(csp)
    compiled_target = (
        compiled if target is csp else engine.try_compile(target)
    ) if compiled is not None else None
    if compiled is not None and compiled_target is not None:
        with tr.timer("csp.recover.tiled"):
            fit_after = compiled_target
            starts = list(start_states) if start_states is not None \
                else sorted(compiled.fit_bitstrings())
            report = _worst_case_report(
                starts, damage, fit_after, k, flips_per_step
            )
        tr.count("csp.recover.checks.tiled")
        return report
    with tr.timer("csp.recover.object"):
        fit_after = PackedFitSet(target.fit_bitstrings())
        starts = list(start_states) if start_states is not None \
            else sorted(csp.fit_bitstrings())
        report = _worst_case_report(
            starts, damage, fit_after, k, flips_per_step
        )
    tr.count("csp.recover.checks.object")
    return report


def _worst_case_report(
    starts: Sequence[BitString],
    damage: DamageModel,
    fit_after,
    k: int,
    flips_per_step: int,
) -> RecoverabilityReport:
    """The shared worst-case sweep over starts × damage outcomes.

    ``fit_after`` is anything with ``min_distances`` and a truthy size —
    a :class:`PackedFitSet` (object engine) or a
    :class:`~repro.csp.tiledengine.TiledBitCSP` (fast kinds); both
    return identical distances, so the report is engine-independent.
    """
    fit_count = len(fit_after) if isinstance(fit_after, PackedFitSet) \
        else len(fit_after.fit_indices)
    worst: Optional[int] = None
    witness: Optional[tuple[BitString, BitString]] = None
    for start in starts:
        outcomes = list(damage.outcomes(start))
        if not outcomes:
            continue
        if not fit_count:
            return RecoverabilityReport(
                k=k,
                worst_steps=None,
                recoverable=False,
                witness=(start, outcomes[0]),
                event_label=damage.label,
            )
        dists = fit_after.min_distances(outcomes)
        steps = (dists + flips_per_step - 1) // flips_per_step
        pos = int(np.argmax(steps))
        if worst is None or int(steps[pos]) > worst:
            worst = int(steps[pos])
            witness = (start, outcomes[pos])
    return RecoverabilityReport(
        k=k,
        worst_steps=worst,
        recoverable=True,
        witness=witness,
        event_label=damage.label,
    )


def minimal_recovery_bound(
    csp: CSP,
    damage: DamageModel,
    post_event_csp: Optional[CSP] = None,
    flips_per_step: int = 1,
    engine=None,
) -> Optional[int]:
    """The smallest k for which the system is k-recoverable (None if never)."""
    report = is_k_recoverable(
        csp, damage, k=0, post_event_csp=post_event_csp,
        flips_per_step=flips_per_step, engine=engine,
    )
    if not report.recoverable:
        return None
    return report.worst_steps


def adaptation_bound(
    before: CSP,
    after: CSP,
    flips_per_step: int = 1,
    engine=None,
) -> Optional[int]:
    """Worst-case adaptation steps for a pure environment shift C → C'.

    Fig. 4's picture with no state damage: the system sits at some fit
    configuration of ``before`` when the environment becomes ``after``;
    it must flip bits until it is fit again.  The bound is the maximum
    over old fit states of the optimal recovery step count into the new
    fit set.  Returns ``None`` when the new environment is unsatisfiable,
    and 0 when every old fit state is already fit in the new environment.

    Exhaustive (2^n); model scale only.
    """
    from ..csp.engine import make_csp_engine
    from ..runtime import trace

    if flips_per_step < 1:
        raise ConfigurationError(
            f"flips_per_step must be >= 1, got {flips_per_step}"
        )
    engine = make_csp_engine(engine)
    tr = trace.current()
    compiled_after = engine.try_compile(after)
    compiled_before = engine.try_compile(before) \
        if compiled_after is not None else None
    if compiled_after is not None and compiled_before is not None:
        with tr.timer("csp.recover.tiled"):
            if not len(compiled_after.fit_indices):
                result = None
            else:
                starts_idx = compiled_before.fit_indices
                if not len(starts_idx):
                    result = 0
                else:
                    dists = compiled_after.min_distances_masks(starts_idx)
                    steps = (dists + flips_per_step - 1) // flips_per_step
                    result = int(steps.max())
        tr.count("csp.recover.checks.tiled")
        return result
    with tr.timer("csp.recover.object"):
        fit_after = after.fit_bitstrings()
        if not fit_after:
            result = None
        else:
            packed = PackedFitSet(fit_after)
            starts = list(before.fit_bitstrings())
            if not starts:
                result = 0
            else:
                dists = packed.min_distances(starts)
                steps = (dists + flips_per_step - 1) // flips_per_step
                result = int(steps.max())
    tr.count("csp.recover.checks.object")
    return result
