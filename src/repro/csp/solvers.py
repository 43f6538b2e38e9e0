"""Solvers and repair procedures for constraint problems.

Two families matter for the resilience model:

* **Constructive solving** (:func:`backtracking_solve`) finds a fit
  configuration from scratch — used to initialise systems and to decide
  satisfiability of a new environment C'.
* **Local repair** (:func:`min_conflicts`, :func:`greedy_bitflip_repair`)
  moves an *unfit* configuration back into the fit set one variable at a
  time — exactly the paper's recovery process ("the system flips one bit
  at a time", §4.2).  Repair functions return full trajectories so the
  caller can score recovery time and build Q(t) traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..rng import SeedLike, make_rng
from .constraints import Assignment
from .problem import CSP

__all__ = [
    "backtracking_solve",
    "min_conflicts",
    "greedy_bitflip_repair",
    "RepairResult",
]


def backtracking_solve(
    csp: CSP,
    seed: SeedLike = None,
    max_nodes: int = 1_000_000,
) -> Optional[Dict[str, object]]:
    """Find a fit assignment, or ``None`` when the fit set C is empty.

    Chronological backtracking with minimum-remaining-values variable
    ordering and forward checking.  ``max_nodes`` caps the search so a
    pathological instance degrades to "unknown" (raises
    :class:`ConfigurationError`) instead of hanging a simulation.
    """
    rng = make_rng(seed)
    names = list(csp.names)
    domains: Dict[str, list] = {n: list(csp.by_name[n].domain) for n in names}
    for dom in domains.values():
        rng.shuffle(dom)
    assignment: Dict[str, object] = {}
    nodes = 0

    def consistent(name: str) -> bool:
        for c in csp.constraints_of(name):
            if c.applicable(assignment) and not c.satisfied(assignment):
                return False
        return True

    def prune(name: str) -> Optional[Dict[str, list]]:
        """Forward-check: filter neighbour domains, None on wipe-out."""
        removed: Dict[str, list] = {}
        for c in csp.constraints_of(name):
            unbound = [v for v in c.scope if v not in assignment]
            if len(unbound) != 1:
                continue
            other = unbound[0]
            keep = []
            for value in domains[other]:
                assignment[other] = value
                ok = c.satisfied(assignment)
                del assignment[other]
                if ok:
                    keep.append(value)
                else:
                    removed.setdefault(other, []).append(value)
            if not keep:
                # restore before reporting wipe-out
                for var, vals in removed.items():
                    domains[var].extend(vals)
                return None
            domains[other] = keep
        return removed

    def restore(removed: Dict[str, list]) -> None:
        for var, vals in removed.items():
            domains[var].extend(vals)

    def select_variable() -> Optional[str]:
        unbound = [n for n in names if n not in assignment]
        if not unbound:
            return None
        return min(unbound, key=lambda n: (len(domains[n]), n))

    def search() -> bool:
        nonlocal nodes
        name = select_variable()
        if name is None:
            return True
        for value in list(domains[name]):
            nodes += 1
            if nodes > max_nodes:
                raise ConfigurationError(
                    f"backtracking search exceeded {max_nodes} nodes"
                )
            assignment[name] = value
            if consistent(name):
                removed = prune(name)
                if removed is not None:
                    if search():
                        return True
                    restore(removed)
            del assignment[name]
        return False

    if search():
        return dict(assignment)
    return None


@dataclass
class RepairResult:
    """Outcome of a local-repair run.

    ``trajectory`` includes the starting assignment and every intermediate
    configuration; ``steps`` counts variable changes (= bit flips for
    boolean CSPs), which is the recovery-time currency of
    k-recoverability.
    """

    success: bool
    steps: int
    final: Dict[str, object]
    trajectory: list[Dict[str, object]] = field(default_factory=list)
    conflicts: list[int] = field(default_factory=list)

    @property
    def recovered_within(self) -> Optional[int]:
        """Steps used if repair succeeded, else ``None``."""
        return self.steps if self.success else None


def min_conflicts(
    csp: CSP,
    start: Assignment,
    max_steps: int = 10_000,
    seed: SeedLike = None,
    engine=None,
) -> RepairResult:
    """Min-conflicts local search from ``start``.

    At each step pick a random conflicted variable and move it to the
    value minimising the number of violated constraints (ties broken at
    random).  Classic DCSP repair: it reuses the damaged configuration
    instead of re-solving from scratch, which is why it models recovery
    rather than redesign.

    ``engine`` selects the CSP kernels (default honours
    ``REPRO_CSP_ENGINE``); the fast kinds replay the identical search
    on compiled violation counts, draw-for-draw, falling back to the
    object loop for non-boolean or too-large CSPs.
    """
    from ..runtime import trace
    from .engine import make_csp_engine

    rng = make_rng(seed)
    assignment = dict(start)
    csp.validate_assignment(assignment)
    if not csp.is_complete(assignment):
        raise ConfigurationError("min_conflicts requires a complete assignment")
    tr = trace.current()
    compiled = make_csp_engine(engine).try_compile(csp)
    if compiled is not None:
        with tr.timer("csp.repair.tiled"):
            result = _min_conflicts_bits(
                compiled, csp, assignment, max_steps, rng
            )
        tr.count("csp.repair.runs.tiled")
        return result
    with tr.timer("csp.repair.object"):
        result = _min_conflicts_object(csp, assignment, max_steps, rng)
    tr.count("csp.repair.runs.object")
    return result


def _min_conflicts_object(
    csp: CSP, assignment: Dict[str, object], max_steps: int, rng
) -> RepairResult:
    trajectory = [dict(assignment)]
    conflicts = [csp.conflict_count(assignment)]
    steps = 0
    while conflicts[-1] > 0 and steps < max_steps:
        conflicted_vars = sorted(
            {v for c in csp.violated_constraints(assignment) for v in c.scope}
        )
        name = conflicted_vars[rng.integers(len(conflicted_vars))]
        best_values: list[object] = []
        best_count: Optional[int] = None
        for value in csp.by_name[name].domain:
            candidate = dict(assignment)
            candidate[name] = value
            count = csp.conflict_count(candidate)
            if best_count is None or count < best_count:
                best_count, best_values = count, [value]
            elif count == best_count:
                best_values.append(value)
        new_value = best_values[rng.integers(len(best_values))]
        if new_value != assignment[name]:
            assignment[name] = new_value
            steps += 1
            trajectory.append(dict(assignment))
            conflicts.append(csp.conflict_count(assignment))
        else:
            # Stuck on a plateau: random restart of this variable.
            domain = csp.by_name[name].domain
            assignment[name] = domain[rng.integers(len(domain))]
            steps += 1
            trajectory.append(dict(assignment))
            conflicts.append(csp.conflict_count(assignment))
    return RepairResult(
        success=conflicts[-1] == 0,
        steps=steps,
        final=dict(assignment),
        trajectory=trajectory,
        conflicts=conflicts,
    )


def _min_conflicts_bits(
    compiled, csp: CSP, assignment: Dict[str, object], max_steps: int, rng
) -> RepairResult:
    """Min-conflicts on the compiled violation table.

    Replicates the object loop draw-for-draw: conflicted variables in
    lexicographic name order, candidate values in domain order, the
    plateau branch's full-domain redraw — only the conflict counting is
    a table lookup instead of a constraint sweep.
    """
    mask = compiled.mask_of(assignment)
    trajectory = [dict(assignment)]
    conflicts = [int(compiled.violations[mask])]
    steps = 0
    while conflicts[-1] > 0 and steps < max_steps:
        conflicted = compiled.conflicted_variable_order(mask)
        i = conflicted[int(rng.integers(len(conflicted)))]
        domain = csp.variables[i].domain
        bit = 1 << i
        best_bits: list[int] = []
        best_count: Optional[int] = None
        for value in domain:
            b = int(value)
            cand = (mask & ~bit) | (b << i)
            count = int(compiled.violations[cand])
            if best_count is None or count < best_count:
                best_count, best_bits = count, [b]
            elif count == best_count:
                best_bits.append(b)
        new_bit = best_bits[int(rng.integers(len(best_bits)))]
        if new_bit != (mask >> i) & 1:
            mask = (mask & ~bit) | (new_bit << i)
        else:
            # Stuck on a plateau: random restart of this variable.
            b = int(domain[int(rng.integers(len(domain)))])
            mask = (mask & ~bit) | (b << i)
        steps += 1
        trajectory.append(compiled.assignment_of(mask))
        conflicts.append(int(compiled.violations[mask]))
    return RepairResult(
        success=conflicts[-1] == 0,
        steps=steps,
        final=compiled.assignment_of(mask),
        trajectory=trajectory,
        conflicts=conflicts,
    )


def greedy_bitflip_repair(
    csp: CSP,
    start: Assignment,
    max_flips: int = 1_000,
    flips_per_step: int = 1,
    seed: SeedLike = None,
    engine=None,
) -> RepairResult:
    """Greedy one-bit-at-a-time repair for boolean CSPs.

    Each step flips up to ``flips_per_step`` bits, each chosen greedily to
    maximally reduce the number of violated constraints (random among
    ties; a random sideways flip of a conflicted variable when no flip
    improves).  ``flips_per_step`` is the paper's adaptability dial: "we
    quantify the speed of an adaptation by the number of bits an agent can
    flip at a time" (§4.4).

    ``steps`` in the result counts *rounds*, so a system with higher
    adaptability genuinely recovers in fewer steps.

    ``engine`` selects the CSP kernels (default honours
    ``REPRO_CSP_ENGINE``); the fast kinds replay the identical repair
    on compiled violation counts, draw-for-draw, falling back to the
    object loop when the CSP exceeds the enumeration cap.
    """
    from ..runtime import trace
    from .engine import make_csp_engine

    if flips_per_step < 1:
        raise ConfigurationError(f"flips_per_step must be >= 1, got {flips_per_step}")
    rng = make_rng(seed)
    assignment = dict(start)
    csp.validate_assignment(assignment)
    if not csp.is_complete(assignment):
        raise ConfigurationError("repair requires a complete assignment")
    for v in csp.variables:
        if not v.is_boolean:
            raise ConfigurationError(
                f"greedy_bitflip_repair needs boolean variables; {v.name!r} is not"
            )
    tr = trace.current()
    compiled = make_csp_engine(engine).try_compile(csp)
    if compiled is not None:
        with tr.timer("csp.repair.tiled"):
            result = _greedy_bitflip_bits(
                compiled, assignment, max_flips, flips_per_step, rng
            )
        tr.count("csp.repair.runs.tiled")
        return result
    with tr.timer("csp.repair.object"):
        result = _greedy_bitflip_object(
            csp, assignment, max_flips, flips_per_step, rng
        )
    tr.count("csp.repair.runs.object")
    return result


def _greedy_bitflip_object(
    csp: CSP,
    assignment: Dict[str, object],
    max_flips: int,
    flips_per_step: int,
    rng,
) -> RepairResult:
    trajectory = [dict(assignment)]
    conflicts = [csp.conflict_count(assignment)]
    rounds = 0
    flips_done = 0
    while conflicts[-1] > 0 and flips_done < max_flips:
        for _ in range(flips_per_step):
            if csp.conflict_count(assignment) == 0 or flips_done >= max_flips:
                break
            best_names: list[str] = []
            best_count: Optional[int] = None
            for name in csp.names:
                candidate = dict(assignment)
                candidate[name] = 1 - int(assignment[name])  # type: ignore[arg-type]
                count = csp.conflict_count(candidate)
                if best_count is None or count < best_count:
                    best_count, best_names = count, [name]
                elif count == best_count:
                    best_names.append(name)
            current = csp.conflict_count(assignment)
            if best_count is not None and best_count < current:
                name = best_names[rng.integers(len(best_names))]
            else:
                conflicted = sorted(
                    {v for c in csp.violated_constraints(assignment) for v in c.scope}
                )
                name = conflicted[rng.integers(len(conflicted))]
            assignment[name] = 1 - int(assignment[name])  # type: ignore[arg-type]
            flips_done += 1
        rounds += 1
        trajectory.append(dict(assignment))
        conflicts.append(csp.conflict_count(assignment))
    return RepairResult(
        success=conflicts[-1] == 0,
        steps=rounds,
        final=dict(assignment),
        trajectory=trajectory,
        conflicts=conflicts,
    )


def _greedy_bitflip_bits(
    compiled,
    assignment: Dict[str, object],
    max_flips: int,
    flips_per_step: int,
    rng,
) -> RepairResult:
    """Greedy bit-flip repair on the compiled violation table.

    Draw-for-draw with the object loop: all candidate flips scored in
    one gather (declaration order), ties collected exactly like the
    running arg-min list, sideways moves over name-sorted conflicted
    variables.
    """
    mask = compiled.mask_of(assignment)
    trajectory = [dict(assignment)]
    conflicts = [int(compiled.violations[mask])]
    rounds = 0
    flips_done = 0
    while conflicts[-1] > 0 and flips_done < max_flips:
        for _ in range(flips_per_step):
            current = int(compiled.violations[mask])
            if current == 0 or flips_done >= max_flips:
                break
            counts = compiled.violations[mask ^ compiled.flip_masks]
            best = int(counts.min())
            if best < current:
                best_idx = np.nonzero(counts == best)[0]
                i = int(best_idx[int(rng.integers(len(best_idx)))])
            else:
                conflicted = compiled.conflicted_variable_order(mask)
                i = conflicted[int(rng.integers(len(conflicted)))]
            mask ^= 1 << i
            flips_done += 1
        rounds += 1
        trajectory.append(compiled.assignment_of(mask))
        conflicts.append(int(compiled.violations[mask]))
    return RepairResult(
        success=conflicts[-1] == 0,
        steps=rounds,
        final=compiled.assignment_of(mask),
        trajectory=trajectory,
        conflicts=conflicts,
    )
