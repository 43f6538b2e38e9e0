"""Differential fuzzing of the packed CSP engine against the object engine.

Random boolean CSPs — n from 1 to 10 (8 for the exhaustive
recoverability reports, 7 for maintainability), cardinality, linear,
table, all-different and predicate constraints mixed, zero constraints
and unsatisfiable sets included — compile to
:class:`~repro.csp.tiledengine.TiledBitCSP` at block sizes ``{1, drawn,
n}``, so both the single-block table and the multi-block per-state path
run on every example.  Every quantity must equal the
:class:`~repro.csp.engine.ObjectCSPEngine` result exactly: fit sets,
per-state violations and quality (byte-for-byte), conflicted-variable
order, recovery distances and report witnesses, Spacecraft
maintainability (its constraint joined by drawn ones), and seeded
repair trajectories draw for draw.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.recoverability import (
    AdversarialBitDamage,
    BoundedComponentDamage,
    PackedFitSet,
    adaptation_bound,
    is_k_recoverable,
)
from repro.csp import (
    AllDifferentConstraint,
    BitString,
    CardinalityConstraint,
    LinearConstraint,
    PredicateConstraint,
    TableConstraint,
    boolean_csp,
    greedy_bitflip_repair,
    min_conflicts,
)
from repro.csp.engine import ObjectCSPEngine, TiledCSPEngine
from repro.csp.tiledengine import TiledBitCSP
from repro.spacecraft.system import Spacecraft

FUZZ = settings(max_examples=25, deadline=None)
OBJECT = ObjectCSPEngine()


def _never(*values) -> bool:
    return False


def _odd_parity(*values) -> bool:
    return sum(values) % 2 == 1


@st.composite
def scopes(draw, names: list) -> list:
    return draw(st.lists(
        st.sampled_from(names), min_size=1, max_size=min(4, len(names)),
        unique=True,
    ))


@st.composite
def constraints(draw, names: list):
    scope = draw(scopes(names))
    m = len(scope)
    kind = draw(st.sampled_from(
        ("cardinality", "linear", "table", "alldiff", "predicate")
    ))
    if kind == "cardinality":
        lo = draw(st.integers(0, m))
        hi = draw(st.none() | st.integers(lo, m))
        value = draw(st.sampled_from((0, 1, True, 2)))
        return CardinalityConstraint(scope, value, lo, hi)
    if kind == "linear":
        weights = draw(st.lists(
            st.sampled_from((-1.0, 0.1, 0.2, 0.25, 0.7, 1.0, 3.0)),
            min_size=m, max_size=m,
        ))
        op = draw(st.sampled_from(("<=", ">=", "<", ">", "==", "!=")))
        bound = draw(st.sampled_from((-0.5, 0.0, 0.3, 0.8, 1.0, 2.0)))
        return LinearConstraint(scope, weights, op, bound)
    if kind == "table":
        rows = [
            tuple((r >> j) & 1 for j in range(m)) for r in range(1 << m)
        ]
        allowed = draw(st.lists(st.sampled_from(rows), unique=True))
        return TableConstraint(scope, allowed)
    if kind == "alldiff":
        return AllDifferentConstraint(scope)
    return PredicateConstraint(
        scope, draw(st.sampled_from((_never, _odd_parity)))
    )


@st.composite
def csps(draw, max_n: int = 10, n=None):
    if n is None:
        n = draw(st.integers(1, max_n))
    names = [f"x{i}" for i in range(n)]
    return boolean_csp(
        n, draw(st.lists(constraints(names), max_size=5))
    )


def subjects(csp, data) -> list:
    """One compile per block size in ``{1, drawn, n}``."""
    n = len(csp.variables)
    drawn = data.draw(st.integers(1, n), label="block_bits")
    return [
        TiledBitCSP(csp, block_bits=b) for b in sorted({1, drawn, n})
    ]


def object_conflicted(csp, assignment) -> list:
    return sorted(
        {v for c in csp.violated_constraints(assignment) for v in c.scope}
    )


@FUZZ
@given(csp=csps(), data=st.data())
def test_per_state_tables_match_object(csp, data):
    n = len(csp.variables)
    masks = np.arange(1 << n, dtype=np.int64)
    fit = csp.fit_bitstrings()
    for comp in subjects(csp, data):
        assignments = [comp.assignment_of(int(m)) for m in masks]
        violations = np.array(
            [csp.conflict_count(a) for a in assignments], dtype=np.int32
        )
        quality = np.array(
            [csp.quality(a) for a in assignments], dtype=np.float64
        )
        assert comp.fit_bitstrings() == fit
        assert comp.violations[masks].tobytes() == violations.tobytes()
        assert comp.conflict_counts(masks).tobytes() == violations.tobytes()
        assert comp.quality_table()[masks].tobytes() == quality.tobytes()
        assert comp.quality(masks).tobytes() == quality.tobytes()
        for m, a in zip(masks, assignments):
            assert int(comp.violations[int(m)]) == csp.conflict_count(a)
            order = comp.conflicted_variable_order(int(m))
            assert [comp.names[i] for i in order] == object_conflicted(csp, a)


@FUZZ
@given(csp=csps(max_n=8), data=st.data())
def test_distances_and_reports_match_object(csp, data):
    n = len(csp.variables)
    other = data.draw(csps(n=n), label="post_event_csp")
    damage = data.draw(st.sampled_from((
        BoundedComponentDamage(1),
        BoundedComponentDamage(max(1, n // 2)),
        AdversarialBitDamage(1),
        AdversarialBitDamage(min(2, n)),
    )), label="damage")
    flips = data.draw(st.integers(1, 3), label="flips")
    k = data.draw(st.integers(0, n), label="k")
    states = [BitString(n, m) for m in range(1 << n)]
    masks = np.arange(1 << n, dtype=np.int64)
    distances = PackedFitSet(csp.fit_bitstrings()).min_distances(states)
    ref = is_k_recoverable(csp, damage, k, flips_per_step=flips,
                           engine=OBJECT)
    ref_post = is_k_recoverable(csp, damage, k, post_event_csp=other,
                                flips_per_step=flips, engine=OBJECT)
    ref_adapt = adaptation_bound(csp, other, flips_per_step=flips,
                                 engine=OBJECT)
    for comp in subjects(csp, data):
        assert comp.min_distances_masks(masks).tobytes() == \
            distances.tobytes()
        assert comp.min_distances(states).tobytes() == distances.tobytes()
        engine = TiledCSPEngine(block_bits=comp.block_bits)
        assert is_k_recoverable(csp, damage, k, flips_per_step=flips,
                                engine=engine) == ref
        assert is_k_recoverable(csp, damage, k, post_event_csp=other,
                                flips_per_step=flips,
                                engine=engine) == ref_post
        assert adaptation_bound(csp, other, flips_per_step=flips,
                                engine=engine) == ref_adapt


@FUZZ
@given(n=st.integers(1, 7), data=st.data())
def test_maintainability_matches_object(n, data):
    # Spacecraft's repair/debris encoding; its at-least-r-good
    # constraint is joined by up to two drawn ones
    required = data.draw(st.integers(1, n), label="required_good")
    craft = Spacecraft(n, required_good=required)
    extra = data.draw(
        st.lists(constraints(list(craft.csp.names)), max_size=2),
        label="extra",
    )
    csp = craft.csp = boolean_csp(n, list(craft.csp.constraints) + extra)
    hits = data.draw(st.integers(1, n), label="hits")
    k = data.draw(st.integers(0, n), label="k")
    ref = craft.maintainability(hits, k, engine=OBJECT)
    for comp in subjects(csp, data):
        got = craft.maintainability(
            hits, k, engine=TiledCSPEngine(block_bits=comp.block_bits)
        )
        assert got.maintainable == ref.maintainable
        assert got.levels == ref.levels
        assert got.envelope == ref.envelope
        assert got.uncovered == ref.uncovered
        if ref.policy is None:
            assert got.policy is None
        else:
            assert got.policy.actions == ref.policy.actions
            assert got.policy.levels == ref.policy.levels
            assert got.policy.goal_states == ref.policy.goal_states


@FUZZ
@given(csp=csps(), data=st.data())
def test_repair_trajectories_match_object_draw_for_draw(csp, data):
    n = len(csp.variables)
    start_mask = data.draw(st.integers(0, (1 << n) - 1), label="start")
    start = {f"x{i}": (start_mask >> i) & 1 for i in range(n)}
    seed = data.draw(st.integers(0, 2**16), label="seed")
    flips = data.draw(st.integers(1, 3), label="flips")
    ref_mc = min_conflicts(csp, start, max_steps=25, seed=seed,
                           engine=OBJECT)
    ref_gb = greedy_bitflip_repair(csp, start, max_flips=25,
                                   flips_per_step=flips, seed=seed,
                                   engine=OBJECT)
    for comp in subjects(csp, data):
        engine = TiledCSPEngine(block_bits=comp.block_bits)
        mc = min_conflicts(csp, start, max_steps=25, seed=seed,
                           engine=engine)
        assert mc == ref_mc
        gb = greedy_bitflip_repair(csp, start, max_flips=25,
                                   flips_per_step=flips, seed=seed,
                                   engine=engine)
        assert gb == ref_gb
