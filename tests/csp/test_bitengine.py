"""Equivalence suite: the ``bit`` CSP kind == the object engine.

The ``bit`` kind (``make_csp_engine``/``REPRO_CSP_ENGINE``) runs the
packed :class:`~repro.csp.tiledengine.TiledBitCSP`; at these sizes the
whole state space is one block, so its per-state lookups read the
single-block table.  It must reproduce the object engine exactly — fit
sets, quality values (float-for-float), recovery distances and
witnesses, K-maintainability results, and every seeded repair
trajectory draw-for-draw — or fall back to the object path for CSPs it
cannot compile (non-boolean variables, n beyond the enumeration cap).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.recoverability import (
    AdversarialBitDamage,
    BoundedComponentDamage,
    PackedFitSet,
    adaptation_bound,
    is_k_recoverable,
    minimal_recovery_bound,
    recovery_steps,
)
from repro.csp import (
    BitEngineUnsupported,
    BitString,
    DCSPSimulator,
    DynamicCSP,
    EnvironmentShift,
    LinearConstraint,
    PredicateConstraint,
    StateDamage,
    TableConstraint,
    all_components_good,
    at_least_k_good,
    boolean_csp,
    compile_tiled,
    greedy_bitflip_repair,
    make_csp_engine,
    min_conflicts,
    random_clause_csp,
)
from repro.csp.bitengine import SAT_ROW_BYTES
from repro.csp.bitstring import BitSpace
from repro.csp.engine import CSPEngine, ObjectCSPEngine, TiledCSPEngine
from repro.csp.tiledengine import (
    TILE_STATE_BYTES,
    TiledBitCSP,
    derive_block_bits,
    implicit_add_bit_levels,
    implicit_clear_bit_ball,
)
from repro.csp.variables import Variable, boolean_variables
from repro.errors import ConfigurationError
from repro.runtime.trace import Tracer
from repro.runtime import trace
from repro.spacecraft.system import Spacecraft


def names(n):
    return [f"x{i}" for i in range(n)]


def mixed_csp(n=5):
    """One CSP exercising every lowering path (cardinality, linear,
    table, generic predicate)."""
    ns = names(n)
    return boolean_csp(n, [
        at_least_k_good(ns, 2),
        LinearConstraint(ns[:3], (0.1, 0.2, 0.7), "<=", 0.8),
        TableConstraint(ns[1:3], [(0, 1), (1, 1), (1, 0)]),
        PredicateConstraint(
            ns[2:5], lambda a, b, c: a + b + c != 1, name="not_exactly_one"
        ),
    ])


class TestCompile:
    def test_fit_set_exact(self):
        csp = mixed_csp()
        assert compile_tiled(csp).fit_bitstrings() == csp.fit_bitstrings()

    def test_quality_and_conflicts_exact_per_state(self):
        csp = mixed_csp()
        comp = compile_tiled(csp)
        assert comp.n_blocks == 1  # the single-block table answers
        for mask in range(comp.size):
            a = comp.assignment_of(mask)
            # exact float equality: same operations in the same order
            assert comp.quality([mask])[0] == csp.quality(a)
            assert comp.conflict_counts([mask])[0] == csp.conflict_count(a)
            assert bool(comp.violations[mask] == 0) == csp.is_fit(a)

    def test_quality_no_constraints_is_full(self):
        comp = compile_tiled(boolean_csp(3, []))
        assert comp.quality([0, 5, 7]).tolist() == [100.0, 100.0, 100.0]
        assert len(comp.fit_indices) == comp.size

    def test_assignment_roundtrip(self):
        comp = compile_tiled(mixed_csp())
        for mask in (0, 7, 19, 31):
            assert comp.mask_of(comp.assignment_of(mask)) == mask

    def test_compile_cached_on_the_csp(self):
        csp = mixed_csp()
        with Tracer() as tr:
            with trace.use(tr):
                first = compile_tiled(csp)
                second = compile_tiled(csp)
        assert first is second
        assert tr.counters["csp.compiles"] == 1

    def test_non_boolean_rejected(self):
        csp = type(mixed_csp())(
            [Variable("a", (0, 1, 2))],
            [PredicateConstraint(["a"], lambda v: v != 2)],
        )
        with pytest.raises(BitEngineUnsupported):
            compile_tiled(csp)
        assert make_csp_engine("bit").try_compile(csp) is None

    def test_too_large_falls_back(self):
        csp = boolean_csp(5, [all_components_good(names(5))])
        with pytest.raises(BitEngineUnsupported):
            compile_tiled(csp, max_bits=4)
        engine = TiledCSPEngine(max_bits=4)
        with Tracer() as tr:
            with trace.use(tr):
                assert engine.try_compile(csp) is None
        assert tr.counters["csp.fallbacks"] == 1
        # within the cap the same engine compiles fine
        assert TiledCSPEngine(max_bits=5).try_compile(csp) is not None

    def test_conflicted_variable_order_is_name_sorted(self):
        # n = 11 so lexicographic name order differs from index order
        csp = boolean_csp(11, [all_components_good(names(11))])
        comp = compile_tiled(csp)
        conflicted = comp.conflicted_variable_order(0)
        assert [comp.names[i] for i in conflicted] == sorted(names(11))
        assert conflicted != sorted(conflicted)


class TestEngineSeam:
    def test_default_is_tiled(self, monkeypatch):
        monkeypatch.delenv("REPRO_CSP_ENGINE", raising=False)
        assert type(make_csp_engine()) is TiledCSPEngine

    def test_env_var_selects_bit(self, monkeypatch):
        monkeypatch.setenv("REPRO_CSP_ENGINE", "bit")
        assert type(make_csp_engine()) is TiledCSPEngine

    def test_empty_env_var_means_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CSP_ENGINE", "")
        assert type(make_csp_engine()) is TiledCSPEngine

    def test_unknown_kind_names_choices(self, monkeypatch):
        monkeypatch.delenv("REPRO_CSP_ENGINE", raising=False)
        with pytest.raises(ConfigurationError, match="bit.*object"):
            make_csp_engine("simd")
        monkeypatch.setenv("REPRO_CSP_ENGINE", "simd")
        with pytest.raises(ConfigurationError, match="REPRO_CSP_ENGINE"):
            make_csp_engine()

    def test_instance_passes_through(self):
        engine = ObjectCSPEngine()
        assert make_csp_engine(engine) is engine
        assert isinstance(engine, CSPEngine)

    def test_object_engine_never_compiles(self):
        assert ObjectCSPEngine().try_compile(mixed_csp()) is None


class TestBFSKernels:
    @pytest.mark.parametrize("n,thresh", [(5, 3), (6, 4), (6, 1)])
    def test_hamming_distances_match_scalar_bfs(self, n, thresh):
        csp = boolean_csp(n, [at_least_k_good(names(n), thresh)])
        comp = compile_tiled(csp)
        fit = list(csp.fit_bitstrings())
        space = BitSpace(n)
        dist = comp.min_distances_masks(np.arange(1 << n, dtype=np.int64))
        for s in space.all_states():
            assert dist[s.mask] == space.recovery_distance(s, fit)

    def test_empty_fit_is_all_unreachable(self):
        unsat = boolean_csp(4, [PredicateConstraint(
            names(4), lambda *vals: False, name="never_satisfied"
        )])
        comp = compile_tiled(unsat)
        dist = comp.min_distances_masks(np.arange(16, dtype=np.int64))
        assert (dist == -1).all()

    def test_min_distances_matches_packedfitset(self):
        csp = boolean_csp(6, [at_least_k_good(names(6), 4)])
        comp = compile_tiled(csp)
        packed = PackedFitSet(csp.fit_bitstrings())
        states = [BitString(6, m) for m in range(64)]
        assert comp.min_distances(states).tolist() == \
            packed.min_distances(states).tolist()

    def test_min_distances_length_mismatch_raises(self):
        comp = compile_tiled(boolean_csp(4, [all_components_good(names(4))]))
        with pytest.raises(ConfigurationError):
            comp.min_distances([BitString.zeros(5)])

    def test_recovery_steps_accepts_compiled(self):
        csp = boolean_csp(4, [all_components_good(names(4))])
        comp = compile_tiled(csp)
        damaged = BitString.from_string("0011")
        assert recovery_steps(damaged, comp) == \
            recovery_steps(damaged, csp.fit_bitstrings()) == 2
        assert recovery_steps(damaged, comp, flips_per_step=2) == 1

    def test_clear_bit_ball_matches_exo_closure(self):
        craft = Spacecraft(5, required_good=3)
        comp = compile_tiled(craft.csp)
        system = craft.to_transition_system(max_debris_hits=2)
        goals = craft.fit_states()
        envelope = system.exo_closure(frozenset(goals))
        ball = implicit_clear_bit_ball(comp.fit_indices, 5, 2)
        assert frozenset(BitString(5, int(m)) for m in ball) == envelope


class TestRecoverabilityEquivalence:
    @pytest.mark.parametrize("n,thresh,flips", [
        (5, 3, 1), (5, 3, 2), (6, 4, 1), (6, 2, 3),
    ])
    def test_debris_reports_identical(self, n, thresh, flips):
        csp = boolean_csp(n, [at_least_k_good(names(n), thresh)])
        damage = BoundedComponentDamage(max_failures=2)
        obj = is_k_recoverable(csp, damage, k=n, flips_per_step=flips,
                               engine="object")
        bit = is_k_recoverable(csp, damage, k=n, flips_per_step=flips,
                               engine="bit")
        assert obj == bit

    def test_adversarial_reports_identical(self):
        csp = boolean_csp(5, [at_least_k_good(names(5), 4)])
        damage = AdversarialBitDamage(radius=2)
        assert is_k_recoverable(csp, damage, k=5, engine="object") == \
            is_k_recoverable(csp, damage, k=5, engine="bit")

    def test_unrecoverable_witness_identical(self):
        sat = boolean_csp(4, [at_least_k_good(names(4), 1)])
        unsat = boolean_csp(4, [PredicateConstraint(
            names(4), lambda *vals: False, name="never_satisfied"
        )])
        damage = BoundedComponentDamage(max_failures=1)
        obj = is_k_recoverable(sat, damage, k=2, post_event_csp=unsat,
                               engine="object")
        bit = is_k_recoverable(sat, damage, k=2, post_event_csp=unsat,
                               engine="bit")
        assert not bit.recoverable
        assert obj == bit

    def test_minimal_bound_and_adaptation_identical(self):
        before = boolean_csp(6, [at_least_k_good(names(6), 2)])
        after = boolean_csp(6, [at_least_k_good(names(6), 5)])
        damage = BoundedComponentDamage(max_failures=3)
        assert minimal_recovery_bound(before, damage, engine="object") == \
            minimal_recovery_bound(before, damage, engine="bit")
        assert adaptation_bound(before, after, flips_per_step=2,
                                engine="object") == \
            adaptation_bound(before, after, flips_per_step=2, engine="bit")

    def test_spacecraft_report_identical(self):
        craft = Spacecraft(7, required_good=5, repairs_per_step=2)
        obj = craft.recoverability_report(3, 2, engine="object")
        bit = craft.recoverability_report(3, 2, engine="bit")
        assert obj == bit
        assert craft.minimal_k(3, engine="object") == \
            craft.minimal_k(3, engine="bit")

    def test_bit_engine_counts_checks(self):
        csp = boolean_csp(4, [all_components_good(names(4))])
        with Tracer() as tr:
            with trace.use(tr):
                is_k_recoverable(
                    csp, BoundedComponentDamage(1), k=1, engine="bit"
                )
        assert tr.counters["csp.recover.checks.tiled"] == 1
        assert "csp.recover.tiled" in tr.timers


class TestDCSPEquivalence:
    def _dynamic(self, n=11):
        ns = names(n)
        events = [
            StateDamage.failing(2, ["x0", "x3", f"x{n - 1}"]),
            EnvironmentShift(5, (at_least_k_good(ns, n),)),
            StateDamage.failing(7, ["x2", f"x{n - 2}"]),
        ]
        return DynamicCSP(
            boolean_variables(n), [at_least_k_good(ns, n - 2)], events
        )

    @pytest.mark.parametrize(
        "seed,flips,damage",
        [
            pytest.param(
                seed, flips, damage,
                id="-".join(filter(None, (label, str(seed), str(flips)))),
            )
            # all-good start, plus two damaged starts
            for label, damage in (
                ("", {}), ("x1", {"x1": 0}), ("x5x6", {"x5": 0, "x6": 0})
            )
            for seed in (0, 7, 123)
            for flips in (1, 2)
        ],
    )
    def test_runs_identical_seed_for_seed(self, seed, flips, damage):
        dyn = self._dynamic()
        init = {name: 1 for name in dyn.csp_at(0).names} | damage
        obj = DCSPSimulator(dyn, flips_per_step=flips,
                            engine="object").run(init, seed=seed)
        bit = DCSPSimulator(dyn, flips_per_step=flips,
                            engine="bit").run(init, seed=seed)
        assert obj.states == bit.states
        assert obj.fit == bit.fit
        assert obj.events_applied == bit.events_applied
        assert np.array_equal(obj.trace.times, bit.trace.times)
        assert np.array_equal(obj.trace.quality, bit.trace.quality)

    def test_non_boolean_damage_value_falls_back(self):
        ns = names(3)
        dyn = DynamicCSP(
            boolean_variables(3),
            [at_least_k_good(ns, 1)],
            [StateDamage(1, (("x0", 2),))],
        )
        init = {n: 1 for n in ns}
        sim = DCSPSimulator(dyn, flips_per_step=0, engine="bit")
        assert sim._compiled_timeline(3) is None
        # non-0/1 damage cannot be packed into a mask: the bit engine
        # must route through the object path and match it exactly
        bit = sim.run(init, horizon=3, seed=0)
        obj = DCSPSimulator(dyn, flips_per_step=0, engine="object").run(
            init, horizon=3, seed=0
        )
        assert bit.states == obj.states
        assert np.array_equal(bit.trace.quality, obj.trace.quality)

    def test_bit_run_counts(self):
        dyn = self._dynamic(5)
        init = {name: 1 for name in dyn.csp_at(0).names}
        with Tracer() as tr:
            with trace.use(tr):
                DCSPSimulator(dyn, engine="bit").run(init, seed=0)
        assert tr.counters["csp.dcsp.runs.tiled"] == 1
        assert "csp.dcsp.tiled" in tr.timers


class TestSolverEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 99])
    def test_min_conflicts_identical(self, seed):
        csp = random_clause_csp(9, 25, 3, seed=5)
        start = {f"v{i}": 0 for i in range(9)}
        obj = min_conflicts(csp, start, seed=seed, engine="object")
        bit = min_conflicts(csp, start, seed=seed, engine="bit")
        assert obj.success == bit.success
        assert obj.steps == bit.steps
        assert obj.trajectory == bit.trajectory
        assert obj.conflicts == bit.conflicts
        assert obj.final == bit.final

    @pytest.mark.parametrize("seed", [0, 3, 99])
    @pytest.mark.parametrize("flips", [1, 2])
    def test_greedy_bitflip_identical(self, seed, flips):
        csp = random_clause_csp(11, 30, 3, seed=8)
        start = {f"v{i}": 0 for i in range(11)}
        obj = greedy_bitflip_repair(csp, start, seed=seed,
                                    flips_per_step=flips, engine="object")
        bit = greedy_bitflip_repair(csp, start, seed=seed,
                                    flips_per_step=flips, engine="bit")
        assert obj.success == bit.success
        assert obj.steps == bit.steps
        assert obj.trajectory == bit.trajectory
        assert obj.conflicts == bit.conflicts


class TestKMaintainEquivalence:
    @pytest.mark.parametrize("n,required,hits,k", [
        (5, None, 2, 2),
        (6, 4, 2, 2),
        (7, 5, 3, 3),
        (11, 10, 2, 2),   # n > 10: repair_10 sorts before repair_2
    ])
    def test_results_field_for_field(self, n, required, hits, k):
        craft = Spacecraft(n, required_good=required)
        obj = craft.maintainability(hits, k, engine="object")
        bit = craft.maintainability(hits, k, engine="bit")
        assert obj.maintainable == bit.maintainable
        assert obj.k == bit.k
        assert obj.levels == bit.levels
        assert obj.envelope == bit.envelope
        assert obj.uncovered == bit.uncovered
        assert obj.policy.actions == bit.policy.actions
        assert obj.policy.levels == bit.policy.levels
        assert obj.policy.goal_states == bit.policy.goal_states

    def test_unmaintainable_case_identical(self):
        craft = Spacecraft(5)
        obj = craft.maintainability(3, 1, engine="object")
        bit = craft.maintainability(3, 1, engine="bit")
        assert not bit.maintainable
        assert obj.maintainable == bit.maintainable
        assert obj.levels == bit.levels
        assert obj.envelope == bit.envelope
        assert obj.uncovered == bit.uncovered
        assert obj.policy is None and bit.policy is None

    def test_levels_match_add_bit_levels(self):
        craft = Spacecraft(6, required_good=4)
        comp = compile_tiled(craft.csp)
        states, levels = implicit_add_bit_levels(
            comp.fit_indices, 6, max_level=6
        )
        result = craft.maintainability(2, 6, engine="bit")
        assert result.levels == {
            BitString(6, int(m)): int(lv) for m, lv in zip(states, levels)
        }

    def test_invalid_hits_rejected(self):
        craft = Spacecraft(4)
        with pytest.raises(ConfigurationError):
            craft.maintainability(0, 1, engine="bit")
        with pytest.raises(ConfigurationError):
            craft.maintainability(5, 1, engine="object")

    def test_bit_path_counts(self):
        craft = Spacecraft(4)
        with Tracer() as tr:
            with trace.use(tr):
                craft.maintainability(2, 2, engine="bit")
        assert tr.counters["csp.kmaintain.runs.tiled"] == 1
        assert "csp.kmaintain.tiled" in tr.timers


# -- single-block table footprint -------------------------------------------


def _table_nbytes(comp: TiledBitCSP) -> int:
    """Bytes held by the single-block table (satisfaction rows, counts, Q)."""
    return int(
        comp._sat.nbytes
        + comp.violations.nbytes
        + comp.quality_table().nbytes
    )


class TestTableBytes:
    """The single-block table fits the block schedule's per-state bytes."""

    @staticmethod
    def _csp(n):
        ns = names(n)
        return boolean_csp(n, [
            at_least_k_good(ns, n // 2),
            all_components_good(ns[:4]),
            LinearConstraint(ns[:3], (0.5, 0.25, 0.25), "<=", 0.9),
        ])

    @pytest.mark.parametrize("n", [10, 14])
    def test_table_nbytes_within_block_budget(self, n):
        csp = self._csp(n)
        comp = TiledBitCSP(csp)
        assert comp.n_blocks == 1
        n_c = len(csp.constraints)
        assert _table_nbytes(comp) <= comp.block_size * (
            TILE_STATE_BYTES + SAT_ROW_BYTES * n_c
        )

    def test_table_fits_the_tightest_single_block_budget(self):
        # the smallest budget that still schedules one block for n = 12
        csp = self._csp(12)
        n_c = len(csp.constraints)
        budget = (1 << 12) * (TILE_STATE_BYTES + SAT_ROW_BYTES * n_c)
        assert derive_block_bits(12, n_c, budget) == 12
        comp = TiledBitCSP(csp, memory_budget_bytes=budget)
        assert comp.n_blocks == 1
        assert _table_nbytes(comp) <= budget

    def test_streamed_queries_build_no_table(self):
        # fit enumeration and distance queries stream; only per-state
        # lookups build the table
        comp = TiledBitCSP(self._csp(10))
        comp.min_distances_masks(np.arange(1 << 10, dtype=np.int64))
        assert "_sat" not in vars(comp)
        assert isinstance(comp.violations, np.ndarray)
        assert "_sat" in vars(comp)
