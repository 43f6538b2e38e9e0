"""Equivalence suite for the tiled (block-streamed) CSP engine.

Three contracts:

* **cross-schedule** (n ≤ 20): multi-block results — fit sets,
  quality, violation views, distances, recoverability witnesses,
  maintainability policies, DCSP runs — are byte-identical to the
  single-block table, which is itself pinned to the object engine;
* **self-consistency** (n ∈ {22, 24}): past one default block the
  engine must agree with itself across block sizes and with the
  object oracle on subsampled check sets;
* **degradation**: the MAPE supervisor trips ``tiled → object`` on an
  injected chaos-style OOM, while a memory budget only schedules
  smaller blocks and the engine falls back to the object kernels only
  for CSPs it cannot compile.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.recoverability import (
    BoundedComponentDamage,
    PackedFitSet,
    adaptation_bound,
    is_k_recoverable,
)
from repro.analysis.sweep import sweep
from repro.csp import (
    CSP,
    LinearConstraint,
    PredicateConstraint,
    TableConstraint,
    all_components_good,
    at_least_k_good,
    boolean_csp,
)
from repro.csp.bitstring import BitString
from repro.csp.dynamic import DCSPSimulator, DynamicCSP, StateDamage
from repro.csp.engine import (
    ObjectCSPEngine,
    TiledCSPEngine,
    make_csp_engine,
)
from repro.csp.solvers import greedy_bitflip_repair, min_conflicts
from repro.csp.tiledengine import (
    DEFAULT_BLOCK_BITS,
    MAX_BLOCK_BITS,
    MIN_BLOCK_BITS,
    TiledBitCSP,
    derive_block_bits,
    implicit_add_bit_levels,
    implicit_clear_bit_ball,
)
from repro.csp.variables import Variable
from repro.errors import ConfigurationError, EngineError
from repro.runtime import supervisor, trace
from repro.runtime.engines import SEAMS, resolve_engine_kind
from repro.spacecraft.system import Spacecraft


def names(n):
    return [f"x{i}" for i in range(n)]


def mixed_csp(n=10):
    """All four lowering paths: cardinality, linear, table, predicate."""
    ns = names(n)
    return boolean_csp(n, [
        at_least_k_good(ns, n // 3),
        LinearConstraint(ns[:3], (0.1, 0.2, 0.7), "<=", 0.8),
        TableConstraint(ns[1:3], [(0, 1), (1, 1), (1, 0)]),
        PredicateConstraint(
            ns[2:5], lambda a, b, c: a + b + c != 1, name="not_exactly_one"
        ),
    ])


def dense_add_bit_levels(fit: np.ndarray, n: int, max_level=None):
    """Reference levels on a full (2^n,) array, one state at a time."""
    levels = np.full(1 << n, -1, dtype=np.int32)
    levels[fit] = 0
    frontier = list(fit)
    for d in range(1, (n if max_level is None else max_level) + 1):
        nxt = []
        for m in frontier:
            for i in range(n):
                p = int(m) ^ (1 << i)
                if p < m and levels[p] < 0:
                    levels[p] = d
                    nxt.append(p)
        frontier = nxt
    return levels


def dense_clear_bit_ball(fit: np.ndarray, n: int, radius: int):
    """Reference clear-bit ball as a (2^n,) membership mask."""
    member = np.zeros(1 << n, dtype=bool)
    member[fit] = True
    for m in np.nonzero(member)[0]:
        ones = [i for i in range(n) if (int(m) >> i) & 1]
        for r in range(1, radius + 1):
            for drop in itertools.combinations(ones, r):
                member[int(m) & ~sum(1 << i for i in drop)] = True
    return member


# -- cross-schedule equivalence at n <= 20 ----------------------------------


def _tiled_fit_point(value):
    """Sweep point: enumerate a multi-block tiled compile of 12 variables."""
    compiled = TiledCSPEngine(block_bits=9).try_compile(mixed_csp(12))
    assert compiled.n_blocks == 8
    return {"fit": compiled.fit_indices.tolist()}


class TestBitEquivalence:
    """Multi-block schedules against the single-block table (the ``bit``
    kind's compile at these sizes)."""

    @pytest.mark.parametrize("block_bits", [4, 7, 10])
    def test_fit_violations_quality_identical(self, block_bits):
        csp = mixed_csp(10)
        bit = TiledBitCSP(csp)
        tiled = TiledBitCSP(csp, block_bits=block_bits)
        assert bit.n_blocks == 1
        assert bit.fit_bitstrings() == csp.fit_bitstrings()
        assert np.array_equal(bit.fit_indices, tiled.fit_indices)
        assert bit.fit_bitstrings() == tiled.fit_bitstrings()
        masks = np.arange(1 << 10, dtype=np.int64)
        assert bit.violations[masks].tobytes() == \
            tiled.violations[masks].tobytes()
        assert bit.quality_table()[masks].tobytes() == \
            tiled.quality_table()[masks].tobytes()
        assert bit.quality(masks[:17]).tobytes() == \
            tiled.quality(masks[:17]).tobytes()

    def test_lazy_views_accept_bit_engine_index_shapes(self):
        csp = mixed_csp(10)
        bit = TiledBitCSP(csp)
        tiled = TiledBitCSP(csp, block_bits=6)
        assert isinstance(bit.violations, np.ndarray)
        assert not isinstance(tiled.violations, np.ndarray)
        # scalar (solver inner loop)
        assert int(bit.violations[5]) == int(tiled.violations[5])
        assert float(bit.quality_table()[5]) == \
            float(tiled.quality_table()[5])
        # 1-D flip neighborhood (greedy repair)
        nb = bit.violations[np.int64(9) ^ bit.flip_masks]
        nt = tiled.violations[np.int64(9) ^ tiled.flip_masks]
        assert nb.tobytes() == nt.tobytes()
        # 2-D batched neighborhoods (batched DCSP repair)
        masks = np.arange(8, dtype=np.int64)
        b2 = bit.violations[masks[:, None] ^ bit.flip_masks]
        t2 = tiled.violations[masks[:, None] ^ tiled.flip_masks]
        assert b2.shape == t2.shape and b2.tobytes() == t2.tobytes()

    def test_min_distances_and_conflict_order_identical(self):
        csp = mixed_csp(10)
        bit = TiledBitCSP(csp)
        tiled = TiledBitCSP(csp, block_bits=6)
        masks = np.arange(1 << 10, dtype=np.int64)
        assert bit.min_distances_masks(masks).tobytes() == \
            tiled.min_distances_masks(masks).tobytes()
        states = [BitString(10, m) for m in (0, 5, 513, 1023)]
        assert bit.min_distances(states).tobytes() == \
            tiled.min_distances(states).tobytes()
        for m in (0, 5, 77, 1023):
            assert bit.conflicted_variable_order(m) == \
                tiled.conflicted_variable_order(m)
            assert bit.assignment_of(m) == tiled.assignment_of(m)

    def test_empty_fit_distances_are_minus_one(self):
        ns = names(6)
        csp = boolean_csp(6, [
            all_components_good(ns),
            at_least_k_good(ns, 3, hi=4),  # contradiction
        ]) if False else boolean_csp(6, [
            LinearConstraint(ns, (1,) * 6, ">=", 7.0),  # unsatisfiable
        ])
        tiled = TiledBitCSP(csp, block_bits=4)
        assert len(tiled.fit_indices) == 0
        d = tiled.min_distances_masks(np.arange(8, dtype=np.int64))
        assert (d == -1).all()
        assert (tiled.min_distances([BitString(6, 0)]) == -1).all()

    @pytest.mark.parametrize("engine_kind", ["object", "bit"])
    def test_recoverability_reports_identical(self, engine_kind):
        sc = Spacecraft(8)
        ref = sc.recoverability_report(3, 3, engine=engine_kind)
        got = sc.recoverability_report(3, 3, engine="tiled")
        assert got.is_k_recoverable == ref.is_k_recoverable
        assert got.worst_steps == ref.worst_steps
        assert got.witness == ref.witness
        assert got.event_label == ref.event_label

    def test_adaptation_bound_identical(self):
        ns = names(8)
        before = boolean_csp(8, [at_least_k_good(ns, 6)])
        after = boolean_csp(8, [all_components_good(ns[:5])])
        vals = {
            kind: adaptation_bound(before, after, engine=kind)
            for kind in ("object", "bit", "tiled")
        }
        assert vals["object"] == vals["bit"] == vals["tiled"]

    @pytest.mark.parametrize("engine_kind", ["object", "bit"])
    def test_maintainability_field_for_field(self, engine_kind):
        sc = Spacecraft(7)
        ref = sc.maintainability(2, 3, engine=engine_kind)
        got = sc.maintainability(2, 3, engine="tiled")
        assert got.maintainable == ref.maintainable
        assert got.levels == ref.levels
        assert got.envelope == ref.envelope
        assert got.uncovered == ref.uncovered
        assert got.policy.actions == ref.policy.actions
        assert got.policy.goal_states == ref.policy.goal_states

    def test_dcsp_and_solvers_draw_for_draw(self):
        ns = names(10)
        csp = boolean_csp(10, [at_least_k_good(ns, 7)])
        dyn = DynamicCSP(
            variables=csp.variables,
            initial_constraints=csp.constraints,
            events=[StateDamage.failing(3, ["x1", "x2", "x3"])],
        )
        initial = {n: 1 for n in ns}
        runs = {
            kind: DCSPSimulator(dyn, flips_per_step=1, engine=kind).run(
                horizon=8, initial=initial, seed=7
            )
            for kind in ("object", "bit", "tiled")
        }
        assert runs["object"].states == runs["bit"].states == \
            runs["tiled"].states
        assert np.array_equal(
            runs["object"].trace.quality, runs["tiled"].trace.quality
        )
        start = {n: (1 if i % 3 else 0) for i, n in enumerate(ns)}
        res = {
            kind: min_conflicts(
                csp, dict(start), max_steps=50, seed=3, engine=kind
            )
            for kind in ("object", "bit", "tiled")
        }
        assert res["object"].final == res["bit"].final == res["tiled"].final
        assert res["object"].steps == res["tiled"].steps
        rep = {
            kind: greedy_bitflip_repair(
                csp, dict(start), max_flips=30, seed=5, engine=kind
            )
            for kind in ("object", "bit", "tiled")
        }
        assert rep["object"].final == rep["tiled"].final
        assert rep["bit"].final == rep["tiled"].final

    def test_implicit_bfs_kernels_match_dense(self):
        csp = mixed_csp(10)
        fit = TiledBitCSP(csp).fit_indices
        for k in (0, 1, 3, None):
            dense = dense_add_bit_levels(fit, 10, max_level=k)
            st, lv = implicit_add_bit_levels(fit, 10, max_level=k)
            leveled = np.nonzero(dense >= 0)[0]
            assert np.array_equal(st, leveled)
            assert np.array_equal(lv, dense[leveled])
        for r in (0, 1, 2):
            dense = dense_clear_bit_ball(fit, 10, r)
            imp = implicit_clear_bit_ball(fit, 10, r)
            assert np.array_equal(imp, np.nonzero(dense)[0])


# -- self-consistency past one default block --------------------------------


class TestLargeNSelfConsistency:
    @pytest.mark.parametrize("n", [22, 24])
    def test_block_size_invariance(self, n):
        sc = Spacecraft(n)
        small = TiledCSPEngine(block_bits=min(16, n))
        large = TiledCSPEngine(block_bits=min(20, n))
        ca = small.try_compile(sc.csp)
        assert isinstance(ca, TiledBitCSP) and ca.n_blocks > 1
        rep_a = sc.recoverability_report(3, 3, engine=small)
        # block size changed → fresh compile, not the cached schedule
        cb = large.try_compile(sc.csp)
        assert isinstance(cb, TiledBitCSP) and cb.block_bits != ca.block_bits
        rep_b = sc.recoverability_report(3, 3, engine=large)
        assert rep_a.worst_steps == rep_b.worst_steps == 3
        assert rep_a.witness == rep_b.witness
        assert rep_a.is_k_recoverable and rep_b.is_k_recoverable

    @pytest.mark.parametrize("n", [22, 24])
    def test_subsampled_check_set_matches_object_oracle(self, n):
        sc = Spacecraft(n)
        compiled = TiledCSPEngine(block_bits=min(18, n)).try_compile(sc.csp)
        oracle = PackedFitSet([BitString.ones(n)])
        rng = np.random.default_rng(n)
        sub = [
            BitString(n, int(m))
            for m in rng.integers(0, 1 << n, size=48)
        ]
        assert compiled.min_distances(sub).tobytes() == \
            oracle.min_distances(sub).tobytes()

    def test_maintainability_past_bit_envelope(self):
        # n = 22 in 2^16-state blocks: several blocks, no table
        n = 22
        sc = Spacecraft(n)
        result = sc.maintainability(2, 2, engine=TiledCSPEngine(block_bits=16))
        assert result.maintainable
        # envelope = states with <= 2 failed bits; levels likewise
        expected = 1 + n + n * (n - 1) // 2
        assert len(result.envelope) == expected
        assert len(result.levels) == expected
        assert result.policy.actions[BitString.ones(n).flip(0)] == "repair_0"


# -- budget -> block scheduling, compile and fallback -----------------------


class TestBlockScheduler:
    def test_no_budget_uses_default(self):
        assert derive_block_bits(24, 1) == DEFAULT_BLOCK_BITS
        assert derive_block_bits(8, 1) == 8  # clamped to n

    def test_budget_shrinks_blocks(self):
        loose = derive_block_bits(24, 1, 1 << 30)
        tight = derive_block_bits(24, 1, 1 << 22)
        assert loose > tight >= min(24, MIN_BLOCK_BITS)

    def test_impossible_budget_never_refuses(self):
        b = derive_block_bits(28, 64, memory_budget_bytes=1)
        assert b == MIN_BLOCK_BITS  # smallest schedule, still a schedule

    def test_block_cap(self):
        assert derive_block_bits(32, 1, 1 << 62) == MAX_BLOCK_BITS

    def test_supervisor_budget_schedules_instead_of_refusing(self):
        sc = Spacecraft(22)
        sup = supervisor.Supervisor(memory_budget_mb=8)
        with supervisor.use(sup):
            compiled = {
                kind: make_csp_engine(kind).try_compile(sc.csp)
                for kind in ("bit", "tiled")
            }
        for c in compiled.values():
            assert isinstance(c, TiledBitCSP)
            assert c.n_blocks > 1
            assert c.block_size * 31 <= 8 * 1024 * 1024
        assert compiled["bit"] is compiled["tiled"]  # one schedule, cached


class TestCompileChain:
    def test_small_csp_gets_full_bit_compile(self):
        # the whole space in one block: per-state lookups read the table
        csp = mixed_csp(8)
        compiled = TiledCSPEngine().try_compile(csp)
        assert isinstance(compiled, TiledBitCSP)
        assert compiled.n_blocks == 1
        assert isinstance(compiled.violations, np.ndarray)
        assert isinstance(compiled.quality_table(), np.ndarray)

    def test_large_csp_gets_tiled_compile(self):
        sc = Spacecraft(22)
        compiled = TiledCSPEngine().try_compile(sc.csp)
        assert isinstance(compiled, TiledBitCSP)
        assert compiled.block_bits == DEFAULT_BLOCK_BITS
        assert compiled.n_blocks == 1 << (22 - DEFAULT_BLOCK_BITS)

    def test_over_budget_small_csp_degrades_to_tiled_not_object(self):
        # a budget schedules smaller blocks: no refusal, no fallback,
        # and the same results as the unbudgeted single block
        csp = mixed_csp(14)
        budget_mb = 0.05
        sup = supervisor.Supervisor(memory_budget_mb=budget_mb)
        tr = trace.Tracer()
        with trace.use(tr):
            with supervisor.use(sup):
                compiled = TiledCSPEngine().try_compile(csp)
        assert isinstance(compiled, TiledBitCSP)
        assert compiled.block_bits == derive_block_bits(
            14, len(csp.constraints), sup.memory_budget_bytes()
        )
        assert compiled.n_blocks > 1
        assert "csp.tiled.degrades" not in tr.counters
        assert "csp.fallbacks" not in tr.counters
        assert "supervisor.preemptions" not in tr.counters
        whole = TiledBitCSP(csp)
        assert whole.n_blocks == 1
        assert compiled.fit_indices.tobytes() == whole.fit_indices.tobytes()
        masks = np.arange(1 << 14, dtype=np.int64)
        assert compiled.violations[masks].tobytes() == \
            whole.violations[masks].tobytes()
        assert compiled.quality(masks).tobytes() == \
            whole.quality(masks).tobytes()

    def test_non_boolean_falls_back_to_object(self):
        csp = CSP((Variable("x", (0, 1)), Variable("y", (0, 1, 2))), ())
        tr = trace.Tracer()
        with trace.use(tr):
            assert TiledCSPEngine().try_compile(csp) is None
        assert tr.counters["csp.fallbacks"] == 1

    def test_beyond_cap_falls_back_to_object(self):
        csp = boolean_csp(12, [at_least_k_good(names(12), 3)])
        tr = trace.Tracer()
        with trace.use(tr):
            assert TiledCSPEngine(max_bits=10).try_compile(csp) is None
        assert tr.counters["csp.fallbacks"] == 1

    def test_explicit_block_bits_skips_the_bit_fast_path(self):
        # several blocks: lazy views, no single-block table
        csp = mixed_csp(8)
        compiled = TiledCSPEngine(block_bits=5).try_compile(csp)
        assert isinstance(compiled, TiledBitCSP)
        assert compiled.block_bits == 5
        assert not isinstance(compiled.violations, np.ndarray)
        int(compiled.violations[3])
        compiled.conflicted_variable_order(3)
        assert "_sat" not in vars(compiled)


# -- seam registration, worker fan-out, supervisor degradation --------------


class TestSeamAndDegradation:
    def test_tiled_registered_in_seam(self):
        s = SEAMS["csp"]
        assert "tiled" in s.choices
        assert "tiled" in s.fast
        assert s.fallback == "object"

    def test_env_var_selects_tiled(self, monkeypatch):
        monkeypatch.setenv("REPRO_CSP_ENGINE", "tiled")
        assert resolve_engine_kind("csp") == "tiled"
        assert type(make_csp_engine()) is TiledCSPEngine

    def test_unknown_kind_names_all_three(self):
        with pytest.raises(EngineError) as exc:
            make_csp_engine("warp")
        msg = str(exc.value)
        for kind in ("'bit'", "'object'", "'tiled'"):
            assert kind in msg

    def test_enumeration_inside_forked_sweep_workers(self):
        # a multi-block compile enumerated inside the sweep's forked
        # workers returns the inline sweep's rows
        inline = sweep(range(2), _tiled_fit_point, on_error="keep")
        forked = sweep(range(2), _tiled_fit_point, n_jobs=2, on_error="keep")
        assert inline.failed == ()
        assert forked.failed == ()
        assert list(forked.rows) == list(inline.rows)
        oracle = sorted(b.mask for b in mixed_csp(12).fit_bitstrings())
        assert [r["fit"] for r in forked.rows] == [oracle, oracle]

    def test_chaos_oom_degrades_tiled_to_object(self, monkeypatch):
        # an engine-attributable OOM while the seam points at the tiled
        # fast kind must open the csp breaker and pin the fallback, the
        # same once-open-always-open contract the bit kind has
        monkeypatch.setenv("REPRO_CSP_ENGINE", "tiled")
        sup = supervisor.Supervisor()
        with supervisor.use(sup):
            assert resolve_engine_kind("csp") == "tiled"
            tripped = sup.record_fault(
                "MemoryError: chaos: simulated out-of-memory at point 3"
            )
            assert "csp" in tripped
            assert resolve_engine_kind("csp") == "object"
            assert type(make_csp_engine()) is ObjectCSPEngine
            # explicit requests degrade too, engine-level chain included
            assert resolve_engine_kind("csp", "tiled") == "object"
            assert resolve_engine_kind("csp", "bit") == "object"

    def test_trace_counters_use_tiled_labels(self):
        sc = Spacecraft(8)
        tr = trace.Tracer()
        with trace.use(tr):
            sc.recoverability_report(2, 2, engine=TiledCSPEngine(block_bits=5))
            sc.maintainability(2, 2, engine=TiledCSPEngine(block_bits=5))
        assert tr.counters["csp.recover.checks.tiled"] == 1
        assert tr.counters["csp.kmaintain.runs.tiled"] == 1
        assert "csp.recover.tiled" in tr.timers
        assert "csp.kmaintain.tiled" in tr.timers


class TestGuards:
    def test_mismatched_bitstring_size_raises(self):
        tiled = TiledBitCSP(mixed_csp(8), block_bits=4)
        with pytest.raises(ConfigurationError, match="bits"):
            tiled.min_distances([BitString(5, 0)])

    def test_negative_ball_radius_raises(self):
        with pytest.raises(ConfigurationError, match="radius"):
            implicit_clear_bit_ball(np.array([0]), 4, -1)

    def test_no_constraint_csp(self):
        csp = boolean_csp(6, [])
        tiled = TiledBitCSP(csp, block_bits=3)
        assert len(tiled.fit_indices) == 1 << 6
        masks = np.arange(1 << 6, dtype=np.int64)
        assert (tiled.violations[masks] == 0).all()
        assert (tiled.quality_table()[masks] == 100.0).all()
