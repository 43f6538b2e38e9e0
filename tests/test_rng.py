"""Tests for the RNG plumbing (repro.rng) and package surface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rng import make_rng, spawn


class TestMakeRng:
    def test_int_seed_deterministic(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.allclose(a, b)

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(7)
        rng = make_rng(seq)
        assert isinstance(rng, np.random.Generator)


class TestSpawn:
    def test_children_are_independent_streams(self):
        parent = make_rng(1)
        children = spawn(parent, 3)
        draws = [c.random(4).tolist() for c in children]
        assert draws[0] != draws[1]
        assert draws[1] != draws[2]

    def test_same_parent_seed_same_family(self):
        a = [c.random(3).tolist() for c in spawn(make_rng(5), 4)]
        b = [c.random(3).tolist() for c in spawn(make_rng(5), 4)]
        assert a == b

    def test_zero_children(self):
        assert spawn(make_rng(0), 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn(make_rng(0), -1)

    def test_children_come_from_seed_sequence_spawn(self):
        """Regression pin: children are SeedSequence.spawn streams, not
        integer-draw-seeded generators (birthday-collision risk)."""
        children = spawn(make_rng(7), 3)
        expected = [
            np.random.default_rng(child)
            for child in np.random.SeedSequence(7).spawn(3)
        ]
        for got, want in zip(children, expected):
            assert np.array_equal(got.random(8), want.random(8))

    def test_spawn_does_not_advance_parent_stream(self):
        parent = make_rng(11)
        before = make_rng(11).random(4)
        spawn(parent, 5)
        assert np.array_equal(parent.random(4), before)

    def test_successive_spawns_give_fresh_families(self):
        parent = make_rng(3)
        first = [c.random(3).tolist() for c in spawn(parent, 2)]
        second = [c.random(3).tolist() for c in spawn(parent, 2)]
        assert first != second

    def test_sweep_seed_children_match_spawn(self):
        """spawn() and the sweep harness derive identical child streams
        from the same parent seed (one seeding discipline everywhere)."""
        from repro.analysis.sweep import _spawn_seeds

        via_spawn = spawn(make_rng(42), 3)
        via_sweep = [
            np.random.default_rng(s) for s in _spawn_seeds(42, 3)
        ]
        for a, b in zip(via_spawn, via_sweep):
            assert np.array_equal(a.random(4), b.random(4))


class TestPackageSurface:
    def test_all_subpackages_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name)

    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_errors_hierarchy(self):
        from repro import errors

        for cls in (
            errors.ConfigurationError,
            errors.SolverError,
            errors.UnsatisfiableError,
            errors.PolicyError,
            errors.UnmaintainableError,
            errors.SimulationError,
            errors.AnalysisError,
            errors.InjectionError,
        ):
            assert issubclass(cls, errors.ReproError)
        assert issubclass(errors.UnsatisfiableError, errors.SolverError)
        assert issubclass(errors.UnmaintainableError, errors.PolicyError)
