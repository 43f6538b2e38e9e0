"""Tests for attacks and percolation (repro.networks.attacks/.percolation).

The headline §5.1 behaviour — robust to random failure, fragile to
targeted attack — is asserted here at small scale (the full sweep is
benchmark E21).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.networks.attacks import (
    AdaptiveDegreeAttack,
    RandomFailure,
    TargetedDegreeAttack,
    make_attack,
)
from repro.networks.generators import barabasi_albert, configuration_star
from repro.networks.graph import Graph
from repro.networks.percolation import (
    critical_fraction,
    percolation_curve,
)


class TestAttackOrders:
    def test_random_order_is_permutation(self):
        g = barabasi_albert(50, 2, seed=0)
        order = RandomFailure().removal_order(g, seed=1)
        assert sorted(order) == sorted(g.nodes())

    def test_random_order_depends_on_seed(self):
        g = barabasi_albert(50, 2, seed=0)
        a = RandomFailure().removal_order(g, seed=1)
        b = RandomFailure().removal_order(g, seed=2)
        assert a != b

    def test_targeted_removes_hubs_first(self):
        g = configuration_star(2, 8)
        order = TargetedDegreeAttack().removal_order(g)
        degrees = g.degrees()
        assert degrees[order[0]] == max(degrees.values())

    def test_targeted_is_deterministic(self):
        g = barabasi_albert(40, 2, seed=3)
        assert (
            TargetedDegreeAttack().removal_order(g)
            == TargetedDegreeAttack().removal_order(g)
        )

    def test_adaptive_recomputes(self):
        """After removing the hub, adaptive goes for the *new* hub."""
        # path a-b-c-d plus hub h attached to a,b,c,d
        g = Graph(edges=[("h", x) for x in "abcd"] + [("a", "b"), ("c", "d")])
        order = AdaptiveDegreeAttack().removal_order(g)
        assert order[0] == "h"
        assert len(order) == 5

    def test_factory(self):
        assert isinstance(make_attack("random"), RandomFailure)
        assert isinstance(make_attack("targeted"), TargetedDegreeAttack)
        assert isinstance(make_attack("adaptive"), AdaptiveDegreeAttack)
        with pytest.raises(ConfigurationError):
            make_attack("nuke")


class TestPercolation:
    def test_curve_starts_full_ends_empty(self):
        g = barabasi_albert(60, 2, seed=0)
        curve = percolation_curve(g, RandomFailure(), seed=1)
        assert curve.giant_fraction[0] == pytest.approx(1.0)
        assert curve.giant_fraction[-1] == pytest.approx(0.0)
        assert curve.removed_fraction[0] == 0.0
        assert curve.removed_fraction[-1] == pytest.approx(1.0)

    def test_resolution_limits_points(self):
        g = barabasi_albert(100, 2, seed=0)
        curve = percolation_curve(g, RandomFailure(), seed=1, resolution=11)
        assert len(curve.removed_fraction) <= 12

    def test_bad_resolution_rejected_before_attack_order(self):
        class SpyAttack(AdaptiveDegreeAttack):
            calls = 0

            def removal_order(self, g, seed=None):
                SpyAttack.calls += 1
                return super().removal_order(g, seed)

        g = barabasi_albert(30, 2, seed=0)
        for resolution in (1, 0, -3):
            with pytest.raises(ConfigurationError, match="resolution"):
                percolation_curve(g, SpyAttack(), resolution=resolution)
        assert SpyAttack.calls == 0
        percolation_curve(g, SpyAttack(), resolution=2)
        assert SpyAttack.calls == 1

    def test_giant_at_interpolates(self):
        g = barabasi_albert(60, 2, seed=0)
        curve = percolation_curve(g, RandomFailure(), seed=1)
        assert 0.0 <= curve.giant_at(0.5) <= 1.0

    def test_empty_graph_rejected(self):
        with pytest.raises(ConfigurationError):
            percolation_curve(Graph(), RandomFailure())

    def test_scale_free_targeted_more_fragile_than_random(self):
        """The §5.1 asymmetry, at test scale."""
        g = barabasi_albert(200, 2, seed=4)
        random_curve = percolation_curve(g, RandomFailure(), seed=5,
                                         resolution=40)
        targeted_curve = percolation_curve(g, TargetedDegreeAttack(),
                                           resolution=40)
        f_random = critical_fraction(random_curve, threshold=0.1)
        f_targeted = critical_fraction(targeted_curve, threshold=0.1)
        assert f_targeted < f_random

    def test_robustness_index_orders_attacks(self):
        g = barabasi_albert(200, 2, seed=6)
        random_curve = percolation_curve(g, RandomFailure(), seed=7,
                                         resolution=40)
        targeted_curve = percolation_curve(g, TargetedDegreeAttack(),
                                           resolution=40)
        assert (targeted_curve.robustness_index()
                < random_curve.robustness_index())

    def test_critical_fraction_never_reached(self):
        from repro.networks.percolation import PercolationCurve

        curve = PercolationCurve(
            np.asarray([0.0, 0.5, 1.0]), np.asarray([1.0, 0.9, 0.8])
        )
        assert critical_fraction(curve, threshold=0.1) == 1.0

    def test_critical_fraction_bad_threshold(self):
        g = barabasi_albert(20, 2, seed=0)
        curve = percolation_curve(g, RandomFailure(), seed=0)
        with pytest.raises(AnalysisError):
            critical_fraction(curve, threshold=0.0)
