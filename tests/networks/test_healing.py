"""Tests for network attack-and-healing (repro.networks.healing)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.bruneau import assess
from repro.errors import ConfigurationError
from repro.networks.arraygraph import ArrayGraph, as_arraygraph
from repro.networks.attacks import RandomFailure, TargetedDegreeAttack
from repro.networks.generators import barabasi_albert
from repro.networks.healing import NetworkRecoverySimulator

from .mapped import mapped_twin


class TestNetworkRecovery:
    def test_no_attack_no_degradation(self):
        g = barabasi_albert(60, 2, seed=0)
        sim = NetworkRecoverySimulator(g, RandomFailure())
        result = sim.run(attack_fraction=0.0, horizon=10, seed=1)
        assert result.trace.min_quality == pytest.approx(100.0)
        assert result.fully_recovered

    def test_attack_degrades_then_healing_restores(self):
        g = barabasi_albert(80, 2, seed=1)
        sim = NetworkRecoverySimulator(g, TargetedDegreeAttack(),
                                       repairs_per_step=4)
        result = sim.run(attack_fraction=0.2, horizon=20, seed=2)
        assert result.trace.min_quality < 80.0
        assert result.trace.quality[-1] == pytest.approx(100.0)
        assert result.fully_recovered
        assessment = assess(result.trace)
        assert assessment.recovered
        assert assessment.loss > 0

    def test_no_healing_never_recovers(self):
        g = barabasi_albert(60, 2, seed=3)
        sim = NetworkRecoverySimulator(g, TargetedDegreeAttack(),
                                       repairs_per_step=0)
        result = sim.run(attack_fraction=0.2, horizon=10, seed=4)
        assert not result.fully_recovered
        assert result.trace.quality[-1] < 100.0

    def test_faster_repair_smaller_bruneau_loss(self):
        g = barabasi_albert(80, 2, seed=5)
        losses = {}
        for rate in (1, 4):
            sim = NetworkRecoverySimulator(g, TargetedDegreeAttack(),
                                           repairs_per_step=rate)
            result = sim.run(attack_fraction=0.25, horizon=40, seed=6)
            losses[rate] = assess(result.trace).loss
        assert losses[4] < losses[1]

    def test_targeted_attack_hurts_more_than_random(self):
        g = barabasi_albert(100, 2, seed=7)
        losses = {}
        for label, attack in (("random", RandomFailure()),
                              ("targeted", TargetedDegreeAttack())):
            sim = NetworkRecoverySimulator(g, attack, repairs_per_step=2)
            result = sim.run(attack_fraction=0.2, horizon=30, seed=8)
            losses[label] = assess(result.trace).loss
        assert losses["targeted"] > losses["random"]

    def test_removed_count(self):
        g = barabasi_albert(50, 2, seed=9)
        sim = NetworkRecoverySimulator(g, RandomFailure())
        result = sim.run(attack_fraction=0.3, horizon=5, seed=10)
        assert len(result.removed) == 15

    @pytest.mark.parametrize("engine", ["object", "array"])
    def test_identity_graph_removes_python_ints(self, engine):
        # an identity-labelled graph ranks into an int64 ndarray; the
        # result must still hold plain, JSON-serializable labels
        ag = as_arraygraph(barabasi_albert(60, 2, seed=12))
        for g in (ArrayGraph(ag.indptr, ag.indices),
                  mapped_twin(ag.indptr, ag.indices)):
            sim = NetworkRecoverySimulator(
                g, TargetedDegreeAttack(), engine=engine
            )
            result = sim.run(attack_fraction=0.2, horizon=6, seed=13)
            assert len(result.removed) == 12
            assert all(type(x) is int for x in result.removed)
            json.dumps(list(result.removed))

    def test_validation(self):
        g = barabasi_albert(20, 2, seed=11)
        with pytest.raises(ConfigurationError):
            NetworkRecoverySimulator(g, RandomFailure(), repairs_per_step=-1)
        sim = NetworkRecoverySimulator(g, RandomFailure())
        with pytest.raises(ConfigurationError):
            sim.run(attack_fraction=1.5, horizon=10)
        with pytest.raises(ConfigurationError):
            sim.run(attack_fraction=0.1, horizon=1)
        with pytest.raises(ConfigurationError):
            sim.run(attack_fraction=0.1, horizon=10, shock_time=10)
