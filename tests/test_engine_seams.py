"""One behavior, three seams: shared engine-kind resolution.

All three engine factories (``make_engine`` / ``make_network_engine`` /
``make_csp_engine``) resolve their ``kind`` through
:func:`repro.runtime.engines.resolve_engine_kind`; these tests pin the
shared contract — default/env/argument precedence, the unified error
message, and the :class:`~repro.errors.EngineError` type — once for
every family instead of three drifting copies.
"""

from __future__ import annotations

import pytest

from repro.agents.arrayengine import ArraySimulator, make_engine
from repro.agents.simulation import EvolutionSimulator
from repro.csp.engine import ObjectCSPEngine, TiledCSPEngine, make_csp_engine
from repro.errors import ConfigurationError, EngineError
from repro.networks.engine import (
    ArrayNetworkEngine,
    ObjectNetworkEngine,
    make_network_engine,
)
from repro.runtime.engines import SEAMS, resolve_engine_kind, seam

FACTORIES = {
    "agents": make_engine,
    "networks": make_network_engine,
    "csp": make_csp_engine,
}

FAMILIES = sorted(SEAMS)


@pytest.mark.parametrize("family", FAMILIES)
class TestSharedResolution:
    def test_default_when_nothing_set(self, family, monkeypatch):
        monkeypatch.delenv(SEAMS[family].env_var, raising=False)
        assert resolve_engine_kind(family) == SEAMS[family].default
        # one policy: unset, every seam runs its fast kind
        assert resolve_engine_kind(family) in SEAMS[family].fast

    def test_empty_env_var_means_unset(self, family, monkeypatch):
        monkeypatch.setenv(SEAMS[family].env_var, "")
        assert resolve_engine_kind(family) == SEAMS[family].default

    def test_env_var_selects_kind(self, family, monkeypatch):
        for kind in SEAMS[family].choices:
            monkeypatch.setenv(SEAMS[family].env_var, kind)
            assert resolve_engine_kind(family) == kind

    def test_argument_beats_environment(self, family, monkeypatch):
        s = SEAMS[family]
        monkeypatch.setenv(s.env_var, s.choices[0])
        assert resolve_engine_kind(family, s.choices[-1]) == s.choices[-1]

    def test_unknown_argument_message_names_choices(self, family):
        with pytest.raises(EngineError) as exc:
            resolve_engine_kind(family, "warp")
        message = str(exc.value)
        assert f"unknown {family} engine kind 'warp'" in message
        assert "kind argument" in message
        for kind in SEAMS[family].choices:
            assert repr(kind) in message

    def test_unknown_env_value_message_names_env_var(
        self, family, monkeypatch
    ):
        s = SEAMS[family]
        monkeypatch.setenv(s.env_var, "warp")
        with pytest.raises(EngineError, match=s.env_var):
            resolve_engine_kind(family)

    def test_factory_raises_same_error(self, family):
        # EngineError IS a ConfigurationError: callers that predate the
        # shared resolver keep catching what they always caught
        with pytest.raises(ConfigurationError) as exc:
            FACTORIES[family]("warp")
        assert isinstance(exc.value, EngineError)
        assert "valid choices" in str(exc.value)


class TestFactoryDispatch:
    def test_agents_kinds(self):
        assert type(make_engine("object")) is EvolutionSimulator
        assert type(make_engine("array")) is ArraySimulator

    def test_networks_kinds(self):
        assert type(make_network_engine("object")) is ObjectNetworkEngine
        # two kind names, one engine: the graph's storage picks RAM/disk
        assert type(make_network_engine("array")) is ArrayNetworkEngine
        assert type(make_network_engine("mmap")) is ArrayNetworkEngine

    def test_csp_kinds_and_instance_passthrough(self):
        assert type(make_csp_engine("object")) is ObjectCSPEngine
        # two kind names, one engine: the block schedule picks the table
        assert type(make_csp_engine("bit")) is TiledCSPEngine
        assert type(make_csp_engine("tiled")) is TiledCSPEngine
        engine = TiledCSPEngine(max_bits=8)
        assert make_csp_engine(engine) is engine


def test_unknown_family_rejected():
    with pytest.raises(EngineError, match="unknown engine family"):
        seam("quantum")
    with pytest.raises(EngineError, match="valid families"):
        resolve_engine_kind("quantum", "object")
