"""Every repro module must import under the declared dependency floor.

Guards against APIs that outrun ``pyproject.toml`` (e.g. np.trapezoid
needs NumPy 2.0): a module that only fails at call time in one
experiment is caught here at import time for the whole package.  The
import surface is pinned too: no module loads scipy at import time.
"""

import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np

import repro


def _all_modules():
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


def test_every_module_imports():
    for name in _all_modules():
        importlib.import_module(name)


# Run in a fresh interpreter with the inputs as argv[1]: prints one JSON
# object describing the import surface, then the first-call values of two
# scipy-backed functions.
_PROBE = """
import importlib, json, pkgutil, sys

import repro

bare = sorted(m for m in sys.modules if m.split(".")[0] == "repro")
listed = dir(repro)
resolved = [n for n in repro.__all__ if getattr(repro, n, None) is not None]
star = {}
exec("from repro import *", star)
for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
    importlib.import_module(info.name)
scipy_loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

from repro.anticipation.earlywarning import kendall_trend
from repro.dynamics.continuous import ContinuousReplicator

series, fitness, shares = json.loads(sys.argv[1])
flow = ContinuousReplicator(fitness, 3).integrate(shares, 5.0, n_samples=20)
print(json.dumps({
    "bare": bare,
    "listed": listed,
    "resolved": resolved,
    "star": sorted(n for n in star if n != "__builtins__"),
    "scipy": scipy_loaded,
    "tau": kendall_trend(series),
    "final": flow.final.tolist(),
}))
"""
_SERIES = [0.3, 0.1, 0.4, 0.1, 0.5, 0.9, 0.2, 0.6, 0.5, 0.3, 0.5, 0.8]
_FITNESS = [1.0, 1.2, 0.9]
_SHARES = [0.5, 0.25, 0.25]


def test_import_surface():
    # `import repro` loads numpy and repro.rng only; subpackages load on
    # first touch, and no repro module imports scipy until a scipy-backed
    # function is called.  The first call (which pays the scipy import)
    # must give the values it gives with scipy already loaded.
    from repro.anticipation.earlywarning import kendall_trend
    from repro.dynamics.continuous import ContinuousReplicator

    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    inputs = json.dumps([_SERIES, _FITNESS, _SHARES])
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, inputs],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout
    probe = json.loads(out.splitlines()[-1])
    assert probe["bare"] == ["repro", "repro.rng"]
    assert set(repro.__all__) <= set(probe["listed"])
    assert probe["resolved"] == repro.__all__
    assert probe["star"] == sorted(repro.__all__)
    assert probe["scipy"] == []
    assert probe["tau"] == kendall_trend(_SERIES)
    flow = ContinuousReplicator(_FITNESS, 3).integrate(
        _SHARES, 5.0, n_samples=20
    )
    assert probe["final"] == flow.final.tolist()


# Runs each array path kept off ``np.unique`` and ``np.union1d`` in a
# fresh interpreter, printing after each whether numpy.ma (which numpy's
# ``unique`` imports on first call, ~15 ms) has been loaded.
_MA_PROBE = """
import json, sys

import numpy as np

from repro.csp.generators import random_clause_csp
from repro.csp.tiledengine import (
    compile_tiled, implicit_add_bit_levels, implicit_clear_bit_ball,
)
from repro.networks.arraygraph import ArrayGraph
from repro.networks.attacks import TargetedDegreeAttack
from repro.networks.centrality import betweenness_centrality
from repro.networks.epidemics import SIRModel
from repro.networks.generators import erdos_renyi
from repro.networks.percolation import percolation_curve
from repro.agents.arrayengine import ArraySimulator
from repro.anticipation.earlywarning import detection_roc
from repro.redundancy.nversion import RedundantComputer, simulate_failures
from repro.agents.environment import ConstraintEnvironment, ShockSchedule
from repro.agents.population import seed_population
from repro.core.quality import QualityTrace
from repro.core.strategies import StrategyMix

def ran(path):
    loaded[path] = "numpy.ma" in sys.modules

loaded = {}
ag = ArrayGraph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4)])
ran("from_edges")
betweenness_centrality(ag)
ran("betweenness")
g = erdos_renyi(200, 0.02, seed=1)
percolation_curve(g, TargetedDegreeAttack(), seed=1, engine="array")
ran("percolation")
SIRModel(g, 0.3, 0.2, engine="array").run([0, 1], seed=1)
ran("sir")
implicit_add_bit_levels(np.array([7, 7, 5]), 3)
ran("levels")
implicit_clear_bit_ball(np.array([7, 6]), 3, 2)
ran("ball")
masks = np.array([[3, 3], [0, 5]])
compile_tiled(random_clause_csp(8, 10, seed=1)).min_distances_masks(masks)
ran("min_distances_sparse")
compile_tiled(random_clause_csp(17, 3, seed=1)).min_distances_masks(masks)
ran("min_distances_dense")
env = ConstraintEnvironment.random(70, tolerance=5, seed=1)
pop = seed_population(StrategyMix.uniform(), env, n_agents=20, seed=2)
ArraySimulator(mutation_rate=0.05).run(
    pop, env, steps=30, shocks=ShockSchedule(period=5, severity=4), seed=3
)
ran("agents")
trace = QualityTrace.from_samples([0, 1, 2], [100, 50, 100])
trace.degradation_integral(0.5, 1.5)
ran("degradation_integral")
trace.availability(75.0)
ran("availability")
detection_roc([0.5, 0.2, 0.5], [0.1, 0.2])
ran("detection_roc")
simulate_failures(RedundantComputer((0, 1, 0), 0.1, 0.2), 10, seed=1)
ran("simulate_failures")
print(json.dumps(loaded))
"""


def test_array_paths_leave_numpy_ma_unloaded():
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", _MA_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout
    loaded = json.loads(out.splitlines()[-1])
    assert len(loaded) == 13
    assert not any(loaded.values()), loaded


# A fresh interpreter imports one network module, then lists which
# network modules that loaded and how the lazy package resolves names.
_NETWORKS_PROBE = """
import json, sys

import repro.networks.arraygraph

loaded = sorted(m for m in sys.modules if m.startswith("repro.networks."))
import repro.networks as nw

listed = dir(nw)
resolved = [n for n in nw.__all__ if getattr(nw, n, None) is not None]
star = {}
exec("from repro.networks import *", star)
print(json.dumps({
    "loaded": loaded,
    "listed": listed,
    "resolved": resolved,
    "star": sorted(k for k in star if k != "__builtins__"),
}))
"""


def test_networks_package_is_lazy():
    import repro.networks as nw

    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", _NETWORKS_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout
    probe = json.loads(out.splitlines()[-1])
    assert probe["loaded"] == [
        "repro.networks.arraygraph", "repro.networks.graph",
    ]
    assert set(nw.__all__) <= set(probe["listed"])
    assert probe["resolved"] == nw.__all__
    assert probe["star"] == sorted(nw.__all__)
    for name in nw.__all__:
        owner = importlib.import_module(f"repro.networks.{nw._MODULES[name]}")
        assert getattr(nw, name) is getattr(owner, name)


def test_numpy_satisfies_declared_floor():
    # pyproject declares numpy>=2.0; the 2.0-only APIs we rely on must
    # exist in the running interpreter
    major = int(np.__version__.split(".")[0])
    assert major >= 2
    assert hasattr(np, "trapezoid")
    assert hasattr(np, "bitwise_count")


def test_error_hierarchy():
    # one catchable root, and the runtime additions slot in where
    # existing handlers expect them: EngineError is a ConfigurationError
    # (seam callers catching config failures keep working), while the
    # supervisor/chaos errors are siblings under ReproError
    from repro import errors

    assert issubclass(errors.ConfigurationError, errors.ReproError)
    assert issubclass(errors.EngineError, errors.ConfigurationError)
    assert issubclass(errors.SupervisorError, errors.ReproError)
    assert not issubclass(errors.SupervisorError, errors.ConfigurationError)
    assert issubclass(errors.ChaosError, errors.ReproError)
    assert issubclass(errors.CheckpointError, errors.ReproError)
    for name in (
        "EngineError",
        "SupervisorError",
        "ChaosError",
    ):
        assert name in errors.__all__, name


def test_runtime_exports():
    from repro import runtime

    for name in (
        "Breaker",
        "NullSupervisor",
        "Supervisor",
        "SEAMS",
        "EngineSeam",
        "resolve_engine_kind",
        "RowStore",
        "Tracer",
    ):
        assert name in runtime.__all__, name
        assert hasattr(runtime, name), name
