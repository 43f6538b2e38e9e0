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
