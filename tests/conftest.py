"""Suite-wide guards shared by every test under ``tests/``."""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

# Test directories whose code must run free of numpy's RuntimeWarning
# (NaN, overflow, division by zero): the network kernels and the
# quality metrics.
_WARNING_FREE = tuple(Path(__file__).parent / d for d in ("networks", "core"))


def pytest_collection_modifyitems(items):
    """Turn RuntimeWarning into an error in the ``_WARNING_FREE`` tests.

    The mark goes first, so a test's own ``filterwarnings`` mark still
    overrides it.
    """
    mark = pytest.mark.filterwarnings("error::RuntimeWarning")
    for item in items:
        if any(d in item.path.parents for d in _WARNING_FREE):
            item.add_marker(mark, append=False)


def _repro_env() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


@pytest.fixture(autouse=True)
def repro_env_guard():
    """Fail any test that leaves a ``REPRO_*`` variable changed.

    The engine seams and the sweep harness read ``REPRO_*`` variables
    (the supervisor reads them through the seam and never writes them),
    so one leaked value silently changes every later test
    (order-dependent failures).  Autouse fixtures set up
    before the ones a test requests, so this check tears down *after*
    ``monkeypatch`` has restored what it recorded: only changes made
    behind its back are reported.  The leak is undone before failing so
    it cannot cascade into the next test.
    """
    before = _repro_env()
    yield
    after = _repro_env()
    if after == before:
        return
    changed = sorted(
        k for k in before.keys() | after.keys()
        if before.get(k) != after.get(k)
    )
    for k in changed:
        if k in before:
            os.environ[k] = before[k]
        else:
            del os.environ[k]
    pytest.fail(
        "test left REPRO_* environment changed (pin it with "
        "monkeypatch): "
        + ", ".join(
            f"{k}: {before.get(k)!r} -> {after.get(k)!r}" for k in changed
        ),
        pytrace=False,
    )


@pytest.fixture(autouse=True)
def no_worker_pool_across_tests():
    """Stop the executor's kept worker pool after each test.

    ``run_points`` keeps its forked workers across calls while the state
    they inherited still matches its key.  Test fixtures (a monkeypatched
    global, a temporary directory) are outside that key, so a pool that
    one test forked must not serve the next; and a test that counts
    processes must not see another test's idle workers.
    """
    yield
    executor = sys.modules.get("repro.runtime.executor")
    if executor is not None:
        executor.close_pool()
