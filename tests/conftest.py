"""Suite-wide guards shared by every test under ``tests/``."""

from __future__ import annotations

import os

import pytest


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
