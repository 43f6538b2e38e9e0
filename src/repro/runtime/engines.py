"""Engine-seam registry: one resolution path for all three engine seams.

The library has exactly three places where a fast, vectorized engine can
be swapped for the byte-identical reference implementation:

======== ======================== ========================== ======================
family   seam                     env var                    kinds (default*)
======== ======================== ========================== ======================
agents   ``make_engine``          ``REPRO_AGENT_ENGINE``     array*, object
networks ``make_network_engine``  ``REPRO_NETWORK_ENGINE``   array* = mmap, object
csp      ``make_csp_engine``      ``REPRO_CSP_ENGINE``       tiled* = bit, object
======== ======================== ========================== ======================

One policy holds for every family: with no argument and no environment
value a seam resolves its canonical fast kind, and ``object`` — the
exact oracle, and the kind a tripped family degrades to — is chosen by
name.  The networks seam keeps two fast kind names for one engine:
``array`` and ``mmap`` both resolve to
:class:`repro.networks.engine.ArrayNetworkEngine`, whose block-streamed
kernels run on the graph's own storage (in RAM or memory-mapped).  The
CSP seam likewise keeps ``tiled`` and ``bit`` as two names for
:class:`repro.csp.engine.TiledCSPEngine`, which streams the state space
in blocks and keeps one table when the space is a single block.

:func:`resolve_engine_kind` is the shared helper behind all three.
:func:`requested_kind`, the seam's one environment reader, applies the
same ``None``-means-environment rule and produces the same error
message for empty/unknown values (an :class:`~repro.errors.EngineError`
naming the valid choices and where the bad value came from).  The
requested kind then passes through the installed MAPE supervisor
(:mod:`repro.runtime.supervisor`) — the reason this lives in
``runtime`` — which degrades a tripped family's fast engine back to
``object`` for the remainder of a run.  The environment itself is never
rewritten: a worker forked by :mod:`repro.runtime.executor` inherits
the installed supervisor, so it resolves the same degraded kind.  (The
CSP engine's own ``→ object`` fallback for non-boolean or over-cap CSPs
is not a breaker concern: it lives inside
:meth:`repro.csp.engine.TiledCSPEngine.try_compile`.)
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import EngineError

__all__ = [
    "EngineSeam",
    "SEAMS",
    "effective_kind",
    "requested_kind",
    "resolve_engine_kind",
    "seam",
]


@dataclass(frozen=True)
class EngineSeam:
    """Static description of one engine family's selection seam."""

    family: str  # "agents" / "networks" / "csp"
    env_var: str  # environment variable read when kind is None
    fast: tuple[str, ...]  # kinds the supervisor may degrade, canonical first

    @property
    def default(self) -> str:
        """The kind used when neither argument nor env is set."""
        return self.fast[0]

    @property
    def fallback(self) -> str:
        """The reference kind (the oracle) a tripped family degrades to."""
        return "object"

    @property
    def choices(self) -> tuple[str, ...]:
        """Every valid kind."""
        return self.fast + ("object",)


SEAMS: dict[str, EngineSeam] = {
    "agents": EngineSeam("agents", "REPRO_AGENT_ENGINE", ("array",)),
    "networks": EngineSeam("networks", "REPRO_NETWORK_ENGINE",
                           ("array", "mmap")),
    "csp": EngineSeam("csp", "REPRO_CSP_ENGINE", ("tiled", "bit")),
}


def seam(family: str) -> EngineSeam:
    """The seam description for ``family`` (raises for unknown families)."""
    try:
        return SEAMS[family]
    except KeyError:
        raise EngineError(
            f"unknown engine family {family!r}; "
            f"valid families: {sorted(SEAMS)}"
        ) from None


def requested_kind(family: str, kind: "str | None" = None) -> str:
    """The validated kind requested for ``family``, before the supervisor.

    ``kind=None`` reads the family's environment variable (an empty
    value means "unset", not "an engine named ''") and falls back to the
    family default.  Unrecognized values — passed directly or set in the
    environment — raise :class:`~repro.errors.EngineError` naming the
    valid choices and the source of the bad value, never silently
    falling back.  This is the seam's one environment reader.
    """
    s = seam(family)
    source = "kind argument"
    if kind is None:
        kind = os.environ.get(s.env_var) or s.default
        source = f"{s.env_var} environment variable"
    if kind not in s.choices:
        raise EngineError(
            f"unknown {family} engine kind {kind!r} (from {source}); "
            f"valid choices: {sorted(s.choices)}"
        )
    return kind


def resolve_engine_kind(family: str, kind: "str | None" = None) -> str:
    """Resolve and validate an engine ``kind`` for one seam.

    The :func:`requested_kind`, passed through the active MAPE
    supervisor, which may degrade a fast engine to the family's
    reference fallback while its circuit breaker is open.
    """
    from . import supervisor

    return supervisor.current().resolve(family, requested_kind(family, kind))


def effective_kind(family: str) -> str:
    """The kind the seam would resolve right now, without side effects.

    Like :func:`resolve_engine_kind` with ``kind=None``, but consults
    the supervisor through its side-effect-free ``peek`` (no degradation
    counters are incremented) — used by the chaos harness to decide
    whether an engine-tied fault is armed.  A forked worker inherits the
    installed supervisor, so this is also how a worker sees a trip.
    """
    from . import supervisor

    return supervisor.current().peek(family, requested_kind(family))
