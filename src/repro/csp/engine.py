"""CSP engine selection: object kernels vs the packed tiled engine.

The third and final engine seam, mirroring
:func:`repro.agents.arrayengine.make_engine` and
:func:`repro.networks.engine.make_network_engine`.
:func:`make_csp_engine` resolves an engine ``kind`` (``"tiled"``,
``"bit"`` or ``"object"``) from its argument or the ``REPRO_CSP_ENGINE``
environment variable, defaulting to the fast ``"tiled"``; the
``"object"`` oracle is chosen by name.

The object engine is the original per-assignment ``dict`` machinery,
untouched.  Both fast kinds, ``bit`` and ``tiled``, name one engine,
:class:`TiledCSPEngine`: it lowers a boolean CSP once to a
:class:`~repro.csp.tiledengine.TiledBitCSP`, which streams the state
space in budget-sized blocks (one block, with one table, for n ≤ 20
without a budget) and runs the resilience kernels on packed masks.
Deterministic quantities (fit sets, quality traces, recovery distances,
maintainability levels) and seeded stochastic repairs (DCSP steps,
min-conflicts, greedy bit-flip) match the object engine exactly,
draw-for-draw.  Non-boolean CSPs and ``n`` beyond the enumeration cap
fall back to the object kernels (:meth:`TiledCSPEngine.try_compile`
returns ``None`` and counts ``csp.fallbacks``).  Blocks stream serially
in the calling process; parallelism belongs to the sweep executor's
forked workers.  Dispatch sites report ``csp.*`` timers/counters
through :mod:`repro.runtime.trace`, labelled ``tiled`` for both fast
kinds.
"""

from __future__ import annotations

from abc import ABC
from typing import Optional

from ..runtime import trace
from ..runtime import supervisor
from ..runtime.engines import resolve_engine_kind
from .bitengine import BitEngineUnsupported
from .problem import CSP
from .tiledengine import (
    DEFAULT_MAX_BITS_TILED,
    TiledBitCSP,
    compile_tiled,
)

__all__ = [
    "CSPEngine",
    "ObjectCSPEngine",
    "TiledCSPEngine",
    "make_csp_engine",
]


class CSPEngine(ABC):
    """One implementation of the CSP resilience kernels (see module docs).

    The seam is deliberately thin: an engine only decides whether a CSP
    gets a compiled form.  The algorithms themselves live at the
    dispatch sites (:mod:`repro.core.recoverability`,
    :mod:`repro.csp.dynamic`, :mod:`repro.csp.solvers`,
    :mod:`repro.planning.kmaintain`), each with an object path and a
    compiled path proven equivalent by the CSP engine test suites.
    """

    name: str

    def try_compile(self, csp: CSP) -> Optional[TiledBitCSP]:
        """The compiled form to run on, or ``None`` for the object path."""
        return None


class ObjectCSPEngine(CSPEngine):
    """The reference dict-per-assignment implementation (the oracle)."""

    name = "object"


class TiledCSPEngine(CSPEngine):
    """The packed, block-streamed implementation behind ``bit`` and ``tiled``.

    ``try_compile`` returns a :class:`TiledBitCSP` whose block size is
    ``block_bits`` when given, else derived from the supervisor's memory
    budget (:func:`~repro.csp.tiledengine.derive_block_bits`) — the
    budget *schedules* blocks instead of refusing.  It returns ``None``
    (→ object kernels, counted ``csp.fallbacks``) only for non-boolean
    CSPs or ``n`` beyond ``max_bits`` (default 2^32 states).
    """

    name = "tiled"

    def __init__(
        self,
        max_bits: int = DEFAULT_MAX_BITS_TILED,
        block_bits: Optional[int] = None,
    ):
        self.max_bits = max_bits
        self.block_bits = block_bits

    def try_compile(self, csp: CSP) -> Optional[TiledBitCSP]:
        try:
            return compile_tiled(
                csp,
                max_bits=self.max_bits,
                block_bits=self.block_bits,
                memory_budget_bytes=supervisor.current().memory_budget_bytes(),
            )
        except BitEngineUnsupported:
            trace.current().count("csp.fallbacks")
            return None


_ENGINES = {
    "object": ObjectCSPEngine,
    "bit": TiledCSPEngine,
    "tiled": TiledCSPEngine,
}


def make_csp_engine(kind: "str | CSPEngine | None" = None) -> CSPEngine:
    """Resolve a CSP engine: ``'tiled'``, ``'bit'`` or ``'object'``.

    ``kind=None`` reads the ``REPRO_CSP_ENGINE`` environment variable
    and defaults to ``'tiled'`` (``'object'``, the reference, by name);
    an already-constructed engine passes through unchanged.
    Unrecognized values — passed directly or set in the environment —
    raise :class:`~repro.errors.EngineError` naming all three valid
    choices (resolution shared with the other seams via
    :func:`repro.runtime.engines.resolve_engine_kind`; an installed MAPE
    supervisor may degrade ``tiled``/``bit`` to ``object`` while its
    breaker is open).  ``'bit'`` and ``'tiled'`` both return a
    :class:`TiledCSPEngine`.
    """
    if isinstance(kind, CSPEngine):
        return kind
    return _ENGINES[resolve_engine_kind("csp", kind)]()
