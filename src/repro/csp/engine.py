"""CSP engine selection: object kernels vs compiled bit-matrix vs tiled.

The third and final engine seam, mirroring
:func:`repro.agents.arrayengine.make_engine` and
:func:`repro.networks.engine.make_network_engine`.
:func:`make_csp_engine` resolves an engine ``kind`` (``"object"``,
``"bit"`` or ``"tiled"``) from its argument or the ``REPRO_CSP_ENGINE``
environment variable, defaulting to ``"object"`` so existing runs are
bit-for-bit unchanged until a caller opts in.

The object engine is the original per-assignment ``dict`` machinery,
untouched.  The bit engine compiles the CSP once
(:func:`repro.csp.bitengine.compile_csp`) and runs the resilience
kernels on the compiled arrays; deterministic quantities (fit sets,
quality traces, recovery distances, maintainability levels) and seeded
stochastic repairs (DCSP steps, min-conflicts, greedy bit-flip) match
the object engine exactly, draw-for-draw.  The compiled form costs
Θ(2^n · n_constraints) memory, so non-boolean CSPs and ``n`` beyond the
2^20-state envelope automatically fall back
(:meth:`BitCSPEngine.try_compile` returns ``None`` and counts
``csp.fallbacks``).

The tiled engine (:mod:`repro.csp.tiledengine`) streams the same
lowered kernels over fixed-size blocks, so it has no 2^n memory wall —
only a wall-time one — and compiles up to n ≈ 32.  Its
:meth:`~TiledCSPEngine.try_compile` is a *chain*: problems the full bit
compile handles within the supervisor's memory budget get the
materialized :class:`~repro.csp.bitengine.CompiledBitCSP` (strictly
faster per query), larger ones get the block-streamed
:class:`~repro.csp.tiledengine.TiledBitCSP`, and only non-boolean CSPs
or ``n`` beyond the enumeration cap fall back to the object kernels —
``tiled → bit → object``.  ``REPRO_CSP_TILE_WORKERS`` fans block
enumeration out across processes.  Dispatch sites report ``csp.*``
timers/counters through :mod:`repro.runtime.trace`.
"""

from __future__ import annotations

import os
from abc import ABC
from typing import Optional, Union

import numpy as np

from ..errors import EngineError
from ..runtime import trace
from ..runtime import supervisor
from ..runtime.engines import resolve_engine_kind
from .bitengine import (
    DEFAULT_MAX_BITS,
    BitEngineUnsupported,
    CompiledBitCSP,
    compile_csp,
    estimate_compile_bytes,
)
from .problem import CSP
from .tiledengine import (
    DEFAULT_MAX_BITS_TILED,
    TiledBitCSP,
    compile_tiled,
)

__all__ = [
    "BitCSPEngine",
    "CSPEngine",
    "ObjectCSPEngine",
    "TiledCSPEngine",
    "make_csp_engine",
]

#: any compiled form an engine may hand to the dispatch sites
CompiledCSP = Union[CompiledBitCSP, TiledBitCSP]


class CSPEngine(ABC):
    """One implementation of the CSP resilience kernels (see module docs).

    The seam is deliberately thin: an engine only decides whether a CSP
    gets a compiled form (bit-matrix or tiled).  The algorithms
    themselves live at the dispatch sites
    (:mod:`repro.core.recoverability`, :mod:`repro.csp.dynamic`,
    :mod:`repro.csp.solvers`, :mod:`repro.planning.kmaintain`), each
    with an object path and a compiled path proven equivalent by the
    bit-engine and tiled-engine test suites.
    """

    name: str

    def try_compile(self, csp: CSP) -> Optional[CompiledCSP]:
        """The compiled form to run on, or ``None`` for the object path."""
        return None


class ObjectCSPEngine(CSPEngine):
    """The reference dict-per-assignment implementation (pre-bit behavior)."""

    name = "object"


class BitCSPEngine(CSPEngine):
    """The compiled bit-matrix implementation with automatic fallback."""

    name = "bit"

    def __init__(self, max_bits: int = DEFAULT_MAX_BITS):
        self.max_bits = max_bits

    def try_compile(self, csp: CSP) -> Optional[CompiledBitCSP]:
        budget = supervisor.current().memory_budget_bytes()
        if budget is not None:
            estimate = estimate_compile_bytes(csp)
            if estimate is not None and estimate > budget:
                # MAPE memory guard: pre-empt the Θ(2^n) allocation
                # instead of letting it MemoryError mid-run
                tr = trace.current()
                tr.count("csp.fallbacks")
                tr.count("supervisor.preemptions")
                tr.warning(
                    "bit-CSP compile pre-empted by memory budget",
                    estimated_bytes=estimate,
                    budget_bytes=budget,
                )
                return None
        try:
            return compile_csp(csp, max_bits=self.max_bits)
        except BitEngineUnsupported:
            trace.current().count("csp.fallbacks")
            return None


def _tile_workers() -> int:
    """Block fan-out width from ``REPRO_CSP_TILE_WORKERS`` (default 1)."""
    raw = os.environ.get("REPRO_CSP_TILE_WORKERS", "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise EngineError(
            f"REPRO_CSP_TILE_WORKERS must be a positive integer, got {raw!r}"
        ) from None
    if workers < 1:
        raise EngineError(
            f"REPRO_CSP_TILE_WORKERS must be a positive integer, got {raw!r}"
        )
    return workers


class TiledCSPEngine(CSPEngine):
    """Block-streamed engine with the ``tiled → bit → object`` chain.

    ``try_compile`` picks the cheapest compiled form that fits:

    1. the fully-materialized :class:`CompiledBitCSP` when ``n`` is
       inside the bit envelope *and* the supervisor's memory budget
       admits the Θ(2^n · n_constraints) allocation — per-query it is
       strictly faster than streaming, so small problems lose nothing;
    2. otherwise the :class:`TiledBitCSP`, whose block size is derived
       from the same budget (:func:`~repro.csp.tiledengine.
       derive_block_bits`) — the budget now *schedules* instead of
       refusing, which is the whole point of the tiled kind;
    3. ``None`` (→ object kernels) only for non-boolean CSPs or ``n``
       beyond ``max_bits`` (default 2^32 states), counted as
       ``csp.fallbacks`` like every other engine fallback.
    """

    name = "tiled"

    def __init__(
        self,
        max_bits: int = DEFAULT_MAX_BITS_TILED,
        bit_max_bits: int = DEFAULT_MAX_BITS,
        block_bits: Optional[int] = None,
        workers: Optional[int] = None,
    ):
        if not hasattr(np, "bitwise_count"):  # pragma: no cover
            raise EngineError(
                "the 'tiled' CSP engine requires numpy >= 2.0 "
                "(np.bitwise_count); this numpy is "
                f"{np.__version__}"
            )
        self.max_bits = max_bits
        self.bit_max_bits = bit_max_bits
        self.block_bits = block_bits
        self.workers = _tile_workers() if workers is None else workers

    def try_compile(self, csp: CSP) -> Optional[CompiledCSP]:
        n = len(csp.variables)
        if n > self.max_bits:
            trace.current().count("csp.fallbacks")
            return None
        budget = supervisor.current().memory_budget_bytes()
        if n <= self.bit_max_bits and self.block_bits is None:
            estimate = estimate_compile_bytes(csp)
            if estimate is None:
                # non-boolean: no compiled form exists in either engine
                trace.current().count("csp.fallbacks")
                return None
            if budget is None or estimate <= budget:
                return compile_csp(csp, max_bits=self.bit_max_bits)
            # over budget: degrade to streaming, not to the object path
            trace.current().count("csp.tiled.degrades")
        try:
            return compile_tiled(
                csp,
                max_bits=self.max_bits,
                block_bits=self.block_bits,
                memory_budget_bytes=budget,
                workers=self.workers,
            )
        except BitEngineUnsupported:
            trace.current().count("csp.fallbacks")
            return None


_ENGINES = {
    "object": ObjectCSPEngine,
    "bit": BitCSPEngine,
    "tiled": TiledCSPEngine,
}


def make_csp_engine(kind: "str | CSPEngine | None" = None) -> CSPEngine:
    """Resolve a CSP engine: ``'object'``, ``'bit'`` or ``'tiled'``.

    ``kind=None`` reads the ``REPRO_CSP_ENGINE`` environment variable
    and defaults to ``'object'``, preserving pre-bit behavior unless a
    run opts in; an already-constructed engine passes through unchanged.
    Unrecognized values — passed directly or set in the environment —
    raise :class:`~repro.errors.EngineError` naming all three valid
    choices (resolution shared with the other seams via
    :func:`repro.runtime.engines.resolve_engine_kind`; an installed MAPE
    supervisor may degrade ``tiled``/``bit`` to ``object`` while its
    breaker is open).  ``'tiled'`` additionally requires numpy ≥ 2.0
    for ``np.bitwise_count`` and is rejected with an
    :class:`~repro.errors.EngineError` on older numpy.
    """
    if isinstance(kind, CSPEngine):
        return kind
    return _ENGINES[resolve_engine_kind("csp", kind)]()
