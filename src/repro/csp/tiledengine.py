"""Tiled bit-CSP engine: the one compiled form of a boolean CSP.

Every fast CSP kind (``bit`` and ``tiled``) runs
:class:`TiledBitCSP`: the lowered constraint kernels of
:func:`~repro.csp.bitengine.lower_csp` streamed over fixed-size blocks
of the ``0 .. 2^n - 1`` state space, so nothing of size 2^n is ever
allocated for a multi-block space and the practical cap is n ≈ 28–32.

Four pieces:

* **block scheduler** — :func:`derive_block_bits` turns the
  supervisor's ``memory_budget_mb`` into a block size instead of a
  refusal: the largest power-of-two block whose in-flight footprint
  (``2^b · (TILE_STATE_BYTES + n_constraints)`` bytes) fits the budget,
  clamped to ``[MIN_BLOCK_BITS, MAX_BLOCK_BITS]``.  An impossible
  budget means more, smaller blocks — never ``None``.
* **streamed evaluation** — :meth:`TiledBitCSP.fit_indices` runs each
  lowered evaluator once per block; fit states accumulate as a sorted
  int64 index array (Θ(|C|) memory, not Θ(2^n)).  Blocks run serially
  in the calling process; parallelism lives one level up, in the sweep
  executor's forked workers (:func:`repro.runtime.executor.run_points`).
* **single-block table** — when the whole space is one block
  (``n`` ≤ the budget-derived block size, so every n ≤
  :data:`DEFAULT_BLOCK_BITS` without a budget), the first per-state
  lookup builds that block's satisfaction rows, violation counts and
  quality row once; ``violations`` and ``quality_table()`` are then
  those arrays, and the repair loops index them directly.  A
  multi-block space answers the same indexing through lazy views that
  evaluate just the requested states.  The table fits the block
  budget: ``4 + 8 + n_constraints`` bytes per state against the
  scheduler's ``TILE_STATE_BYTES + n_constraints``.
* **implicit-frontier BFS** — :meth:`TiledBitCSP.min_distances_masks`,
  :func:`implicit_add_bit_levels` and :func:`implicit_clear_bit_ball`
  keep BFS frontiers as sorted index arrays with chunked XOR neighbor
  generation instead of ``(2^n,)`` level arrays — recoverability and
  K-maintainability cost Θ(ball volume), not Θ(state space).

Equivalence contract, pinned by ``tests/csp/test_bitengine.py``,
``tests/csp/test_tiledengine.py`` and the hypothesis suite
``tests/csp/test_engine_fuzz.py``: every quantity is byte-identical to
the object engine wherever it runs, and invariant under the block size.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .._arrays import sorted_distinct
from ..errors import ConfigurationError
from ..runtime import trace
from .bitstring import BitString
from .bitengine import (
    SAT_ROW_BYTES,
    BitEngineUnsupported,
    PackedStateBridge,
    _flip_masks,
    lower_csp,
)
from .problem import CSP

__all__ = [
    "DEFAULT_BLOCK_BITS",
    "DEFAULT_MAX_BITS_TILED",
    "MAX_BLOCK_BITS",
    "MIN_BLOCK_BITS",
    "TILE_STATE_BYTES",
    "TiledBitCSP",
    "compile_tiled",
    "derive_block_bits",
    "implicit_add_bit_levels",
    "implicit_clear_bit_ball",
]

#: hard cap on problem size for the tiled engine.  2^32 states stream
#: in bounded memory, but wall time is still Θ(2^n): beyond ~32 bits
#: exact enumeration stops being a realistic analysis.
DEFAULT_MAX_BITS_TILED = 32

#: block size used when no memory budget is installed (2^20 = 1M
#: states ≈ 35 MiB in flight for a handful of constraints); every CSP
#: with n ≤ 20 is one block and gets the single-block table
DEFAULT_BLOCK_BITS = 20
#: smallest scheduled block — below 2^10 the per-block Python overhead
#: dominates the vectorized kernels
MIN_BLOCK_BITS = 10
#: largest scheduled block (2^24 states)
MAX_BLOCK_BITS = 24

#: per-state bytes in flight while one block streams: the int64 block
#: states (8), the int32 violation accumulator (4), the evaluator's
#: int64 temporaries (popcount/subcube gather + comparison, ~16), the
#: bool satisfaction row (1), plus ~1 slack for the compressed fit
#: output — per-constraint sat rows are added separately
TILE_STATE_BYTES = 30


def derive_block_bits(
    n: int,
    n_constraints: int,
    memory_budget_bytes: Optional[int] = None,
) -> int:
    """Block-size exponent whose in-flight footprint fits the budget.

    This is where the supervisor's ``memory_budget_mb`` becomes block
    *scheduling* instead of compile *refusal*: one streamed block costs
    ``2^b · (TILE_STATE_BYTES + SAT_ROW_BYTES · n_constraints)`` bytes,
    one block is in flight at a time, and the scheduler picks the
    largest ``b`` keeping that under budget.  The result is clamped
    to ``[MIN_BLOCK_BITS, min(n, MAX_BLOCK_BITS)]`` — an impossible
    budget degrades to more, smaller blocks rather than refusing, so
    the tiled engine never returns the object fallback on memory
    grounds alone.
    """
    hi = min(n, MAX_BLOCK_BITS)
    lo = min(n, MIN_BLOCK_BITS)
    if memory_budget_bytes is None:
        return max(lo, min(hi, DEFAULT_BLOCK_BITS))
    per_state = TILE_STATE_BYTES + SAT_ROW_BYTES * n_constraints
    b = hi
    while b > lo and (1 << b) * per_state > memory_budget_bytes:
        b -= 1
    return b


# -- implicit-frontier hypercube kernels -----------------------------------


def _isin_sorted(values: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    """Membership of ``values`` in a sorted int64 array, via searchsorted."""
    if sorted_arr.size == 0:
        return np.zeros(np.shape(values), dtype=bool)
    pos = np.searchsorted(sorted_arr, values)
    pos = np.minimum(pos, sorted_arr.size - 1)
    return sorted_arr[pos] == values


def _xor_expand(
    frontier: np.ndarray,
    bits: np.ndarray,
    settled: np.ndarray,
    *,
    down: bool = False,
    chunk: int = 1 << 20,
) -> np.ndarray:
    """Unsettled XOR neighbors of ``frontier``, sorted and unique.

    One BFS level as ``frontier[:, None] ^ flip_masks`` without a
    (2^n,) distance array: membership comes from ``settled`` (a sorted
    index array) instead of array indexing, and the broadcast is
    chunked so at most ~``chunk`` candidate masks exist at once.  ``down=True`` keeps only edges that
    clear a set bit (``cand < source``) — the predecessor edges of the
    repair encoding.
    """
    parts = []
    step = max(1, chunk // max(1, bits.size))
    for s in range(0, frontier.size, step):
        f = frontier[s : s + step]
        cand = f[:, None] ^ bits
        if down:
            cand = cand[cand < f[:, None]]
        else:
            cand = cand.ravel()
        cand = sorted_distinct(cand)
        cand = cand[~_isin_sorted(cand, settled)]
        if cand.size:
            parts.append(cand)
    if not parts:
        return np.zeros(0, dtype=np.int64)
    if len(parts) == 1:
        return parts[0]
    return sorted_distinct(np.concatenate(parts))


def implicit_add_bit_levels(
    goal_indices: np.ndarray,
    n: int,
    max_level: Optional[int] = None,
    *,
    chunk: int = 1 << 20,
) -> tuple[np.ndarray, np.ndarray]:
    """Baral–Eiter recovery levels of the spacecraft repair encoding.

    Agent actions are ``repair_i``: set a failed bit to 1, with one
    deterministic outcome.  A state's level is the minimum number of
    repair steps into the goal set, found by reverse BFS from the goals
    along "clear one set bit" predecessor edges.  ``max_level``
    truncates the fixpoint like
    :func:`repro.planning.kmaintain.compute_levels`.  Returns
    ``(states, levels)``: the sorted masks of every state leveled
    within ``max_level`` and their exact levels — never a ``(2^n,)``
    array, so K-maintainability levels cost Θ(leveled set).
    """
    goal = sorted_distinct(np.asarray(goal_indices, dtype=np.int64))
    max_level = n if max_level is None else min(max_level, n)
    bits = _flip_masks(n)
    settled = goal
    states_acc = [goal]
    levels_acc = [np.zeros(goal.size, dtype=np.int32)]
    frontier = goal
    d = 0
    while frontier.size and d < max_level:
        cand = _xor_expand(frontier, bits, settled, down=True, chunk=chunk)
        if not cand.size:
            break
        d += 1
        settled = sorted_distinct(np.concatenate((settled, cand)))
        states_acc.append(cand)
        levels_acc.append(np.full(cand.size, d, dtype=np.int32))
        frontier = cand
    states = np.concatenate(states_acc)
    levels = np.concatenate(levels_acc)
    order = np.argsort(states, kind="stable")
    return states[order], levels[order]


def implicit_clear_bit_ball(
    seed_indices: np.ndarray,
    n: int,
    radius: int,
    *,
    chunk: int = 1 << 20,
) -> np.ndarray:
    """The debris damage envelope as a sorted mask array.

    All states reachable from the seeds by clearing ≤ ``radius`` bits
    (seeds included, radius 0 → the seeds themselves), costing
    Θ(ball volume) instead of Θ(2^n).
    """
    if radius < 0:
        raise ConfigurationError(f"radius must be >= 0, got {radius}")
    member = sorted_distinct(np.asarray(seed_indices, dtype=np.int64))
    bits = _flip_masks(n)
    frontier = member
    for _ in range(min(radius, n)):
        if not frontier.size:
            break
        cand = _xor_expand(frontier, bits, member, down=True, chunk=chunk)
        if not cand.size:
            break
        member = sorted_distinct(np.concatenate((member, cand)))
        frontier = cand
    return member


# -- lazy whole-space views -------------------------------------------------


class _LazyView:
    """A per-state array of a multi-block space, without the (2^n,) array.

    The DCSP and repair loops index ``violations`` / ``quality_table()``
    with scalars, 1-D flip batches, and 2-D ``masks[:, None] ^
    flip_masks`` neighborhoods; this view accepts the same indexing as
    the single-block table and evaluates just the requested states
    through the lowered kernels, so one loop body serves both.
    """

    def __init__(self, evaluate, size: int, dtype):
        self._evaluate = evaluate
        self.shape = (size,)
        self.dtype = np.dtype(dtype)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, masks):
        if isinstance(masks, (int, np.integer)):
            return self._evaluate(np.asarray([masks], dtype=np.int64))[0]
        return self._evaluate(np.asarray(masks, dtype=np.int64))


class TiledBitCSP(PackedStateBridge):
    """A boolean CSP compiled to block-streamed form.

    State ``m`` (an integer mask) assigns variable ``i`` the domain
    value whose ``int()`` is bit ``i`` of ``m`` — the same convention
    as :meth:`CSP.bits_from_assignment`.  Dispatch sites use
    ``fit_indices`` / ``fit_bitstrings`` / ``quality`` /
    ``conflict_counts`` / ``min_distances`` / ``min_distances_masks`` /
    ``conflicted_variable_order`` / ``assignment_of`` / ``mask_of`` and
    index ``violations`` / ``quality_table()`` by mask.

    Compilation itself is O(constraints) — lowering only.  The fit set
    is enumerated on first use (``fit_indices``), one block at a time;
    DCSP timelines at large n that never touch the fit set therefore
    pay nothing for it.
    Per-state lookups read the single-block table when the space is one
    block (built on the first lookup) and evaluate the requested states
    otherwise.
    """

    def __init__(
        self,
        csp: CSP,
        max_bits: int = DEFAULT_MAX_BITS_TILED,
        block_bits: Optional[int] = None,
        memory_budget_bytes: Optional[int] = None,
    ):
        n = len(csp.variables)
        if n > max_bits:
            raise BitEngineUnsupported(
                f"{n}-variable CSP exceeds the tiled engine's "
                f"2^{max_bits}-state enumeration cap"
            )
        evaluators, scope_mat, val_for_bit = lower_csp(csp)
        self.csp = csp
        self.n = n
        self.size = 1 << n
        self.names: tuple[str, ...] = csp.names
        if block_bits is None:
            block_bits = derive_block_bits(
                n, len(csp.constraints), memory_budget_bytes
            )
        block_bits = max(1, min(block_bits, n))
        self.block_bits = block_bits
        #: states per streamed block
        self.block_size = 1 << block_bits
        #: total blocks covering the state space
        self.n_blocks = 1 << (n - block_bits)
        #: single-bit flip masks, ``flip_masks[i] = 1 << i``
        self.flip_masks: np.ndarray = _flip_masks(n)
        self._val_for_bit: list[tuple] = val_for_bit
        #: variable indices in lexicographic-name order (conflicted-set
        #: ordering of the object repair loops)
        self.order_by_name: tuple[int, ...] = tuple(
            sorted(range(n), key=lambda i: self.names[i])
        )
        self._evaluators = evaluators
        #: (n_constraints, n) scope membership matrix
        self.scope_mat: np.ndarray = scope_mat
        self._fit_indices: Optional[np.ndarray] = None
        trace.current().count("csp.compiles")

    # -- per-block kernels -------------------------------------------------

    def _violations_of(self, masks: np.ndarray) -> np.ndarray:
        """Violated-constraint counts for the given masks (any shape)."""
        out = np.zeros(masks.shape, dtype=np.int32)
        for evaluate in self._evaluators:
            out += ~evaluate(masks)
        return out

    def _quality_of(self, masks: np.ndarray) -> np.ndarray:
        """Q for the given masks, float-identical to :meth:`CSP.quality`."""
        return self._quality_from(self._violations_of(masks))

    def _quality_from(self, violations: np.ndarray) -> np.ndarray:
        """Q from violation counts: ``100.0 * satisfied / n_constraints``."""
        n_c = len(self._evaluators)
        if n_c == 0:
            return np.full(violations.shape, 100.0)
        satisfied = (n_c - violations).astype(np.int64)
        return 100.0 * satisfied / n_c

    def block_ranges(self) -> list[tuple[int, int]]:
        """The ``[lo, hi)`` state ranges the streamed kernels cover."""
        return [
            (lo, lo + self.block_size)
            for lo in range(0, self.size, self.block_size)
        ]

    def _fit_in_range(self, lo: int, hi: int) -> np.ndarray:
        """Masks of fit states in ``[lo, hi)``, ascending."""
        states = np.arange(lo, hi, dtype=np.int64)
        return states[self._violations_of(states) == 0]

    def _materialize_fit(self) -> np.ndarray:
        tr = trace.current()
        ranges = self.block_ranges()
        with tr.timer("csp.tiled.enumerate"):
            parts = [self._fit_in_range(lo, hi) for lo, hi in ranges]
        tr.count("csp.tiled.blocks", len(ranges))
        return np.concatenate(parts) if parts else np.zeros(0, np.int64)

    # -- whole-space views -------------------------------------------------

    @property
    def fit_indices(self) -> np.ndarray:
        """Masks of all fit states, ascending (streamed on first use)."""
        if self._fit_indices is None:
            self._fit_indices = self._materialize_fit()
        return self._fit_indices

    def fit_bitstrings(self) -> frozenset[BitString]:
        """The fit set C, identical to :meth:`CSP.fit_bitstrings`."""
        return frozenset(BitString(self.n, int(m)) for m in self.fit_indices)

    # -- per-state lookups: single-block table or lazy views --------------

    @cached_property
    def _sat(self) -> np.ndarray:
        """(n_constraints, 2^n) satisfaction rows of a single-block space."""
        states = np.arange(self.size, dtype=np.int64)
        sat = np.empty((len(self._evaluators), self.size), dtype=bool)
        for ci, evaluate in enumerate(self._evaluators):
            sat[ci] = evaluate(states)
        return sat

    @cached_property
    def violations(self):
        """Violated-constraint count per state, indexed by mask.

        The single-block table's int32 array, or a lazy view evaluating
        just the indexed states when the space spans several blocks.
        """
        if self.n_blocks > 1:
            return _LazyView(self._violations_of, self.size, np.int32)
        return (~self._sat).sum(axis=0, dtype=np.int32)

    @cached_property
    def _quality_table(self):
        if self.n_blocks > 1:
            return _LazyView(self._quality_of, self.size, np.float64)
        return self._quality_from(self.violations)

    def quality_table(self):
        """Q for every state, indexed by mask (table or lazy view)."""
        return self._quality_table

    def quality(self, masks) -> np.ndarray:
        """Vectorized :meth:`CSP.quality` for a batch of state masks."""
        return self._quality_table[np.asarray(masks, dtype=np.int64)]

    def conflict_counts(self, masks) -> np.ndarray:
        """Vectorized :meth:`CSP.conflict_count` for a batch of masks."""
        return self.violations[np.asarray(masks, dtype=np.int64)]

    # -- recoverability kernel ---------------------------------------------

    #: fit-set size below which distance queries use the direct
    #: XOR+popcount broadcast instead of the frontier walk: O(q · F)
    #: work with a tiny constant beats growing a Hamming ball that may
    #: need to cover most of the cube to reach a far query
    DIRECT_FIT_LIMIT = 1 << 16

    def min_distances_masks(self, masks) -> np.ndarray:
        """Min Hamming distance into the fit set for packed state masks.

        Two regimes, both exact.  A *sparse* fit set (≤
        :data:`DIRECT_FIT_LIMIT` states) answers each query directly —
        one chunked ``popcount(query ^ fit)`` broadcast, O(q · F).  A
        *dense* fit set walks an implicit BFS frontier outward from the
        fit states (sorted index arrays + chunked XOR expansion,
        stopping as soon as every query is settled) — dense fit sets
        reach everything within a few levels, so the settled set never
        approaches 2^n.  ``-1`` when the fit set is empty.
        """
        masks = np.asarray(masks, dtype=np.int64)
        fit = self.fit_indices
        if fit.size == 0 or masks.size == 0:
            return np.full(masks.shape, -1 if fit.size == 0 else 0, np.int64)
        flat = masks.ravel()
        queries = sorted_distinct(flat)
        inverse = np.searchsorted(queries, flat)
        if fit.size <= self.DIRECT_FIT_LIMIT:
            qdist = np.empty(queries.size, dtype=np.int64)
            step = max(1, self.block_size // fit.size)
            for s in range(0, queries.size, step):
                q = queries[s : s + step]
                qdist[s : s + step] = np.bitwise_count(
                    q[:, None] ^ fit
                ).min(axis=1)
        else:
            qdist = np.full(queries.size, -1, dtype=np.int64)
            qdist[_isin_sorted(queries, fit)] = 0
            settled = fit
            frontier = fit
            d = 0
            while frontier.size and (qdist < 0).any() and d < self.n:
                frontier = _xor_expand(
                    frontier, self.flip_masks, settled, chunk=self.block_size
                )
                if not frontier.size:
                    break
                d += 1
                settled = sorted_distinct(np.concatenate((settled, frontier)))
                newly = (qdist < 0) & _isin_sorted(queries, frontier)
                qdist[newly] = d
        return qdist[inverse].reshape(masks.shape)

    def min_distances(self, states: Sequence[BitString]) -> np.ndarray:
        """Drop-in for :meth:`PackedFitSet.min_distances` on the fit set."""
        states = list(states)
        if not len(self.fit_indices):
            return np.full(len(states), -1, dtype=np.int64)
        for s in states:
            if s.n != self.n:
                raise ConfigurationError(
                    f"state has {s.n} bits but fit set has {self.n}"
                )
        if not states:
            return np.zeros(0, dtype=np.int64)
        masks = np.fromiter(
            (s.mask for s in states), dtype=np.int64, count=len(states)
        )
        return self.min_distances_masks(masks)

    # -- state <-> assignment bridge: see PackedStateBridge ----------------

    def conflicted_variable_order(self, mask: int) -> list[int]:
        """Scope variables of violated constraints, sorted by name.

        Mirrors the object repair loops' ``sorted({v for c in violated
        for v in c.scope})`` (lexicographic on *names*, so e.g. ``x10``
        sorts before ``x2``) but returns variable indices.  Reads the
        single-block table's satisfaction column, or evaluates the one
        requested state when the space spans several blocks.
        """
        if self.n_blocks == 1:
            violated = ~self._sat[:, mask]
        else:
            one = np.asarray([mask], dtype=np.int64)
            violated = np.fromiter(
                (not bool(evaluate(one)[0]) for evaluate in self._evaluators),
                dtype=bool,
                count=len(self._evaluators),
            )
        if not violated.any():
            return []
        in_conflict = self.scope_mat[violated].any(axis=0)
        return [i for i in self.order_by_name if in_conflict[i]]


def compile_tiled(
    csp: CSP,
    max_bits: int = DEFAULT_MAX_BITS_TILED,
    block_bits: Optional[int] = None,
    memory_budget_bytes: Optional[int] = None,
) -> TiledBitCSP:
    """Compile ``csp`` to tiled form, caching the result on the CSP.

    The cache is safe because :class:`CSP` is immutable (variables and
    constraints are tuples), so the single-block table built by one
    analysis serves the next; it is keyed on the scheduling
    parameters, so changing the block size or memory budget recompiles
    rather than silently reusing the old schedule.
    """
    n = len(csp.variables)
    if n > max_bits:
        raise BitEngineUnsupported(
            f"{n}-variable CSP exceeds the tiled engine's "
            f"2^{max_bits}-state enumeration cap"
        )
    key = (block_bits, memory_budget_bytes)
    cached = getattr(csp, "_tiled_compiled", None)
    if cached is not None and getattr(csp, "_tiled_key", None) == key:
        return cached
    compiled = TiledBitCSP(
        csp,
        max_bits=max_bits,
        block_bits=block_bits,
        memory_budget_bytes=memory_budget_bytes,
    )
    csp._tiled_compiled = compiled  # type: ignore[attr-defined]
    csp._tiled_key = key  # type: ignore[attr-defined]
    return compiled
