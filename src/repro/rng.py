"""Deterministic random-number plumbing.

All stochastic entry points in the library accept either a seed or a
:class:`numpy.random.Generator`. :func:`make_rng` normalizes both forms so
that simulations are reproducible by construction, and :func:`spawn`
derives independent child generators for sub-simulations (e.g. one per
agent, one per trial) without correlated streams.

Child derivation goes through :meth:`numpy.random.SeedSequence.spawn`,
which extends the parent's spawn key — a construction with no
birthday-collision risk and provably non-overlapping streams.  (Seeding
children from 63-bit integer draws of the parent stream, as an early
version did, risks colliding or correlated streams with many children,
exactly what diversity/weak-selection experiments are sensitive to.)
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, None, np.random.Generator, np.random.SeedSequence]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may be ``None`` (fresh entropy), an ``int``, a
    ``SeedSequence``, or an existing ``Generator`` (returned unchanged, so
    callers can thread one stream through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent child generators from ``rng``.

    Children come from the parent's :class:`~numpy.random.SeedSequence`
    via ``seed_seq.spawn`` (the same parent seed always yields the same
    family, and successive calls yield fresh, disjoint families); a
    generator carrying no seed sequence — e.g. one wrapped around a
    hand-built bit generator — falls back to spawning from a fresh
    entropy draw of the parent stream.  The spawn-key path does not
    advance the parent's stream.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of generators: {n}")
    if n == 0:
        return []
    seed_seq = getattr(rng.bit_generator, "seed_seq", None)
    if isinstance(seed_seq, np.random.SeedSequence):
        children = seed_seq.spawn(n)
    else:  # pragma: no cover - only custom bit generators land here
        entropy = int(rng.integers(0, 2**63 - 1))
        children = np.random.SeedSequence(entropy).spawn(n)
    return [np.random.default_rng(child) for child in children]

