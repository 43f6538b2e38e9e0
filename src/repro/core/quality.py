"""Quality-over-time traces, the raw material of the resilience metric.

Bruneau's framework (paper §4.1, Fig. 3) measures resilience from the
system quality signal Q(t) on a 0..100 scale: quality drops abruptly at
the shock time t0 and recovers by t1.  :class:`QualityTrace` stores a
sampled Q(t), enforces the scale, and provides the integrals and
landmarks (drop depth, recovery time) every resilience metric in
:mod:`repro.core.bruneau` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .._arrays import sorted_distinct
from ..errors import AnalysisError, ConfigurationError

__all__ = ["QualityTrace", "FULL_QUALITY", "step_trace", "linear_recovery_trace"]

FULL_QUALITY = 100.0


@dataclass(frozen=True)
class QualityTrace:
    """A sampled quality signal Q(t) on the canonical 0..100 scale.

    ``times`` must be finite and strictly increasing; ``quality`` is
    sampled at those instants, lies in [0, 100] (never NaN), and is
    interpreted by linear interpolation in between.
    """

    times: np.ndarray
    quality: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        quality = np.asarray(self.quality, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "quality", quality)
        if times.ndim != 1 or quality.ndim != 1:
            raise ConfigurationError("times and quality must be 1-D arrays")
        if len(times) != len(quality):
            raise ConfigurationError(
                f"{len(times)} times but {len(quality)} quality samples"
            )
        if len(times) < 2:
            raise ConfigurationError("a quality trace needs at least two samples")
        if not np.all(np.isfinite(times)):
            raise ConfigurationError("times must be finite")
        if not np.all(np.diff(times) > 0):
            raise ConfigurationError("times must be strictly increasing")
        # written so that NaN, which fails every comparison, fails it too
        if not np.all((quality >= 0.0) & (quality <= FULL_QUALITY)):
            raise ConfigurationError("quality must lie in [0, 100]")

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_samples(
        cls, times: Iterable[float], quality: Iterable[float]
    ) -> "QualityTrace":
        """Build a trace from any pair of iterables."""
        return cls(np.asarray(list(times), float), np.asarray(list(quality), float))

    @classmethod
    def from_fraction(
        cls, times: Iterable[float], fraction: Iterable[float]
    ) -> "QualityTrace":
        """Build from a 0..1 fraction signal (e.g. satisfied-constraint share)."""
        q = np.asarray(list(fraction), float) * FULL_QUALITY
        return cls(np.asarray(list(times), float), q)

    # -- landmarks ----------------------------------------------------------

    @property
    def t_start(self) -> float:
        """First sampled instant."""
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        """Last sampled instant."""
        return float(self.times[-1])

    @property
    def min_quality(self) -> float:
        """Deepest degradation level reached."""
        return float(self.quality.min())

    @property
    def drop_depth(self) -> float:
        """100 − min Q(t): Bruneau's robustness loss dimension."""
        return FULL_QUALITY - self.min_quality

    def at(self, t: float) -> float:
        """Linearly interpolated quality at time ``t`` (clamped to range)."""
        return float(np.interp(t, self.times, self.quality))

    def shock_time(self, threshold: float = FULL_QUALITY) -> float | None:
        """First instant quality falls strictly below ``threshold`` (t0)."""
        below = np.nonzero(self.quality < threshold)[0]
        if len(below) == 0:
            return None
        return float(self.times[below[0]])

    def recovery_time(self, threshold: float = FULL_QUALITY) -> float | None:
        """First instant at/after the shock when quality regains ``threshold`` (t1).

        Returns ``None`` when the system never degrades or never recovers.
        """
        t0 = self.shock_time(threshold)
        if t0 is None:
            return None
        after = self.times >= t0
        regained = np.nonzero(after & (self.quality >= threshold))[0]
        if len(regained) == 0:
            return None
        return float(self.times[regained[0]])

    def time_to_recover(self, threshold: float = FULL_QUALITY) -> float | None:
        """t1 − t0, Bruneau's rapidity dimension; ``None`` if unrecovered."""
        t0 = self.shock_time(threshold)
        t1 = self.recovery_time(threshold)
        if t0 is None or t1 is None:
            return None
        return t1 - t0

    # -- integrals ------------------------------------------------------------

    def degradation_integral(
        self, t0: float | None = None, t1: float | None = None
    ) -> float:
        """∫ (100 − Q(t)) dt over [t0, t1] by the trapezoid rule.

        This is the paper's resilience loss R; the window defaults to the
        whole trace.  A reversed window or a NaN bound raises
        :class:`~repro.errors.AnalysisError`.
        """
        t0 = self.t_start if t0 is None else t0
        t1 = self.t_end if t1 is None else t1
        if np.isnan(t0) or np.isnan(t1):
            raise AnalysisError(
                f"integration window [{t0}, {t1}] has a NaN bound"
            )
        if t1 < t0:
            raise AnalysisError(f"empty integration window [{t0}, {t1}]")
        if t1 == t0:
            return 0.0
        grid = sorted_distinct(np.append(self.times, (t0, t1)))
        grid = grid[(grid >= t0) & (grid <= t1)]
        deficit = FULL_QUALITY - np.interp(grid, self.times, self.quality)
        return float(np.trapezoid(deficit, grid))

    def mean_quality(self) -> float:
        """Time-averaged quality across the trace."""
        span = self.t_end - self.t_start
        return FULL_QUALITY - self.degradation_integral() / span

    def availability(self, threshold: float = FULL_QUALITY,
                     resolution: int = 2000) -> float:
        """Fraction of the trace's time span at quality ≥ ``threshold``.

        The classic operations metric ("three nines") evaluated on the
        interpolated signal; ``resolution`` controls the time grid.
        """
        if not 0.0 <= threshold <= FULL_QUALITY:
            raise ConfigurationError(
                f"threshold must be in [0, 100], got {threshold}"
            )
        if resolution < 2:
            raise ConfigurationError(
                f"resolution must be >= 2, got {resolution}"
            )
        grid = sorted_distinct(np.concatenate(
            (self.times, np.linspace(self.t_start, self.t_end, resolution))
        ))
        values = np.interp(grid, self.times, self.quality)
        up = values >= threshold
        # trapezoid weight per grid point
        widths = np.zeros_like(grid)
        widths[:-1] += np.diff(grid) / 2.0
        widths[1:] += np.diff(grid) / 2.0
        total = widths.sum()
        return float(np.sum(widths[up]) / total)

    # -- composition ------------------------------------------------------------

    def concat(self, other: "QualityTrace") -> "QualityTrace":
        """Append a later trace (its times must start after this one ends)."""
        if other.t_start <= self.t_end:
            raise ConfigurationError(
                "cannot concatenate traces with overlapping time ranges"
            )
        return QualityTrace(
            np.concatenate([self.times, other.times]),
            np.concatenate([self.quality, other.quality]),
        )


def step_trace(
    t0: float,
    t1: float,
    depth: float,
    t_pre: float | None = None,
    t_post: float | None = None,
    dt: float = 1.0,
) -> QualityTrace:
    """A rectangular shock: quality drops by ``depth`` at t0, restores at t1.

    Useful as an analytic fixture — its resilience loss is exactly
    ``depth * (t1 - t0)``.
    """
    if not 0.0 <= depth <= FULL_QUALITY:
        raise ConfigurationError(f"depth must be in [0, 100], got {depth}")
    if t1 <= t0:
        raise ConfigurationError("t1 must follow t0")
    t_pre = t0 - dt if t_pre is None else t_pre
    t_post = t1 + dt if t_post is None else t_post
    eps = min(dt, t1 - t0) * 1e-6
    times = [t_pre, t0 - eps, t0, t1 - eps, t1, t_post]
    quality = [
        FULL_QUALITY,
        FULL_QUALITY,
        FULL_QUALITY - depth,
        FULL_QUALITY - depth,
        FULL_QUALITY,
        FULL_QUALITY,
    ]
    return QualityTrace.from_samples(times, quality)


def linear_recovery_trace(
    t0: float,
    t1: float,
    depth: float,
    t_pre: float | None = None,
    t_post: float | None = None,
    dt: float = 1.0,
) -> QualityTrace:
    """Bruneau's Fig. 3 triangle: abrupt drop at t0, linear recovery by t1.

    Its resilience loss is exactly ``depth * (t1 - t0) / 2`` — the area of
    the triangle.
    """
    if not 0.0 <= depth <= FULL_QUALITY:
        raise ConfigurationError(f"depth must be in [0, 100], got {depth}")
    if t1 <= t0:
        raise ConfigurationError("t1 must follow t0")
    t_pre = t0 - dt if t_pre is None else t_pre
    t_post = t1 + dt if t_post is None else t_post
    eps = min(dt, t1 - t0) * 1e-6
    times = [t_pre, t0 - eps, t0, t1, t_post]
    quality = [
        FULL_QUALITY,
        FULL_QUALITY,
        FULL_QUALITY - depth,
        FULL_QUALITY,
        FULL_QUALITY,
    ]
    return QualityTrace.from_samples(times, quality)
