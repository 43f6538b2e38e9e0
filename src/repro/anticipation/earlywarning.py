"""Early-warning signals for critical transitions (paper §3.4.1).

Implements the standard Scheffer toolkit: detrend a series, compute
rolling-window variance, lag-1 autocorrelation and skewness, and score
the *trend* of each indicator with the Kendall rank correlation — a
rising trend of variance/autocorrelation is the critical-slowing-down
signature that precedes a tipping point.  :func:`warning_verdict`
packages the thresholded decision used by the detection-performance
experiment (E16).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError

__all__ = [
    "detrend",
    "rolling_variance",
    "rolling_autocorrelation",
    "rolling_skewness",
    "kendall_trend",
    "EarlyWarningIndicators",
    "compute_indicators",
    "warning_verdict",
    "detection_roc",
    "roc_auc",
]


def _check_series(series: np.ndarray, min_len: int) -> np.ndarray:
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise AnalysisError("series must be 1-D")
    if len(x) < min_len:
        raise AnalysisError(f"series too short: need >= {min_len}, got {len(x)}")
    if not np.all(np.isfinite(x)):
        raise AnalysisError("series contains non-finite values")
    return x


def detrend(series: np.ndarray, window: int) -> np.ndarray:
    """Subtract a centered moving average (Gaussian-free, edge-padded)."""
    x = _check_series(series, max(window, 3))
    if window < 2:
        raise AnalysisError(f"window must be >= 2, got {window}")
    kernel = np.ones(window) / window
    padded = np.concatenate([
        np.full(window // 2, x[0]), x, np.full(window - window // 2 - 1, x[-1])
    ])
    trend = np.convolve(padded, kernel, mode="valid")
    return x - trend


def _rolling_apply(x: np.ndarray, window: int, fn) -> np.ndarray:
    if window < 3:
        raise AnalysisError(f"window must be >= 3, got {window}")
    if len(x) < window:
        raise AnalysisError(
            f"series of length {len(x)} shorter than window {window}"
        )
    out = np.empty(len(x) - window + 1)
    for i in range(len(out)):
        out[i] = fn(x[i:i + window])
    return out


def rolling_variance(series: np.ndarray, window: int) -> np.ndarray:
    """Windowed variance — rises approaching a fold bifurcation."""
    x = _check_series(series, window)
    return _rolling_apply(x, window, lambda w: float(np.var(w)))


def _lag1(w: np.ndarray) -> float:
    a = w[:-1] - w[:-1].mean()
    b = w[1:] - w[1:].mean()
    denom = np.sqrt(np.sum(a * a) * np.sum(b * b))
    if denom == 0:
        return 0.0
    return float(np.sum(a * b) / denom)


def rolling_autocorrelation(series: np.ndarray, window: int) -> np.ndarray:
    """Windowed lag-1 autocorrelation — the critical-slowing-down signal."""
    x = _check_series(series, window)
    return _rolling_apply(x, window, _lag1)


def _skewness(w: np.ndarray) -> float:
    """Biased skewness ``m3 / m2**1.5`` of one window; 0.0 if it is flat.

    Step for step the arithmetic :func:`scipy.stats.skew` does on a 1-D
    array (mean, demeaned squares and cubes, its near-constant NaN
    guard), so the values match it bit for bit.  Calling scipy itself
    costs ~1 ms of argument handling per window, which dominated every
    rolling analysis.
    """
    if not np.var(w) > 0:
        return 0.0
    mean = np.mean(w, keepdims=True)
    d = w - mean
    m2 = np.mean(d**2)
    cubes = d**2
    cubes *= d
    m3 = np.mean(cubes)
    if m2 <= (np.finfo(m2.dtype).eps * mean[0]) ** 2:
        return float("nan")
    return float(m3 / m2**1.5)


def rolling_skewness(series: np.ndarray, window: int) -> np.ndarray:
    """Windowed skewness — flickering toward the alternative basin."""
    x = _check_series(series, window)
    return _rolling_apply(x, window, _skewness)


def kendall_trend(indicator: np.ndarray) -> float:
    """Kendall's tau of the indicator against time — the trend statistic.

    +1 = monotonically rising (strong warning), 0 = no trend.
    """
    y = _check_series(indicator, 3)
    if np.allclose(y, y[0]):
        return 0.0
    from scipy.stats import kendalltau

    tau, _ = kendalltau(np.arange(len(y)), y)
    if np.isnan(tau):
        return 0.0
    return float(tau)


@dataclass(frozen=True)
class EarlyWarningIndicators:
    """The indicator series and their Kendall trend scores for one window."""

    variance: np.ndarray
    autocorrelation: np.ndarray
    skewness: np.ndarray
    variance_trend: float
    autocorrelation_trend: float
    skewness_trend: float
    window: int


def compute_indicators(
    series: np.ndarray,
    window: int,
    detrend_window: int | None = None,
) -> EarlyWarningIndicators:
    """Full early-warning analysis of a (pre-tip) series.

    ``detrend_window`` defaults to 2× the rolling window; detrending is
    applied before the indicators so slow drift does not masquerade as
    rising variance.
    """
    x = _check_series(series, window + 3)
    detrend_window = 2 * window if detrend_window is None else detrend_window
    residuals = detrend(x, detrend_window)
    var = rolling_variance(residuals, window)
    ac = rolling_autocorrelation(residuals, window)
    sk = rolling_skewness(residuals, window)
    return EarlyWarningIndicators(
        variance=var,
        autocorrelation=ac,
        skewness=sk,
        variance_trend=kendall_trend(var),
        autocorrelation_trend=kendall_trend(ac),
        skewness_trend=kendall_trend(sk),
        window=window,
    )


def warning_verdict(
    indicators: EarlyWarningIndicators,
    tau_threshold: float = 0.5,
    require_both: bool = True,
) -> bool:
    """Binary warning: are variance/autocorrelation trends both rising?

    ``require_both`` demands both indicators exceed the Kendall-tau
    threshold (fewer false alarms); otherwise either suffices (higher
    sensitivity).
    """
    if not 0 <= tau_threshold <= 1:
        raise AnalysisError(f"tau_threshold must be in [0, 1], got {tau_threshold}")
    var_up = indicators.variance_trend >= tau_threshold
    ac_up = indicators.autocorrelation_trend >= tau_threshold
    return (var_up and ac_up) if require_both else (var_up or ac_up)


def detection_roc(
    tipping_scores: np.ndarray,
    control_scores: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """ROC curve of an early-warning score.

    ``tipping_scores`` are the indicator trends measured on pre-tip
    series (positives), ``control_scores`` on stationary controls
    (negatives).  Returns (false-positive rates, true-positive rates)
    sweeping the decision threshold over every observed score.
    """
    pos = _check_series(np.asarray(tipping_scores, float), 1)
    neg = _check_series(np.asarray(control_scores, float), 1)
    thresholds = np.unique(np.concatenate([pos, neg]))
    # sweep from above the max (nothing fires) down (everything fires)
    fprs = [0.0]
    tprs = [0.0]
    for threshold in thresholds[::-1]:
        tprs.append(float(np.mean(pos >= threshold)))
        fprs.append(float(np.mean(neg >= threshold)))
    fprs.append(1.0)
    tprs.append(1.0)
    return np.asarray(fprs), np.asarray(tprs)


def roc_auc(tipping_scores: np.ndarray, control_scores: np.ndarray) -> float:
    """Area under the detection ROC (0.5 = no skill, 1 = perfect)."""
    fprs, tprs = detection_roc(tipping_scores, control_scores)
    return float(np.trapezoid(tprs, fprs))
