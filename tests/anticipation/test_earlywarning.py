"""Tests for early-warning signals (repro.anticipation.earlywarning)."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy import stats

from repro.anticipation.earlywarning import (
    compute_indicators,
    detrend,
    kendall_trend,
    rolling_autocorrelation,
    rolling_skewness,
    rolling_variance,
    warning_verdict,
)
from repro.errors import AnalysisError
from repro.rng import make_rng


def ar1_series(phi, n, sigma=1.0, seed=0):
    rng = make_rng(seed)
    x = np.zeros(n)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + rng.normal(0, sigma)
    return x


class TestRollingStatistics:
    def test_variance_of_constant_is_zero(self):
        x = np.ones(50)
        assert np.allclose(rolling_variance(x, 10), 0.0)

    def test_variance_detects_growth(self):
        rng = make_rng(1)
        quiet = rng.normal(0, 0.1, 200)
        loud = rng.normal(0, 2.0, 200)
        series = np.concatenate([quiet, loud])
        var = rolling_variance(series, 50)
        assert var[-1] > var[0] * 10

    def test_autocorrelation_of_white_noise_near_zero(self):
        x = make_rng(2).normal(0, 1, 2000)
        ac = rolling_autocorrelation(x, 500)
        assert abs(np.mean(ac)) < 0.1

    def test_autocorrelation_of_persistent_process_high(self):
        x = ar1_series(0.95, 2000, seed=3)
        ac = rolling_autocorrelation(x, 500)
        assert np.mean(ac) > 0.7

    def test_skewness_of_symmetric_noise_near_zero(self):
        x = make_rng(4).normal(0, 1, 1000)
        sk = rolling_skewness(x, 200)
        assert abs(np.mean(sk)) < 0.3

    def test_skewness_matches_scipy_bit_for_bit(self):
        """The per-window kernel is scipy.stats.skew's arithmetic, not an
        approximation: every window agrees exactly, flat windows are 0
        and near-constant ones NaN, as with scipy."""
        rng = make_rng(6)
        windows = [
            rng.normal(0, 1, 40),
            rng.lognormal(0, 1, 25) * 1e6,
            1e8 + rng.normal(0, 1e-8, 30),  # scipy's near-constant NaN
            rng.integers(0, 3, 20).astype(float),
            np.ones(10),
        ]
        for w in windows:
            with warnings.catch_warnings():  # scipy flags the NaN case
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = float(stats.skew(w)) if np.var(w) > 0 else 0.0
            got = rolling_skewness(w, len(w))
            assert np.array([expected]).tobytes() == got.tobytes()
        x = ar1_series(0.9, 600, seed=7)
        expected = [float(stats.skew(x[i:i + 50])) for i in range(551)]
        assert np.array(expected).tobytes() == \
            rolling_skewness(x, 50).tobytes()

    def test_window_validation(self):
        x = np.ones(20)
        with pytest.raises(AnalysisError):
            rolling_variance(x, 2)
        with pytest.raises(AnalysisError):
            rolling_variance(np.ones(5), 10)

    def test_nonfinite_rejected(self):
        x = np.asarray([1.0, np.nan, 2.0, 3.0, 4.0])
        with pytest.raises(AnalysisError):
            rolling_variance(x, 3)


class TestDetrend:
    def test_removes_linear_trend(self):
        t = np.arange(500, dtype=float)
        x = 0.05 * t + make_rng(5).normal(0, 0.5, 500)
        residuals = detrend(x, 50)
        # residual mean should be near zero, trend removed
        assert abs(residuals.mean()) < 0.2
        assert abs(np.polyfit(t[50:-50], residuals[50:-50], 1)[0]) < 0.005

    def test_window_validation(self):
        with pytest.raises(AnalysisError):
            detrend(np.ones(10), 1)


class TestKendallTrend:
    def test_increasing_series_tau_one(self):
        assert kendall_trend(np.arange(50.0)) == pytest.approx(1.0)

    def test_decreasing_series_tau_minus_one(self):
        assert kendall_trend(np.arange(50.0)[::-1]) == pytest.approx(-1.0)

    def test_constant_series_tau_zero(self):
        assert kendall_trend(np.ones(50)) == 0.0

    def test_noise_tau_small(self):
        x = make_rng(6).normal(0, 1, 500)
        assert abs(kendall_trend(x)) < 0.15


class TestIndicatorsAndVerdict:
    def test_critical_slowing_down_detected(self):
        """Rising AR(1) persistence mimics approach to a tipping point."""
        rng = make_rng(7)
        n = 3000
        phis = np.linspace(0.3, 0.97, n)
        x = np.zeros(n)
        for t in range(1, n):
            x[t] = phis[t] * x[t - 1] + rng.normal(0, 0.5)
        ind = compute_indicators(x, window=400)
        assert ind.autocorrelation_trend > 0.5
        assert ind.variance_trend > 0.5
        assert warning_verdict(ind, tau_threshold=0.5)

    def test_stationary_series_gives_no_warning(self):
        x = ar1_series(0.5, 3000, seed=8)
        ind = compute_indicators(x, window=400)
        assert not warning_verdict(ind, tau_threshold=0.5)

    def test_require_both_stricter_than_either(self):
        x = ar1_series(0.5, 2000, seed=9)
        ind = compute_indicators(x, window=300)
        either = warning_verdict(ind, tau_threshold=0.0, require_both=False)
        both = warning_verdict(ind, tau_threshold=0.0, require_both=True)
        assert either or not both  # both => either

    def test_bad_threshold_rejected(self):
        x = ar1_series(0.5, 1000, seed=10)
        ind = compute_indicators(x, window=200)
        with pytest.raises(AnalysisError):
            warning_verdict(ind, tau_threshold=2.0)
