"""Tests for quality traces (repro.core.quality)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import _arrays
from repro.core import quality as quality_mod
from repro.core.quality import (
    FULL_QUALITY,
    QualityTrace,
    linear_recovery_trace,
    step_trace,
)
from repro.errors import AnalysisError, ConfigurationError


class TestQualityTraceConstruction:
    def test_basic_construction(self):
        trace = QualityTrace.from_samples([0, 1, 2], [100, 50, 100])
        assert trace.t_start == 0
        assert trace.t_end == 2
        assert trace.min_quality == 50

    def test_from_fraction_scales_to_percent(self):
        trace = QualityTrace.from_fraction([0, 1], [1.0, 0.5])
        assert trace.quality[1] == pytest.approx(50.0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            QualityTrace.from_samples([0, 1, 2], [100, 50])

    def test_rejects_single_sample(self):
        with pytest.raises(ConfigurationError):
            QualityTrace.from_samples([0], [100])

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ConfigurationError):
            QualityTrace.from_samples([0, 0], [100, 100])
        with pytest.raises(ConfigurationError):
            QualityTrace.from_samples([1, 0], [100, 100])

    def test_rejects_out_of_range_quality(self):
        with pytest.raises(ConfigurationError):
            QualityTrace.from_samples([0, 1], [100, 101])
        with pytest.raises(ConfigurationError):
            QualityTrace.from_samples([0, 1], [-1, 100])

    def test_rejects_2d_arrays(self):
        with pytest.raises(ConfigurationError):
            QualityTrace(np.zeros((2, 2)), np.zeros((2, 2)))


class TestLandmarks:
    def test_shock_time_is_first_degradation(self):
        trace = QualityTrace.from_samples([0, 1, 2, 3], [100, 100, 80, 100])
        assert trace.shock_time() == 2

    def test_no_shock_returns_none(self):
        trace = QualityTrace.from_samples([0, 1], [100, 100])
        assert trace.shock_time() is None
        assert trace.recovery_time() is None
        assert trace.time_to_recover() is None

    def test_recovery_time(self):
        trace = QualityTrace.from_samples([0, 1, 2, 3], [100, 80, 90, 100])
        assert trace.recovery_time() == 3
        assert trace.time_to_recover() == 2

    def test_unrecovered_returns_none(self):
        trace = QualityTrace.from_samples([0, 1, 2], [100, 80, 90])
        assert trace.shock_time() == 1
        assert trace.recovery_time() is None

    def test_threshold_changes_landmarks(self):
        trace = QualityTrace.from_samples([0, 1, 2, 3], [100, 85, 95, 100])
        # with threshold 90, the dip to 85 is a shock; 95 already recovers
        assert trace.shock_time(threshold=90) == 1
        assert trace.recovery_time(threshold=90) == 2

    def test_drop_depth(self):
        trace = QualityTrace.from_samples([0, 1, 2], [100, 60, 100])
        assert trace.drop_depth == pytest.approx(40.0)

    def test_interpolation(self):
        trace = QualityTrace.from_samples([0, 2], [100, 0])
        assert trace.at(1.0) == pytest.approx(50.0)


class TestIntegrals:
    def test_step_trace_loss_is_rectangle(self):
        trace = step_trace(t0=10, t1=20, depth=40)
        loss = trace.degradation_integral(10, 20)
        assert loss == pytest.approx(40 * 10, rel=1e-4)

    def test_linear_recovery_loss_is_triangle(self):
        trace = linear_recovery_trace(t0=0, t1=10, depth=60)
        loss = trace.degradation_integral(0, 10)
        assert loss == pytest.approx(60 * 10 / 2, rel=1e-4)

    def test_integral_window_subset(self):
        trace = step_trace(t0=0, t1=10, depth=50)
        half = trace.degradation_integral(0, 5)
        assert half == pytest.approx(50 * 5, rel=1e-3)

    def test_empty_window_is_zero(self):
        trace = step_trace(t0=0, t1=10, depth=50)
        assert trace.degradation_integral(3, 3) == 0.0

    def test_reversed_window_raises(self):
        trace = step_trace(t0=0, t1=10, depth=50)
        with pytest.raises(AnalysisError):
            trace.degradation_integral(5, 3)

    @pytest.mark.parametrize("t0,t1", [
        (math.nan, 5.0), (2.0, math.nan), (math.nan, math.nan),
        (None, math.nan), (math.nan, None),
    ])
    def test_nan_window_bound_raises(self, t0, t1):
        # a NaN bound names no window, so it is refused, not integrated
        trace = step_trace(t0=0, t1=10, depth=50)
        with pytest.raises(AnalysisError, match="NaN"):
            trace.degradation_integral(t0, t1)

    def test_mean_quality_of_flat_trace(self):
        trace = QualityTrace.from_samples([0, 10], [100, 100])
        assert trace.mean_quality() == pytest.approx(100.0)

    def test_mean_quality_of_constant_degraded(self):
        trace = QualityTrace.from_samples([0, 10], [60, 60])
        assert trace.mean_quality() == pytest.approx(60.0)


class TestConcat:
    def test_concat_appends(self):
        a = QualityTrace.from_samples([0, 1], [100, 90])
        b = QualityTrace.from_samples([2, 3], [80, 100])
        c = a.concat(b)
        assert c.t_end == 3
        assert c.min_quality == 80

    def test_concat_rejects_overlap(self):
        a = QualityTrace.from_samples([0, 2], [100, 90])
        b = QualityTrace.from_samples([1, 3], [80, 100])
        with pytest.raises(ConfigurationError):
            a.concat(b)


@given(
    depth=st.floats(min_value=0.0, max_value=100.0),
    duration=st.floats(min_value=0.1, max_value=1000.0),
)
def test_property_step_trace_loss_scales_with_area(depth, duration):
    """Loss of a rectangular outage equals depth × duration."""
    trace = step_trace(t0=5.0, t1=5.0 + duration, depth=depth)
    loss = trace.degradation_integral(5.0, 5.0 + duration)
    assert loss == pytest.approx(depth * duration, rel=1e-3, abs=1e-6)


@given(
    qualities=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=50
    )
)
def test_property_degradation_integral_nonnegative(qualities):
    """∫(100 − Q) is non-negative for any valid trace."""
    times = list(range(len(qualities)))
    trace = QualityTrace.from_samples(times, qualities)
    assert trace.degradation_integral() >= -1e-9


# values that exercise the union's tie rules: duplicates, both zeros
# and the infinities (trace times and window bounds are never NaN)
_TIES = st.sampled_from(
    [0.0, -0.0, 1.0, 1.0, 2.5, -3.0, math.inf, -math.inf, 1e-300]
)


@settings(max_examples=200, deadline=None)
@given(a=st.lists(_TIES | st.floats(-10, 10), max_size=12),
       b=st.lists(_TIES | st.floats(-10, 10), max_size=12))
def test_sorted_distinct_is_union1d(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    ours = _arrays.sorted_distinct(np.concatenate((a, b)))
    # bytes, so the sign of each zero must match too
    assert ours.tobytes() == np.union1d(a, b).tobytes()


def _same(x, y):
    return x == y or (math.isnan(x) and math.isnan(y))


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    times=st.lists(
        st.floats(-50, 50) | st.sampled_from([0.0, -0.0, math.inf,
                                              -math.inf]),
        min_size=2, max_size=10, unique=True,
    ),
)
def test_integrals_match_union1d(data, times):
    """degradation_integral and availability give np.union1d's values."""
    times = sorted(times)
    quality = data.draw(st.lists(st.floats(0, 100), min_size=len(times),
                                 max_size=len(times)))
    trace = QualityTrace.from_samples(times, quality)
    finite = [t for t in times if math.isfinite(t)] or [0.0]
    window = data.draw(st.lists(
        st.sampled_from(finite + [math.inf, -0.0]) | st.floats(-60, 60),
        min_size=2, max_size=2,
    ))
    t0, t1 = sorted(window)
    threshold = data.draw(st.floats(0, 100))

    def run():
        out = [trace.degradation_integral(), trace.availability(threshold, 7)]
        out.append(trace.degradation_integral(t0, t1) if t0 < t1 else None)
        return out

    with np.errstate(all="ignore"):  # infinite spans make NaN grids
        ours = run()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(quality_mod, "sorted_distinct", np.unique)
            theirs = run()
    assert all(
        (x is None and y is None) or _same(x, y)
        for x, y in zip(ours, theirs)
    ), (ours, theirs)
