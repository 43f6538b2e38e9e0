"""E16 — Early-warning signals before a tipping point (paper §3.4.1).

Claim (Scheffer et al., as relayed): "for any dynamical systems there
could be early-warning signals that indicate the system is near a
tipping point."  We regenerate the detection study: rolling variance and
lag-1 autocorrelation trends on pre-tip windows of saddle-node ramps vs
matched stationary controls, with warning rate / false-alarm rate.
"""

from __future__ import annotations

import numpy as np

from conftest import run_once, scaled

from repro.analysis.tables import render_table
from repro.anticipation.earlywarning import compute_indicators, warning_verdict
from repro.anticipation.tipping import SaddleNodeSystem

WINDOW = 800
TAU = 0.3
TRIALS = scaled(12, smoke=2)
LENGTH = scaled(20_000, smoke=8_000)
# ramps tipping earlier leave too short a pre-tip window
MIN_TIP = scaled(6000, smoke=3000)


def analyse(series):
    data = series.pre_tip(margin=100)
    data = data[-5000:]
    ind = compute_indicators(data, window=WINDOW)
    return ind


def run_experiment():
    system = SaddleNodeSystem(noise=0.06, dt=0.05)
    ramp_hits, ramp_var, ramp_ac = 0, [], []
    control_hits, control_var, control_ac = 0, [], []
    for trial in range(TRIALS):
        ramp = system.ramp_to_tipping(
            LENGTH, a_start=-0.5, a_end=0.45, seed=trial
        )
        if not ramp.tipped or (ramp.tip_index or 0) < MIN_TIP:
            continue
        ind = analyse(ramp)
        ramp_hits += warning_verdict(ind, tau_threshold=TAU)
        ramp_var.append(ind.variance_trend)
        ramp_ac.append(ind.autocorrelation_trend)

        control = system.stationary_control(LENGTH, a=-0.45,
                                            seed=1000 + trial)
        ind_c = analyse(control)
        control_hits += warning_verdict(ind_c, tau_threshold=TAU)
        control_var.append(ind_c.variance_trend)
        control_ac.append(ind_c.autocorrelation_trend)
    n = len(ramp_var)
    rows = [
        {
            "condition": "ramp-to-tipping",
            "n_series": n,
            "warning_rate": round(ramp_hits / n, 3),
            "mean_var_trend": round(float(np.mean(ramp_var)), 3),
            "mean_ac_trend": round(float(np.mean(ramp_ac)), 3),
        },
        {
            "condition": "stationary-control",
            "n_series": n,
            "warning_rate": round(control_hits / n, 3),
            "mean_var_trend": round(float(np.mean(control_var)), 3),
            "mean_ac_trend": round(float(np.mean(control_ac)), 3),
        },
    ]
    return rows


def test_e16_early_warning(benchmark):
    rows = run_once(benchmark, run_experiment)
    print("\nE16: early-warning detection before saddle-node tipping")
    print(render_table(rows))
    ramp, control = rows
    assert ramp["n_series"] >= 8
    # warnings fire before tipping far more often than on controls
    assert ramp["warning_rate"] > control["warning_rate"] + 0.3
    # the indicator trends themselves separate the conditions
    assert ramp["mean_var_trend"] > control["mean_var_trend"] + 0.2
    assert ramp["mean_ac_trend"] > control["mean_ac_trend"] + 0.2
