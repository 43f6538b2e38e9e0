"""Tier-2 coverage for the benchmark harness itself.

``run_benchmarks.py --smoke`` runs every benchmark on tiny grids (via
``REPRO_BENCH_SMOKE``), so the harness — engine switching, tracing,
breakdowns, snapshot writing — is exercised end-to-end in seconds.
Run with ``PYTHONPATH=../src python -m pytest test_smoke_harness.py``
(or ``pytest benchmarks`` from the repo root).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath(os.path.join(HERE, "..", "src"))


def test_smoke_mode_covers_the_harness(tmp_path):
    snapshot_path = tmp_path / "snapshot.json"
    networks_path = tmp_path / "networks.json"
    csp_path = tmp_path / "csp.json"
    trace_path = tmp_path / "events.jsonl"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_BENCH_SMOKE", None)
    env.pop("REPRO_AGENT_ENGINE", None)
    env.pop("REPRO_NETWORK_ENGINE", None)
    env.pop("REPRO_CSP_ENGINE", None)

    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run_benchmarks.py"),
            "--smoke",
            "--scale-networks",
            "--json", str(snapshot_path),
            "--json-networks", str(networks_path),
            "--json-csp", str(csp_path),
            "--trace", str(trace_path),
        ],
        cwd=HERE,
        env=env,
        capture_output=True,
        text=True,
        timeout=180,  # smoke grids + one subprocess per scale point
    )
    assert proc.returncode == 0, proc.stderr

    snapshot = json.loads(snapshot_path.read_text())
    assert snapshot["schema"] == 2
    assert snapshot["smoke"] is True
    assert snapshot["repeat"] == 1
    expected = {
        "e19_strategy_tradeoffs",
        "e23_granularity",
        "e07_diversity_survival",
        "e16_early_warning",
        "e25_stickleback_readaptation",
    }
    assert set(snapshot["timings_s"]) == expected
    # single-implementation benchmarks carry one timing column
    for name in ("e07_diversity_survival", "e16_early_warning",
                 "e25_stickleback_readaptation"):
        assert set(snapshot["timings_s"][name]) == {"vectorized"}
        assert snapshot["timings_s"][name]["vectorized"] > 0
    # engine-aware benchmarks carry both engine columns and a breakdown
    for name in ("e19_strategy_tradeoffs", "e23_granularity"):
        assert set(snapshot["timings_s"][name]) == {"object", "array"}
        for engine in ("object", "array"):
            breakdown = snapshot["breakdowns"][name][engine]
            assert breakdown["sim_runs"] > 0
            assert breakdown["sim_steps"] > 0
            assert breakdown["wall_s"] >= breakdown["sim_time_s"] >= 0
    assert snapshot["array_speedup"].keys() == {
        "e19_strategy_tradeoffs", "e23_granularity"
    }

    # the network-family snapshot covers the four network benchmarks,
    # each timed per engine with a net_* breakdown
    networks = json.loads(networks_path.read_text())
    assert networks["schema"] == 3
    net_expected = {
        "e21_scalefree_attack",
        "e22_epidemic_immunization",
        "a08_attack_family",
        "a10_network_recovery",
    }
    assert set(networks["timings_s"]) == net_expected
    assert networks["array_speedup"].keys() == net_expected
    for name in net_expected:
        assert set(networks["timings_s"][name]) == {"object", "array"}
        for engine in ("object", "array"):
            breakdown = networks["breakdowns"][name][engine]
            assert breakdown["net_time_s"] > 0
            assert breakdown["wall_s"] >= breakdown["net_time_s"]
    for engine in ("object", "array"):
        e21 = networks["breakdowns"]["e21_scalefree_attack"][engine]
        assert e21["net_curves"] == 4
        e22 = networks["breakdowns"]["e22_epidemic_immunization"][engine]
        assert e22["net_epidemic_runs"] > 0
        a10 = networks["breakdowns"]["a10_network_recovery"][engine]
        assert a10["net_healing_runs"] == 6

    # schema 3: the network scale axis (smoke ns) — per-engine caps
    # mean the top point carries only the out-of-core mmap column
    assert set(networks["scale_ns"]) == {"300", "1000", "3000"}
    assert set(networks["scale_ns"]["300"]) == {"object", "array", "mmap"}
    assert set(networks["scale_ns"]["1000"]) == {"array", "mmap"}
    assert set(networks["scale_ns"]["3000"]) == {"mmap"}
    for point in networks["scale_ns"].values():
        for stats in point.values():
            assert stats["build_s"] >= 0
            assert stats["percolation_s"] >= 0
            assert stats["sir_s"] >= 0
            assert stats["max_rss_mb"] > 0
            assert stats["giant_fraction_0"] > 0.9
            assert 0.0 < stats["critical_fraction"] <= 1.0
    # the array and mmap kernels are byte-identical, so their curve
    # landmarks agree wherever both engines cover a point
    for n in ("300", "1000"):
        point = networks["scale_ns"][n]
        assert (point["array"]["critical_fraction"]
                == point["mmap"]["critical_fraction"])
        assert (point["array"]["sir_ever_fraction"]
                == point["mmap"]["sir_ever_fraction"])
    assert networks["scale_budget_mb"] == 512
    assert networks["scale_mean_degree"] == 10.0

    # the CSP-family snapshot times object vs the bit kind (the tiled
    # engine); E02/E03 exercise the CSP kernels (checks/runs counted
    # identically under both engines, compiles only under bit), A01/A02
    # are the no-CSP controls
    csp = json.loads(csp_path.read_text())
    assert csp["schema"] == 3
    csp_expected = {
        "e02_spacecraft_recoverability",
        "e03_kmaintainability",
        "a01_seawall_design",
        "a02_capacity_margin",
    }
    assert set(csp["timings_s"]) == csp_expected
    assert csp["bit_speedup"].keys() == csp_expected
    for name in csp_expected:
        assert set(csp["timings_s"][name]) == {"object", "bit"}
    for engine in ("object", "bit"):
        e02 = csp["breakdowns"]["e02_spacecraft_recoverability"][engine]
        assert e02["csp_recover_checks"] > 0
        assert e02["csp_time_s"] > 0
        assert e02["csp_compiles"] == (8 if engine == "bit" else 0)
        e03 = csp["breakdowns"]["e03_kmaintainability"][engine]
        assert e03["csp_kmaintain_runs"] == 2
        a01 = csp["breakdowns"]["a01_seawall_design"][engine]
        assert a01["csp_time_s"] == 0
        assert a01["csp_compiles"] == 0

    # schema 3: the scale axis (smoke ns) times one recoverability
    # check per engine — object and tiled both cover the smoke points
    # (bit names the tiled engine, so it has no column of its own)
    assert set(csp["scale_ns"]) == {"10", "12", "14"}
    for point in csp["scale_ns"].values():
        assert set(point) == {"object", "tiled"}
        for seconds in point.values():
            assert seconds >= 0
    assert set(csp["scale_tiled_speedup"]) == {"10", "12", "14"}

    # the trace stream is valid JSONL with bench start/end events
    events = [
        json.loads(line) for line in trace_path.read_text().splitlines()
    ]
    kinds = {e["event"] for e in events}
    assert "bench.start" in kinds and "bench.end" in kinds
    assert any(e["event"] == "sweep.start" for e in events)

    # the printed report includes the per-experiment breakdown table
    assert "per-experiment breakdown" in proc.stdout


def test_chaos_mode_runs_the_resilience_drill():
    """``--chaos --benchmarks ""`` runs only the self-healing drill."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for var in (
        "REPRO_AGENT_ENGINE",
        "REPRO_NETWORK_ENGINE",
        "REPRO_CSP_ENGINE",
    ):
        env.pop(var, None)

    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run_benchmarks.py"),
            "--smoke",
            "--chaos",
            "--benchmarks", "",
        ],
        cwd=HERE,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "chaos drill passed" in proc.stdout
    assert "circuit breaker tripped" in proc.stdout
    assert "FAIL" not in proc.stdout
