#!/usr/bin/env python
"""Wall-time snapshot for the agent-heavy benchmarks.

Times each benchmark's ``run_experiment()`` directly (no pytest, no
assertion overhead) and writes JSON snapshots, so successive PRs leave
a perf trajectory to compare against::

    PYTHONPATH=../src python run_benchmarks.py \
        --json BENCH_agents.json --json-networks BENCH_networks.json

Engine-switchable benchmarks are timed once per engine — the
object-engine column is the "before" and the array/bit-engine column
the "after" of the vectorization work.  Agent benchmarks
(``make_engine``) switch via ``REPRO_AGENT_ENGINE``; network benchmarks
(``make_network_engine``) via ``REPRO_NETWORK_ENGINE``; CSP benchmarks
(``make_csp_engine``) via ``REPRO_CSP_ENGINE``, timed as object vs the
``bit`` kind, i.e. the packed tiled engine (``--json-csp`` writes that
family's snapshot).
Benchmarks with one implementation (vectorized in place, or with no
engine seam, like E16) record a single timing.

``--json-csp`` additionally emits a **scale axis** (snapshot schema 3):
the wall time of one exact n-recoverability check at n ∈ {14, 18, 22,
24} for the object kernels (which stop at n = 18) and the ``tiled``
engine, which covers the full axis (``--smoke`` shrinks the axis to
n ∈ {10, 12, 14}).  ``bit`` names the same engine, so it has no column
of its own there.

``--scale-networks`` promotes the network snapshot to schema 3 with its
own scale axis: one targeted-attack percolation curve plus one SIR run
on a streamed mean-degree-10 ER graph at n ∈ {10^4, 10^5, 10^6,
4·10^6} per capable engine (object stops at 10^4, array at 10^5, the
memory-mapped engine covers the full axis under a 512 MB supervisor
budget).  Each point runs in its own subprocess so the recorded peak
RSS is honest; ``--smoke`` shrinks the axis to n ∈ {300, 1000, 3000}.
See :mod:`scale_networks`.

A benchmark module may define ``setup()``; its return value is passed
to ``run_experiment(state)`` and its cost (fixture generation, which is
identical for every engine) is excluded from the timed region.

Every experiment runs under a :class:`repro.runtime.trace.Tracer`, so
the snapshot carries a per-experiment timing breakdown (simulator runs,
steps, time inside the step loops vs. harness overhead) next to the raw
wall times; ``--trace events.jsonl`` additionally streams structured
events.  ``--smoke`` switches the benchmarks to tiny grids (via
``REPRO_BENCH_SMOKE``) so the whole harness runs in seconds — the mode
the tier-2 test exercises.

``--chaos`` additionally runs the runtime-resilience drill
(:func:`repro.runtime.chaos.run_drill`): a supervised, checkpointed
sweep under injected worker crash / hang / simulated OOM / NaN faults
plus a mid-file checkpoint corruption, checked row-for-row against a
fault-free all-object-engine baseline.  The harness exits non-zero if
any acceptance criterion fails — the CI smoke job runs this mode.

``--service-load`` runs the R02 service drill
(:func:`repro.service.loadtest.run_load_test`): >= 2000 points across
concurrently submitted jobs (zero lost/duplicated, rows byte-identical
to the batch sweep), an identical resubmission served entirely from the
fingerprint cache, a cancellation, and a breaker trip mid-load that
sheds new work with backpressure while accepted jobs finish.  Exits
non-zero if any criterion fails — CI runs this mode too.

``--crash-drill`` runs the R03 crash-recovery drill
(:func:`repro.service.crashdrill.run_crash_drill`) **twice with the
same seed**: a durable service in a forked child is SIGKILLed mid-load,
its journal gets a torn record and its result store a garbled line, and
the drill's own process must recover every incomplete job from the
files alone with zero lost points, zero
duplicated executions, rows byte-identical to the uninterrupted batch
sweep — and byte-identical across the two drill runs.  Exits non-zero
if any criterion (or the cross-run comparison) fails.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
import time
from datetime import datetime, timezone

# benchmarks whose engine comes from make_engine / REPRO_AGENT_ENGINE
ENGINE_AWARE = {
    "e19_strategy_tradeoffs": "bench_e19_strategy_tradeoffs",
    "e23_granularity": "bench_e23_granularity",
}
# benchmarks whose engine comes from make_network_engine /
# REPRO_NETWORK_ENGINE
NETWORK_ENGINE_AWARE = {
    "e21_scalefree_attack": "bench_e21_scalefree_attack",
    "e22_epidemic_immunization": "bench_e22_epidemic_immunization",
    "a08_attack_family": "bench_a08_attack_family",
    "a10_network_recovery": "bench_a10_network_recovery",
}
# benchmarks whose engine comes from make_csp_engine / REPRO_CSP_ENGINE;
# A01/A02 use no CSP machinery and ride along as ~1x no-regression
# controls for the seam
CSP_ENGINE_AWARE = {
    "e02_spacecraft_recoverability": "bench_e02_spacecraft_recoverability",
    "e03_kmaintainability": "bench_e03_kmaintainability",
    "a01_seawall_design": "bench_a01_seawall_design",
    "a02_capacity_margin": "bench_a02_capacity_margin",
}
# benchmarks with a single implementation (E07/E25 vectorized in place,
# E16 never had an engine seam), timed once under the "vectorized" column
SINGLE_TIMING = {
    "e07_diversity_survival": "bench_e07_diversity_survival",
    "e16_early_warning": "bench_e16_early_warning",
    "e25_stickleback_readaptation": "bench_e25_stickleback_readaptation",
}
ALL = {
    **ENGINE_AWARE, **NETWORK_ENGINE_AWARE, **CSP_ENGINE_AWARE,
    **SINGLE_TIMING,
}
# which env var selects the engine for each engine-aware benchmark
ENGINE_VAR = {
    **{name: "REPRO_AGENT_ENGINE" for name in ENGINE_AWARE},
    **{name: "REPRO_NETWORK_ENGINE" for name in NETWORK_ENGINE_AWARE},
    **{name: "REPRO_CSP_ENGINE" for name in CSP_ENGINE_AWARE},
}
# engines timed when --engines is not given: the CSP family's columns
# are object vs bit, everything engine-aware else object vs array
DEFAULT_ENGINES = {
    **{name: "object,array" for name in ENGINE_AWARE},
    **{name: "object,array" for name in NETWORK_ENGINE_AWARE},
    **{name: "object,bit" for name in CSP_ENGINE_AWARE},
}
# snapshot families: --json gets the agent family, --json-networks the
# network family (so BENCH_agents.json keeps its historical shape), and
# --json-csp the CSP family
AGENT_FAMILY = {**ENGINE_AWARE, **SINGLE_TIMING}
NETWORK_FAMILY = NETWORK_ENGINE_AWARE
CSP_FAMILY = CSP_ENGINE_AWARE

# CSP scale axis (schema 3): wall time of one exact n-recoverability
# check vs n, per engine.  The object kernels enumerate 2^n assignments
# in Python, so their column stops at n = 18; the tiled engine streams
# the full axis (the ``bit`` kind names the same engine).
CSP_SCALE_NS = (14, 18, 22, 24)
CSP_SCALE_NS_SMOKE = (10, 12, 14)
CSP_SCALE_CAP = {"object": 18, "tiled": 64}


def _breakdown(tracer, wall_s: float) -> dict:
    """Per-experiment split: simulator work vs. everything else."""
    summary = tracer.summary()
    counters = summary["counters"]

    def count(prefix: str) -> int:
        return sum(v for k, v in counters.items() if k.startswith(prefix))

    sim_time = sum(
        stats["total_s"]
        for name, stats in summary["timers"].items()
        if name.startswith("sim.run.")
    )
    net_time = sum(
        stats["total_s"]
        for name, stats in summary["timers"].items()
        if name.startswith("net.")
    )
    csp_time = sum(
        stats["total_s"]
        for name, stats in summary["timers"].items()
        if name.startswith("csp.")
    )
    return {
        "wall_s": round(wall_s, 4),
        "sim_runs": count("sim.runs."),
        "sim_steps": count("sim.steps."),
        "sim_time_s": round(sim_time, 4),
        "net_curves": count("net.curves."),
        "net_cascades": count("net.cascades."),
        "net_epidemic_runs": count("net.epidemic.runs."),
        "net_healing_runs": count("net.healing.runs."),
        "net_time_s": round(net_time, 4),
        "csp_compiles": counters.get("csp.compiles", 0),
        "csp_fallbacks": counters.get("csp.fallbacks", 0),
        "csp_recover_checks": count("csp.recover.checks."),
        "csp_kmaintain_runs": count("csp.kmaintain.runs."),
        "csp_repair_runs": count("csp.repair.runs."),
        "csp_dcsp_runs": count("csp.dcsp.runs."),
        "csp_time_s": round(csp_time, 4),
        "sweep_points": counters.get("sweep.points.ok", 0),
        "harness_s": round(
            max(wall_s - sim_time - net_time - csp_time, 0.0), 4
        ),
    }


def time_experiment(
    module_name: str, repeat: int, trace_path: str | None
) -> tuple[float, dict]:
    """Best-of-``repeat`` wall time + the best run's trace breakdown."""
    from repro.runtime import trace
    from repro.runtime.trace import Tracer

    module = importlib.import_module(module_name)
    # fixture generation (identical for every engine) stays untimed
    setup = getattr(module, "setup", None)
    state = setup() if setup is not None else None
    best = float("inf")
    breakdown: dict = {}
    for _ in range(repeat):
        with Tracer(path=trace_path, keep_events=False) as tracer:
            with trace.use(tracer):
                tracer.event("bench.start", benchmark=module_name)
                start = time.perf_counter()
                if setup is not None:
                    module.run_experiment(state)
                else:
                    module.run_experiment()
                elapsed = time.perf_counter() - start
                tracer.event(
                    "bench.end",
                    benchmark=module_name,
                    elapsed_s=round(elapsed, 4),
                )
        if elapsed < best:
            best = elapsed
            breakdown = _breakdown(tracer, elapsed)
    return best, breakdown


def time_csp_scale(ns: tuple, repeat: int) -> dict:
    """Wall time of one n=·· recoverability check per engine (scale axis).

    Each point times ``Spacecraft(n).recoverability_report(3, 3)`` on a
    fresh spacecraft (so per-CSP compile caches never carry between
    repeats); construction itself stays untimed.  Engines skip the
    points beyond their practical cap (:data:`CSP_SCALE_CAP`).
    """
    from repro.spacecraft.system import Spacecraft

    axis: dict = {}
    for n in ns:
        axis[str(n)] = {}
        for engine in CSP_SCALE_CAP:
            if n > CSP_SCALE_CAP[engine]:
                continue
            best = float("inf")
            for _ in range(repeat):
                craft = Spacecraft(n)
                start = time.perf_counter()
                report = craft.recoverability_report(3, 3, engine=engine)
                elapsed = time.perf_counter() - start
                assert report.is_k_recoverable  # sanity, not timing
                best = min(best, elapsed)
            axis[str(n)][engine] = round(best, 4)
            print(f"csp scale n={n:<3d}{'':20s} {engine:10s} {best:8.3f} s")
    return axis


def run_chaos_drill(seed: int = 2013) -> int:
    """Run the self-healing acceptance drill; 0 iff every criterion holds."""
    import tempfile

    from repro.runtime.chaos import run_drill

    print("chaos drill: supervised 16-point sweep under injected faults")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as workdir:
        report = run_drill(seed=seed, workdir=workdir)
    elapsed = time.perf_counter() - start
    checks = {
        "every point completed ok": report["ok"] == report["n_points"],
        "circuit breaker tripped": report["trips"] >= 1,
        "engines degraded": report["degradations"] >= 1,
        "suspect points re-run": report["reruns"] >= 1,
        "NaN poisoning caught": report["poisoned"] >= 1,
        "corrupt checkpoint line quarantined": report["quarantined"] >= 1,
        "rows identical to all-object baseline": report["baseline_identical"],
    }
    for label, ok in checks.items():
        print(f"  {'ok  ' if ok else 'FAIL'} {label}")
    passed = all(checks.values())
    print(
        f"chaos drill {'passed' if passed else 'FAILED'} "
        f"in {elapsed:.1f} s (plan: "
        + ", ".join(f"{f['kind']}@{f['point']}" for f in report["plan"])
        + ")"
    )
    return 0 if passed else 1


def run_service_load(smoke: bool) -> int:
    """Run the R02 service load drill; 0 iff every criterion holds."""
    from repro.service.loadtest import run_load_test

    print(
        "service load drill: >= 2000 concurrent points across jobs "
        "(dedupe, cache, cancel, breaker-trip degradation)"
    )
    start = time.perf_counter()
    report = run_load_test(cancel_points=40 if smoke else 100, verbose=True)
    elapsed = time.perf_counter() - start
    print(
        f"service load drill {'passed' if report['passed'] else 'FAILED'} "
        f"in {elapsed:.1f} s ({report['unique_points']} unique points, "
        f"{report['submitted_jobs']} jobs, "
        f"{report['throughput_pts_s']:.0f} pts/s, "
        f"cache hits {report['counters'].get('service.cache.hits', 0)})"
    )
    return 0 if report["passed"] else 1


def run_crash_drill_twice(seed: int = 2013) -> int:
    """Run the R03 crash drill twice; 0 iff both pass, rows identical."""
    import tempfile

    from repro.service.crashdrill import run_crash_drill

    print(
        "crash drill: SIGKILL a forked durable service mid-load, corrupt "
        "the journal tail + result store, recover from the files alone"
    )
    start = time.perf_counter()
    reports = []
    for attempt in (1, 2):
        print(f"  drill run {attempt}/2:")
        with tempfile.TemporaryDirectory() as workdir:
            reports.append(
                run_crash_drill(seed=seed, workdir=workdir, verbose=True)
            )
    elapsed = time.perf_counter() - start
    identical = reports[0]["rows"] == reports[1]["rows"]
    print(
        f"  {'ok  ' if identical else 'FAIL'} "
        "same seed twice -> byte-identical recovered rows"
    )
    passed = all(r["passed"] for r in reports) and identical
    first = reports[0]
    print(
        f"crash drill {'passed' if passed else 'FAILED'} in "
        f"{elapsed:.1f} s (killed after "
        f"{first['points_done_at_kill']}/{first['unique_points']} points, "
        f"{len(first['incomplete_at_kill'])} job(s) recovered, "
        f"{first['expected_reexecutions']} point(s) re-executed)"
    )
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the agent-family snapshot to this "
                             "JSON file")
    parser.add_argument("--json-networks", metavar="PATH", default=None,
                        help="write the network-family snapshot to this "
                             "JSON file")
    parser.add_argument("--json-csp", metavar="PATH", default=None,
                        help="write the CSP-family snapshot to this "
                             "JSON file")
    parser.add_argument("--benchmarks", default=",".join(ALL),
                        help=f"comma-separated subset of: {','.join(ALL)}")
    parser.add_argument("--engines", default=None,
                        help="engines to time for engine-aware benchmarks "
                             "(default per family: object,bit for the CSP "
                             "benchmarks, object,array otherwise)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="repeats per timing; the minimum is recorded "
                             "(default 3, or 1 with --smoke)")
    parser.add_argument("--scale-networks", action="store_true",
                        help="also run the network scale axis (one "
                             "percolation curve + one SIR run per engine "
                             "and n, subprocess-isolated for honest peak "
                             "RSS); promotes --json-networks to schema 3")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids (REPRO_BENCH_SMOKE=1): exercise "
                             "the whole harness in seconds, not minutes")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="append structured JSONL trace events here")
    parser.add_argument("--chaos", action="store_true",
                        help="also run the runtime-resilience chaos drill "
                             "(exit non-zero if self-healing fails)")
    parser.add_argument("--service-load", action="store_true",
                        help="also run the R02 service load drill: >= 2000 "
                             "concurrent points, fingerprint-cache "
                             "resubmission, cancellation, and breaker-trip "
                             "degradation (exit non-zero on any failure)")
    parser.add_argument("--crash-drill", action="store_true",
                        help="also run the R03 crash-recovery drill twice "
                             "(SIGKILL mid-load + journal/store corruption "
                             "+ recovery; exit non-zero on any failure or "
                             "cross-run row divergence)")
    args = parser.parse_args(argv)
    repeat = args.repeat if args.repeat is not None else (
        1 if args.smoke else 3
    )
    if args.smoke:
        # must be set before the benchmark modules are imported — their
        # grid sizes are module-level constants scaled by this variable
        os.environ["REPRO_BENCH_SMOKE"] = "1"

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    names = [n.strip() for n in args.benchmarks.split(",") if n.strip()]
    unknown = [n for n in names if n not in ALL]
    if unknown:
        parser.error(f"unknown benchmarks: {unknown}; expected {sorted(ALL)}")

    def engines_for(name: str) -> list[str]:
        spec = args.engines or DEFAULT_ENGINES.get(name, "object,array")
        return [e.strip() for e in spec.split(",") if e.strip()]

    timings: dict[str, dict[str, float]] = {}
    breakdowns: dict[str, dict[str, dict]] = {}
    for name in names:
        module_name = ALL[name]
        timings[name] = {}
        breakdowns[name] = {}
        env_var = ENGINE_VAR.get(name)
        if env_var is not None:
            for engine in engines_for(name):
                os.environ[env_var] = engine
                seconds, breakdown = time_experiment(
                    module_name, repeat, args.trace
                )
                timings[name][engine] = round(seconds, 4)
                breakdowns[name][engine] = breakdown
                print(f"{name:32s} {engine:10s} {seconds:8.3f} s")
            os.environ.pop(env_var, None)
        else:
            seconds, breakdown = time_experiment(
                module_name, repeat, args.trace
            )
            timings[name] = {"vectorized": round(seconds, 4)}
            breakdowns[name]["vectorized"] = breakdown
            print(f"{name:32s} {'vectorized':10s} {seconds:8.3f} s")

    speedups = {
        name: round(t["object"] / t["array"], 2)
        for name, t in timings.items()
        if "object" in t and "array" in t and t["array"] > 0
    }
    bit_speedups = {
        name: round(t["object"] / t["bit"], 2)
        for name, t in timings.items()
        if "object" in t and "bit" in t and t["bit"] > 0
    }
    for name, s in speedups.items():
        print(f"{name:32s} array speedup {s:6.2f}x")
    for name, s in bit_speedups.items():
        print(f"{name:32s} bit speedup   {s:6.2f}x")

    from repro.analysis.tables import render_table

    summary_rows = [
        {"benchmark": name, "engine": engine, **stats}
        for name, per_engine in breakdowns.items()
        for engine, stats in per_engine.items()
    ]
    if summary_rows:
        print("\nper-experiment breakdown (best run):")
        print(render_table(summary_rows))

    # the CSP snapshot (schema 3) carries the scale axis: wall time of
    # one exact recoverability check vs n, per engine, plus the
    # object/tiled ratio wherever both engines cover the point
    scale_axis: dict = {}
    scale_speedups: dict = {}
    if args.json_csp:
        ns = CSP_SCALE_NS_SMOKE if args.smoke else CSP_SCALE_NS
        scale_axis = time_csp_scale(ns, repeat)
        scale_speedups = {
            n: round(t["object"] / t["tiled"], 2)
            for n, t in scale_axis.items()
            if "object" in t and "tiled" in t and t["tiled"] > 0
        }
        for n, s in scale_speedups.items():
            print(f"csp scale n={n:<3s}{'':20s} tiled speedup {s:6.2f}x")

    def snapshot_for(
        family: dict, speedup_key: str, by_name: dict,
        schema: int = 2, extra: dict | None = None,
    ) -> dict:
        keep = [n for n in timings if n in family]
        return {
            "schema": schema,
            "generated": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "python": platform.python_version(),
            "numpy": importlib.import_module("numpy").__version__,
            "repeat": repeat,
            "smoke": bool(args.smoke),
            "timings_s": {n: timings[n] for n in keep},
            "breakdowns": {n: breakdowns[n] for n in keep},
            speedup_key: {
                n: s for n, s in by_name.items() if n in family
            },
            **(extra or {}),
        }

    # the network snapshot gains its own scale axis (schema 3) when
    # --scale-networks is on: per-(n, engine) build/percolation/SIR
    # times and peak RSS, subprocess-isolated (see scale_networks.py)
    networks_schema = 2
    networks_extra: dict | None = None
    if args.scale_networks:
        import scale_networks

        net_axis = scale_networks.time_network_scale(smoke=args.smoke)
        networks_schema = 3
        networks_extra = {
            "scale_ns": net_axis,
            "scale_budget_mb": scale_networks.SCALE_BUDGET_MB,
            "scale_mean_degree": scale_networks.MEAN_DEGREE,
        }

    csp_extra = {
        "scale_ns": scale_axis,
        "scale_tiled_speedup": scale_speedups,
    }
    for path, family, speedup_key, by_name, schema, extra in (
        (args.json, AGENT_FAMILY, "array_speedup", speedups, 2, None),
        (args.json_networks, NETWORK_FAMILY, "array_speedup",
         speedups, networks_schema, networks_extra),
        (args.json_csp, CSP_FAMILY, "bit_speedup", bit_speedups,
         3, csp_extra),
    ):
        if path:
            with open(path, "w") as fh:
                json.dump(
                    snapshot_for(family, speedup_key, by_name,
                                 schema=schema, extra=extra),
                    fh, indent=2, sort_keys=True,
                )
                fh.write("\n")
            print(f"wrote {path}")
    if args.chaos:
        rc = run_chaos_drill()
        if rc:
            return rc
    if args.service_load:
        rc = run_service_load(args.smoke)
        if rc:
            return rc
    if args.crash_drill:
        return run_crash_drill_twice()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
