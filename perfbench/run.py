"""Benchmark of the repro library: three workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with span wrappers around each
layer's public entry points and prints every per-layer metric (layers
a workload bypasses read 0).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is non-zero when any output check fails, when a workload
process fails, or when the library sources are missing.

Each run starts fresh workload processes (``perfbench/child.py``): the
main one does set-up, the timed window, the crash-image recovery and
the output checks; in the untraced run, :data:`SETUP_SAMPLES` - 1 more
processes only set up, and ``setup_s`` is the median over all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 4
SMOKE_SETUP_SAMPLES = 2
CHILD_TIMEOUT_S = 150


def _child_env(run_dir: str) -> dict:
    """Inherited environment minus every library knob, plus our paths."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["PYTHONPATH"] = os.pathsep.join((os.path.join(ROOT, "src"), ROOT))
    env["TMPDIR"] = tmp
    env["REPRO_MMAP_DIR"] = tmp
    return env


def _run_child(opts, role: str, run_dir: str, index: int) -> dict:
    out = os.path.join(run_dir, f"{role}-{index}.json")
    workdir = os.path.join(run_dir, f"{role}-{index}")
    os.makedirs(workdir, exist_ok=True)
    args = [
        sys.executable, "-m", "perfbench.child",
        "--workload", opts.workload,
        "--seed", str(opts.seed),
        "--seconds", str(opts.seconds),
        "--trace", str(opts.trace),
        "--role", role,
        "--workdir", workdir,
        "--out", out,
        "--trace-path", opts.trace_path,
    ]
    if opts.smoke:
        args.append("--smoke")
    if opts.corrupt_output:
        args.append("--corrupt-output")
    proc = subprocess.Popen(
        args, cwd=ROOT, env=_child_env(run_dir), stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = proc.wait(CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(
            f"{role} process timed out after {CHILD_TIMEOUT_S}s"
        ) from None
    if code != 0 or not os.path.exists(out):
        raise RuntimeError(f"{role} process exited with code {code}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _p90(values: list) -> float:
    return statistics.quantiles(values, n=10)[8]


def _end_to_end(main: dict, setups: list) -> dict:
    attempted = main["attempted"]
    return {
        "setup_s": statistics.median(setups),
        "pts_per_s": statistics.median(main["rates"]),
        "peak_rss_mb": main["rss_mb"],
        "ok_frac": (attempted - main["failed"]) / attempted,
        "job_p50_ms": statistics.median(main["latencies_ms"]),
        "job_p90_ms": _p90(main["latencies_ms"]),
        "recover_s": statistics.median(main["recover_s"]),
    }


def _print_table(opts, values: dict, units: dict, main: dict, setups):
    lines = [f"perfbench {opts.workload} seed={opts.seed} "
             f"seconds={opts.seconds} trace={opts.trace}"]
    for name, value in values.items():
        lines.append(f"  {name:<36} {value:>14.6g} {units[name]}")
    latencies = main["latencies_ms"]
    beyond = sum(1 for v in latencies if v > _p90(latencies))
    lines.append(
        f"  samples: setup={len(setups)} rates={len(main['rates'])} "
        f"latency={len(latencies)} (beyond p90: {beyond}) "
        f"recover={len(main['recover_s'])} "
        f"points re-run per recovery={main.get('recover_points')}"
    )
    probes = main["probes"]
    lines.append(
        f"  host probe: {len(probes)} probes, median "
        f"{statistics.median(probes) * 1e3:.2f} ms (range "
        f"{min(probes) * 1e3:.2f}..{max(probes) * 1e3:.2f}); main set-up "
        f"{main['setup_raw_s']:.3f} s before scaling"
    )
    for key, note in sorted(main["notes"].items()):
        lines.append(f"  {key}: {note}")
    passed = sum(main["checks"].values())
    lines.append(f"  output checks: {passed}/{len(main['checks'])} passed")
    for label, ok in main["checks"].items():
        if not ok:
            lines.append(f"    FAILED: {label}")
    print("\n".join(lines))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("kernels", "forked_sweep",
                                 "durable_service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--corrupt-output", action="store_true",
                        help="corrupt one output; the checks must fail")
    opts = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from a repro checkout",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if opts.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    opts.trace_path = os.path.join(
        WORK, "traces", f"{opts.workload}-seed{opts.seed}.jsonl")
    run_dir = os.path.join(
        WORK, f"{opts.workload}-seed{opts.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        setups = []
        if not opts.trace:
            samples = SMOKE_SETUP_SAMPLES if opts.smoke else SETUP_SAMPLES
            for index in range(samples - 1):
                setups.append(
                    _run_child(opts, "setup", run_dir, index)["setup_s"])
        main_report = _run_child(opts, "main", run_dir, 0)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setups.append(main_report["setup_s"])

    if opts.trace:
        values = {name: float(main_report["layers"].get(name, 0.0))
                  for name in units}
    else:
        measured = _end_to_end(main_report, setups)
        values = {name: measured[name] for name in units}
    _print_table(opts, values, units, main_report, setups)
    correct = bool(main_report["checks"]) and all(
        main_report["checks"].values())
    print(json.dumps({
        "correct": correct,
        "attempted": int(main_report["attempted"]),
        "failed": int(main_report["failed"]),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
