"""One workload process: set-up, timed window, crash image, checks.

Started by ``run.py`` (``python -m perfbench.child ...``) in a fresh
interpreter, so ``setup_s`` covers the library import itself.  With
``--role setup`` the process stops right after set-up (extra set-up
samples); with ``--role main`` it runs the whole workload.  The report
is written as JSON to ``--out``.
"""

import time

T0 = time.perf_counter()  # set-up starts before `import repro`

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import warnings  # noqa: E402

WORKLOADS = {
    "kernels": "perfbench.kernels",
    "forked_sweep": "perfbench.forked",
    "durable_service": "perfbench.durable",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "setup"), default="main")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-path", default=None)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt-output", action="store_true")
    opts = parser.parse_args(argv)
    # healed crash images warn about their torn and garbled lines by design
    warnings.simplefilter("ignore")
    module = importlib.import_module(WORKLOADS[opts.workload])
    report = module.run(opts, T0)
    report["probes"] = report.pop("speed").probes
    with open(opts.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
