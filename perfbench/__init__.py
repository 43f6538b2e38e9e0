"""End-to-end and per-layer benchmark of the repro library.

Run from the repository root::

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 15 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and layers.
"""
