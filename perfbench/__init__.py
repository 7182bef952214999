"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload qec_surface --seed 1 --seconds 30 --trace 0

``BENCHMARK.json`` at the root lists the workloads and metrics;
:mod:`perfbench.workloads` says why each workload exists and which
layer it should (and should not) move.
"""
