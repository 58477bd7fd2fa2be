"""Benchmark for slumix: workloads, output checks and a traced per-layer run.

Entry point: ``python3 perfbench/run.py`` from the repository root (see
``perfbench/README.md``).
"""
