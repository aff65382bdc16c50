"""The repository benchmark: seeded workloads against ``repro serve`` and
the in-process kernel, with answer checks and a layer-by-layer trace.

Run one workload with ``python3 perfbench/run.py --workload <name>``;
see ``perfbench/README.md`` for the workloads and metrics.
"""
