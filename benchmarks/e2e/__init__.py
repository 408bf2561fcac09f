"""End-to-end benchmark of the simulator and the live UDP runtime.

Run from the repository root::

    python3 -m benchmarks.e2e --workload sim_dense --seed 7

See ``README.md`` in this directory for the workloads, the metrics and
how the numbers are made steady.  Nothing here is imported by ``repro``;
the adapters only call the public names the README lists.
"""
