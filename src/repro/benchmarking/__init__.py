"""The ``repro-bench`` layer bench.

:mod:`repro.benchmarking.harness`
    measurement machinery (warmup/repeat, JSON report schema).
:mod:`repro.benchmarking.scenarios`
    the micro benchmarks.
:mod:`repro.benchmarking.cli`
    the ``repro-bench`` entry point.
"""

from repro.benchmarking.harness import (
    SCHEMA_VERSION,
    BenchRecord,
    report_document,
    run_benchmark,
    write_report,
)
from repro.benchmarking.scenarios import BENCHES, BenchSpec, select

__all__ = [
    "SCHEMA_VERSION",
    "BenchRecord",
    "report_document",
    "run_benchmark",
    "write_report",
    "BENCHES",
    "BenchSpec",
    "select",
]
