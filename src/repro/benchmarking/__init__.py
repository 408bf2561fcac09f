"""The ``repro-bench`` performance harness.

:mod:`repro.benchmarking.harness`
    measurement machinery (warmup/repeat, phase timers, JSON report
    schema).
:mod:`repro.benchmarking.scenarios`
    the pinned macro scenarios and micro benchmarks.
:mod:`repro.benchmarking.cli`
    the ``repro-bench`` entry point.
"""

from repro.benchmarking.harness import (
    SCHEMA_VERSION,
    BenchRecord,
    PhaseTimer,
    report_document,
    run_benchmark,
    write_report,
)
from repro.benchmarking.scenarios import BENCHES, BenchSpec, select

__all__ = [
    "SCHEMA_VERSION",
    "BenchRecord",
    "PhaseTimer",
    "report_document",
    "run_benchmark",
    "write_report",
    "BENCHES",
    "BenchSpec",
    "select",
]
