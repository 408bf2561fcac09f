"""Local scheduling: per-peer processors and scheduling policies.

The paper's Local Scheduler "determines the execution sequence of the
applications at the peer" using **Least Laxity Scheduling** (§2).  This
package provides the processor model (a preemptive work-conserving CPU
executing abstract work units on the simulator) and a family of
policies: LLS (the paper's), EDF, FIFO, SJF and an importance-weighted
value policy — the comparison set for experiment E3.
"""

from repro.scheduling.job import Job
from repro.scheduling.policies import (
    EDFPolicy,
    FIFOPolicy,
    ImportancePolicy,
    LLSPolicy,
    SJFPolicy,
    SchedulingPolicy,
    make_policy,
)
from repro.scheduling.processor import Processor

__all__ = [
    "EDFPolicy",
    "FIFOPolicy",
    "ImportancePolicy",
    "Job",
    "LLSPolicy",
    "Processor",
    "SJFPolicy",
    "SchedulingPolicy",
    "make_policy",
]
