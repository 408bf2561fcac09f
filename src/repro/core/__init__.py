"""The paper's primary contribution: decentralized resource management.

* :mod:`repro.core.fairness` — the Jain Fairness Index (eq. 1) and
  incremental what-if evaluation used by the allocator.
* :mod:`repro.core.estimate` — completion-time estimation from the RM's
  (possibly stale) load view.
* :mod:`repro.core.allocation` — the Figure-3 task allocation algorithm.
* :mod:`repro.core.info_base` — the Resource Manager's information base
  (§3.1): peer loads, objects, services, resource graph, summaries.
* :mod:`repro.core.peer` — a processing peer: Profiler + Local Scheduler
  + service hosting (§2, §3.2).
* :mod:`repro.core.manager` — the domain Resource Manager: admission,
  allocation, session launch, feedback collection, adaptation (§4).
* :mod:`repro.core.session` — distributed execution of a service graph.
"""

from repro.core.allocation import AllocationResult, Allocator
from repro.core.estimate import CompletionTimeEstimator
from repro.core.fairness import (
    LoadVector,
    jain_fairness,
    optimal_single_load,
)
from repro.core.info_base import DomainInfoBase, PeerRecord
from repro.core.manager import ResourceManager, RMConfig
from repro.core.peer import Peer, PeerConfig

__all__ = [
    "AllocationResult",
    "Allocator",
    "CompletionTimeEstimator",
    "DomainInfoBase",
    "LoadVector",
    "Peer",
    "PeerConfig",
    "PeerRecord",
    "RMConfig",
    "ResourceManager",
    "jain_fairness",
    "optimal_single_load",
]
