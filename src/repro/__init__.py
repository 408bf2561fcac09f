"""repro — Adaptive Resource Management in Peer-to-Peer Middleware.

A from-scratch Python reproduction of Repantis, Drougas & Kalogeraki,
*Adaptive Resource Management in Peer-to-Peer Middleware* (IPPS 2005):
a decentralized resource-management architecture for soft real-time
media streaming/transcoding over a peer-to-peer overlay.

Quick start
-----------
>>> from repro.workloads import ScenarioConfig, build_scenario
>>> scenario = build_scenario(ScenarioConfig(seed=1))
>>> summary = scenario.run(duration=120.0)
>>> 0.0 <= summary.goodput <= 1.0
True

Package map
-----------
``repro.sim``         discrete-event simulation kernel
``repro.net``         overlay network substrate (latency, RPC, failures)
``repro.tasks``       application tasks and QoS requirement sets
``repro.media``       media formats, objects, transcoding cost model
``repro.graphs``      resource graph G_r / service graph G_s / search
``repro.scheduling``  local schedulers (LLS, EDF, FIFO, ...) + processor
``repro.monitoring``  the per-peer Profiler
``repro.summaries``   Bloom-filter domain summaries
``repro.gossip``      inter-domain gossip of summaries
``repro.overlay``     domains, join protocol, churn, RM failover
``repro.core``        the paper's contribution: RM, allocation, fairness
``repro.core.control`` the RM control plane: admission, placement,
                      task registry, repair
``repro.baselines``   comparison allocation policies
``repro.workloads``   populations, arrivals, one-call scenarios
``repro.results``     run summaries and time series
``repro.telemetry``   tracing + runtime metrics registry
``repro.experiments`` the reproduced evaluation (F1-F3, E1-E10)
"""

from repro.core.allocation import AllocationResult, Allocator
from repro.core.fairness import jain_fairness
from repro.core.manager import ResourceManager, RMConfig
from repro.core.peer import Peer, PeerConfig
from repro.sim.core import Environment
from repro.tasks.qos import QoSRequirements
from repro.tasks.task import ApplicationTask
from repro.workloads.scenario import (
    Scenario,
    ScenarioConfig,
    build_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "AllocationResult",
    "Allocator",
    "ApplicationTask",
    "Environment",
    "Peer",
    "PeerConfig",
    "QoSRequirements",
    "RMConfig",
    "ResourceManager",
    "Scenario",
    "ScenarioConfig",
    "build_scenario",
    "jain_fairness",
    "__version__",
]
