"""The Resource Manager's control plane (§3.4, §4.2).

The RM shell (:class:`~repro.core.manager.ResourceManager`) routes
protocol messages to four composable components:

* :class:`AdmissionController` — capacity/QoS admission, session
  launch, summary-guided redirection (§4.3, §4.5),
* :class:`PlacementEngine` — the Fig-3 search under the placement
  policy ``RMConfig.placement_policy`` names: a candidate-choice rule
  (paper fairness, or a baseline heuristic) looked up by
  :func:`make_selector`,
* :class:`TaskRegistry` — task lifecycle state, sessions, and the
  failover snapshots replicated to the backup RM (§4.1),
* :class:`RepairCoordinator` — liveness sensing, service-graph repair,
  and overload reassignment (§4.1, §4.5).

See ``docs/architecture.md`` for the layering and how to register a
custom placement policy.
"""

from repro.core.control.admission import AdmissionController
from repro.core.control.placement import (
    PlacementEngine,
    make_selector,
    policy_names,
    register_policy,
)
from repro.core.control.registry import TaskRegistry
from repro.core.control.repair import RepairCoordinator

__all__ = [
    "AdmissionController",
    "PlacementEngine",
    "RepairCoordinator",
    "TaskRegistry",
    "make_selector",
    "policy_names",
    "register_policy",
]
