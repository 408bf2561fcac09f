"""Placement policies and the RM's placement engine.

The Figure-3 allocation machinery (:class:`~repro.core.allocation.
Allocator`) searches the resource graph and prunes infeasible paths;
*which* feasible candidate wins is a policy choice.  The paper maximizes
post-assignment Jain fairness; the related-work baselines pick randomly,
greedily, or round-robin.  A placement policy is exactly that choice: a
:data:`~repro.core.allocation.Selector`, so alternatives are drop-in
comparable while the search, feasibility, and QoS machinery stay shared.

This module holds the one table of policies, ``name -> factory(rng) ->
Selector``.  :class:`~repro.core.manager.RMConfig.placement_policy`
names the policy an RM runs; ``repro-run --policy`` / ``repro-live
--policy`` set that field and offer :func:`policy_names` as choices.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro import telemetry
from repro.core.allocation import (
    AllocationResult,
    Allocator,
    LeastLoadedSelector,
    RandomSelector,
    RoundRobinSelector,
    Selector,
    select_first,
    select_max_fairness,
)
from repro.tasks.task import ApplicationTask

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.core.manager import ResourceManager

#: name -> factory(rng) -> Selector.  A factory runs once per RM, so
#: stateful rules (round-robin use counts) are per RM.
_POLICY_FACTORIES: Dict[
    str, Callable[[Optional["np.random.Generator"]], Selector]
] = {
    "paper": lambda rng: select_max_fairness,
    "first": lambda rng: select_first,
    "random": RandomSelector,
    "least_loaded": lambda rng: LeastLoadedSelector(),
    "round_robin": lambda rng: RoundRobinSelector(),
}


def register_policy(
    name: str,
    factory: Callable[[Optional["np.random.Generator"]], Selector],
) -> None:
    """Register a custom placement policy under *name*."""
    _POLICY_FACTORIES[name] = factory


def policy_names() -> List[str]:
    """All registered policy names, sorted."""
    return sorted(_POLICY_FACTORIES)


def make_selector(
    name: str, rng: Optional["np.random.Generator"] = None
) -> Selector:
    """Build the selector of the policy registered as *name*."""
    try:
        factory = _POLICY_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown placement policy {name!r}; known: {policy_names()}"
        ) from None
    return factory(rng)


class PlacementEngine:
    """Runs the allocation search under the RM's placement policy.

    The policy is ``rm.rm_config.placement_policy``.  An ``allocator``
    supplies only the search settings (estimator, ``visited_policy``,
    budgets); its selector is replaced by the policy's.  ``rng`` feeds
    randomized policies.
    """

    def __init__(
        self,
        rm: "ResourceManager",
        allocator: Optional[Allocator] = None,
        rng: Optional["np.random.Generator"] = None,
    ) -> None:
        self.rm = rm
        self.policy_name: str = rm.rm_config.placement_policy
        self.allocator: Allocator = dataclasses.replace(
            allocator or Allocator(),
            selector=make_selector(self.policy_name, rng),
        )

    def place(
        self,
        task: ApplicationTask,
        *,
        v_init,
        v_sol,
        source_peer: str,
        sink_peer: str,
        in_bytes: float,
        work_scale: float = 1.0,
        allocator: Optional[Allocator] = None,
        phase: str = "admit",
    ) -> AllocationResult:
        """Allocate *task* and record the placement decision.

        ``allocator`` overrides the engine's (admission passes the
        importance-strict variant).  Raises
        :class:`~repro.common.errors.NoFeasibleAllocation` as the
        underlying allocator does.
        """
        rm = self.rm
        result = (allocator or self.allocator).allocate(
            rm.info,
            rm.network,
            task,
            v_init=v_init,
            v_sol=v_sol,
            source_peer=source_peer,
            sink_peer=sink_peer,
            in_bytes=in_bytes,
            now=rm.env.now,
            work_scale=work_scale,
        )
        tel = telemetry.current()
        if tel.enabled:
            tel.tracer.event(
                "placement.decide",
                node=rm.node_id,
                trace_id=f"task:{task.task_id}",
                policy=self.policy_name,
                phase=phase,
                fairness=result.fairness,
                est_time=result.est_time,
                n_candidates=result.n_candidates,
            )
            tel.metrics.counter(
                "repro_rm_placement_decisions_total",
                policy=self.policy_name,
                phase=phase,
            ).inc()
        return result

    def strict_variant(self, utilization_cap_factor: float) -> Allocator:
        """The engine's allocator with a reduced capacity cap.

        Used by importance-aware admission: the top slice of every
        peer stays reserved for important work.
        """
        base = self.allocator
        strict_est = dataclasses.replace(
            base.estimator,
            max_utilization=base.estimator.max_utilization
            * utilization_cap_factor,
        )
        return dataclasses.replace(base, estimator=strict_est)

    def __repr__(self) -> str:
        return f"<PlacementEngine policy={self.policy_name}>"
