"""Placement policy interface and the RM's placement engine.

The Figure-3 allocation machinery (:class:`~repro.core.allocation.
Allocator`) searches the resource graph and prunes infeasible paths;
*which* feasible candidate wins is a policy choice.  The paper maximizes
post-assignment Jain fairness; the related-work baselines pick randomly,
greedily, or round-robin.  A :class:`PlacementPolicy` captures exactly
that choice, so alternatives are drop-in comparable while the search,
feasibility, and QoS machinery stay shared.

Policies are registered by name (``register_policy``) and built with
:func:`make_placement_policy`; ``repro-run --policy`` / ``repro-live
--policy`` and :class:`~repro.core.manager.RMConfig.placement_policy`
resolve through the same registry.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro import telemetry
from repro.baselines.selectors import (
    SELECTOR_FACTORIES,
    LeastLoadedSelector,
    RandomSelector,
    RoundRobinSelector,
    select_first,
)
from repro.core.allocation import (
    AllocationResult,
    Allocator,
    Candidate,
    Selector,
    select_max_fairness,
)
from repro.tasks.task import ApplicationTask

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.core.manager import ResourceManager


class PlacementPolicy(ABC):
    """Chooses the winning candidate among feasible allocations.

    Subclass and :func:`register_policy` to experiment with custom
    placement heuristics; every candidate carries its path, projected
    fairness, estimated completion time, per-peer load deltas, and the
    max post-assignment utilization (see
    :class:`~repro.core.allocation.Candidate`).
    """

    #: Registry name (set per subclass/instance).
    name: str = "custom"

    @abstractmethod
    def select(self, candidates: List[Candidate]) -> Candidate:
        """Pick one of the (non-empty) feasible candidates."""


class CallablePolicy(PlacementPolicy):
    """Adapt a bare :data:`~repro.core.allocation.Selector` callable."""

    def __init__(self, fn: Selector, name: Optional[str] = None) -> None:
        self._fn = fn
        self.name = name if name is not None else _derive_name(fn)

    def select(self, candidates: List[Candidate]) -> Candidate:
        return self._fn(candidates)


class PaperPolicy(PlacementPolicy):
    """The paper's rule: maximize post-assignment fairness (Fig. 3)."""

    name = "paper"

    def select(self, candidates: List[Candidate]) -> Candidate:
        return select_max_fairness(candidates)


def _derive_name(fn: Selector) -> str:
    """A readable policy name for a bare selector callable."""
    if fn is select_max_fairness:
        return "paper"
    if fn is select_first:
        return "first"
    for cls, name in (
        (RandomSelector, "random"),
        (LeastLoadedSelector, "least_loaded"),
        (RoundRobinSelector, "round_robin"),
    ):
        if isinstance(fn, cls):
            return name
    return getattr(fn, "__name__", type(fn).__name__).lower()


#: name -> factory(rng) -> PlacementPolicy
_POLICY_FACTORIES: Dict[
    str, Callable[[Optional["np.random.Generator"]], PlacementPolicy]
] = {}


def register_policy(
    name: str,
    factory: Callable[[Optional["np.random.Generator"]], PlacementPolicy],
) -> None:
    """Register a custom placement policy under *name*."""
    _POLICY_FACTORIES[name] = factory


def policy_names() -> List[str]:
    """All registered policy names, sorted."""
    return sorted(_POLICY_FACTORIES)


def make_placement_policy(
    name: str, rng: Optional["np.random.Generator"] = None
) -> PlacementPolicy:
    """Build a registered policy by name."""
    try:
        factory = _POLICY_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown placement policy {name!r}; known: {policy_names()}"
        ) from None
    return factory(rng)


def _register_builtins() -> None:
    register_policy("paper", lambda rng: PaperPolicy())
    # Every other table name adapts its bare selector; the policy's own
    # name is derived from it ("fairness" runs as "paper").
    for name in SELECTOR_FACTORIES:
        if name != "paper":
            register_policy(
                name,
                lambda rng, name=name: CallablePolicy(
                    SELECTOR_FACTORIES[name](rng)
                ),
            )


_register_builtins()


class PlacementEngine:
    """Runs the allocation search under one placement policy.

    Resolution order for the effective policy:

    1. an explicit ``policy`` (instance or registry name),
    2. the selector already configured on an explicitly supplied
       ``allocator`` (so callers who pre-built an allocator — the
       simulator's per-RM factories, tests — keep byte-identical
       behavior),
    3. ``default_policy`` (the RM's ``RMConfig.placement_policy``).
    """

    def __init__(
        self,
        rm: "ResourceManager",
        allocator: Optional[Allocator] = None,
        policy: Optional[PlacementPolicy | str] = None,
        default_policy: str = "paper",
        rng: Optional["np.random.Generator"] = None,
    ) -> None:
        self.rm = rm
        base = allocator if allocator is not None else Allocator()
        if policy is None:
            if allocator is not None:
                policy = CallablePolicy(base.selector)
            else:
                policy = make_placement_policy(default_policy, rng)
        elif isinstance(policy, str):
            policy = make_placement_policy(policy, rng)
        self.policy: PlacementPolicy = policy
        #: The shared search machinery, wired to the policy's choice rule.
        self.allocator: Allocator = dataclasses.replace(
            base, selector=policy.select
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
                policy=self.policy.name,
                phase=phase,
                fairness=result.fairness,
                est_time=result.est_time,
                n_candidates=result.n_candidates,
            )
            tel.metrics.counter(
                "repro_rm_placement_decisions_total",
                policy=self.policy.name,
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
        return f"<PlacementEngine policy={self.policy.name}>"
