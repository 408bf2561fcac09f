"""Poisson task arrivals with Zipf object popularity."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional

import numpy as np

from repro.core.peer import Peer
from repro.media.objects import MediaObject
from repro.net.node import RPCError
from repro.overlay.network import OverlayNetwork
from repro.sim.events import Event, Interrupt
from repro.sim.rng import fallback_rng
from repro.workloads.catalog import MediaCatalog

#: Max conversion hops considered when picking a goal format.
MAX_GOAL_HOPS = 3


@dataclass
class WorkloadConfig:
    """Task arrival knobs."""

    #: Mean arrival rate, tasks per second (Poisson).
    rate: float = 0.5
    #: Deadline = slack x nominal single-conversion estimate.
    deadline_slack: float = 4.0
    #: Zipf skew for object popularity (1.0 = classic).
    zipf_s: float = 1.0
    #: Importance drawn uniformly from this integer range (inclusive).
    importance_range: tuple = (1, 5)
    #: Stop submitting after this simulated time (None = forever).
    stop_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.deadline_slack <= 0:
            raise ValueError("deadline_slack must be positive")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be non-negative")


class TaskArrivalProcess:
    """Generates user queries at random peers (Fig. 2(A))."""

    def __init__(
        self,
        overlay: OverlayNetwork,
        catalog: MediaCatalog,
        objects: List[MediaObject],
        config: Optional[WorkloadConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not objects:
            raise ValueError("need at least one media object")
        self.overlay = overlay
        self.catalog = catalog
        self.objects = list(objects)
        self.config = config or WorkloadConfig()
        self._mean_gap = 1.0 / self.config.rate
        # Fallback: the ambient scenario seed when installed (see
        # repro.sim.rng), else OS entropy; build_scenario plumbs an
        # explicit seed-derived rng.
        self.rng = rng if rng is not None else fallback_rng("arrivals")
        self._zipf_probs = self._make_zipf(len(self.objects))
        self._goals_cache: dict = {}
        # nominal_deadline's population aggregates, keyed on the
        # overlay's specs_version (recomputed only when the population
        # actually changed — it runs once per arrival otherwise).
        self._nominal_const: Optional[tuple] = None
        # _pick_origin's live-peer roster, keyed on (specs_version,
        # membership size, Peer._death_epoch) — see _pick_origin.
        self._live_key: Optional[tuple] = None
        self._live_peers: List[Any] = []
        self.n_generated = 0
        self.n_submit_failures = 0
        #: Optional hook called with a TraceEntry per generated request
        #: (see :class:`repro.workloads.trace.TraceRecorder`).
        self.on_generate = None
        self._proc = overlay.env.process(self._loop(), name="workload")

    def _make_zipf(self, n: int) -> np.ndarray:
        ranks = np.arange(1, n + 1, dtype=float)
        weights = ranks ** (-self.config.zipf_s)
        return weights / weights.sum()

    # -- choices -----------------------------------------------------------
    def _pick_object(self) -> MediaObject:
        idx = int(self.rng.choice(len(self.objects), p=self._zipf_probs))
        return self.objects[idx]

    def _pick_goal(self, obj: MediaObject) -> Optional[Any]:
        goals = self._goals_cache.get(obj.fmt)
        if goals is None:
            goals = self.catalog.reachable_from(
                obj.fmt, max_hops=MAX_GOAL_HOPS
            )
            self._goals_cache[obj.fmt] = goals
        if not goals:
            return None
        return goals[int(self.rng.integers(len(goals)))]

    def _pick_origin(self) -> Optional[Any]:
        # Scanning every peer per arrival dominates at 1000+ peers, so
        # the live roster is cached.  The key is exhaustive: ``alive``
        # flips False only inside Peer.fail (which bumps _death_epoch),
        # peers appear only via overlay adds (specs_version bump), and
        # membership/order changes move specs_version or the size — so
        # an unchanged key means the fresh listcomp would yield exactly
        # this list, preserving RNG draw parity.
        overlay = self.overlay
        key = (
            overlay.specs_version, len(overlay.peers), Peer._death_epoch,
        )
        if key != self._live_key:
            self._live_peers = [
                p for p in overlay.peers.values() if p.alive
            ]
            self._live_key = key
        live = self._live_peers
        if not live:
            return None
        return live[int(self.rng.integers(len(live)))]

    def nominal_deadline(self, obj: MediaObject) -> float:
        """Slack-scaled rough completion estimate for one conversion.

        nominal = source transfer + 2 conversions at the mean power +
        result transfer, all at tier-median bandwidth.
        """
        const = self._nominal_const
        if const is None or const[0] != self.overlay.specs_version:
            bw = float(np.median(self.overlay.network.bandwidth))
            mean_power = np.mean(
                [s.power for s in self.overlay.specs.values()]
            ) if self.overlay.specs else 10.0
            mean_work = np.mean(
                [
                    self.catalog.work_of(a, b)
                    for a, b in self.catalog.conversions()[:16]
                ]
            )
            const = self._nominal_const = (
                self.overlay.specs_version, bw, mean_power, mean_work
            )
        _, bw, mean_power, mean_work = const
        scale = obj.duration_s / self.catalog.canonical_duration
        nominal = (
            obj.size_bytes / bw
            + 2.0 * mean_work * scale / mean_power
            + obj.size_bytes / (2.0 * bw)
        )
        return float(self.config.deadline_slack * nominal)

    # -- the arrival loop ----------------------------------------------------
    def _next_gap(self, now: float) -> float:
        """Seconds until the next arrival, drawn at sim time *now*.

        The hook shaped workloads override; the base process is a
        homogeneous Poisson stream (one exponential draw per arrival,
        the exact draw sequence the trajectory goldens pin).
        """
        return float(self.rng.exponential(self._mean_gap))

    def _loop(self) -> Generator[Event, Any, None]:
        env = self.overlay.env
        cfg = self.config
        self._mean_gap = 1.0 / cfg.rate
        next_gap = self._next_gap
        timeout = env.timeout
        try:
            while True:
                yield timeout(next_gap(env.now))
                if cfg.stop_at is not None and env.now >= cfg.stop_at:
                    return
                origin = self._pick_origin()
                if origin is None:
                    continue
                obj = self._pick_object()
                goal = self._pick_goal(obj)
                if goal is None:
                    continue
                deadline = self.nominal_deadline(obj) * float(
                    self.rng.uniform(0.9, 1.1)
                )
                importance = float(
                    self.rng.integers(
                        cfg.importance_range[0],
                        cfg.importance_range[1] + 1,
                    )
                )
                self.n_generated += 1
                if self.on_generate is not None:
                    from repro.workloads.trace import TraceEntry

                    self.on_generate(TraceEntry(
                        time=env.now,
                        origin=origin.node_id,
                        object_name=obj.name,
                        goal=goal,
                        deadline=deadline,
                        importance=importance,
                    ))
                env.process(
                    self._submit(origin, obj.name, goal, deadline,
                                 importance),
                    name=f"submit:{origin.node_id}",
                )
        except Interrupt:
            return

    def _submit(
        self, origin, name: str, goal, deadline: float, importance: float
    ) -> Generator[Event, Any, None]:
        try:
            yield from origin.submit_task(
                name, goal, deadline, importance=importance
            )
        except RPCError:
            # RM unreachable (failover window) or the submitting peer
            # itself churned away mid-request: the user's query is
            # simply lost, as in a real system.  RPCTimeout is the
            # unreachable-RM case; the base RPCError covers the dying
            # requester whose pending calls are failed on shutdown.
            self.n_submit_failures += 1

    def stop(self) -> None:
        if self._proc.is_alive:
            self._proc.interrupt("stop")
