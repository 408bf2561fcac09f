"""Completion-time estimation from the RM's load view.

The Fig-3 algorithm "calculates which paths satisfy the deadline by
utilizing the current load information".  The estimator turns a
candidate path into a predicted task execution time (paper §3.3:
*"computed as the sum of the processing times of the objects and
services on the processors and their communication times"*):

* per step: ``work / free_rate`` where ``free_rate`` is the hosting
  peer's processing power minus its effective load — contention slows
  services down;
* per hop: expected network latency plus ``bytes / bandwidth``.

Estimates use the RM's *possibly stale* view; the gap between estimate
and actual execution is exactly the soft-real-time story experiment E7
explores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.common.errors import UnknownPeer
from repro.core.info_base import DomainInfoBase
from repro.graphs.resource_graph import ServiceEdge
from repro.net.network import Network


@dataclass
class CompletionTimeEstimator:
    """Turns candidate paths into predicted completion times.

    Parameters
    ----------
    min_free_frac:
        A busy peer never estimates slower than
        ``power * min_free_frac`` — keeps estimates finite at
        saturation.
    safety_margin:
        Feasibility requires ``estimate <= deadline * (1 - margin)``;
        a small margin absorbs estimation error.
    max_utilization:
        Capacity cap: an assignment pushing a peer's projected
        utilization beyond this is infeasible regardless of deadline.
    """

    min_free_frac: float = 0.05
    safety_margin: float = 0.05
    max_utilization: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.min_free_frac <= 1:
            raise ValueError(f"bad min_free_frac {self.min_free_frac}")
        if not 0 <= self.safety_margin < 1:
            raise ValueError(f"bad safety_margin {self.safety_margin}")
        if self.max_utilization <= 0:
            raise ValueError(f"bad max_utilization {self.max_utilization}")

    # -- building blocks ----------------------------------------------------
    def service_time(
        self,
        info: DomainInfoBase,
        edge: ServiceEdge,
        now: float,
        work_scale: float = 1.0,
    ) -> float:
        """Predicted execution time of one service instance.

        ``work_scale`` adapts the edge's canonical work to the actual
        stream (e.g. a 120 s object on a graph calibrated for 60 s
        streams has ``work_scale == 2``).
        """
        rec = info.peers.get(edge.peer_id)
        if rec is None:
            raise UnknownPeer(edge.peer_id)
        free = rec.power - info.effective_load(edge.peer_id, now)
        free = max(free, rec.power * self.min_free_frac)
        if free <= 0:
            # A record claiming no power (an unvalidated live JOIN):
            # "infinitely overloaded", not a ZeroDivisionError.
            return float("inf")
        return edge.work * work_scale / free

    def transfer_time(
        self, net: Network, src: str, dst: str, nbytes: float
    ) -> float:
        """Predicted one-hop transfer time."""
        if src == dst or nbytes <= 0:
            return 0.0
        return net.expected_delay(src, dst, nbytes)

    # -- path-level API ----------------------------------------------------------
    def estimate_path(
        self,
        info: DomainInfoBase,
        net: Network,
        path: Sequence[ServiceEdge],
        now: float,
        source_peer: str,
        sink_peer: str,
        in_bytes: float,
        work_scale: float = 1.0,
    ) -> float:
        """Predicted end-to-end execution time of the full path.

        ``in_bytes`` is the source object's size (the first transfer,
        source peer -> first service's peer).
        """
        total = 0.0
        prev_peer = source_peer
        carried = in_bytes
        peers = info.peers
        min_free_frac = self.min_free_frac
        for edge in path:
            # service_time() inlined with a single roster lookup (the
            # allocator walks every candidate path through here); keep
            # the arithmetic identical to service_time.
            peer_id = edge.peer_id
            rec = peers.get(peer_id)
            if rec is None:
                return float("inf")
            total += self.transfer_time(net, prev_peer, peer_id, carried)
            free = rec.power - info.effective_load(peer_id, now)
            free = max(free, rec.power * min_free_frac)
            if free <= 0:
                return float("inf")
            total += edge.work * work_scale / free
            prev_peer = peer_id
            carried = edge.out_bytes * work_scale
        total += self.transfer_time(net, prev_peer, sink_peer, carried)
        return total

    def path_overloads(
        self,
        info: DomainInfoBase,
        path: Sequence[ServiceEdge],
        now: float,
        deadline: float,
        work_scale: float = 1.0,
    ) -> bool:
        """Capacity check: would this assignment overload any peer?

        The load delta of an edge is its demanded work *rate*:
        ``work / deadline`` (a tighter deadline demands more rate).
        """
        deltas: dict[str, float] = {}
        for edge in path:
            deltas[edge.peer_id] = (
                deltas.get(edge.peer_id, 0.0)
                + edge.work * work_scale / deadline
            )
        for peer_id, delta in deltas.items():
            if not info.has_peer(peer_id):
                return True
            rec = info.peer(peer_id)
            post = info.effective_load(peer_id, now) + delta
            if rec.power <= 0 or post > rec.power * self.max_utilization:
                return True
        return False

    def feasible(
        self,
        info: DomainInfoBase,
        net: Network,
        path: Sequence[ServiceEdge],
        deadline: float,
        now: float,
        source_peer: str,
        sink_peer: str,
        in_bytes: float,
        prefix: bool = False,
        work_scale: float = 1.0,
    ) -> bool:
        """Does this (prefix of a) path satisfy the requirement set q?

        ``deadline`` is the *remaining* time budget (for a fresh task
        this equals the relative QoS deadline; for a redirected or
        repaired task the clock has already been running).

        For a *prefix* only the lower-bound time check applies (the
        capacity check is deferred to full candidates: a prefix's peers
        are a subset, so capacity can only be checked meaningfully on
        the complete assignment, and the time so far is already a valid
        lower bound on any completion through this prefix).
        """
        if deadline <= 0:
            return False
        budget = deadline * (1.0 - self.safety_margin)
        elapsed = self.estimate_path(
            info, net, path, now, source_peer,
            sink_peer if not prefix else (path[-1].peer_id if path else source_peer),
            in_bytes, work_scale,
        )
        if elapsed > budget:
            return False
        if not prefix and self.path_overloads(
            info, path, now, deadline, work_scale
        ):
            return False
        return True

    def path_load_deltas(
        self,
        path: Sequence[ServiceEdge],
        deadline: float,
        work_scale: float = 1.0,
    ) -> dict[str, float]:
        """Per-peer load deltas of assigning *path* (work rate demand)."""
        out: dict[str, float] = {}
        for edge in path:
            out[edge.peer_id] = (
                out.get(edge.peer_id, 0.0) + edge.work * work_scale / deadline
            )
        return out
