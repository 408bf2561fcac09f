"""The Resource Manager's information base (paper §3.1).

Holds, per domain: the peer roster with their last load reports, the
data objects and services at each peer, the resource graph, the service
graphs of running tasks, and the summaries received from other domains.

Because load reports arrive only every *update period*, the info base
additionally tracks **projected load**: the load deltas of tasks this RM
has allocated whose effect is not yet visible in reports.  Projections
expire at the task's deadline (or are released on completion), so a
crashed session cannot pin phantom load forever.  ``effective_load`` =
reported + live projections; this is the load the allocator and the
fairness index operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Set

from repro.common.errors import UnknownPeer
from repro.core.fairness import LoadVector
from repro.graphs.resource_graph import ResourceGraph, ServiceEdge
from repro.graphs.service_graph import ServiceGraph
from repro.monitoring.profiler import LoadReport


@dataclass
class PeerRecord:
    """Everything the RM knows about one domain peer (§3.1 items 2-6)."""

    peer_id: str
    power: float
    bandwidth: float
    uptime_score: float = 1.0
    #: Data objects stored at the peer (O_ij), by name.
    objects: Set[str] = field(default_factory=set)
    #: Services the peer offers (S_ij), by service id.
    services: Set[str] = field(default_factory=set)
    last_report: Optional[LoadReport] = None
    reported_at: float = -1.0

    def clone(self) -> "PeerRecord":
        """A copy safe to mutate independently (backup replication).

        The set fields are copied; the immutable :class:`LoadReport`
        snapshot is shared.
        """
        return PeerRecord(
            peer_id=self.peer_id,
            power=self.power,
            bandwidth=self.bandwidth,
            uptime_score=self.uptime_score,
            objects=set(self.objects),
            services=set(self.services),
            last_report=self.last_report,
            reported_at=self.reported_at,
        )


@dataclass
class _Projection:
    task_id: str
    peer_id: str
    delta: float
    expires_at: float


class DomainInfoBase:
    """Domain-level state maintained by a Resource Manager."""

    def __init__(self, domain_id: str, rm_id: str) -> None:
        self.domain_id = domain_id
        self.rm_id = rm_id
        self.peers: Dict[str, PeerRecord] = {}
        self.resource_graph = ResourceGraph()
        #: Service graphs of currently executing tasks, by task id (§3.1-7).
        self.service_graphs: Dict[str, ServiceGraph] = {}
        self._projections: Dict[str, List[_Projection]] = {}
        # Hot-path caches over the projections.  ``_proj_cache`` holds
        # (delta_sum, earliest_expiry) per peer so effective_load — the
        # single most-called method in large runs — avoids re-filtering
        # and re-summing an unchanged projection list; entries are
        # dropped on any mutation and ignored once ``now`` reaches the
        # earliest expiry.  ``_task_peers`` indexes task -> peer ids so
        # release_projection does not scan every peer's list.
        self._proj_cache: Dict[str, tuple] = {}
        self._task_peers: Dict[str, Set[str]] = {}
        #: Optional :class:`~repro.core.control.reputation
        #: .ReputationEngine` attached when the RM runs with
        #: ``enable_defense``; ``None`` keeps effective_load's behavior
        #: (and the trajectory goldens) byte-identical.
        self.reputation: Optional[Any] = None
        #: Summaries received from other domains: domain_id -> summary.
        self.remote_summaries: Dict[str, Any] = {}
        #: When each remote summary's content was last received/refreshed
        #: (gossip receipt time), for redirect staleness bounds.
        self.summary_received_at: Dict[str, float] = {}

    # -- roster -------------------------------------------------------------
    def add_peer(self, record: PeerRecord) -> None:
        """Register a peer that joined the domain."""
        if record.peer_id in self.peers:
            raise ValueError(f"peer {record.peer_id} already in domain")
        self.peers[record.peer_id] = record

    def remove_peer(self, peer_id: str) -> List[ServiceEdge]:
        """Drop a departed peer; prune its resource-graph edges (§4.1).

        Returns the removed edges so the RM can find interrupted tasks.
        """
        if peer_id not in self.peers:
            raise UnknownPeer(peer_id)
        del self.peers[peer_id]
        self._projections.pop(peer_id, None)
        self._proj_cache.pop(peer_id, None)
        if self.reputation is not None:
            self.reputation.forget(peer_id)
        return self.resource_graph.remove_peer(peer_id)

    def has_peer(self, peer_id: str) -> bool:
        return peer_id in self.peers

    def peer(self, peer_id: str) -> PeerRecord:
        try:
            return self.peers[peer_id]
        except KeyError:
            raise UnknownPeer(peer_id) from None

    @property
    def n_peers(self) -> int:
        return len(self.peers)

    # -- load view ------------------------------------------------------------
    def update_from_report(self, report: LoadReport) -> None:
        """Fold in a load update from a peer's Profiler."""
        rec = self.peer(report.peer_id)
        rec.last_report = report
        rec.reported_at = report.time

    def project_allocation(
        self,
        task_id: str,
        per_peer_delta: Dict[str, float],
        expires_at: float,
    ) -> None:
        """Record the expected load of a freshly allocated task."""
        for peer_id, delta in per_peer_delta.items():
            if peer_id not in self.peers:
                continue
            self._projections.setdefault(peer_id, []).append(
                _Projection(task_id, peer_id, delta, expires_at)
            )
            self._proj_cache.pop(peer_id, None)
            self._task_peers.setdefault(task_id, set()).add(peer_id)

    def release_projection(self, task_id: str) -> None:
        """Drop a task's projected load (on completion/failure)."""
        for peer_id in self._task_peers.pop(task_id, ()):
            plist = self._projections.get(peer_id)
            if not plist:
                continue
            kept = [p for p in plist if p.task_id != task_id]
            if len(kept) != len(plist):
                if kept:
                    self._projections[peer_id] = kept
                else:
                    # Drop drained keys outright: a long churn run must
                    # not accumulate empty-list residue per dead peer.
                    del self._projections[peer_id]
                self._proj_cache.pop(peer_id, None)

    def effective_load(self, peer_id: str, now: float) -> float:
        """Reported load plus live projections for *peer_id*."""
        # peer() is inlined: this is the single most-called method in
        # large runs.
        rec = self.peers.get(peer_id)
        if rec is None:
            raise UnknownPeer(peer_id)
        report = rec.last_report
        load = report.load if report is not None else 0.0
        if self.reputation is not None:
            load += self.reputation.load_penalty(peer_id, rec, now)
        plist = self._projections.get(peer_id)
        if not plist:
            return load
        cached = self._proj_cache.get(peer_id)
        if cached is not None and now < cached[1]:
            return load + cached[0]
        live = [p for p in plist if p.expires_at > now]
        if len(live) != len(plist):
            if not live:
                del self._projections[peer_id]
                self._proj_cache.pop(peer_id, None)
                return load
            self._projections[peer_id] = live
        total = sum(p.delta for p in live)
        self._proj_cache[peer_id] = (
            total, min(p.expires_at for p in live)
        )
        return load + total

    def projected_load(self, peer_id: str, now: float) -> float:
        """This RM's own live allocation projections for *peer_id*.

        Evidence for the reputation engine: work the RM assigned whose
        effect a lying report cannot argue away.  Read-only (no sweep)
        so it never perturbs the ``effective_load`` caches.
        """
        plist = self._projections.get(peer_id)
        if not plist:
            return 0.0
        return sum(p.delta for p in plist if p.expires_at > now)

    def load_vector(self, now: float) -> LoadVector:
        """Effective loads of all domain peers (the allocator's view)."""
        return LoadVector(
            {pid: self.effective_load(pid, now) for pid in self.peers}
        )

    def utilization_vector(self, now: float) -> Dict[str, float]:
        """Effective utilization (load / power) per peer.

        Claimed power is clamped away from zero: a join record claiming
        no capacity must read as "infinitely overloaded", not crash the
        gossip publisher with a ZeroDivisionError.
        """
        return {
            pid: self.effective_load(pid, now) / max(rec.power, 1e-9)
            for pid, rec in self.peers.items()
        }

    def mean_utilization(self, now: float) -> float:
        """Mean of :meth:`utilization_vector` without building the dict
        (gossip publishes this every period, for every RM)."""
        peers = self.peers
        if not peers:
            return 0.0
        total = 0.0
        for pid, rec in peers.items():
            total += self.effective_load(pid, now) / max(rec.power, 1e-9)
        return total / len(peers)

    # -- objects & services ------------------------------------------------------
    def peers_with_object(self, name: str) -> List[str]:
        """Which peers store a data object (for source selection)."""
        return [
            pid for pid, rec in self.peers.items() if name in rec.objects
        ]

    def all_objects(self) -> Set[str]:
        out: Set[str] = set()
        for rec in self.peers.values():
            out |= rec.objects
        return out

    def all_services(self) -> Set[str]:
        out: Set[str] = set()
        for rec in self.peers.values():
            out |= rec.services
        return out

    # -- running tasks --------------------------------------------------------------
    def register_service_graph(self, graph: ServiceGraph) -> None:
        self.service_graphs[graph.task_id] = graph

    def drop_service_graph(self, task_id: str) -> Optional[ServiceGraph]:
        return self.service_graphs.pop(task_id, None)

    # -- graph maintenance -------------------------------------------------------
    def register_service_instance(
        self,
        src: Hashable,
        dst: Hashable,
        service_id: str,
        peer_id: str,
        work: float,
        out_bytes: float = 0.0,
        *,
        edge_id: str,
    ) -> ServiceEdge:
        """Add a hosted service instance to the resource graph + roster."""
        rec = self.peer(peer_id)
        edge = self.resource_graph.add_service(
            src, dst, service_id, peer_id, work, out_bytes, edge_id=edge_id
        )
        rec.services.add(service_id)
        return edge

    def note_summary(self, rm_id: str, summary: Any, now: float) -> None:
        """Store a remote domain's summary, stamping its receipt time."""
        self.remote_summaries[rm_id] = summary
        self.summary_received_at[rm_id] = now

    def summary_age(self, rm_id: str, now: float) -> float:
        """Age of the held summary from *rm_id* (0 if never stamped).

        Summaries installed without a receipt stamp (hand-wired tests,
        restored snapshots from older peers) count as fresh — staleness
        bounds only ever *narrow* behavior where gossip is live.
        """
        received = self.summary_received_at.get(rm_id)
        if received is None:
            return 0.0
        return now - received

    def staleness(self, peer_id: str, now: float) -> float:
        """Age of the newest report from *peer_id* (inf before the first)."""
        rec = self.peer(peer_id)
        if rec.reported_at < 0:
            return float("inf")
        return now - rec.reported_at

    def __repr__(self) -> str:
        return (
            f"<DomainInfoBase {self.domain_id} rm={self.rm_id} "
            f"peers={len(self.peers)} tasks={len(self.service_graphs)}>"
        )
