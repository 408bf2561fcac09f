"""The overlay harness: join negotiation, domains, backups (§4.1).

"When a new peer joins the network, it connects to the Resource Manager
of its geographical domain ... If the Resource Manager has available
bandwidth and processing power, it accepts the processor in its domain,
and adds it to the list of potential Resource Managers, if it
qualifies. If the Resource Manager has reached the maximum number of
processors it can support, it accepts the newcomer as a new Resource
Manager if it qualifies, otherwise it redirects it to a Resource
Manager of another domain."

Construction note (documented substitution): the accept/promote/
redirect *decision* is negotiated through the RMs' ``consider_join``
logic and confirmed on the wire with a JOIN_REQUEST/JOIN_ACK message
pair (so join overhead is accounted), but node objects are built by
this harness — a simulation cannot "hot-swap" a live object's class the
way a real peer re-runs different code after promotion.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional

from repro.core import protocol
from repro.core.allocation import Allocator
from repro.core.info_base import PeerRecord
from repro.core.manager import ResourceManager, RMConfig, TaskEventFn
from repro.core.peer import Peer, PeerConfig
from repro.gossip.agent import GossipAgent, GossipConfig
from repro.media.objects import MediaObject
from repro.net.network import Network
from repro.overlay.failover import FailoverAgent, FailoverConfig
from repro.overlay.qualification import QualificationPolicy
from repro.sim.core import Environment
from repro.sim.rng import RandomStreams

_ROSTER = operator.attrgetter("rm.info.peers")

@dataclass(frozen=True)
class ServiceInstanceSpec:
    """A service a peer offers: one future resource-graph edge."""

    src_state: Hashable
    dst_state: Hashable
    service_id: str
    work: float
    out_bytes: float = 0.0


@dataclass
class PeerSpec:
    """Blueprint for one joining peer."""

    peer_id: str
    power: float = 10.0
    bandwidth: float = 1.25e6
    uptime: float = 0.9
    objects: Dict[str, MediaObject] = field(default_factory=dict)
    services: List[ServiceInstanceSpec] = field(default_factory=list)
    scheduling_policy: str = "LLS"
    profiler_update_period: float = 2.0

    def peer_config(self) -> PeerConfig:
        return PeerConfig(
            power=self.power,
            bandwidth=self.bandwidth,
            uptime_score=self.uptime,
            scheduling_policy=self.scheduling_policy,
            profiler_update_period=self.profiler_update_period,
        )

    def record(self) -> PeerRecord:
        return PeerRecord(
            peer_id=self.peer_id,
            power=self.power,
            bandwidth=self.bandwidth,
            uptime_score=self.uptime,
        )


@dataclass
class Domain:
    """One overlay domain: primary RM, optional backup, members."""

    domain_id: str
    rm: ResourceManager
    backup: Optional[ResourceManager] = None
    failover: Optional[FailoverAgent] = None
    gossip: Optional[GossipAgent] = None
    #: Passive RM-capable members (§4.1's eligible list), best first.
    eligible: List[ResourceManager] = field(default_factory=list)


class OverlayNetwork:
    """Builds and manages the self-organizing overlay of domains."""

    def __init__(
        self,
        env: Environment,
        network: Network,
        qualification: Optional[QualificationPolicy] = None,
        rm_config: Optional[RMConfig] = None,
        allocator: Optional[Allocator] = None,
        gossip_config: Optional[GossipConfig] = None,
        failover_config: Optional[FailoverConfig] = None,
        enable_backups: bool = True,
        enable_gossip: bool = True,
        rm_capable_quota: int = 2,
        on_task_event: Optional[TaskEventFn] = None,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.env = env
        self.network = network
        self.qualification = qualification or QualificationPolicy()
        self.rm_config = rm_config or RMConfig()
        #: The search settings every RM's allocator starts from; the
        #: placement policy comes from ``rm_config`` (see
        #: :class:`~repro.core.control.placement.PlacementEngine`).
        self.allocator = allocator
        self.gossip_config = gossip_config or GossipConfig()
        self.failover_config = failover_config or FailoverConfig()
        self.enable_backups = enable_backups
        self.enable_gossip = enable_gossip
        #: How many qualifying members per domain are kept RM-capable
        #: (the §4.1 eligible list; the best serves as backup, the rest
        #: are spares for post-failover re-designation).
        self.rm_capable_quota = max(1, rm_capable_quota)
        self.on_task_event = on_task_event
        self.streams = streams or RandomStreams(0)

        self.domains: Dict[str, Domain] = {}
        self.peers: Dict[str, Peer] = {}
        self.domain_of: Dict[str, str] = {}
        self.specs: Dict[str, PeerSpec] = {}
        #: Bumped on every roster/spec mutation; cheap change detection
        #: for consumers that cache population-derived aggregates (the
        #: workload's nominal-deadline constants).
        self.specs_version = 0
        self.stats = {"joins": 0, "promotions": 0, "join_redirects": 0,
                      "join_rejects": 0}
        #: Join walk: domains that may accept; roster sizes of full ones.
        self._open: Dict[str, Domain] = {}
        self._full: Dict[str, int] = {}

    # -- construction --------------------------------------------------------
    def _import_rm_config(self) -> RMConfig:
        import copy
        return copy.copy(self.rm_config)

    def create_domain(self, spec: PeerSpec) -> Domain:
        """Bootstrap a new domain led by *spec* (first peer / promotion)."""
        domain_id = f"d{next(self.env.ids.domain)}"
        rm = ResourceManager(
            self.env,
            self.network,
            spec.peer_id,
            domain_id,
            allocator=self.allocator,
            rm_config=self._import_rm_config(),
            peer_config=spec.peer_config(),
            active=True,
            on_task_event=self.on_task_event,
            rng=self.streams.get("allocator"),
        )
        domain = Domain(domain_id=domain_id, rm=rm)
        self.domains[domain_id] = self._open[domain_id] = domain
        self._enroll(rm, spec, rm)
        # Introduce the new RM to the existing ones (bootstrap contact
        # list; summaries then flow via gossip).
        for other in self.domains.values():
            if other.domain_id == domain_id:
                continue
            other.rm.known_rms[rm.node_id] = domain_id
            rm.known_rms[other.rm.node_id] = other.domain_id
        if self.enable_gossip:
            domain.gossip = GossipAgent(
                rm,
                self.gossip_config,
                rng=self.streams.get(f"gossip:{rm.node_id}"),
            )
        return domain

    def join(
        self, spec: PeerSpec, prefer_domain: Optional[str] = None
    ) -> Optional[Peer]:
        """Run the §4.1 join protocol for *spec*.

        Returns the constructed node, or ``None`` if every domain is
        full and the newcomer does not qualify to lead a new one.
        """
        if spec.peer_id in self.peers:
            raise ValueError(f"peer {spec.peer_id} already joined")
        if not self.domains:
            if self._qualifies(spec):
                self.create_domain(spec)
                self.stats["promotions"] += 1
                self.stats["joins"] += 1
                return self.peers[spec.peer_id]
            self.stats["join_rejects"] += 1
            return None

        # Contact the preferred (or first) RM; walk redirects, skipping
        # domains seen full while their rosters keep their size (a full
        # one never accepts), but counting them by place in the order.
        full = self._full
        sizes = map(len, map(_ROSTER, map(self.domains.get, full)))
        if list(sizes) != list(full.values()):
            self._open, self._full = dict(self.domains), {}
        ids = (sorted(self.domains, key=prefer_domain.__ne__)
               if prefer_domain in self.domains else list(self.domains))
        for domain in self._rm_contact_order(prefer_domain):
            decision = domain.rm.consider_join(
                spec.power, spec.bandwidth, spec.uptime
            )
            if decision == "accept":
                self.stats["join_redirects"] += ids.index(domain.domain_id)
                node = self._build_member(domain, spec)
                self.stats["joins"] += 1
                return node
            if domain.rm.is_full:
                del self._open[domain.domain_id]
                self._full[domain.domain_id] = domain.rm.info.n_peers
        self.stats["join_redirects"] += len(ids)
        # Every domain is full: promote if qualified (new domain), else
        # the join fails.
        if self._qualifies(spec):
            self.create_domain(spec)
            self.stats["promotions"] += 1
            self.stats["joins"] += 1
            return self.peers[spec.peer_id]
        self.stats["join_rejects"] += 1
        return None

    def _rm_contact_order(self, prefer_domain: Optional[str]) -> List[Domain]:
        order = list(self._open.values())
        if prefer_domain in self._open:
            order.sort(key=lambda d: d.domain_id != prefer_domain)
        return order

    def _qualifies(self, spec: PeerSpec) -> bool:
        return self.qualification.qualifies(
            spec.power, spec.bandwidth, spec.uptime
        )

    def _build_member(self, domain: Domain, spec: PeerSpec) -> Peer:
        """Construct an accepted member.

        Qualifying members join the domain's eligible list (§4.1) as
        *passive* ResourceManagers, up to ``rm_capable_quota``; the
        best-scored eligible peer serves as the live backup.
        """
        # Register the spec first: the eligible-list scoring reads it.
        self.specs[spec.peer_id] = spec
        self.specs_version += 1
        make_eligible = (
            self.enable_backups
            and len(domain.eligible) < self.rm_capable_quota
            and self._qualifies(spec)
        )
        if make_eligible:
            node: Peer = ResourceManager(
                self.env,
                self.network,
                spec.peer_id,
                domain.domain_id,
                allocator=self.allocator,
                rm_config=self._import_rm_config(),
                peer_config=spec.peer_config(),
                active=False,
                on_task_event=self.on_task_event,
                rng=self.streams.get("allocator"),
            )
            node.rm_id = domain.rm.node_id
            domain.eligible.append(node)  # type: ignore[arg-type]
            self._sort_eligible(domain)
            self._refresh_backup(domain)
        else:
            node = Peer(
                self.env,
                self.network,
                spec.peer_id,
                config=spec.peer_config(),
                rm_id=domain.rm.node_id,
            )
        self._enroll(node, spec, domain.rm)
        # Confirm on the wire (overhead accounting).
        node.send(
            protocol.JOIN_REQUEST, domain.rm.node_id,
            {"peer_id": spec.peer_id},
            size=protocol.size_of(protocol.JOIN_REQUEST),
        )
        return node

    def _score(self, peer_id: str) -> float:
        spec = self.specs.get(peer_id)
        if spec is None:
            return 0.0
        return self.qualification.score(
            spec.power, spec.bandwidth, spec.uptime
        )

    def _sort_eligible(self, domain: Domain) -> None:
        """Keep the §4.1 eligible list live, best score first."""
        domain.eligible = [
            rm for rm in domain.eligible if rm.alive and not rm.active
        ]
        domain.eligible.sort(
            key=lambda rm: (-self._score(rm.node_id), rm.node_id)
        )

    def _refresh_backup(self, domain: Domain) -> None:
        """Designate the head of the eligible list as the live backup."""
        if not self.enable_backups:
            return
        best = domain.eligible[0] if domain.eligible else None
        if best is domain.backup:
            return
        if domain.failover is not None:
            domain.failover.stop()
            domain.failover = None
        domain.backup = best
        domain.rm.backup_id = best.node_id if best is not None else None
        if best is not None:
            domain.failover = FailoverAgent(
                primary=domain.rm,
                backup=best,
                config=self.failover_config,
                on_takeover=self._on_takeover,
            )

    def _enroll(
        self, node: Peer, spec: PeerSpec, rm: ResourceManager
    ) -> None:
        """Shared member bookkeeping: roster, objects, services."""
        self.peers[spec.peer_id] = node
        self.domain_of[spec.peer_id] = rm.domain_id
        self.specs[spec.peer_id] = spec
        self.specs_version += 1
        rm.admit_peer(spec.record(), objects=spec.objects)
        for name, obj in spec.objects.items():
            node.store_object(obj)
        for svc in spec.services:
            node.host_service(svc.service_id, svc)
            rm.info.register_service_instance(
                svc.src_state,
                svc.dst_state,
                svc.service_id,
                spec.peer_id,
                svc.work,
                svc.out_bytes,
                edge_id=f"e{next(self.env.ids.edge)}",
            )

    # -- membership changes ----------------------------------------------------
    def fail_peer(self, peer_id: str) -> None:
        """Crash a peer (its RM finds out by silence)."""
        node = self.peers.get(peer_id)
        if node is None:
            return
        node.fail()
        self._forget(peer_id)

    def leave_peer(self, peer_id: str) -> None:
        """Graceful departure (PEER_LEAVE then down)."""
        node = self.peers.get(peer_id)
        if node is None:
            return
        node.leave()
        self._forget(peer_id)

    def _forget(self, peer_id: str) -> None:
        self.peers.pop(peer_id, None)
        # Departed peers never return under the same id (rebirths get a
        # fresh one), so drop the fabric registration too — this prunes
        # the per-pair FIFO floors and keeps Network state bounded under
        # churn.  In-flight traffic to the id still counts as dropped.
        self.network.unregister(peer_id)
        domain_id = self.domain_of.pop(peer_id, None)
        self.specs.pop(peer_id, None)
        self.specs_version += 1
        if domain_id is None:
            return
        domain = self.domains.get(domain_id)
        if domain is None:
            return
        was_backup = (
            domain.backup is not None
            and domain.backup.node_id == peer_id
        )
        in_eligible = any(rm.node_id == peer_id for rm in domain.eligible)
        if was_backup or in_eligible:
            domain.eligible = [
                rm for rm in domain.eligible if rm.node_id != peer_id
            ]
            self._sort_eligible(domain)
            # §4.1: promote the next qualifying processor to backup.
            self._refresh_backup(domain)

    def _on_takeover(self, old_rm_id: str, new_rm: ResourceManager) -> None:
        """Failover callback: update the registry, elect a new backup."""
        domain = self.domains.get(new_rm.domain_id)
        if domain is None:
            return
        domain.rm = new_rm
        domain.backup = None
        if domain.failover is not None:
            domain.failover.stop()
        domain.failover = None
        self.domain_of[new_rm.node_id] = new_rm.domain_id
        # The new primary leaves the eligible list; the next qualifying
        # processor becomes the backup (§4.1).
        domain.eligible = [
            rm for rm in domain.eligible if rm.node_id != new_rm.node_id
        ]
        self._sort_eligible(domain)
        self._refresh_backup(domain)
        if self.enable_gossip:
            if domain.gossip is not None:
                domain.gossip.stop()
            domain.gossip = GossipAgent(
                new_rm,
                self.gossip_config,
                rng=self.streams.get(f"gossip:{new_rm.node_id}"),
            )
        # Let other RMs know whom to gossip with now.
        for other in self.domains.values():
            if other.domain_id == new_rm.domain_id:
                continue
            other.rm.known_rms.pop(old_rm_id, None)
            other.rm.known_rms[new_rm.node_id] = new_rm.domain_id

    # -- queries ------------------------------------------------------------------
    @property
    def n_domains(self) -> int:
        return len(self.domains)

    @property
    def n_peers(self) -> int:
        return len(self.peers)

    def rms(self) -> List[ResourceManager]:
        return [d.rm for d in self.domains.values()]

    def domain_for(self, peer_id: str) -> Optional[Domain]:
        did = self.domain_of.get(peer_id)
        return self.domains.get(did) if did else None

    def __repr__(self) -> str:
        return (
            f"<OverlayNetwork domains={self.n_domains} peers={self.n_peers}>"
        )
