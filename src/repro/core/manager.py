"""The domain Resource Manager shell (paper §2, §4).

An RM is itself a peer ("Resource Managers are selected among regular
peers").  It is a thin message-routing shell: protocol handlers and
periodic timers live here, while the duties are delegated to four
composable components under :mod:`repro.core.control` —
:class:`AdmissionController`, :class:`PlacementEngine` (with a named,
pluggable :class:`PlacementPolicy`), :class:`TaskRegistry`, and
:class:`RepairCoordinator`.  See ``docs/architecture.md``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core import protocol
from repro.core.allocation import Allocator
from repro.core.control.admission import AdmissionController
from repro.core.control.events import emit_task_event
from repro.core.control.placement import PlacementEngine, PlacementPolicy
from repro.core.control.registry import TaskRegistry
from repro.core.control.repair import RepairCoordinator
from repro.core.control.reputation import ReputationEngine
from repro.core.info_base import DomainInfoBase, PeerRecord
from repro.core.peer import Peer, PeerConfig
from repro.core.session import SessionState
from repro.media.objects import MediaObject
from repro.monitoring.profiler import LoadReport
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.core import Environment
from repro.sim.events import Timer
from repro.tasks.qos import QoSRequirements
from repro.tasks.task import ApplicationTask, TaskState

#: Task lifecycle callback: (task, event), e.g. "submitted"/"completed".
TaskEventFn = Callable[[ApplicationTask, str], None]


@dataclass
class RMConfig:
    """Resource Manager tunables."""

    #: Maximum peers one RM manages (domain size bound, §4.1).
    max_peers: int = 64
    #: Declare a peer dead after this many missed update periods.
    dead_after_periods: float = 3.5
    #: Peer-liveness scan period (seconds).
    monitor_period: float = 1.0
    #: Grace beyond the deadline before a silent task is declared lost.
    task_loss_grace: float = 10.0
    #: Maximum inter-domain redirects per task.
    max_redirects: int = 3
    #: Placement policy name — ``paper`` (fairness maximization), or any
    #: name registered in :mod:`repro.core.control.placement`.  Applies
    #: when the RM is built without an explicit allocator/policy.
    placement_policy: str = "paper"
    #: Distrust a gossiped domain summary older than this many seconds
    #: when picking a redirect target (demote to fallback).  ``None``
    #: (default) trusts any cached summary, the paper behavior.
    redirect_summary_max_age: Optional[float] = None
    #: Enable adaptive reassignment of running tasks under overload.
    enable_reassignment: bool = True
    #: Reassignment check period (seconds).
    reassign_period: float = 5.0
    #: Domain counts as overloaded when mean utilization exceeds this.
    overload_utilization: float = 0.85
    #: Minimum fairness gain for a voluntary task migration.
    reassign_min_gain: float = 0.05
    #: Enable service-graph repair after peer failures.
    enable_repair: bool = True
    #: Importance-aware admission (§3.3): beyond
    #: ``importance_admission_util`` load, below-average-importance tasks
    #: face a stricter cap (``low_importance_cap`` x max utilization).
    #: Off by default (the paper admits on feasibility alone).
    importance_admission: bool = False
    importance_admission_util: float = 0.75
    low_importance_cap: float = 0.7
    #: State-replication period to the backup RM (§4.1).
    sync_period: float = 5.0
    #: Stream duration the resource-graph edge costs are calibrated for;
    #: tasks on objects of other durations scale work proportionally.
    canonical_duration: float = 60.0
    #: The profiler update period members are configured with — the
    #: yardstick for declaring a silent peer dead.
    expected_update_period: float = 2.0
    #: §4.1: "If the Resource Manager has available bandwidth and
    #: processing power, it accepts the processor in its domain" — an
    #: RM busier than this redirects joins even with roster room.
    join_accept_max_util: float = 0.95
    #: Reputation-gated load reports (``--defense``): cross-check each
    #: peer's claims against observed evidence, discount divergent
    #: peers in placement and quarantine chronic liars.  Off by default
    #: — the paper trusts self-reports, and the trajectory goldens
    #: stay byte-identical.
    enable_defense: bool = False


class ResourceManager(Peer):
    """A domain leader: admission, allocation, adaptation.

    When ``allocator`` is supplied its configured selector *is* the
    placement policy (unless ``policy`` — an instance or registry name —
    is also given), so pre-built allocators keep byte-identical
    behavior; otherwise ``rm_config.placement_policy`` decides.
    ``active=False`` builds a passive backup: handlers installed and
    state received via RM_SYNC, but no admission or monitoring until
    :meth:`activate` (failover).
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        peer_id: str,
        domain_id: str,
        allocator: Optional[Allocator] = None,
        rm_config: Optional[RMConfig] = None,
        peer_config: Optional[PeerConfig] = None,
        active: bool = True,
        on_task_event: Optional[TaskEventFn] = None,
        policy: Optional[Union[PlacementPolicy, str]] = None,
    ) -> None:
        super().__init__(
            env, network, peer_id, config=peer_config, rm_id=peer_id,
        )
        self.domain_id = domain_id
        self.rm_config = rm_config or RMConfig()
        self.on_task_event = on_task_event
        self.info = DomainInfoBase(domain_id, peer_id)
        #: Media objects known in the domain, by name.
        self.object_catalog: Dict[str, MediaObject] = {}
        #: Last time each member peer was heard from (update/heartbeat).
        self.last_seen: Dict[str, float] = {}
        #: Other known RMs: rm peer id -> domain id.
        self.known_rms: Dict[str, str] = {}
        self.backup_id: Optional[str] = None
        self.active = active
        self.stats: Dict[str, int] = {k: 0 for k in (
            "admitted", "rejected", "redirected_out", "redirected_in",
            "completed", "missed", "failed", "repairs", "reassignments",
        )}

        # The control plane: placement, admission, registry, repair.
        self.placement = PlacementEngine(
            self, allocator=allocator, policy=policy,
            default_policy=self.rm_config.placement_policy,
        )
        self.registry = TaskRegistry(self)
        self.admission = AdmissionController(self, self.placement)
        self.repair = RepairCoordinator(self, self.placement)
        #: Reputation-gated load reports (RMConfig.enable_defense).
        #: Attached to the info base so effective_load folds the trust
        #: penalty into every placement-facing load read.
        self.reputation: Optional[ReputationEngine] = None
        if self.rm_config.enable_defense:
            self.reputation = ReputationEngine()
            self.info.reputation = self.reputation

        self.on(protocol.LOAD_UPDATE, self._handle_load_update)
        self.on(protocol.TASK_REQUEST, self._handle_task_request)
        self.on(protocol.TASK_REDIRECT, self._handle_task_redirect)
        self.on(protocol.STEP_DONE, self._handle_step_done)
        self.on(protocol.TASK_DONE, self._handle_task_done)
        self.on(protocol.PEER_LEAVE, self._handle_peer_leave)
        self.on(protocol.QOS_UPDATE, self._handle_qos_update)

        self._monitor: Optional[Timer] = None
        self._reassigner: Optional[Timer] = None
        if active:
            self._start_loops()

    # ------------------------------------ state views (control-plane owned)
    @property
    def tasks(self) -> Dict[str, ApplicationTask]:
        return self.registry.tasks

    @property
    def sessions(self) -> Dict[str, SessionState]:
        return self.registry.sessions

    @property
    def allocator(self) -> Allocator:
        return self.placement.allocator

    @property
    def policy_name(self) -> str:
        return self.placement.policy.name

    # ------------------------------------------------------------------ setup
    def _start_loops(self) -> None:
        cfg = self.rm_config
        self._monitor = self.env.every(cfg.monitor_period, self._monitor_tick)
        if cfg.enable_reassignment:
            self._reassigner = self.env.every(
                cfg.reassign_period, self._reassign_tick
            )

    def fail(self) -> None:
        """Crash: a dead RM stops monitoring/reassigning entirely."""
        for timer in (self._monitor, self._reassigner):
            if timer is not None:
                timer.cancel()
        self.active = False
        super().fail()

    def _send_load_update(self, report: LoadReport) -> None:
        # An active RM is its own manager: fold the report in directly.
        # A passive backup reports to the primary like any member.
        if self.rm_id == self.node_id:
            if self.active and self.info.has_peer(self.node_id):
                self.info.update_from_report(report)
                self.last_seen[self.node_id] = self.env.now
        else:
            super()._send_load_update(report)

    # -------------------------------------------------------------- membership
    def admit_peer(
        self,
        record: PeerRecord,
        objects: Optional[Dict[str, MediaObject]] = None,
    ) -> None:
        """Add a member to the domain roster (join accepted, §4.1)."""
        self.info.add_peer(record)
        if self.reputation is not None and record.peer_id != self.node_id:
            self.reputation.note_join(record)
        self.last_seen[record.peer_id] = self.env.now
        for name, obj in (objects or {}).items():
            record.objects.add(name)
            self.object_catalog[name] = obj

    @property
    def member_ids(self) -> List[str]:
        return list(self.info.peers)

    @property
    def is_full(self) -> bool:
        """Has the domain reached the RM's management capacity (§4.1)?"""
        return self.info.n_peers >= self.rm_config.max_peers

    # -------------------------------------------------------------- handlers
    def _handle_load_update(self, msg: Message) -> None:
        if not self.active:
            return
        report: LoadReport = msg.payload["report"]
        if not self.info.has_peer(report.peer_id):
            return  # departed peer's last gasp
        self.info.update_from_report(report)
        self.last_seen[report.peer_id] = self.env.now
        if self.reputation is not None:
            now = self.env.now
            self.reputation.observe_report(
                report,
                self.info.peers[report.peer_id],
                self.info.projected_load(report.peer_id, now),
                now,
            )

    def _handle_task_request(self, msg: Message) -> None:
        if not self.active:
            return
        p = msg.payload
        task = ApplicationTask(
            name=p["name"],
            qos=QoSRequirements(
                deadline=p["deadline"], importance=p.get("importance", 1.0)
            ),
            initial_state=None,  # resolved from the object catalog
            goal_state=p["goal_state"],
            origin_peer=p.get("origin", msg.src), submitted_at=self.env.now,
        )
        self.registry.register(task)
        self._emit(task, "submitted")
        disposition = self.admission.admit(task)
        self.reply(
            msg, protocol.TASK_ACK,
            {"task_id": task.task_id, "disposition": disposition},
            size=protocol.size_of(protocol.TASK_ACK),
        )

    def _handle_task_redirect(self, msg: Message) -> None:
        if not self.active:
            return
        task: ApplicationTask = msg.payload["task"]
        self.stats["redirected_in"] += 1
        self.registry.register(task)
        self.admission.admit(task)

    def _handle_step_done(self, msg: Message) -> None:
        p = msg.payload
        session = self.registry.session(p["task_id"])
        if session is None or p.get("epoch", 0) != session.epoch:
            return
        session.note_step_done(p["step_index"], p["peer_id"])
        graph = self.info.service_graphs.get(p["task_id"])
        if graph is not None:
            started = p.get("started", msg.sent_at)
            finished = p.get("finished", msg.sent_at)
            graph.record_timing(p["step_index"], started, finished)
            if self.reputation is not None:
                rec = self.info.peers.get(p["peer_id"])
                idx = p["step_index"]
                if rec is not None and 0 <= idx < len(graph.steps):
                    self.reputation.observe_step(
                        p["peer_id"], rec, graph.steps[idx].work,
                        finished - started, self.env.now,
                    )

    def _handle_task_done(self, msg: Message) -> None:
        p = msg.payload
        task = self.registry.get(p["task_id"])
        if task is None or task.state in (TaskState.DONE, TaskState.FAILED):
            return
        self.registry.complete(task, p["completed_at"])

    def _handle_qos_update(self, msg: Message) -> None:
        if not self.active:
            return
        self.admission.update_qos(msg.payload, msg.src)

    def _handle_peer_leave(self, msg: Message) -> None:
        if not self.active:
            return
        peer_id = msg.payload["peer_id"]
        if self.info.has_peer(peer_id):
            self.repair.peer_down(peer_id, graceful=True)

    # ---------------------------------------------------------------- routing
    def _send_or_local(
        self, dst: str, kind: str, payload: Dict[str, Any], size: float
    ) -> None:
        """Send a control message, short-circuiting self-addressed ones."""
        if dst == self.node_id:
            handler = self._handlers.get(kind)
            if handler is not None:
                result = handler(
                    Message(kind=kind, src=dst, dst=dst, payload=payload)
                )
                if inspect.isgenerator(result):
                    self.env.process(result, name=f"{dst}:{kind}:local")
            return
        self.send(kind, dst, payload, size=size)

    # -------------------------------------------------------------- monitoring
    def _monitor_tick(self) -> None:
        # Sense withdrawn connections (§4.1), then expire lost tasks.
        now = self.env.now
        self.repair.check_liveness(now)
        self.registry.expire_lost(now, self.rm_config.task_loss_grace)

    def _peer_update_period(self, peer_id: str) -> float:
        # Expected report interval for liveness judgement.
        return self.rm_config.expected_update_period

    def _peer_down(self, peer_id: str, graceful: bool) -> None:
        """Stable failover entry point; delegates to the coordinator."""
        self.repair.peer_down(peer_id, graceful)

    # ------------------------------------------------------------ reassignment
    def _reassign_tick(self) -> None:
        if self.active and self.info.n_peers > 0:
            self.repair.maybe_reassign()

    # ------------------------------------------------------------ join protocol
    def consider_join(self, power: float, bandwidth: float,
                      uptime_score: float) -> str:
        """§4.1 join decision: accept / promote (full) / redirect (busy)."""
        if not self.active:
            return "redirect"
        if self.profiler.utilization > self.rm_config.join_accept_max_util:
            return "redirect"
        if not self.is_full:
            return "accept"
        return "promote"

    # --------------------------------------------------------- failover support
    def snapshot_state(self) -> Dict[str, Any]:
        """Serializable-ish state for backup replication (§4.1)."""
        return self.registry.snapshot_state()

    def restore_state(self, snapshot: Dict[str, Any]) -> None:
        """Load a replicated snapshot (backup preparing for takeover)."""
        self.registry.restore_state(snapshot)

    def activate(self) -> None:
        """Backup takes over as primary (§4.1)."""
        if self.active:
            return
        self.active = True
        self.rm_id = self.node_id
        now = self.env.now
        for pid in list(self.info.peers):
            self.last_seen[pid] = now
        self._start_loops()
        self.registry.takeover()

    # ---------------------------------------------------------------- utilities
    def _emit(self, task: ApplicationTask, event: str) -> None:
        emit_task_event(self, task, event)

    def domain_fairness(self) -> float:
        """Current fairness index over the domain's effective loads."""
        return self.info.load_vector(self.env.now).fairness()

    def __repr__(self) -> str:
        return (
            f"<ResourceManager {self.node_id} domain={self.domain_id} "
            f"peers={self.info.n_peers} tasks={len(self.sessions)} policy="
            f"{self.policy_name} {'active' if self.active else 'passive'}>"
        )
