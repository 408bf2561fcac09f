"""The RM's task registry: lifecycle state, sessions, failover snapshots.

Owns every task the RM has seen and the session state of the running
ones, drives the terminal transitions (complete / fail / lost), and
produces the state snapshots replicated to the backup RM (§4.1).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro import telemetry
from repro.core import protocol
from repro.core.info_base import DomainInfoBase
from repro.core.session import ComposeOrder, SessionState
from repro.tasks.task import ApplicationTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import ResourceManager


class TaskRegistry:
    """Task lifecycle state for one Resource Manager."""

    def __init__(self, rm: "ResourceManager") -> None:
        self.rm = rm
        #: All tasks this RM has seen, by id.
        self.tasks: Dict[str, ApplicationTask] = {}
        #: Running sessions by task id.
        self.sessions: Dict[str, SessionState] = {}

    # -- lifecycle ----------------------------------------------------------
    def register(self, task: ApplicationTask) -> None:
        self.tasks[task.task_id] = task

    def get(self, task_id: str) -> Optional[ApplicationTask]:
        return self.tasks.get(task_id)

    def session(self, task_id: str) -> Optional[SessionState]:
        return self.sessions.get(task_id)

    def add_session(self, session: SessionState) -> None:
        self.sessions[session.task_id] = session

    def running_sessions(self) -> List[SessionState]:
        return list(self.sessions.values())

    def complete(self, task: ApplicationTask, completed_at: float) -> None:
        """A sink reported TASK_DONE: close the task out."""
        rm = self.rm
        task.mark_done(completed_at)
        self.cleanup(task.task_id)
        rm.stats["completed"] += 1
        if task.outcome is not None and task.outcome.value == "missed":
            rm.stats["missed"] += 1
        rm._emit(task, "completed")

    def fail(self, task: ApplicationTask, reason: str) -> None:
        rm = self.rm
        task.mark_failed(rm.env.now, reason)
        self.cleanup(task.task_id)
        rm.stats["failed"] += 1
        rm._emit(task, "failed")

    def cleanup(self, task_id: str) -> None:
        """Drop a finished/failed task's session, graph, and projection."""
        self.sessions.pop(task_id, None)
        self.rm.info.drop_service_graph(task_id)
        self.rm.info.release_projection(task_id)

    def expire_lost(self, now: float, grace: float) -> None:
        """Declare long-overdue silent tasks lost (monitor duty)."""
        for task_id in list(self.sessions):
            task = self.tasks.get(task_id)
            if task is None:
                self.sessions.pop(task_id, None)
                continue
            if now > task.absolute_deadline + grace:
                self.fail(task, "lost (no completion)")

    # -- failover support ---------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """Serializable-ish state for backup replication (§4.1).

        Structures are copied shallowly: records and graphs are rebuilt
        on restore, so the backup's post-takeover mutations cannot leak
        back into the dead primary's objects.
        """
        rm = self.rm
        return {
            "domain_id": rm.domain_id,
            "peers": {
                pid: rec.clone() for pid, rec in rm.info.peers.items()
            },
            "object_catalog": dict(rm.object_catalog),
            "resource_graph": rm.info.resource_graph.copy(),
            "tasks": dict(self.tasks),
            "sessions": dict(self.sessions),
            "service_graphs": dict(rm.info.service_graphs),
            "known_rms": dict(rm.known_rms),
            "remote_summaries": dict(rm.info.remote_summaries),
            "summary_received_at": dict(rm.info.summary_received_at),
            "last_seen": dict(rm.last_seen),
        }

    def restore_state(self, snapshot: Dict[str, Any]) -> None:
        """Load a replicated snapshot (backup preparing for takeover)."""
        rm = self.rm
        rm.domain_id = snapshot["domain_id"]
        rm.info = DomainInfoBase(rm.domain_id, rm.node_id)
        # A defense-enabled backup keeps judging with its own engine
        # (trust evidence is per-observer and is not replicated).
        rm.info.reputation = rm.reputation
        for pid, rec in snapshot["peers"].items():
            rm.info.add_peer(rec)
        rm.info.resource_graph = snapshot["resource_graph"]
        rm.info.service_graphs = dict(snapshot["service_graphs"])
        rm.info.remote_summaries = dict(snapshot["remote_summaries"])
        rm.info.summary_received_at = dict(
            snapshot.get("summary_received_at", {})
        )
        rm.object_catalog = dict(snapshot["object_catalog"])
        self.tasks = dict(snapshot["tasks"])
        self.sessions = dict(snapshot["sessions"])
        rm.known_rms = dict(snapshot["known_rms"])
        rm.last_seen = dict(snapshot["last_seen"])

    def takeover(self) -> None:
        """Re-point the domain at this (newly activated) RM (§4.1).

        Tells every member to re-address its reports, then replays each
        running session from the last step this backup saw finish.  Any
        STEP_DONE / TASK_DONE sent while the primary was dead is gone,
        so the replay uses a fresh epoch (stale in-flight work is
        dropped by the peers) and a new compose order naming this RM as
        coordinator; re-running an already-finished suffix is safe — the
        sink completes a task at most once per order.
        """
        rm = self.rm
        for pid in rm.info.peers:
            if pid == rm.node_id:
                continue
            rm.send(
                protocol.RM_TAKEOVER, pid, {"rm_id": rm.node_id},
                size=protocol.size_of(protocol.RM_TAKEOVER),
            )
        for session in self.running_sessions():
            task = self.tasks.get(session.task_id)
            if task is None:
                continue
            graph = session.graph
            resume = session.resume_point()
            holder = session.resume_source() or graph.source_peer
            if not rm.info.has_peer(holder) and holder != rm.node_id:
                holder, resume = graph.source_peer, 0
            session.epoch += 1
            order = ComposeOrder(
                task_id=session.task_id,
                rm_id=rm.node_id,
                source_peer=graph.source_peer,
                sink_peer=graph.sink_peer,
                steps=list(graph.steps),
                abs_deadline=task.absolute_deadline,
                importance=task.qos.importance,
                in_bytes=session.order.in_bytes,
                resume_from=resume,
                epoch=session.epoch,
            )
            session.order = order
            for pid in dict.fromkeys([*graph.peers(), holder]):
                if rm.info.has_peer(pid) or pid == rm.node_id:
                    rm._send_or_local(
                        pid, protocol.COMPOSE, {"order": order},
                        size=protocol.size_of(protocol.COMPOSE),
                    )
            rm._send_or_local(
                holder, protocol.START_STREAM,
                {"task_id": session.task_id, "from_step": resume},
                size=protocol.size_of(protocol.START_STREAM),
            )
        tel = telemetry.current()
        if tel.enabled:
            tel.tracer.event(
                "rm.takeover", node=rm.node_id, domain=rm.domain_id
            )

    def __repr__(self) -> str:
        return (
            f"<TaskRegistry tasks={len(self.tasks)} "
            f"sessions={len(self.sessions)}>"
        )
