"""Admission control: accept, redirect, or reject a task (§4.3, §4.5).

Runs the capacity/QoS admission decision for each submitted task,
launches the streaming session for accepted ones (graph composition,
Fig. 2), and forwards unplaceable tasks to a better domain using the
gossiped Bloom summaries — skipping domains whose summaries have gone
stale past the configured bound.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.common.errors import NoFeasibleAllocation
from repro.core import protocol
from repro.core.allocation import AllocationResult, Allocator
from repro.core.session import ComposeOrder, SessionState
from repro.graphs.service_graph import ServiceGraph
from repro.media.objects import MediaObject
from repro.tasks.qos import QoSRequirements
from repro.tasks.task import ApplicationTask, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.control.placement import PlacementEngine
    from repro.core.manager import ResourceManager

#: Under importance-aware admission, a below-average-importance task
#: faces this fraction of the max utilization cap.
LOW_IMPORTANCE_CAP = 0.7


class AdmissionController:
    """Decides and executes task admission for one Resource Manager."""

    def __init__(
        self, rm: "ResourceManager", engine: "PlacementEngine"
    ) -> None:
        self.rm = rm
        self.engine = engine

    # -- admission ----------------------------------------------------------
    def admit(self, task: ApplicationTask) -> str:
        """Try to allocate and launch *task*; returns the disposition.

        Dispositions: ``"accepted"``, ``"redirected"``, ``"rejected"``.
        """
        rm = self.rm
        now = rm.env.now
        sources = rm.info.peers_with_object(task.name)
        obj = rm.object_catalog.get(task.name)
        if not sources or obj is None:
            return self.redirect_or_reject(task, reason="no_object")
        if rm.reputation is not None:
            # Quarantined replica holders leave the eligible list while
            # any clean holder remains (last-resort sources still work).
            clean = [
                pid for pid in sources
                if not rm.reputation.is_quarantined(pid, now)
            ]
            if clean:
                sources = clean
        allocator = self._allocator_for(task, now)
        # Prefer the least-loaded replica holder as the stream source.
        source_peer = min(
            sources, key=lambda pid: rm.info.effective_load(pid, now)
        )
        task.initial_state = obj.fmt
        work_scale = obj.duration_s / rm.rm_config.canonical_duration
        task.meta["work_scale"] = work_scale
        if task.initial_state == task.goal_state:
            # Degenerate: no transcoding needed; direct transfer.
            result = None
            path: List[Any] = []
        else:
            try:
                result = self.engine.place(
                    task,
                    v_init=task.initial_state,
                    v_sol=task.goal_state,
                    source_peer=source_peer,
                    sink_peer=task.origin_peer,
                    in_bytes=obj.size_bytes,
                    work_scale=work_scale,
                    allocator=allocator,
                )
            except NoFeasibleAllocation as exc:
                return self.redirect_or_reject(task, reason=exc.reason)
            path = result.path
        self.launch(task, result, path, source_peer, obj)
        return "accepted"

    def _allocator_for(
        self, task: ApplicationTask, now: float
    ) -> Optional[Allocator]:
        """Importance-aware admission (§3.3): the strict-cap variant.

        With importance-aware admission enabled (RMConfig) and the
        domain loaded past the activation threshold, a task less
        important than the running average is allocated under a reduced
        capacity cap — the top slice of every peer stays reserved for
        important work.  Everyone else gets the normal allocator
        (``None`` = the engine's own).
        """
        rm = self.rm
        cfg = rm.rm_config
        if not cfg.importance_admission or not rm.sessions:
            return None
        utils = rm.info.utilization_vector(now)
        if not utils:
            return None
        mean_util = sum(utils.values()) / len(utils)
        if mean_util < cfg.importance_admission_util:
            return None
        running = [
            rm.tasks[tid].qos.importance
            for tid in rm.sessions
            if tid in rm.tasks
        ]
        if not running or task.qos.importance >= (
            sum(running) / len(running)
        ):
            return None
        return self.engine.strict_variant(LOW_IMPORTANCE_CAP)

    # -- session launch -----------------------------------------------------
    def launch(
        self,
        task: ApplicationTask,
        result: Optional[AllocationResult],
        path: List[Any],
        source_peer: str,
        obj: MediaObject,
    ) -> None:
        """Compose the service chain and start the stream (Fig. 2)."""
        rm = self.rm
        now = rm.env.now
        fairness = (
            result.fairness if result
            else rm.info.load_vector(now).fairness()
        )
        task.mark_allocated(
            [(e.service_id, e.peer_id) for e in path], fairness,
            rm.domain_id,
        )
        graph = ServiceGraph.from_edges(
            task.task_id, path, source_peer, task.origin_peer,
            work_scale=task.meta.get("work_scale", 1.0),
        )
        rm.info.register_service_graph(graph)
        if result is not None:
            rm.info.project_allocation(
                task.task_id, result.deltas, expires_at=task.absolute_deadline
            )
        order = ComposeOrder(
            task_id=task.task_id,
            rm_id=rm.node_id,
            source_peer=source_peer,
            sink_peer=task.origin_peer,
            steps=list(graph.steps),
            abs_deadline=task.absolute_deadline,
            importance=task.qos.importance,
            in_bytes=obj.size_bytes,
            epoch=0,
        )
        session = SessionState(
            task_id=task.task_id, graph=graph, order=order, started_at=now,
        )
        session.data_holder = source_peer
        rm.registry.add_session(session)
        for peer_id in graph.peers():
            rm._send_or_local(
                peer_id, protocol.COMPOSE, {"order": order},
                size=protocol.size_of(protocol.COMPOSE),
            )
        rm._send_or_local(
            source_peer, protocol.START_STREAM,
            {"task_id": task.task_id, "from_step": 0},
            size=protocol.size_of(protocol.START_STREAM),
        )
        task.mark_running()
        rm.stats["admitted"] += 1
        rm._emit(task, "admitted")

    # -- QoS renegotiation ---------------------------------------------------
    def update_qos(self, payload: Dict[str, Any], src: str) -> None:
        """§4.5: a user changed a running task's QoS requirements.

        Only the submitting peer may change a task's QoS.  The new
        deadline is propagated to the session participants via a
        refreshed compose order (same epoch: peers adopt it in place),
        so jobs queued *after* the change are scheduled against the new
        deadline; jobs already on a CPU keep their old one (they were
        released before the user changed their mind).
        """
        rm = self.rm
        task = rm.registry.get(payload["task_id"])
        if task is None or task.state not in (
            TaskState.ALLOCATED, TaskState.RUNNING
        ):
            return
        if payload.get("origin", src) != task.origin_peer:
            return  # only the owner may renegotiate
        new_rel = payload["deadline_abs"] - task.submitted_at
        if new_rel <= 0:
            return  # a deadline already in the past is meaningless
        task.qos = QoSRequirements(
            deadline=new_rel,
            importance=payload.get("importance", task.qos.importance),
            constraints=dict(task.qos.constraints),
        )
        session = rm.registry.session(task.task_id)
        if session is not None:
            # A new order: a peer keeps the one it holds until this lands.
            session.order = order = replace(
                session.order, abs_deadline=task.absolute_deadline,
                importance=task.qos.importance,
            )
            for peer_id in session.graph.peers():
                if rm.info.has_peer(peer_id) or peer_id == rm.node_id:
                    rm._send_or_local(
                        peer_id, protocol.COMPOSE,
                        {"order": order},
                        size=protocol.size_of(protocol.COMPOSE),
                    )
        rm._emit(task, "qos_updated")

    # -- redirection --------------------------------------------------------
    def redirect_or_reject(self, task: ApplicationTask, reason: str) -> str:
        """§4.5: forward to a better domain, or reject."""
        rm = self.rm
        target = self.pick_redirect_target(task)
        if target is not None and task.redirects < rm.rm_config.max_redirects:
            task.redirects += 1
            rm.stats["redirected_out"] += 1
            rm.send(
                protocol.TASK_REDIRECT, target, {"task": task},
                size=protocol.size_of(protocol.TASK_REDIRECT),
            )
            rm._emit(task, "redirected")
            return "redirected"
        task.mark_rejected(rm.env.now, reason=reason)
        rm.stats["rejected"] += 1
        rm._emit(task, "rejected")
        return "rejected"

    def pick_redirect_target(self, task: ApplicationTask) -> Optional[str]:
        """Choose another RM using the gossiped summaries (§4.5).

        Prefers domains whose summary claims the object; among those,
        the least-utilized by summarized mean load.  Falls back to any
        other known RM when no summary matches (the Bloom filter may
        also false-positive — the target then redirects again).

        A summary older than ``RMConfig.redirect_summary_max_age`` is
        no longer *trusted*: its load report and object claim are
        ignored and the domain is demoted to fallback status, exactly
        like an RM we hold no summary for.  ``None`` (the default)
        keeps the paper behavior of trusting any cached report.
        """
        rm = self.rm
        max_age = rm.rm_config.redirect_summary_max_age
        now = rm.env.now
        best: Optional[str] = None
        best_score = float("inf")
        fallback: Optional[str] = None
        for rm_id, _domain in rm.known_rms.items():
            if rm_id == rm.node_id:
                continue
            summary = rm.info.remote_summaries.get(rm_id)
            if summary is None or (
                max_age is not None
                and rm.info.summary_age(rm_id, now) > max_age
            ):
                fallback = fallback or rm_id
                continue
            if not summary.may_have_object(task.name):
                continue
            score = summary.mean_utilization
            if score < best_score:
                best, best_score = rm_id, score
        return best or fallback
