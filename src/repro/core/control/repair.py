"""Failure repair and adaptive reassignment (§4.1, §4.5).

Senses withdrawn connections (a peer silent for several update periods
is declared dead), prunes the resource graph, re-runs the allocation
for interrupted tasks from the state their data had reached, and —
under domain overload — voluntarily migrates a running task's remaining
steps away from the hottest peer when that buys enough fairness.
"""

from __future__ import annotations

from typing import Any, List, Optional, TYPE_CHECKING

from repro.common.errors import NoFeasibleAllocation
from repro.core import protocol
from repro.core.allocation import AllocationResult
from repro.core.session import ComposeOrder, SessionState
from repro.graphs.service_graph import ServiceGraph
from repro.tasks.task import ApplicationTask, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.control.placement import PlacementEngine
    from repro.core.manager import ResourceManager

#: Peer-liveness scan period (seconds).
MONITOR_PERIOD = 1.0


class RepairCoordinator:
    """Owns peer-failure repair and overload reassignment for one RM."""

    def __init__(
        self, rm: "ResourceManager", engine: "PlacementEngine"
    ) -> None:
        self.rm = rm
        self.engine = engine

    # -- liveness -----------------------------------------------------------
    def check_liveness(self, now: float) -> None:
        """Sense withdrawn connections (silent peers, §4.1)."""
        rm = self.rm
        cfg = rm.rm_config
        limit = cfg.dead_after_periods * max(
            cfg.expected_update_period, MONITOR_PERIOD
        )
        last_seen = rm.last_seen
        for peer_id in list(rm.info.peers):
            if peer_id == rm.node_id:
                continue
            if now - last_seen.get(peer_id, now) > limit:
                self.peer_down(peer_id, graceful=False)

    def peer_down(self, peer_id: str, graceful: bool) -> None:
        """Handle a departed/failed member (§4.1)."""
        rm = self.rm
        if not rm.info.has_peer(peer_id):
            return
        rm.info.remove_peer(peer_id)
        rm.last_seen.pop(peer_id, None)
        # Objects hosted only there become unavailable.
        for name in list(rm.object_catalog):
            if not rm.info.peers_with_object(name):
                del rm.object_catalog[name]
        # Repair interrupted tasks (the roster no longer lists the dead
        # peer, so scan the session graphs directly).
        affected = [
            s.graph for s in rm.sessions.values()
            if s.graph.uses_peer(peer_id)
        ]
        for graph in affected:
            task = rm.tasks.get(graph.task_id)
            if task is None:
                continue
            if not rm.rm_config.enable_repair:
                rm.registry.fail(task, f"peer {peer_id} failed")
                continue
            self.repair_task(task, dead_peer=peer_id)

    # -- repair -------------------------------------------------------------
    def repair_task(self, task: ApplicationTask, dead_peer: str) -> None:
        """Re-run the allocation from the task's current data state (§4.1)."""
        rm = self.rm
        session = rm.sessions.get(task.task_id)
        if session is None:
            return
        if dead_peer == task.origin_peer:
            rm.registry.fail(task, "origin peer failed")
            return
        # Where is the data now, and in which state?
        resume = session.resume_point()
        holder = session.resume_source()
        graph = session.graph
        if holder is None or holder == dead_peer or not rm.info.has_peer(holder):
            # The data died with the holder: restart from the source.
            holder = graph.source_peer
            resume = 0
            if holder == dead_peer or not rm.info.has_peer(holder):
                # Source gone too: another replica?
                candidates = rm.info.peers_with_object(task.name)
                if not candidates:
                    rm.registry.fail(task, "source object lost")
                    return
                holder = candidates[0]
        if resume == 0:
            v_now = task.initial_state
            in_bytes = rm.object_catalog[task.name].size_bytes \
                if task.name in rm.object_catalog else 0.0
        else:
            v_now = graph.steps[resume - 1].dst_state
            in_bytes = graph.steps[resume - 1].out_bytes
        # Remaining conversion work still needed?
        if v_now == task.goal_state:
            remaining_path: List[Any] = []
            result = None
        else:
            try:
                result = self.engine.place(
                    task,
                    v_init=v_now,
                    v_sol=task.goal_state,
                    source_peer=holder,
                    sink_peer=task.origin_peer,
                    in_bytes=in_bytes,
                    work_scale=task.meta.get("work_scale", 1.0),
                    phase="repair",
                )
                remaining_path = result.path
            except NoFeasibleAllocation:
                rm.registry.fail(task, "repair found no allocation")
                return
        session.repairs += 1
        task.repairs += 1
        rm.stats["repairs"] += 1
        self._recompose(
            task, session, remaining_path, result, holder, resume,
            skip_peer=dead_peer,
        )
        rm._emit(task, "repaired")

    # -- reassignment -------------------------------------------------------
    def maybe_reassign(self) -> None:
        """§4.5: under overload/unfairness, migrate a running task."""
        rm = self.rm
        now = rm.env.now
        utils = rm.info.utilization_vector(now)
        if not utils:
            return
        mean_util = sum(utils.values()) / len(utils)
        # §4.5: reassignment is an *overload* response — a merely uneven
        # but lightly loaded domain is left alone (migrating a healthy
        # task costs a restart of its remaining steps).
        if mean_util < rm.rm_config.overload_utilization:
            return
        # Candidate: the running task with the most remaining steps on the
        # most-loaded peer, lowest importance first.
        hottest = max(utils, key=lambda p: utils[p])
        candidates: List[tuple[float, ApplicationTask, SessionState]] = []
        for session in rm.sessions.values():
            task = rm.tasks.get(session.task_id)
            if task is None or task.state is not TaskState.RUNNING:
                continue
            resume = session.resume_point()
            future = session.graph.steps[resume:]
            if any(s.peer_id == hottest for s in future):
                candidates.append((task.qos.importance, task, session))
        if not candidates:
            return
        candidates.sort(key=lambda t: t[0])
        _, task, session = candidates[0]
        self.migrate_task(task, session, avoid_peer=hottest)

    def migrate_task(
        self, task: ApplicationTask, session: SessionState, avoid_peer: str
    ) -> None:
        """Re-allocate a running task's remaining steps away from a hot peer."""
        rm = self.rm
        resume = session.resume_point()
        graph = session.graph
        holder = session.resume_source() or graph.source_peer
        if not rm.info.has_peer(holder):
            return
        if resume == 0:
            v_now = task.initial_state
            in_bytes = session.order.in_bytes
        else:
            v_now = graph.steps[resume - 1].dst_state
            in_bytes = graph.steps[resume - 1].out_bytes
        if v_now == task.goal_state:
            return
        # The allocator routes from the load view as-is; the migration
        # is only taken when it avoids the hot peer AND buys fairness.
        old_fairness = rm.info.load_vector(rm.env.now).fairness()
        try:
            result = self.engine.place(
                task,
                v_init=v_now,
                v_sol=task.goal_state,
                source_peer=holder,
                sink_peer=task.origin_peer,
                in_bytes=in_bytes,
                work_scale=task.meta.get("work_scale", 1.0),
                phase="reassign",
            )
        except NoFeasibleAllocation:
            return
        uses_hot = any(e.peer_id == avoid_peer for e in result.path)
        current_future = graph.steps[resume:]
        same = [
            (s.service_id, s.peer_id) for s in current_future
        ] == [(e.service_id, e.peer_id) for e in result.path]
        if (
            same
            or uses_hot
            or result.fairness
            < old_fairness + rm.rm_config.reassign_min_gain
        ):
            return
        # Cancel the not-yet-run suffix at its old peers.
        for step in current_future:
            rm._send_or_local(
                step.peer_id, protocol.CANCEL_TASK,
                {"task_id": task.task_id},
                size=protocol.size_of(protocol.CANCEL_TASK),
            )
        rm.stats["reassignments"] += 1
        self._recompose(task, session, result.path, result, holder, resume)
        rm._emit(task, "reassigned")

    # -- shared re-composition ----------------------------------------------
    def _recompose(
        self,
        task: ApplicationTask,
        session: SessionState,
        new_path: List[Any],
        result: Optional[AllocationResult],
        holder: str,
        resume: int,
        skip_peer: Optional[str] = None,
    ) -> None:
        """Splice a fresh suffix into the service graph and re-announce.

        Rebuilds the chain as done-prefix + new suffix, bumps the
        session epoch, refreshes the projected load, and sends the new
        compose order to everyone still involved (the holder resumes
        the stream from *resume*).
        """
        rm = self.rm
        graph = session.graph
        scale = task.meta.get("work_scale", 1.0)
        suffix = ServiceGraph.from_edges(
            task.task_id, new_path, holder, task.origin_peer,
            work_scale=scale, index_offset=resume,
        )
        graph.steps = list(graph.steps[:resume]) + list(suffix.steps)
        session.epoch += 1
        rm.info.release_projection(task.task_id)
        if result is not None:
            rm.info.project_allocation(
                task.task_id, result.deltas, expires_at=task.absolute_deadline
            )
        task.allocation = graph.allocation_pairs()
        order = ComposeOrder(
            task_id=task.task_id,
            rm_id=rm.node_id,
            source_peer=graph.source_peer,
            sink_peer=task.origin_peer,
            steps=list(graph.steps),
            abs_deadline=task.absolute_deadline,
            importance=task.qos.importance,
            in_bytes=session.order.in_bytes,
            resume_from=resume,
            epoch=session.epoch,
        )
        session.order = order
        # Deterministic fan-out order (graph first-seen order, holder
        # appended): iterating a set of str here made the message
        # sequence — and thus the whole trajectory — depend on
        # PYTHONHASHSEED, breaking run reproducibility under churn.
        recipients = dict.fromkeys(graph.peers())
        recipients.setdefault(holder, None)
        for peer_id in recipients:
            if skip_peer is not None and peer_id == skip_peer:
                continue
            rm._send_or_local(
                peer_id, protocol.COMPOSE, {"order": order},
                size=protocol.size_of(protocol.COMPOSE),
            )
        rm._send_or_local(
            holder, protocol.START_STREAM,
            {"task_id": task.task_id, "from_step": resume},
            size=protocol.size_of(protocol.START_STREAM),
        )
