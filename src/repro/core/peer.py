"""A processing peer: network endpoint + CPU + Profiler + hosted services.

Each peer runs the three per-processor components of §2: the Connection
Manager role is played by the :class:`~repro.net.node.NetNode` plumbing,
the **Profiler** measures load and reports it to the RM, and the **Local
Scheduler** (an LLS :class:`~repro.scheduling.Processor` by default)
orders the service jobs that sessions drop onto the CPU.

Peers execute service chains hop by hop: a ``STREAM`` message carrying
the task's data arrives, the peer runs its step as a CPU job, then
forwards the result to the next hop (or the sink).  Progress
(``STEP_DONE``) and completion (``TASK_DONE``) reports flow back to the
coordinating RM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional

from repro import telemetry
from repro.core import protocol
from repro.core.session import ComposeOrder
from repro.media.objects import MediaObject
from repro.monitoring.profiler import Profiler
from repro.net.connections import ConnectionManager
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import NetNode
from repro.scheduling.job import Job
from repro.scheduling.policies import SchedulingPolicy, make_policy
from repro.scheduling.processor import Processor
from repro.sim.core import Environment
from repro.sim.events import Event


@dataclass
class PeerConfig:
    """Static peer capabilities (heterogeneous across the population)."""

    power: float = 10.0
    bandwidth: float = 1.25e6
    uptime_score: float = 1.0
    scheduling_policy: str = "LLS"
    quantum: float = 0.1
    #: Connection-slot budget ("limited by the resources at the peer").
    max_connections: int = 32
    profiler_update_period: float = 2.0
    profiler_sample_period: float = 0.5
    profiler_alpha: float = 0.4
    #: §4.4 QoS-adaptive reporting: busy peers report faster.
    profiler_adaptive: bool = False

    def __post_init__(self) -> None:
        if self.power <= 0:
            raise ValueError(f"power must be positive, got {self.power}")
        if self.bandwidth <= 0:
            raise ValueError(
                f"bandwidth must be positive, got {self.bandwidth}"
            )


class Peer(NetNode):
    """A domain member peer.

    Parameters
    ----------
    env, network:
        Simulation substrate.
    peer_id:
        Unique id.
    config:
        Capabilities and component periods.
    rm_id:
        The peer's current domain Resource Manager (may change on
        failover / domain migration).
    policy:
        Optional pre-built scheduling policy (overrides config name).
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        peer_id: str,
        config: Optional[PeerConfig] = None,
        rm_id: Optional[str] = None,
        policy: Optional[SchedulingPolicy] = None,
    ) -> None:
        super().__init__(env, network, peer_id)
        self.config = config or PeerConfig()
        self.rm_id = rm_id
        self.processor = Processor(
            env,
            peer_id,
            power=self.config.power,
            policy=policy or make_policy(self.config.scheduling_policy),
            quantum=self.config.quantum,
        )
        self.profiler = Profiler(
            env,
            self.processor,
            report_fn=self._send_load_update,
            update_period=self.config.profiler_update_period,
            sample_period=self.config.profiler_sample_period,
            alpha=self.config.profiler_alpha,
            adaptive=self.config.profiler_adaptive,
        )
        #: Media objects stored locally, by name (O_i of §3.2).
        self.objects: Dict[str, MediaObject] = {}
        #: Hosted service types by service id (S_i of §3.2).
        self.services: Dict[str, Any] = {}
        #: Active compose orders by (task_id); newest epoch wins.
        self._orders: Dict[str, ComposeOrder] = {}
        #: Jobs currently on the CPU per task (for cancellation).
        self._task_jobs: Dict[str, list[Job]] = {}
        #: §3.2 item 5 — current dependencies per task: the peers this
        #: peer is receiving services from ("up") / offering to ("down").
        self._deps: Dict[str, Dict[str, set]] = {}
        #: The Connection Manager of §2: bounded open connections.
        self.connections = ConnectionManager(
            self, max_connections=self.config.max_connections
        )
        self.alive = True

        self.on(protocol.COMPOSE, self._handle_compose)
        self.on(protocol.START_STREAM, self._handle_start_stream)
        self.on(protocol.STREAM, self._handle_stream)
        self.on(protocol.CANCEL_TASK, self._handle_cancel_task)
        self.on(protocol.RM_TAKEOVER, self._handle_rm_takeover)

    # -- hosting ------------------------------------------------------------
    def store_object(self, obj: MediaObject) -> None:
        """Make a media object locally available."""
        self.objects[obj.name] = obj

    def host_service(self, service_id: str, spec: Any = None) -> None:
        """Offer a service type on this peer."""
        self.services[service_id] = spec

    #: Class-wide count of peer deaths.  ``alive`` flips False only in
    #: :meth:`fail` below, so any cache derived from liveness can use
    #: this epoch (plus a membership version) as its validity key.
    _death_epoch = 0

    # -- failure & departure ----------------------------------------------------
    def fail(self) -> None:
        """Crash: drop off the network, kill all local work."""
        if not self.alive:
            return
        self.alive = False
        Peer._death_epoch += 1
        self.connections.close_all()
        self.network.set_down(self.node_id)
        self.processor.stop()
        self.profiler.stop()
        self.shutdown()

    def leave(self) -> None:
        """Graceful departure: tell the RM first, then go down."""
        if not self.alive:
            return
        if self.rm_id:
            self.send(
                protocol.PEER_LEAVE,
                self.rm_id,
                {"peer_id": self.node_id},
                size=protocol.size_of(protocol.PEER_LEAVE),
            )
        self.fail()

    # -- outbound ---------------------------------------------------------------
    def current_dependencies(self) -> tuple[set, set]:
        """(upstream, downstream) peers across all active sessions."""
        up: set = set()
        down: set = set()
        for dep in self._deps.values():
            up |= dep["up"]
            down |= dep["down"]
        up.discard(self.node_id)
        down.discard(self.node_id)
        return up, down

    def _dep(self, task_id: str) -> Dict[str, set]:
        dep = self._deps.get(task_id)
        if dep is None:
            dep = self._deps[task_id] = {"up": set(), "down": set()}
        return dep

    def _send_load_update(self, report) -> None:
        if not self.alive or not self.rm_id:
            return
        up, down = self.current_dependencies()
        report.dependencies = len(up) + len(down)
        self.send(
            protocol.LOAD_UPDATE,
            self.rm_id,
            {"report": report},
            size=protocol.size_of(protocol.LOAD_UPDATE),
        )

    def submit_task(
        self,
        name: str,
        goal_state: Any,
        deadline: float,
        importance: float = 1.0,
        timeout: float = 30.0,
    ) -> Generator[Event, Any, Message]:
        """Submit a query to the RM; returns the TASK_ACK reply.

        Use as ``reply = yield from peer.submit_task(...)``; raises
        :class:`~repro.net.node.RPCTimeout` if the RM is unreachable.
        """
        if not self.rm_id:
            raise RuntimeError(f"{self.node_id} has no resource manager")
        reply = yield from self.rpc(
            protocol.TASK_REQUEST,
            self.rm_id,
            {
                "name": name,
                "goal_state": goal_state,
                "deadline": deadline,
                "importance": importance,
                "origin": self.node_id,
            },
            timeout=timeout,
            size=protocol.size_of(protocol.TASK_REQUEST),
        )
        return reply

    def request_qos_change(
        self, task_id: str, new_deadline_abs: float,
        new_importance: Optional[float] = None,
    ) -> None:
        """§4.5: ask the RM to relax/tighten a running task's QoS.

        ``new_deadline_abs`` is the new *absolute* completion deadline.
        Users "may reduce the requested bit-rate or relax their
        deadlines to cope with congested networks, or increase the QoS
        parameters if they assume resources are abundant".
        """
        if not self.rm_id:
            raise RuntimeError(f"{self.node_id} has no resource manager")
        payload = {
            "task_id": task_id,
            "deadline_abs": new_deadline_abs,
            "origin": self.node_id,
        }
        if new_importance is not None:
            payload["importance"] = new_importance
        self.send(
            protocol.QOS_UPDATE, self.rm_id, payload,
            size=protocol.size_of(protocol.QOS_UPDATE),
        )

    # -- handlers -----------------------------------------------------------------
    def _handle_compose(self, msg: Message) -> None:
        order: ComposeOrder = msg.payload["order"]
        current = self._orders.get(order.task_id)
        if current is not None and current.epoch > order.epoch:
            return  # stale repair
        self._orders[order.task_id] = order

    def _handle_start_stream(self, msg: Message) -> None:
        """The RM told us to (re)start emitting a task's data."""
        task_id = msg.payload["task_id"]
        from_step = msg.payload.get("from_step", 0)
        order = self._orders.get(task_id)
        if order is None:
            return
        self._forward_stream(order, from_step)

    def _forward_stream(self, order: ComposeOrder, step_index: int) -> None:
        """Send the data entering *step_index* to the peer hosting it."""
        nbytes = order.bytes_into(step_index)
        if step_index >= len(order.steps):
            dst = order.sink_peer
        else:
            dst = order.steps[step_index].peer_id
        payload = {
            "task_id": order.task_id,
            "step_index": step_index,
            "epoch": order.epoch,
            "from": self.node_id,
        }
        if dst != self.node_id:
            self._dep(order.task_id)["down"].add(dst)
        if dst == self.node_id:
            # Local hop: skip the network, process immediately (spawning
            # the step-execution process, as the dispatcher would).
            result = self._process_stream(payload)
            if result is not None:
                self.env.process(
                    result, name=f"{self.node_id}:local-step"
                )
        else:
            self.connections.ensure(dst)
            self.profiler.note_bytes_out(nbytes)
            self.send(protocol.STREAM, dst, payload, size=max(nbytes, 1.0))

    def _handle_stream(self, msg: Message) -> Optional[Generator]:
        return self._process_stream(msg.payload)

    def _process_stream(
        self, payload: Dict[str, Any]
    ) -> Optional[Generator[Event, Any, None]]:
        task_id = payload["task_id"]
        step_index = payload["step_index"]
        epoch = payload.get("epoch", 0)
        order = self._orders.get(task_id)
        if order is None or epoch < order.epoch:
            return None  # unknown task or stale epoch: drop
        if step_index >= len(order.steps):
            # We are the sink: the task is complete.
            self._task_complete(order)
            return None
        step = order.steps[step_index]
        if step.peer_id != self.node_id:
            return None  # mis-delivered (stale repair); drop
        upstream = payload.get("from")
        if upstream and upstream != self.node_id:
            self._dep(task_id)["up"].add(upstream)
        return self._run_step(order, step_index)

    def _run_step(
        self, order: ComposeOrder, step_index: int
    ) -> Generator[Event, Any, None]:
        step = order.steps[step_index]
        job = Job(
            work=step.work,
            abs_deadline=order.abs_deadline,
            release=self.env.now,
            importance=order.importance,
            task_id=order.task_id,
            service_id=step.service_id,
        )
        self._task_jobs.setdefault(order.task_id, []).append(job)
        started = self.env.now
        tel = telemetry.current()
        span = None
        if tel.enabled:
            trace_id = f"task:{order.task_id}"
            parent = tel.tracer.open_span(trace_id)
            span = tel.tracer.start_span(
                step.service_id, kind=telemetry.SERVICE, node=self.node_id,
                trace_id=trace_id,
                parent_id=parent.span_id if parent else None,
                step_index=step_index, work=step.work, epoch=order.epoch,
            )
        done = self.processor.submit(job)
        yield done
        jobs = self._task_jobs.get(order.task_id)
        if jobs and job in jobs:
            jobs.remove(job)
        if job.cancelled or not self.alive:
            if span is not None:
                tel.tracer.end_span(span, status="cancelled")
            return
        exec_time = self.env.now - started
        if span is not None:
            wait = (
                job.started_at - started
                if job.started_at is not None else 0.0
            )
            tel.tracer.end_span(span, status="ok", queued=wait)
            tel.metrics.histogram(
                "repro_sched_service_time_seconds", service=step.service_id
            ).observe(exec_time)
        self.profiler.observe_service(step.service_id, exec_time, step.work)
        current = self._orders.get(order.task_id)
        if current is None or current.epoch != order.epoch:
            return  # repaired away while we were computing
        # Report progress, then push the data onward.
        self.send(
            protocol.STEP_DONE,
            order.rm_id,
            {
                "task_id": order.task_id,
                "step_index": step_index,
                "peer_id": self.node_id,
                "epoch": order.epoch,
                # Measured computation interval (§3.1 item 7: the RM's
                # service graphs carry run-time collected timings).
                "started": started,
                "finished": self.env.now,
            },
            size=protocol.size_of(protocol.STEP_DONE),
        )
        self._forward_stream(order, step_index + 1)

    def _task_complete(self, order: ComposeOrder) -> None:
        self._orders.pop(order.task_id, None)
        self._deps.pop(order.task_id, None)
        self.send(
            protocol.TASK_DONE,
            order.rm_id,
            {
                "task_id": order.task_id,
                "completed_at": self.env.now,
                "sink": self.node_id,
            },
            size=protocol.size_of(protocol.TASK_DONE),
        )

    def _handle_cancel_task(self, msg: Message) -> None:
        task_id = msg.payload["task_id"]
        self._orders.pop(task_id, None)
        self._deps.pop(task_id, None)
        for job in self._task_jobs.pop(task_id, []):
            self.processor.cancel(job, "task cancelled by RM")

    def _handle_rm_takeover(self, msg: Message) -> None:
        """The backup RM took over: re-point our reports (§4.1)."""
        self.rm_id = msg.payload["rm_id"]

    def __repr__(self) -> str:
        return (
            f"<Peer {self.node_id} power={self.config.power:g} "
            f"rm={self.rm_id} {'up' if self.alive else 'down'}>"
        )
