"""A live protocol endpoint: the sim kernel pumped in wall-clock time.

The protocol layer (:class:`~repro.core.peer.Peer`,
:class:`~repro.core.manager.ResourceManager`) is written against the
discrete-event kernel — handler dispatch, profiler loops, RPC timeouts
are all :mod:`repro.sim` processes.  Rather than forking that logic for
the live runtime, each :class:`LiveNode` embeds its *own*
:class:`~repro.sim.core.Environment` and advances it in soft real time
on the asyncio loop (:class:`SimClockPump`): an event scheduled at sim
time *t* fires when the wall clock reaches *t* seconds after node
start.  Sim seconds == wall seconds, so the Profiler's ``LOAD_UPDATE``
heartbeats, the RM's liveness monitor and every protocol timeout run on
real wall-clock timers — through the exact same code paths as the
simulator.

Inbound UDP messages are decoded by the transport and posted to the
node's ordinary mailbox; the mailbox's get dispatches them on the next
pump steps.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.core import protocol
from repro.core.info_base import PeerRecord
from repro.core.manager import ResourceManager, RMConfig, TaskEventFn
from repro.core.peer import Peer, PeerConfig
from repro.media.objects import MediaObject
from repro.net.message import Message
from repro.sim.core import Environment
from repro.sim.events import Event
from repro.sim.ids import Ids
from repro.runtime.transport import PeerDirectory, UdpTransport
from repro.telemetry.logs import get_logger


class SimClockPump:
    """Advances a sim :class:`Environment` in wall-clock time.

    Anchors sim time 0 at the loop time :meth:`run` starts; thereafter
    steps every event whose scheduled time is due and arms one loop
    timer for the next one.  The pump is a loop callback (:meth:`_drain`),
    not a coroutine: an idle wait costs no Task, and :meth:`kick` — an
    external source, a received datagram, scheduled new work — is one
    ``call_soon``.  :meth:`run` only awaits the pump's end, so whoever
    holds its Task still sees a pump that dies.
    """

    def __init__(self, env: Environment, max_batch: int = 1000) -> None:
        self.env = env
        self.max_batch = max_batch
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._done: Optional["asyncio.Future[None]"] = None
        self._soon: Optional[asyncio.Handle] = None  # queued _drain
        self._timer: Optional[asyncio.TimerHandle] = None  # next sim event
        self._stopped = False
        self._anchor = 0.0

    def kick(self) -> None:
        """Wake the pump (new externally-scheduled work); idempotent."""
        if self._soon is None and self._loop is not None:
            self._soon = self._loop.call_soon(self._drain)

    def stop(self) -> None:
        """End :meth:`run`; afterwards nothing of the pump is armed,
        and a late :meth:`kick` arms nothing."""
        self._stopped = True
        for handle in (self._soon, self._timer):
            if handle is not None:
                handle.cancel()
        self._loop = self._soon = self._timer = None
        if self._done is not None and not self._done.done():
            self._done.set_result(None)

    def run_process(
        self, gen: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> "asyncio.Future[Any]":
        """Start *gen* as a sim process; resolve a future with its result."""
        loop = self._loop or asyncio.get_running_loop()
        future: asyncio.Future[Any] = loop.create_future()
        proc = self.env.process(gen, name=name)

        def _finish(event: Event) -> None:
            if future.cancelled():
                return
            if event.ok:
                future.set_result(event.value)
            else:
                future.set_exception(event.value)

        proc.callbacks.append(_finish)
        self.kick()
        return future

    async def run(self) -> None:
        """Pump until :meth:`stop`; raises what a sim event raised."""
        self._loop = loop = asyncio.get_running_loop()
        self._done = loop.create_future()
        self._anchor = loop.time() - self.env.now
        try:
            if not self._stopped:
                self._drain()
                await self._done
        finally:
            self.stop()

    def _drain(self) -> None:
        """Step every due event, then arm the timer for the next one."""
        self._soon = None
        if self._stopped:
            return
        env, now, anchor = self.env, self._loop.time, self._anchor
        try:
            for _ in range(self.max_batch):
                if anchor + env.peek() > now():
                    break
                env.step()
                if self._stopped:
                    return
            else:
                self.kick()  # batch full: yield to I/O, keep draining
                return
        except Exception as exc:
            self._done.set_exception(exc)  # run() raises it
            self.stop()
            return
        when = anchor + env.peek()  # inf: nothing scheduled, nothing to arm
        if self._timer is not None:
            if when >= self._timer.when():
                return  # the armed timer fires first and re-drains
            self._timer.cancel()
            self._timer = None
        if when != float("inf"):
            self._timer = self._loop.call_at(when, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        if self._soon is None:  # else the queued drain covers it
            self._drain()


@dataclass
class NodeSpec:
    """A live node's identity, capabilities, and hosted inventory.

    ``service_edges`` are the resource-graph edges this peer can
    execute, announced at registration so the elected RM can build the
    domain resource graph: dicts with keys ``src``, ``dst`` (states,
    e.g. :class:`~repro.media.formats.MediaFormat`), ``service_id``,
    ``work``, ``out_bytes``, ``edge_id``.
    """

    node_id: str
    power: float = 10.0
    bandwidth: float = 1.25e6
    uptime: float = 1.0
    objects: List[MediaObject] = field(default_factory=list)
    service_edges: List[Dict[str, Any]] = field(default_factory=list)
    profiler_update_period: float = 0.5
    scheduling_policy: str = "LLS"

    def peer_config(self) -> PeerConfig:
        return PeerConfig(
            power=self.power,
            bandwidth=self.bandwidth,
            uptime_score=self.uptime,
            scheduling_policy=self.scheduling_policy,
            profiler_update_period=self.profiler_update_period,
        )


class LiveNode:
    """One middleware process: socket + event kernel + protocol endpoint.

    Lifecycle: :meth:`start` binds the UDP socket, starts the clock
    pump, registers with its roster agent (*agent_id*), and — once the
    ``JOIN_ACK`` assigns a role — constructs the *ordinary* protocol
    object (a :class:`Peer`, or a :class:`ResourceManager` if this node
    won the §4.1 qualification election) and calls *on_role* with
    itself.  From then on the node is indistinguishable from its
    simulated twin: same handlers, same message kinds, same timeouts.

    There is one ``JOIN_ACK`` shape: role, ``rm_id``, ``domain_id`` and
    an address-only roster slice.  An RM learns its members'
    capabilities from the ``JOIN_REQUEST`` records the agents forward
    once its host has announced it ready.
    """

    def __init__(
        self,
        spec: NodeSpec,
        directory: PeerDirectory,
        agent_id: str,
        host: str = "127.0.0.1",
        port: int = 0,
        rm_config: Optional[RMConfig] = None,
        on_task_event: Optional[TaskEventFn] = None,
        join_timeout: float = 10.0,
        on_role: Optional[Callable[["LiveNode"], None]] = None,
        **transport_kwargs: Any,
    ) -> None:
        self.spec = spec
        self.node_id = spec.node_id
        self.agent_id = agent_id
        self.rm_config = rm_config
        self.on_task_event = on_task_event
        self.join_timeout = join_timeout
        #: Called with this node once it has assumed its role (the
        #: RM's host announces ``rm_ready`` from here).
        self.on_role = on_role
        self.env = Environment(ids=Ids.incarnation())
        self.pump = SimClockPump(self.env)
        self.directory = directory
        self.transport = UdpTransport(
            spec.node_id, directory, self._on_wire_message,
            host=host, port=port, ids=self.env.ids, **transport_kwargs,
        )
        #: The protocol endpoint; built once the JOIN_ACK assigns a role.
        self.node: Optional[Peer] = None
        self.role: Optional[str] = None
        self.rm_id: Optional[str] = None
        self.domain_id: Optional[str] = None
        self._joined = asyncio.Event()
        self._join_payload: Optional[Dict[str, Any]] = None
        #: (member count, future) a host awaits via :meth:`admitted`.
        self._admit_goal: Optional[Tuple[int, "asyncio.Future[None]"]] = None
        self._pump_task: Optional[asyncio.Task] = None
        self.log = get_logger("runtime.node", spec.node_id)

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "LiveNode":
        """Bind, pump, register, and assume the assigned role."""
        await self.transport.start()
        self.log.info(
            "bound %s:%s, joining via %s",
            self.transport.host, self.transport.port, self.agent_id,
        )
        self._pump_task = asyncio.get_running_loop().create_task(
            self.pump.run(), name=f"pump:{self.node_id}"
        )
        self._pump_task.add_done_callback(self._pump_done)
        # Joining is an application-level retry loop, not a single
        # reliable send: under a mass-join burst the registrar's process
        # can stall longer than the transport's whole retry budget
        # (hundreds of multi-KB JOIN_REQUESTs against a default-sized
        # kernel rcvbuf), and a join lost *there* would strand the node
        # forever.  Re-announcing is idempotent at the agent.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.join_timeout
        retry = min(2.0, max(0.5, self.join_timeout / 10.0))
        while not self._joined.is_set():
            self.transport.send(Message(
                kind=protocol.JOIN_REQUEST,
                src=self.node_id,
                dst=self.agent_id,
                payload=self._join_request_payload(),
                size=protocol.size_of(protocol.JOIN_REQUEST),
                msg_id=next(self.env.ids.msg),
            ))
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise asyncio.TimeoutError(
                    f"{self.node_id}: no JOIN_ACK within "
                    f"{self.join_timeout}s"
                )
            try:
                await asyncio.wait_for(
                    self._joined.wait(), min(retry, remaining)
                )
            except asyncio.TimeoutError:
                continue
        assert self._join_payload is not None
        self._assume_role(self._join_payload)
        return self

    def _pump_done(self, task: "asyncio.Task[None]") -> None:
        """A pump that dies takes the whole protocol endpoint with it —
        that must never pass silently (it once hid an admission bug)."""
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self.log.error("clock pump died: %r", exc)

    def _join_request_payload(self) -> Dict[str, Any]:
        return {
            "peer_id": self.node_id,
            "host": self.transport.host,
            "port": self.transport.port,
            "power": self.spec.power,
            "bandwidth": self.spec.bandwidth,
            "uptime": self.spec.uptime,
            "objects": list(self.spec.objects),
            "edges": [dict(e) for e in self.spec.service_edges],
        }

    async def leave(self) -> None:
        """Graceful departure: PEER_LEAVE to RM and agent, then down."""
        payload = {"peer_id": self.node_id}
        self.transport.send(Message(
            kind=protocol.PEER_LEAVE, src=self.node_id,
            dst=self.agent_id, payload=payload,
            size=protocol.size_of(protocol.PEER_LEAVE),
            msg_id=next(self.env.ids.msg),
        ))
        if self.node is not None and self.node.alive:
            self.node.leave()  # sends PEER_LEAVE to the RM, then fails
        await self.transport.flush()

    async def stop(self) -> None:
        """Tear the node down (no departure protocol — a crash)."""
        self.log.info("stopping")
        self.pump.stop()
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except (asyncio.CancelledError, Exception):
                pass
        await self.transport.aclose()

    # -- wiring ------------------------------------------------------------
    def _on_wire_message(self, msg: Message) -> None:
        if self.node is None:
            # Pre-role phase: only the join handshake is understood.
            if msg.kind == protocol.JOIN_ACK and not self._joined.is_set():
                self._join_payload = msg.payload
                self._joined.set()
            return
        # Not taken inline: the pump's drain is where handler errors land.
        self.node.post(msg)
        self.pump.kick()

    def _assume_role(self, ack: Dict[str, Any]) -> None:
        self.role = ack["role"]
        self.rm_id = ack["rm_id"]
        self.domain_id = ack.get("domain_id", "d0")
        roster: Dict[str, Dict[str, Any]] = ack.get("roster", {})
        # Learn the RM's and the agent's address (a shared directory
        # already has them; a per-process one needs this).
        for pid, rec in roster.items():
            if pid != self.node_id and pid not in self.directory:
                self.directory.add(pid, rec["host"], rec["port"])
        if self.role == "rm":
            node = ResourceManager(
                self.env, self.transport, self.node_id, self.domain_id,
                rm_config=self.rm_config,
                peer_config=self.spec.peer_config(),
                on_task_event=self.on_task_event,
            )
            # Membership wiring for the live join protocol: the roster
            # agents forward JOIN_REQUESTs here; admission reuses the
            # same roster/info-base paths as the simulator overlay.
            node.on(protocol.JOIN_REQUEST, self._make_rm_join_handler(node))
        else:
            node = Peer(
                self.env, self.transport, self.node_id,
                config=self.spec.peer_config(),
                rm_id=self.rm_id,
            )
        for obj in self.spec.objects:
            node.store_object(obj)
        for edge in self.spec.service_edges:
            node.host_service(edge["service_id"], edge)
        self.node = node
        self.log.info(
            "assumed role %s (rm=%s domain=%s)",
            self.role, self.rm_id, self.domain_id,
        )
        self.pump.kick()
        if self.on_role is not None:
            self.on_role(self)

    def _rm_admit(self, rm: ResourceManager, rec: Dict[str, Any]) -> None:
        """Fold one announced member into the RM's information base."""
        if rm.info.has_peer(rec["peer_id"]):
            return
        rm.admit_peer(
            PeerRecord(
                peer_id=rec["peer_id"],
                power=rec["power"],
                bandwidth=rec["bandwidth"],
                uptime_score=rec["uptime"],
            ),
            objects={obj.name: obj for obj in rec.get("objects", [])},
        )
        for edge in rec.get("edges", []):
            rm.info.register_service_instance(
                edge["src"], edge["dst"], edge["service_id"],
                rec["peer_id"], edge["work"], edge["out_bytes"],
                edge_id=edge.get("edge_id", ""),
            )

    def _make_rm_join_handler(
        self, rm: ResourceManager
    ) -> Callable[[Message], None]:
        def handle_join(msg: Message) -> None:
            rec = msg.payload
            self.directory.add(rec["peer_id"], rec["host"], rec["port"])
            self._rm_admit(rm, rec)
            self._check_admitted()
        return handle_join

    def admitted(self, n_peers: int) -> "asyncio.Future[None]":
        """RM role: a future the join handler resolves once the
        information base holds *n_peers* members — hosts await domain
        formation on it instead of polling.  One waiter at a time."""
        if not isinstance(self.node, ResourceManager):
            raise RuntimeError(f"{self.node_id} is not the RM")
        future = asyncio.get_running_loop().create_future()
        self._admit_goal = (n_peers, future)
        self._check_admitted()
        return future

    def _check_admitted(self) -> None:
        if self._admit_goal is not None:
            n_peers, future = self._admit_goal
            if self.node.info.n_peers >= n_peers:
                self._admit_goal = None
                if not future.done():
                    future.set_result(None)

    # -- application API ---------------------------------------------------
    def submit_task(
        self,
        name: str,
        goal_state: Any,
        deadline: float,
        importance: float = 1.0,
        timeout: float = 30.0,
    ) -> "asyncio.Future[Message]":
        """Submit a query from this peer; resolves with the TASK_ACK."""
        if self.node is None:
            raise RuntimeError(f"{self.node_id} has not joined yet")
        return self.pump.run_process(
            self.node.submit_task(
                name, goal_state, deadline,
                importance=importance, timeout=timeout,
            ),
            name=f"{self.node_id}:submit:{name}",
        )

    def summary(self) -> Dict[str, Any]:
        return self.transport.summary()

    def __repr__(self) -> str:
        return (
            f"<LiveNode {self.node_id} role={self.role or 'joining'} "
            f"@{self.transport.host}:{self.transport.port}>"
        )
