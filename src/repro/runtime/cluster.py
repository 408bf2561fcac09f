"""An in-process live domain: N peers + 1 elected RM over localhost UDP.

:class:`LiveCluster` is the harness tests and demos build on.  It
hosts one :class:`~repro.runtime.agent.RosterAgent` — the same
membership endpoint every shard of the multi-process runtime runs; with
no seed agents it is its own coordinator — plus one
:class:`~repro.runtime.node.LiveNode` per spec on a single asyncio
loop, waits until the elected RM has admitted every peer, and exposes
an async application API (submit a task, await its completion, read
per-node traffic summaries).

The default population is the paper's Figure-1 worked example: peers
``P1..P4`` hosting the eight transcoding edges (``P1`` stores the
``movie`` source object) plus a well-provisioned candidate ``M0`` that
wins the §4.1 qualification election — 1 RM + 4 peers.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.manager import RMConfig
from repro.media.fig1 import build_fig1_graph
from repro.media.objects import MediaObject
from repro.runtime.agent import RosterAgent
from repro.runtime.node import LiveNode, NodeSpec
from repro.runtime.transport import PeerDirectory
from repro.tasks.task import ApplicationTask


@dataclass
class LiveClusterConfig:
    """Knobs for the in-process live domain."""

    n_peers: int = 4
    host: str = "127.0.0.1"
    domain_id: str = "d0"
    #: Duration of the demo media object; work scales with it (the
    #: Fig-1 edges are calibrated for 60 s), so short objects keep live
    #: runs wall-clock fast.
    object_duration_s: float = 3.0
    profiler_update_period: float = 0.5
    join_timeout: float = 10.0
    #: What the elected RM runs (placement policy, defense, ...); the
    #: default expects reports every ``profiler_update_period``.  Read,
    #: never written, so one instance may be shared between clusters.
    rm_config: Optional[RMConfig] = None
    #: Extra kwargs forwarded to every UdpTransport (test shims).
    transport_kwargs: Dict[str, Any] = field(default_factory=dict)


def fig1_specs(cfg: LiveClusterConfig) -> List[NodeSpec]:
    """Node specs for the Figure-1 domain (+ the RM candidate)."""
    scenario = build_fig1_graph(duration_s=60.0)  # canonical calibration
    edges_by_peer: Dict[str, List[Dict[str, Any]]] = {}
    for e in scenario.graph.edges():
        edges_by_peer.setdefault(e.peer_id, []).append({
            "src": e.src, "dst": e.dst, "service_id": e.service_id,
            "work": e.work, "out_bytes": e.out_bytes, "edge_id": e.edge_id,
        })
    movie = MediaObject(
        "movie", scenario.source_object.fmt,
        duration_s=cfg.object_duration_s,
    )
    specs: List[NodeSpec] = [
        NodeSpec(
            node_id="M0",
            power=50.0,
            bandwidth=1.0e7,
            uptime=1.0,
            profiler_update_period=cfg.profiler_update_period,
        )
    ]
    peer_ids = scenario.peers[: cfg.n_peers]
    for i in range(len(peer_ids), cfg.n_peers):
        peer_ids.append(f"P{i + 1}")
    for pid in peer_ids:
        specs.append(NodeSpec(
            node_id=pid,
            power=10.0,
            bandwidth=1.25e6,
            uptime=0.9,
            objects=[movie] if pid == "P1" else [],
            service_edges=edges_by_peer.get(pid, []),
            profiler_update_period=cfg.profiler_update_period,
        ))
    return specs


class LiveCluster:
    """1 roster agent + N live nodes on one asyncio loop."""

    def __init__(
        self,
        config: Optional[LiveClusterConfig] = None,
        specs: Optional[List[NodeSpec]] = None,
    ) -> None:
        self.config = config or LiveClusterConfig()
        self.specs = specs if specs is not None else fig1_specs(self.config)
        self.directory = PeerDirectory()
        self.agent: Optional[RosterAgent] = None
        self.nodes: Dict[str, LiveNode] = {}
        #: (wall-ish sim time, task_id, event) in arrival order.
        self.task_events: List[Tuple[float, str, str]] = []
        #: Fired (task_id, event) keys, LRU-bounded so a long soak's
        #: event history cannot grow without limit.
        self._fired: OrderedDict[Tuple[str, str], None] = OrderedDict()
        self._fired_capacity = 4096
        self._watchers: Dict[Tuple[str, str], asyncio.Event] = {}
        #: The Figure-1 goal format, handy for demos/tests.
        self.default_goal = build_fig1_graph().v_sol

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "LiveCluster":
        cfg = self.config
        rm_config = cfg.rm_config or RMConfig(
            expected_update_period=cfg.profiler_update_period,
        )
        self.agent = RosterAgent(
            "s0", self.directory,
            domain_id=cfg.domain_id,
            expected_nodes=len(self.specs),
            host=cfg.host,
            **cfg.transport_kwargs,
        )
        await self.agent.start()
        for spec in self.specs:
            self.nodes[spec.node_id] = LiveNode(
                spec, self.directory, self.agent.node_id,
                host=cfg.host,
                rm_config=rm_config,
                on_task_event=self._on_task_event,
                join_timeout=cfg.join_timeout,
                on_role=self._on_role,
                **cfg.transport_kwargs,
            )
        await asyncio.gather(*(n.start() for n in self.nodes.values()))
        # Every peer holds its ack, but the records the agent forwarded
        # with those acks may still be in flight to the RM: its join
        # handler resolves this once the last one is admitted.
        await asyncio.wait_for(
            self.rm_node.admitted(len(self.specs) - 1), cfg.join_timeout
        )
        return self

    def _on_role(self, node: LiveNode) -> None:
        """The elected RM is up: have the agent ack the waiting peers
        and forward their records to it."""
        if node.role == "rm":
            assert self.agent is not None
            self.agent.announce_rm_ready()

    async def stop(self) -> None:
        await asyncio.gather(
            *(n.stop() for n in self.nodes.values()),
            return_exceptions=True,
        )
        if self.agent is not None:
            await self.agent.close()

    async def __aenter__(self) -> "LiveCluster":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # -- membership --------------------------------------------------------
    @property
    def rm_node(self) -> LiveNode:
        for node in self.nodes.values():
            if node.role == "rm":
                return node
        raise RuntimeError("no RM elected yet")

    def peers(self) -> List[LiveNode]:
        return [n for n in self.nodes.values() if n.role == "peer"]

    async def add_peer(self, spec: NodeSpec) -> LiveNode:
        """Late join: register a new peer with the running domain."""
        assert self.agent is not None
        node = LiveNode(
            spec, self.directory, self.agent.node_id,
            host=self.config.host,
            join_timeout=self.config.join_timeout,
            **self.config.transport_kwargs,
        )
        self.nodes[spec.node_id] = node
        await node.start()
        return node

    async def remove_peer(self, node_id: str) -> None:
        """Graceful departure of one peer."""
        node = self.nodes.pop(node_id)
        await node.leave()
        await node.stop()
        self._gc_watchers()

    # -- application API ---------------------------------------------------
    async def submit(
        self,
        origin: str,
        name: str = "movie",
        goal: Any = None,
        deadline: float = 20.0,
        importance: float = 1.0,
        timeout: float = 15.0,
    ) -> Dict[str, Any]:
        """Submit a task from *origin*; returns the TASK_ACK payload."""
        node = self.nodes[origin]
        ack = await node.submit_task(
            name, goal if goal is not None else self.default_goal,
            deadline, importance=importance, timeout=timeout,
        )
        return ack.payload

    def _on_task_event(self, task: ApplicationTask, event: str) -> None:
        now = task.finished_at if task.finished_at is not None else 0.0
        self.task_events.append((now, task.task_id, event))
        key = (task.task_id, event)
        self._fired[key] = None
        while len(self._fired) > self._fired_capacity:
            self._fired.popitem(last=False)
        # Fire-and-forget the watcher: waiters hold their own reference,
        # so the entry can go immediately (it used to accumulate one
        # Event per (task, event) forever).
        watcher = self._watchers.pop(key, None)
        if watcher is not None:
            watcher.set()

    def _gc_watchers(self) -> None:
        """Drop watcher entries that already fired (node unregister)."""
        for key in [k for k, ev in self._watchers.items() if ev.is_set()]:
            self._watchers.pop(key, None)

    async def wait_task_event(
        self, task_id: str, event: str = "completed", timeout: float = 10.0
    ) -> None:
        """Block until the RM emits *event* for *task_id*."""
        key = (task_id, event)
        if key in self._fired:
            return
        watcher = self._watchers.setdefault(key, asyncio.Event())
        try:
            await asyncio.wait_for(watcher.wait(), timeout)
        finally:
            # A timed-out wait must not strand its Event in the map.
            if self._watchers.get(key) is watcher and not watcher.is_set():
                self._watchers.pop(key, None)

    def task(self, task_id: str) -> ApplicationTask:
        rm = self.rm_node.node
        assert rm is not None
        return rm.tasks[task_id]  # type: ignore[attr-defined]

    # -- observability -----------------------------------------------------
    def summaries(self) -> Dict[str, Dict[str, Any]]:
        """Per-node traffic summaries (plus the roster agent's)."""
        out = {nid: n.summary() for nid, n in self.nodes.items()}
        if self.agent is not None:
            out[self.agent.node_id] = self.agent.transport.summary()
        return out

    def aggregate_summary(self) -> Dict[str, Any]:
        """Cluster-wide counters, shaped like one NetworkStats.summary()."""
        total: Dict[str, Any] = {
            "sent": 0, "delivered": 0, "dropped": 0, "partition_drops": 0,
            "bytes_sent": 0.0,
            "by_kind": {},
            "retransmits": 0, "duplicates": 0, "malformed": 0,
            "acks_sent": 0,
        }
        for s in self.summaries().values():
            for key in (
                "sent", "delivered", "dropped", "partition_drops",
                "bytes_sent",
                "retransmits", "duplicates", "malformed", "acks_sent",
            ):
                total[key] += s.get(key, 0)
            for kind, n in s["by_kind"].items():
                total["by_kind"][kind] = total["by_kind"].get(kind, 0) + n
        return total
