"""The live runtime's one domain host: a roster agent and its nodes.

:class:`LiveCluster` starts one :class:`~repro.runtime.agent.RosterAgent`
(with no seed agents it is its own coordinator), builds one
:class:`~repro.runtime.node.LiveNode` per spec on the caller's asyncio
loop, hands the elected RM's ``rm_ready`` to the agent, records the
RM's task events, and exposes an async application API (submit a task,
await its completion, read per-node traffic summaries).  Every shard
process (:class:`~repro.runtime.shard.ShardHost`) hosts its nodes
through one, seeding the agent between its start and
:meth:`~LiveCluster.start_nodes`; in process, :meth:`~LiveCluster.start`
also waits until the RM has admitted every peer.

The default population is the paper's Figure-1 worked example: peers
``P1..P4`` hosting the eight transcoding edges (``P1`` stores the
``movie`` source object) plus a well-provisioned candidate ``M0`` that
wins the §4.1 qualification election — 1 RM + 4 peers.
"""

from __future__ import annotations

import asyncio
import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.manager import RMConfig, TaskEventFn
from repro.media.fig1 import build_fig1_graph
from repro.media.objects import MediaObject
from repro.runtime.agent import RosterAgent
from repro.runtime.node import LiveNode, NodeSpec
from repro.runtime.transport import PeerDirectory
from repro.tasks.task import ApplicationTask


@dataclass
class LiveClusterConfig:
    """Knobs for one live domain host."""

    n_peers: int = 4
    host: str = "127.0.0.1"
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


def fig1_catalogue(
    object_duration_s: float,
) -> Tuple[List[Tuple[str, Dict[str, Any]]], MediaObject]:
    """The Figure-1 edge table — ``(hosting peer, service edge)`` in
    graph order, at the canonical 60 s calibration — and the ``movie``
    source object lasting *object_duration_s*."""
    scenario = build_fig1_graph(duration_s=60.0)
    edges = [
        (e.peer_id, {
            "src": e.src, "dst": e.dst, "service_id": e.service_id,
            "work": e.work, "out_bytes": e.out_bytes, "edge_id": e.edge_id,
        })
        for e in scenario.graph.edges()
    ]
    movie = MediaObject(
        "movie", scenario.source_object.fmt, duration_s=object_duration_s,
    )
    return edges, movie


def rm_candidate(profiler_update_period: float) -> NodeSpec:
    """``M0``, provisioned to win the §4.1 qualification election."""
    return NodeSpec(
        node_id="M0", power=50.0, bandwidth=1.0e7, uptime=1.0,
        profiler_update_period=profiler_update_period,
    )


def fig1_specs(cfg: LiveClusterConfig) -> List[NodeSpec]:
    """Node specs for the Figure-1 domain (+ the RM candidate)."""
    edges, movie = fig1_catalogue(cfg.object_duration_s)
    specs = [rm_candidate(cfg.profiler_update_period)]
    for i in range(cfg.n_peers):
        pid = f"P{i + 1}"
        specs.append(NodeSpec(
            node_id=pid, power=10.0, bandwidth=1.25e6, uptime=0.9,
            objects=[movie] if pid == "P1" else [],
            service_edges=[e for host, e in edges if host == pid],
            profiler_update_period=cfg.profiler_update_period,
        ))
    return specs


class LiveCluster:
    """1 roster agent + its live nodes on one asyncio loop.

    A shard passes its *shard_id*, the cluster-wide *expected_nodes*,
    its *rng*, and an *on_task_event* relay."""

    def __init__(
        self,
        config: Optional[LiveClusterConfig] = None,
        specs: Optional[List[NodeSpec]] = None,
        shard_id: str = "s0",
        expected_nodes: Optional[int] = None,
        rng: Optional[random.Random] = None,
        on_task_event: Optional[TaskEventFn] = None,
    ) -> None:
        self.config = cfg = config or LiveClusterConfig()
        self.specs = specs if specs is not None else fig1_specs(cfg)
        self.on_task_event = on_task_event
        self.rm_config = cfg.rm_config or RMConfig(
            expected_update_period=cfg.profiler_update_period,
        )
        self.directory = PeerDirectory()
        self.agent = RosterAgent(
            shard_id, self.directory,
            expected_nodes=expected_nodes or len(self.specs),
            host=cfg.host, rng=rng, **cfg.transport_kwargs,
        )
        self.nodes: Dict[str, LiveNode] = {}
        #: (wall-ish sim time, task_id, event) in arrival order.
        self.task_events: List[Tuple[float, str, str]] = []
        #: Fired (task_id, event) keys, LRU-bounded so a long soak's
        #: event history cannot grow without limit.
        self._fired: OrderedDict[Tuple[str, str], None] = OrderedDict()
        self._fired_capacity = 4096
        self._watchers: Dict[Tuple[str, str], asyncio.Event] = {}
        #: The Figure-1 goal format every submit defaults to.
        self.default_goal = build_fig1_graph().v_sol

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "LiveCluster":
        await self.agent.start()
        await self.start_nodes()
        # Every peer holds its ack, but the records the agent forwarded
        # with those acks may still be in flight to the RM: its join
        # handler resolves this once the last one is admitted.
        await asyncio.wait_for(
            self.rm_node.admitted(len(self.specs) - 1),
            self.config.join_timeout,
        )
        return self

    async def start_nodes(self) -> None:
        """Build every spec's node and join it through the agent."""
        await asyncio.gather(*(
            self._node(spec).start() for spec in self.specs
        ))

    def _node(self, spec: NodeSpec) -> LiveNode:
        """Build (not start) a node of this host."""
        node = self.nodes[spec.node_id] = LiveNode(
            spec, self.directory, self.agent.node_id,
            host=self.config.host, rm_config=self.rm_config,
            on_task_event=self._on_task_event, on_role=self._on_role,
            join_timeout=self.config.join_timeout,
            **self.config.transport_kwargs,
        )
        return node

    def _on_role(self, node: LiveNode) -> None:
        """The elected RM is up: have the agent ack the waiting peers
        and forward their records to it."""
        if node.role == "rm":
            self.agent.announce_rm_ready()

    async def stop(self, graceful: bool = False) -> None:
        """Stop the nodes, then the agent (*graceful*: tombstone it
        first, so the other agents see it leave)."""
        await asyncio.gather(
            *(n.stop() for n in self.nodes.values()),
            return_exceptions=True,
        )
        await self.agent.close(graceful=graceful)

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
        return await self._node(spec).start()

    async def remove_peer(self, node_id: str) -> None:
        """Graceful departure of one peer."""
        node = self.nodes.pop(node_id)
        await node.leave()
        await node.stop()

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
        if self.on_task_event is not None:
            self.on_task_event(task, event)

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
        return self.rm_node.node.tasks[task_id]  # type: ignore[union-attr]

    # -- observability -----------------------------------------------------
    def summaries(self) -> Dict[str, Dict[str, Any]]:
        """Per-node traffic summaries (plus the roster agent's)."""
        out = {nid: n.summary() for nid, n in self.nodes.items()}
        out[self.agent.node_id] = self.agent.transport.summary()
        return out

    def aggregate_summary(self) -> Dict[str, Any]:
        """Cluster-wide counters, shaped like one NetworkStats.summary(),
        plus ``unmatched``: the messages every peer and the RM dropped for
        naming a task they could not match."""
        keys = (
            "sent", "delivered", "dropped", "partition_drops", "bytes_sent",
            "retransmits", "duplicates", "malformed", "acks_sent",
        )
        total: Dict[str, Any] = {**dict.fromkeys(keys, 0), "by_kind": {}}
        for s in self.summaries().values():
            for key in keys:
                total[key] += s.get(key, 0)
            for kind, n in s["by_kind"].items():
                total["by_kind"][kind] = total["by_kind"].get(kind, 0) + n
        total["unmatched"] = sum(
            sum(n.node.unmatched.values())
            for n in self.nodes.values() if n.node is not None
        )
        return total
