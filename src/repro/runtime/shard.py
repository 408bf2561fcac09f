"""One shard of the multi-process live cluster.

A :class:`ShardHost` is the child-process side of the sharded runtime:
it runs its own asyncio loop pumping the sim environments of the
:class:`~repro.runtime.node.LiveNode`\\ s it hosts, one
:class:`~repro.runtime.agent.RosterAgent` as the shard's membership
endpoint, a per-shard ``/metrics`` + ``/healthz`` endpoint, and an
optional flight recorder.  The parent
(:class:`~repro.runtime.supervisor.ClusterSupervisor`) talks to it over
a :mod:`multiprocessing` pipe:

child → parent
    ``ready`` (agent + metrics ports), ``hb`` (periodic health),
    ``submitted`` / ``submit_failed`` (origin-side task ledger),
    ``task`` (RM-side lifecycle events — only the RM-hosting shard
    emits these), ``drained``, ``fatal``.

parent → child
    ``seeds`` (the other agents' addresses), ``submit`` (inject tasks),
    ``pause_tasks`` / ``resume_tasks``, ``task_done`` (terminal-event
    relay for tasks this shard originated), ``drain``.

``SIGTERM`` (or a ``drain`` message) triggers the graceful path: the
agent stops admitting joins, the task generator stops, in-flight
locally-originated tasks are awaited, every hosted peer runs the
ordinary ``PEER_LEAVE`` departure (so the RM reassigns its sessions via
the §4.5 repair path), the agent tombstones itself, and the process
exits 0.  ``SIGKILL`` is the crash the supervisor's respawn exercises.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.core.manager import RMConfig
from repro.media.fig1 import build_fig1_graph
from repro.runtime.agent import RosterAgent
from repro.runtime.node import LiveNode, NodeSpec
from repro.runtime.transport import PeerDirectory
from repro.tasks.task import ApplicationTask
from repro.telemetry.export import TRACE_FORMAT_VERSION
from repro.telemetry.logs import get_logger
from repro.telemetry.observation import Observation
from repro.telemetry.ship import TraceShipper

#: Tracer history kept per shard (a soak must not grow without bound;
#: the flight recorder keeps its own ring on top of the live stream).
_TRACE_KEEP = 2000
_TRACE_HIGH = 2 * _TRACE_KEEP


@dataclass
class ShardConfig:
    """Everything a shard child process needs (must stay picklable)."""

    shard_id: str
    specs: List[NodeSpec]
    #: Cluster-wide population the §4.1 election waits for.
    expected_nodes: int
    domain_id: str = "d0"
    host: str = "127.0.0.1"
    rm_config: Optional[RMConfig] = None
    join_timeout: float = 30.0
    gossip_period: float = 1.0
    heartbeat_period: float = 1.0
    #: Serve per-shard /metrics + /healthz (port 0 = ephemeral).
    telemetry: bool = True
    metrics_port: int = 0
    #: Directory for flight-recorder bundles (None = no recorder).
    record_dir: Optional[str] = None
    #: Join the cluster observability plane: ship spans/events up the
    #: supervisor pipe, attach the wall profiler (with the GIL cost
    #: model) + overhead budgeter, report health payloads in the
    #: heartbeat, and answer correlated snapshot requests.
    observe: bool = False
    #: Wall profiler sampling period when ``observe`` is on.
    profiler_period: float = 0.05
    #: Tasks/s this shard originates (0 = driven by ``submit`` messages).
    task_rate: float = 0.0
    task_deadline: float = 20.0
    task_timeout: float = 15.0
    drain_grace: float = 15.0
    #: True when the supervisor respawned this shard after a crash: the
    #: agent pulls the roster from its seeds before nodes re-join under
    #: their old ids.
    respawn: bool = False
    seed: Optional[int] = None
    transport_kwargs: Dict[str, Any] = field(default_factory=dict)


class ShardHost:
    """The child-process runtime for one shard."""

    def __init__(self, cfg: ShardConfig, conn: Any) -> None:
        self.cfg = cfg
        self.conn = conn
        self.directory = PeerDirectory()
        self.agent: Optional[RosterAgent] = None
        self.nodes: Dict[str, LiveNode] = {}
        #: Telemetry handle, /metrics server, flight recorder and wall
        #: profiler of this shard (empty until ``_startup``).
        self.obs = Observation.wall()
        self.shipper: Optional[TraceShipper] = None
        self._epoch_unix: Optional[float] = None
        self.draining = False
        self._paused = False
        self._ready = asyncio.Event()
        self._drain_requested = asyncio.Event()
        self._seeds: Optional[Dict[str, Any]] = None
        self._seeds_event = asyncio.Event()
        #: task_ids this shard originated that are not terminal yet
        #: (cleared by the supervisor's ``task_done`` relays).
        self._inflight: Set[str] = set()
        self.submitted = 0
        self.accepted = 0
        self._tasks: List[asyncio.Task] = []
        self._rng = random.Random(cfg.seed)
        self._goal = build_fig1_graph().v_sol
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.log = get_logger("runtime.shard", cfg.shard_id)

    # -- top level ---------------------------------------------------------
    async def run(self) -> None:
        self._loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await self._startup()
        except Exception as exc:  # startup failure = crash, not drain
            self._send({
                "type": "fatal", "shard": self.cfg.shard_id,
                "error": repr(exc),
            })
            await self._teardown(crash=True)
            raise
        await self._drain_requested.wait()
        clean = await self._drain()
        self._final_flush()
        self._send({
            "type": "drained", "shard": self.cfg.shard_id,
            "ok": clean, "inflight": len(self._inflight),
        })
        await self._teardown(crash=False)

    def request_drain(self) -> None:
        """Signal-safe entry to the graceful path (idempotent)."""
        self._drain_requested.set()

    # -- startup -----------------------------------------------------------
    async def _startup(self) -> None:
        cfg = self.cfg
        if cfg.telemetry:
            self.obs = Observation.wall(
                metrics_port=cfg.metrics_port, host=cfg.host,
                record_dir=cfg.record_dir,
                profile=cfg.observe, rate=cfg.profiler_period,
            ).open()
            # Unix time of the wall clock's zero point: the cluster
            # merge aligns per-shard timestamps with this.
            self._epoch_unix = time.time()
            self.obs.start(
                metrics_fn=self._metrics_text, health_fn=self._health
            )
            if cfg.observe:
                self.shipper = TraceShipper(
                    self.obs.tel.tracer, shard=cfg.shard_id
                )
                if self.obs.recorder is not None:
                    self.obs.recorder.on_dump = self._on_flight_dump
        self.agent = RosterAgent(
            cfg.shard_id, self.directory,
            domain_id=cfg.domain_id,
            expected_nodes=cfg.expected_nodes,
            host=cfg.host,
            gossip_period=cfg.gossip_period,
            rng=self._rng,
            **cfg.transport_kwargs,
        )
        await self.agent.start()
        self._tasks.append(self._loop.create_task(
            self._pipe_loop(), name=f"pipe:{cfg.shard_id}"
        ))
        self._send({
            "type": "ready", "shard": cfg.shard_id, "pid": os.getpid(),
            "agent_port": self.agent.transport.port,
            "metrics_port": (
                self.obs.httpd.port if self.obs.httpd else None
            ),
            "nodes": [s.node_id for s in cfg.specs],
        })
        # Heartbeats flow from the moment the agent is up — the
        # supervisor watches join progress, not just the end state.
        self._tasks.append(self._loop.create_task(
            self._heartbeat_loop(), name=f"hb:{cfg.shard_id}"
        ))
        await asyncio.wait_for(
            self._seeds_event.wait(), cfg.join_timeout
        )
        assert self._seeds is not None
        self.agent.add_seed_agents({
            aid: (host, int(port))
            for aid, (host, port) in self._seeds.items()
        })
        if cfg.respawn:
            pulled = await self.agent.pull_roster(timeout=cfg.join_timeout)
            self.log.info("respawn roster pull: ok=%s", pulled)
        for spec in cfg.specs:
            self.nodes[spec.node_id] = LiveNode(
                spec, self.directory, self.agent.node_id,
                host=cfg.host,
                rm_config=cfg.rm_config,
                on_task_event=self._on_task_event,
                join_timeout=cfg.join_timeout,
                join_extra={"shard": cfg.shard_id},
                on_role=self._on_role,
                **cfg.transport_kwargs,
            )
        await asyncio.gather(*(n.start() for n in self.nodes.values()))
        self.log.info(
            "all %d nodes joined (rm=%s)", len(self.nodes), self.agent.rm_id
        )
        self._ready.set()
        if cfg.task_rate > 0:
            self._tasks.append(self._loop.create_task(
                self._task_loop(), name=f"tasks:{cfg.shard_id}"
            ))
        if self.obs.tel is not None:
            self._tasks.append(self._loop.create_task(
                self._trim_loop(), name=f"trim:{cfg.shard_id}"
            ))
        if self.shipper is not None:
            self._tasks.append(self._loop.create_task(
                self._ship_loop(), name=f"ship:{cfg.shard_id}"
            ))

    def _on_role(self, node: LiveNode) -> None:
        """Node callback: this shard hosts the elected RM and it has
        assumed the role — announce rm_ready on a new epoch."""
        if node.role == "rm":
            assert self.agent is not None
            self.agent.announce_rm_ready()
            self.log.info(
                "rm %s ready (epoch %d)", node.node_id, self.agent.rm_epoch
            )

    # -- control pipe ------------------------------------------------------
    async def _pipe_loop(self) -> None:
        while True:
            try:
                while self.conn.poll(0):
                    self._on_ctrl(self.conn.recv())
            except (EOFError, OSError):
                # Parent gone: drain rather than orphan the shard.
                self.request_drain()
                return
            await asyncio.sleep(0.02)

    def _on_ctrl(self, msg: Dict[str, Any]) -> None:
        kind = msg.get("type")
        if kind == "seeds":
            self._seeds = msg["agents"]
            self._seeds_event.set()
        elif kind == "drain":
            self.request_drain()
        elif kind == "pause_tasks":
            self._paused = True
        elif kind == "resume_tasks":
            self._paused = False
        elif kind == "task_done":
            self._inflight.discard(msg.get("tid"))
        elif kind == "submit":
            assert self._loop is not None
            for _ in range(int(msg.get("n", 1))):
                self._loop.create_task(self._submit_one())
        elif kind == "snapshot":
            self._on_snapshot(msg)

    def _send(self, msg: Dict[str, Any]) -> None:
        try:
            self.conn.send(msg)
        except (BrokenPipeError, OSError):
            self.request_drain()

    # -- task generation ---------------------------------------------------
    async def _task_loop(self) -> None:
        await self._ready.wait()
        interval = 1.0 / self.cfg.task_rate
        while not self.draining:
            await asyncio.sleep(self._rng.uniform(0.5, 1.5) * interval)
            if self._paused or self.draining:
                continue
            asyncio.ensure_future(self._submit_one())

    async def _submit_one(self) -> None:
        origins = [n for n in self.nodes.values() if n.role == "peer"]
        if not origins or self.draining:
            return
        node = self._rng.choice(origins)
        self.submitted += 1
        try:
            ack = await asyncio.wait_for(
                node.submit_task(
                    "movie", self._goal, self.cfg.task_deadline,
                    timeout=self.cfg.task_timeout,
                ),
                self.cfg.task_timeout + 2.0,
            )
        except Exception:
            self._send({
                "type": "submit_failed", "shard": self.cfg.shard_id,
                "origin": node.node_id,
            })
            return
        payload = ack.payload
        tid = payload.get("task_id")
        disposition = payload.get("disposition")
        if disposition == "accepted" and tid:
            self.accepted += 1
            self._inflight.add(tid)
        self._send({
            "type": "submitted", "shard": self.cfg.shard_id,
            "tid": tid, "disposition": disposition,
            "origin": node.node_id,
        })

    def _on_task_event(self, task: ApplicationTask, event: str) -> None:
        """RM-side lifecycle stream (only fires on the RM's shard)."""
        self._send({
            "type": "task", "shard": self.cfg.shard_id,
            "ev": event, "tid": task.task_id,
            "origin": task.origin_peer,
            "outcome": task.outcome.value if task.outcome else None,
        })

    # -- correlated snapshots ----------------------------------------------
    def _on_flight_dump(self, reason: str, path: str) -> None:
        """Recorder callback: tell the supervisor so it can correlate
        this shard's dump with snapshots from its peers."""
        self._send({
            "type": "flight", "shard": self.cfg.shard_id,
            "reason": reason, "path": path,
        })

    def _on_snapshot(self, msg: Dict[str, Any]) -> None:
        """Supervisor-requested dump for a correlated bundle.  Bypasses
        the recorder's cooldown (the coordinator owns coalescing) and
        suppresses on_dump — reporting this dump as a fresh local
        trigger would bounce the fan-out forever."""
        reason = str(msg.get("reason", "snapshot"))
        path = None
        recorder = self.obs.recorder
        if recorder is not None:
            cb = recorder.on_dump
            recorder.on_dump = None
            try:
                path = recorder.dump(reason)
            finally:
                recorder.on_dump = cb
        self._send({
            "type": "snapshot_done", "shard": self.cfg.shard_id,
            "reason": reason, "bundle": msg.get("bundle"), "path": path,
        })

    # -- periodic loops ----------------------------------------------------
    async def _heartbeat_loop(self) -> None:
        assert self.agent is not None
        while True:
            await asyncio.sleep(self.cfg.heartbeat_period)
            msg = {
                "type": "hb", "shard": self.cfg.shard_id,
                "joined": self._joined(),
                "nodes": len(self.nodes),
                "rm_id": self.agent.rm_id,
                "rm_ready": self.agent.rm_ready,
                "roster": self.agent.counts(),
                "inflight": len(self._inflight),
                "submitted": self.submitted,
                "accepted": self.accepted,
                "draining": self.draining,
            }
            if self.cfg.observe:
                msg["health"] = self._health_payload()
            self._send(msg)

    def _health_payload(self) -> Dict[str, Any]:
        """The heartbeat's cluster-health contribution: compact
        aggregates the supervisor can merge exactly (sums and maxima,
        not shard-level means)."""
        loads: List[float] = []
        finished: Dict[str, int] = {}
        missed: Dict[str, int] = {}
        rm = {"admitted": 0.0, "rejected": 0.0, "redirected_out": 0.0}
        for live in self.nodes.values():
            sig = live.health_signal()
            if sig.get("load") is not None:
                loads.append(sig["load"])
            for cls, n in sig.get("finished_by_class", {}).items():
                finished[cls] = finished.get(cls, 0) + n
            for cls, n in sig.get("missed_by_class", {}).items():
                missed[cls] = missed.get(cls, 0) + n
            stats = getattr(live.node, "stats", None)
            if stats is not None:
                for key in rm:
                    rm[key] += stats.get(key, 0)
        return {
            "loads": {
                "n": len(loads),
                "sum": sum(loads),
                "max": max(loads) if loads else 0.0,
            },
            "finished": finished,
            "missed": missed,
            "rm": rm,
            "inflight": len(self._inflight),
        }

    def _trace_meta(self) -> Dict[str, Any]:
        assert self.obs.tel is not None
        return {
            "version": TRACE_FORMAT_VERSION,
            "shard": self.cfg.shard_id,
            "clock": self.obs.tel.clock.label,
            "epoch_unix": self._epoch_unix,
        }

    async def _ship_loop(self) -> None:
        """Flush new spans/events up the pipe (cluster trace stream)."""
        assert self.shipper is not None
        while True:
            await asyncio.sleep(1.0)
            records = self.shipper.collect(limit=4000)
            if records:
                self._send({
                    "type": "trace", "shard": self.cfg.shard_id,
                    "meta": self._trace_meta(), "records": records,
                })

    async def _trim_loop(self) -> None:
        """Bound tracer history: a soak would otherwise grow it forever
        (the flight recorder taps the stream, so trimming loses nothing
        it cares about).  With a shipper attached the trim goes through
        it — only records already flushed to the export stream are
        dropped, closing the burst-loss window the bare ``del`` had."""
        assert self.obs.tel is not None
        tracer = self.obs.tel.tracer
        while True:
            await asyncio.sleep(5.0)
            if self.shipper is not None:
                self.shipper.trim(_TRACE_KEEP, high=_TRACE_HIGH)
                continue
            if len(tracer.spans) > _TRACE_HIGH:
                del tracer.spans[:-_TRACE_KEEP]
            if len(tracer.events) > _TRACE_HIGH:
                del tracer.events[:-_TRACE_KEEP]

    def _joined(self) -> int:
        return sum(1 for n in self.nodes.values() if n.node is not None)

    # -- observability -----------------------------------------------------
    def _metrics_text(self) -> str:
        assert self.obs.tel is not None
        m = self.obs.tel.metrics
        agent = self.agent
        m.gauge(
            "repro_shard_nodes_joined",
            help="Nodes of this shard that have assumed a role",
        ).set(float(self._joined()))
        m.gauge(
            "repro_shard_tasks_inflight",
            help="Locally-originated tasks not yet terminal",
        ).set(float(len(self._inflight)))
        m.counter(
            "repro_shard_tasks_submitted_total",
            help="Tasks originated by this shard",
        ).value = float(self.submitted)
        if agent is not None:
            counts = agent.counts()
            m.gauge(
                "repro_shard_rm_ready",
                help="1 once the elected RM has assumed its role",
            ).set(1.0 if agent.rm_ready else 0.0)
            m.gauge(
                "repro_shard_roster_nodes_up",
                help="Live nodes in this shard's roster replica",
            ).set(float(counts["nodes_up"]))
            m.gauge(
                "repro_shard_roster_agents_up",
                help="Live agents in this shard's roster replica",
            ).set(float(counts["agents_up"]))
        if self.obs.session is not None:
            self.obs.session.budgeter.publish(m)
        return m.to_prometheus_text()

    def _health(self) -> Dict[str, Any]:
        agent = self.agent
        return {
            "status": "draining" if self.draining else "ok",
            "shard": self.cfg.shard_id,
            "joined": self._joined(),
            "nodes": len(self.nodes),
            "rm_id": agent.rm_id if agent else None,
            "rm_ready": bool(agent.rm_ready) if agent else False,
            "inflight": len(self._inflight),
        }

    # -- drain -------------------------------------------------------------
    async def _drain(self) -> bool:
        """The graceful path; returns True if no in-flight task was
        abandoned within the grace window."""
        assert self._loop is not None and self.agent is not None
        self.draining = True
        self.agent.begin_drain()
        self.log.info(
            "draining: %d in-flight tasks, %d nodes",
            len(self._inflight), len(self.nodes),
        )
        deadline = self._loop.time() + self.cfg.drain_grace
        while self._inflight and self._loop.time() < deadline:
            await asyncio.sleep(0.05)
        clean = not self._inflight
        # Peers leave through the ordinary departure protocol: the RM
        # reassigns their in-progress sessions (§4.5).  A hosted RM has
        # no graceful successor — it goes down with the shard.
        for node in self.nodes.values():
            if node.role == "rm":
                continue
            try:
                await asyncio.wait_for(node.leave(), 5.0)
            except Exception:
                clean = False
            self.agent.tombstone(node.node_id)
        return clean

    def _final_flush(self) -> None:
        """Ship the tail of the trace stream and the shard's profile
        before announcing ``drained`` (the supervisor consumes the pipe
        in order, so these land before it stops listening)."""
        if self.shipper is not None:
            records = self.shipper.collect()
            if records:
                self._send({
                    "type": "trace", "shard": self.cfg.shard_id,
                    "meta": self._trace_meta(), "records": records,
                })
        profile = self.obs.session
        if profile is not None:
            self.obs.stop()
            agg = profile.profiler.agg
            if agg.n_samples:
                self._send({
                    "type": "folded", "shard": self.cfg.shard_id,
                    "text": agg.to_folded(),
                    "profile": profile.record(top_n=10),
                })

    async def _teardown(self, crash: bool) -> None:
        self.obs.stop()
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        await asyncio.gather(
            *(n.stop() for n in self.nodes.values()), return_exceptions=True
        )
        if self.agent is not None:
            try:
                await self.agent.close(graceful=not crash)
            except Exception:
                pass
        self.obs.close()
        try:
            self.conn.close()
        except OSError:
            pass


def _shard_entry(cfg: ShardConfig, conn: Any) -> None:
    """Spawn entry point (module-level so it pickles)."""
    from repro.net.message import reset_message_ids

    # Every incarnation gets a disjoint message-id range: peers keep
    # their node ids across a respawn, and the receivers' (src, msg_id)
    # dedup would otherwise discard the new process's messages as
    # duplicates of the dead one's.
    reset_message_ids(start=1 + int.from_bytes(os.urandom(6), "big"))
    if cfg.seed is not None:
        random.seed(cfg.seed)
    try:
        asyncio.run(ShardHost(cfg, conn).run())
    except Exception:
        # The fatal message already went up the pipe; exit nonzero so
        # the supervisor sees a crash.
        raise SystemExit(1)
