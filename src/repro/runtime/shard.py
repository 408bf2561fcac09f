"""One shard of the multi-process live cluster.

A :class:`ShardHost` is the child-process side of the sharded runtime:
its roster agent and nodes run through a
:class:`~repro.runtime.cluster.LiveCluster` on the shard's own asyncio
loop, and the host adds a per-shard ``/metrics`` + ``/healthz``
endpoint, an optional flight recorder, the seed (and respawn-pull) step
between agent and node start, a task generator, and drain.

What the shard observes leaves the way it does for an in-process
``repro-live``: the shard runs one
:class:`~repro.telemetry.observation.Observation` with the flags in
:attr:`ShardConfig.observation`, which writes its trace (and
``.folded``) into the shard's own directory as the run goes.  The
parent merges those files after the run.

The parent (:class:`~repro.runtime.supervisor.ClusterSupervisor`)
talks to the shard over a :mod:`multiprocessing` pipe:

child → parent
    ``ready`` (agent + metrics ports), ``hb`` (periodic health),
    ``submitted`` / ``submit_failed`` (origin-side task ledger),
    ``task`` (RM-side lifecycle events — only the RM-hosting shard
    emits these), ``flight`` / ``snapshot_done`` (flight-recorder
    dumps), ``drained``, ``fatal``.

parent → child
    ``seeds`` (the other agents' addresses), ``submit`` (inject tasks),
    ``pause_tasks``, ``task_done`` (terminal-event relay for tasks this
    shard originated), ``snapshot`` (dump for a correlated bundle),
    ``drain``.

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
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.runtime.cluster import LiveCluster, LiveClusterConfig
from repro.runtime.node import NodeSpec
from repro.tasks.task import ApplicationTask
from repro.telemetry.logs import get_logger
from repro.telemetry.observation import Observation
from repro.telemetry.timeseries import live_reading

#: Seconds between heartbeats up the pipe.
HEARTBEAT_PERIOD = 1.0
#: Wall profiler sampling period when ``--profile`` is on.
PROFILER_PERIOD = 0.05
#: RPC timeout of a generated task's submit.
TASK_TIMEOUT = 15.0
#: How long a drain waits for locally-originated in-flight tasks.
DRAIN_GRACE = 15.0


@dataclass
class ShardConfig:
    """Everything a shard child process needs (must stay picklable)."""

    shard_id: str
    specs: List[NodeSpec]
    #: Cluster-wide population the §4.1 election waits for.
    expected_nodes: int
    #: Host, join timeout, RM config, transport shims (not population).
    cluster: LiveClusterConfig = field(default_factory=LiveClusterConfig)
    #: Directory for flight-recorder bundles (None = no recorder).
    record_dir: Optional[str] = None
    #: The :class:`Observation` flags ``observation_flags()`` gives an
    #: in-process run; the supervisor points ``trace`` and ``folded``
    #: into this incarnation's directory at spawn.  Non-empty also puts
    #: the health reading in the heartbeat and reports flight dumps.
    observation: Dict[str, Any] = field(default_factory=dict)
    #: Tasks/s this shard originates (0 = driven by ``submit`` messages).
    task_rate: float = 0.0
    task_deadline: float = 20.0
    #: True when the supervisor respawned this shard after a crash: the
    #: agent pulls the roster from its seeds before nodes re-join under
    #: their old ids.
    respawn: bool = False
    seed: Optional[int] = None


class ShardHost:
    """The child-process runtime for one shard."""

    def __init__(self, cfg: ShardConfig, conn: Any) -> None:
        self.cfg = cfg
        self.conn = conn
        self._rng = random.Random(cfg.seed)
        self.cluster = LiveCluster(
            cfg.cluster, cfg.specs, shard_id=cfg.shard_id,
            expected_nodes=cfg.expected_nodes, rng=self._rng,
            on_task_event=self._on_task_event,
        )
        #: Telemetry handle, /metrics server (ephemeral port), flight
        #: recorder and wall profiler of this shard (opened at startup).
        self.obs = Observation.wall(
            metrics_port=0, host=cfg.cluster.host, record_dir=cfg.record_dir,
            rate=PROFILER_PERIOD, meta={"shard": cfg.shard_id},
            **cfg.observation,
        )
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
        self._tasks: List[asyncio.Task] = []
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
        # Finish the files before the slower cluster stop, so that
        # ``drained`` also says they are complete.
        self.obs.close()
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
        self.obs.open()
        self.obs.start(
            self.cluster, metrics_fn=self._metrics_text,
            health_fn=self._health,
        )
        if cfg.observation and self.obs.recorder is not None:
            self.obs.recorder.on_dump = self._on_flight_dump
        agent = await self.cluster.agent.start()
        self._tasks.append(self._loop.create_task(
            self._pipe_loop(), name=f"pipe:{cfg.shard_id}"
        ))
        self._send({
            "type": "ready", "shard": cfg.shard_id, "pid": os.getpid(),
            "agent_port": agent.transport.port,
            "metrics_port": self.obs.httpd.port,
            "nodes": [s.node_id for s in cfg.specs],
        })
        # Heartbeats flow from the moment the agent is up — the
        # supervisor watches join progress, not just the end state.
        self._tasks.append(self._loop.create_task(
            self._heartbeat_loop(), name=f"hb:{cfg.shard_id}"
        ))
        join_timeout = cfg.cluster.join_timeout
        await asyncio.wait_for(self._seeds_event.wait(), join_timeout)
        assert self._seeds is not None
        agent.add_seed_agents({
            aid: (host, int(port))
            for aid, (host, port) in self._seeds.items()
        })
        if cfg.respawn:
            pulled = await agent.pull_roster(timeout=join_timeout)
            self.log.info("respawn roster pull: ok=%s", pulled)
        await self.cluster.start_nodes()
        self.log.info(
            "all %d nodes joined (rm=%s)", len(cfg.specs), agent.rm_id
        )
        self._ready.set()
        if cfg.task_rate > 0:
            self._tasks.append(self._loop.create_task(
                self._task_loop(), name=f"tasks:{cfg.shard_id}"
            ))
        self._tasks.append(self._loop.create_task(
            self._trim_loop(), name=f"trim:{cfg.shard_id}"
        ))

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
        interval = 1.0 / self.cfg.task_rate
        while not self.draining:
            await asyncio.sleep(self._rng.uniform(0.5, 1.5) * interval)
            if self._paused or self.draining:
                continue
            asyncio.ensure_future(self._submit_one())

    async def _submit_one(self) -> None:
        origins = self.cluster.peers()
        if not origins or self.draining:
            return
        origin = self._rng.choice(origins).node_id
        self.submitted += 1
        try:
            payload = await asyncio.wait_for(
                self.cluster.submit(
                    origin, deadline=self.cfg.task_deadline,
                    timeout=TASK_TIMEOUT,
                ),
                TASK_TIMEOUT + 2.0,
            )
        except Exception:
            self._send({
                "type": "submit_failed", "shard": self.cfg.shard_id,
                "origin": origin,
            })
            return
        tid = payload.get("task_id")
        disposition = payload.get("disposition")
        if disposition == "accepted" and tid:
            self._inflight.add(tid)
        self._send({
            "type": "submitted", "shard": self.cfg.shard_id,
            "tid": tid, "disposition": disposition,
            "origin": origin,
        })

    def _on_task_event(self, task: ApplicationTask, event: str) -> None:
        """Relay of the RM-side lifecycle stream the cluster records
        (only fires on the RM's shard)."""
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
        while True:
            await asyncio.sleep(HEARTBEAT_PERIOD)
            msg = {
                "type": "hb", **self._health(),
                "roster": self.cluster.agent.roster.counts(),
                "submitted": self.submitted,
            }
            if self.cfg.observation:
                msg["health"] = live_reading(self.cluster)
            self._send(msg)

    async def _trim_loop(self) -> None:
        """Drop the tracer's history, which a soak would grow forever:
        the trace file and the flight recorder took every record as it
        finished, and nothing in a shard reads the history back."""
        tracer = self.obs.tel.tracer
        while True:
            await asyncio.sleep(5.0)
            tracer.spans.clear()
            tracer.events.clear()

    def _joined(self) -> int:
        return sum(
            1 for n in self.cluster.nodes.values() if n.node is not None
        )

    # -- observability -----------------------------------------------------
    def _metrics_text(self) -> str:
        m = self.obs.tel.metrics
        agent = self.cluster.agent
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
        counts = agent.roster.counts()
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
            self.obs.session.publish_budget(m)
        return m.to_prometheus_text()

    def _health(self) -> Dict[str, Any]:
        agent = self.cluster.agent
        return {
            "status": "draining" if self.draining else "ok",
            "shard": self.cfg.shard_id,
            "joined": self._joined(),
            "nodes": len(self.cluster.nodes),
            "rm_id": agent.rm_id,
            "rm_ready": agent.rm_ready,
            "inflight": len(self._inflight),
        }

    # -- drain -------------------------------------------------------------
    async def _drain(self) -> bool:
        """The graceful path; returns True if no in-flight task was
        abandoned within the grace window."""
        agent = self.cluster.agent
        assert self._loop is not None
        self.draining = True
        agent.begin_drain()
        self.log.info(
            "draining: %d in-flight tasks, %d nodes",
            len(self._inflight), len(self.cluster.nodes),
        )
        deadline = self._loop.time() + DRAIN_GRACE
        while self._inflight and self._loop.time() < deadline:
            await asyncio.sleep(0.05)
        clean = not self._inflight
        # Peers leave through the ordinary departure protocol: the RM
        # reassigns their in-progress sessions (§4.5).  A hosted RM has
        # no graceful successor — it goes down with the shard.
        for node in self.cluster.nodes.values():
            if node.role == "rm":
                continue
            try:
                await asyncio.wait_for(node.leave(), 5.0)
            except Exception:
                clean = False
            agent.tombstone(node.node_id)
        return clean

    async def _teardown(self, crash: bool) -> None:
        self.obs.stop()
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        try:
            await self.cluster.stop(graceful=not crash)
        except Exception:
            pass
        self.obs.close()
        try:
            self.conn.close()
        except OSError:
            pass


def _shard_entry(cfg: ShardConfig, conn: Any) -> None:
    """Spawn entry point (module-level so it pickles)."""
    if cfg.seed is not None:
        random.seed(cfg.seed)
    try:
        asyncio.run(ShardHost(cfg, conn).run())
    except Exception:
        # The fatal message already went up the pipe; exit nonzero so
        # the supervisor sees a crash.
        raise SystemExit(1)
