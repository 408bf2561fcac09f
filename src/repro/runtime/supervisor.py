"""The parent process of the sharded live cluster.

:class:`ClusterSupervisor` spawns one
:class:`~repro.runtime.shard.ShardHost` child per
:class:`~repro.runtime.shard.ShardConfig`, distributes the roster
agents' addresses as gossip seeds, and then supervises:

* **crash → respawn** — a child that exits without reporting
  ``drained`` is respawned with exponential backoff; the respawned
  shard pulls the roster from the surviving agents and its nodes
  re-join under their old ids.
* **task ledger** — RM-side lifecycle events stream up the RM shard's
  pipe; the supervisor relays terminal events to the shard that
  originated each task (so a draining shard knows when its in-flight
  work is finished) and keeps the cluster-wide conservation ledger
  (every task the RM accepted reaches exactly one terminal event).
* **aggregated metrics** — an optional ``/metrics`` endpoint that
  scrapes every shard's per-shard endpoint and serves the merged
  exposition (samples summed per name+labels) plus supervisor-level
  ``shard_up`` / ``restarts`` series.
* **graceful drain** — :meth:`drain` SIGTERMs/messages the peer shards
  first and the RM shard last, so every departing peer's sessions are
  reassigned (§4.5) while the RM is still up.
* **observability files** — with an *observe_dir*, each shard
  incarnation writes its own ``trace.jsonl`` (and ``profile.folded``)
  into ``shard-<sid>-<n>/`` there, and :meth:`write_cluster_artifacts`
  merges those files once the run is over.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import urllib.request
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.control.events import TERMINAL_EVENTS
from repro.runtime.agent import agent_id_for
from repro.runtime.node import NodeSpec
from repro.runtime.shard import ShardConfig, _shard_entry
from repro.telemetry.httpd import TelemetryHTTPServer
from repro.telemetry.logs import get_logger
from repro.telemetry.metrics import MetricsRegistry


#: Respawn backoff after a crash: 0.5 s · 2^restarts, capped at 8 s; a
#: shard that crashed this many times stays down.
RESPAWN_BACKOFF = 0.5
RESPAWN_BACKOFF_MAX = 8.0
MAX_RESTARTS = 5
#: Seconds a stopping shard process gets to exit before it is killed.
JOIN_GRACE = 5.0


def partition_specs(
    specs: List[NodeSpec], n_shards: int
) -> List[List[NodeSpec]]:
    """Round-robin node specs over *n_shards* (shard 0 gets the first
    spec, which by convention is the RM candidate)."""
    out: List[List[NodeSpec]] = [[] for _ in range(n_shards)]
    for i, spec in enumerate(specs):
        out[i % n_shards].append(spec)
    return [bucket for bucket in out if bucket]


#: Per-family aggregation for the merged /metrics exposition.
#:
#: The default is **sum** — right for counters and for *additive*
#: gauges where each shard owns a disjoint slice of the cluster fact
#: (``repro_shard_nodes_joined``, ``repro_shard_tasks_inflight``).
#: Families listed here take **max** instead: they are *replicated
#: views* (every shard reports its own copy of the same cluster-wide
#: or per-process fact), and summing N identical replicas would
#: silently report N× the truth — e.g. ``repro_shard_rm_ready`` is a
#: 0/1 flag each shard's roster replica holds, and
#: ``repro_shard_roster_nodes_up`` is every shard's count of the whole
#: roster, not of its own nodes.
DEFAULT_FAMILY_AGG: Dict[str, str] = {
    # Roster replicas: each shard reports the same cluster-wide view.
    "repro_shard_rm_ready": "max",
    "repro_shard_roster_nodes_up": "max",
    "repro_shard_roster_agents_up": "max",
    # Per-process state flags/ratios: summing replicas is meaningless;
    # the worst shard is the cluster answer.
    "repro_flightrecorder_cooldown_active": "max",
    "repro_slo_burn_rate": "max",
    "repro_slo_alert_active": "max",
    "repro_prof_overhead_cumulative": "max",
    "repro_prof_budget_target": "max",
}


def _family_of(series: str) -> str:
    """Metric family name of an exposition series string."""
    return series.split("{", 1)[0].strip()


def merge_prometheus(
    texts: List[str],
    family_agg: Optional[Dict[str, str]] = None,
) -> str:
    """Merge several Prometheus text expositions: ``# HELP``/``# TYPE``
    kept once per metric, samples merged per ``name{labels}`` with
    explicit per-family semantics — ``sum`` by default, ``max`` for
    families *family_agg* (default :data:`DEFAULT_FAMILY_AGG`) marks as
    replicated views."""
    agg_for = DEFAULT_FAMILY_AGG if family_agg is None else family_agg
    meta: Dict[str, str] = {}
    meta_order: List[str] = []
    samples: Dict[str, float] = {}
    sample_order: List[str] = []
    for text in texts:
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split(None, 3)
                if len(parts) >= 3:
                    key = f"{parts[1]}:{parts[2]}"
                    if key not in meta:
                        meta[key] = line
                        meta_order.append(key)
                continue
            try:
                series, value = line.rsplit(None, 1)
                num = float(value)
            except ValueError:
                continue
            if series not in samples:
                samples[series] = num
                sample_order.append(series)
            elif agg_for.get(_family_of(series)) == "max":
                samples[series] = max(samples[series], num)
            else:
                samples[series] += num
    lines = [meta[k] for k in meta_order]
    lines += [f"{series} {samples[series]}" for series in sample_order]
    return "\n".join(lines) + "\n"


class TaskLedger:
    """Cluster-wide task conservation, fed by the RM shard's stream."""

    def __init__(self) -> None:
        #: tid -> ordered RM-side events.
        self.events: Dict[str, List[str]] = {}
        #: tid -> terminal event name.
        self.terminal: Dict[str, str] = {}
        #: tid -> final outcome string (ok/missed/rejected/failed).
        self.outcomes: Dict[str, Optional[str]] = {}
        self.reassigned = 0
        #: Origin-side counters (acks seen by the submitting shards).
        self.submit_acks = 0
        self.submit_failures = 0

    def on_rm_event(
        self, tid: str, event: str, outcome: Optional[str]
    ) -> None:
        self.events.setdefault(tid, []).append(event)
        if event == "reassigned":
            self.reassigned += 1
        if event in TERMINAL_EVENTS:
            self.terminal[tid] = event
            self.outcomes[tid] = outcome

    def open_tasks(self) -> List[str]:
        """Accepted-by-RM tasks with no terminal event yet."""
        return [t for t in self.events if t not in self.terminal]

    def counts(self) -> Dict[str, int]:
        by_event: Dict[str, int] = {}
        for ev in self.terminal.values():
            by_event[ev] = by_event.get(ev, 0) + 1
        return {
            "seen": len(self.events),
            "terminal": len(self.terminal),
            "open": len(self.events) - len(self.terminal),
            "reassigned": self.reassigned,
            "submit_acks": self.submit_acks,
            "submit_failures": self.submit_failures,
            **by_event,
        }


@dataclass
class _Shard:
    """Supervisor-side bookkeeping for one child."""

    cfg: ShardConfig
    proc: Any = None
    conn: Any = None
    status: str = "spawning"  # ready/running/draining/drained/crashed/failed
    agent_port: Optional[int] = None
    metrics_port: Optional[int] = None
    node_ids: List[str] = field(default_factory=list)
    last_hb: Dict[str, Any] = field(default_factory=dict)
    restarts: int = 0
    ready_event: asyncio.Event = field(default_factory=asyncio.Event)
    drained_event: asyncio.Event = field(default_factory=asyncio.Event)


class ClusterSupervisor:
    """Spawns, seeds, supervises, and drains the shard processes."""

    def __init__(
        self,
        configs: List[ShardConfig],
        serve_metrics: bool = True,
        metrics_port: int = 0,
        start_timeout: float = 60.0,
        observe_dir: Optional[str] = None,
    ) -> None:
        if not configs:
            raise ValueError("need at least one shard config")
        self.configs = {cfg.shard_id: cfg for cfg in configs}
        self.start_timeout = start_timeout
        self.ledger = TaskLedger()
        self.shards: Dict[str, _Shard] = {}
        #: node_id -> shard_id (static topology, for terminal relays).
        self.node_shard: Dict[str, str] = {}
        for cfg in configs:
            for spec in cfg.specs:
                self.node_shard[spec.node_id] = cfg.shard_id
        self._ctx = multiprocessing.get_context("spawn")
        self._pump_task: Optional[asyncio.Task] = None
        self._respawn_tasks: Dict[str, asyncio.Task] = {}
        self._closing = False
        self.httpd: Optional[TelemetryHTTPServer] = None
        if serve_metrics:
            self.httpd = TelemetryHTTPServer(
                self.metrics_text, health_fn=self.status,
                host=configs[0].cluster.host, port=metrics_port,
            )
        self._submit_rr = 0
        #: The cluster observability plane (None unless *observe_dir*).
        self.observe_dir = observe_dir
        self.cluster_health: Optional[Any] = None
        self.coordinator: Optional[Any] = None
        if observe_dir is not None:
            os.makedirs(observe_dir, exist_ok=True)
            # Deferred import: the observability plane pulls in the
            # profiling package, which stays off the default path.
            from repro.runtime.observe import (
                BundleCoordinator,
                ClusterHealth,
            )

            self.coordinator = BundleCoordinator(
                os.path.join(observe_dir, "correlated"),
                fanout=self._fanout_snapshot,
            )
            self.cluster_health = ClusterHealth(recorder=self.coordinator)
        self.log = get_logger("runtime.supervisor")

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "ClusterSupervisor":
        loop = asyncio.get_running_loop()
        if self.httpd is not None:
            self.httpd.start()
        for cfg in self.configs.values():
            self._spawn(cfg.shard_id, respawn=False)
        self._pump_task = loop.create_task(self._pump(), name="sup:pump")
        await asyncio.wait_for(
            asyncio.gather(*(
                sh.ready_event.wait() for sh in self.shards.values()
            )),
            self.start_timeout,
        )
        self._send_seeds()
        return self

    async def __aenter__(self) -> "ClusterSupervisor":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    def _spawn(self, shard_id: str, respawn: bool) -> _Shard:
        restarts = self.shards[shard_id].restarts + 1 if respawn else 0
        cfg = replace(
            self.configs[shard_id], respawn=respawn,
            observation=self._observation(shard_id, restarts),
        )
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_entry, args=(cfg, child_conn),
            name=f"shard-{shard_id}",
        )
        proc.start()
        child_conn.close()
        sh = _Shard(cfg=cfg, proc=proc, conn=parent_conn, restarts=restarts)
        self.shards[shard_id] = sh
        self.log.info(
            "spawned shard %s (pid %s, respawn=%s)",
            shard_id, proc.pid, respawn,
        )
        return sh

    def _send_seeds(self) -> None:
        agents = self._agents_map()
        for sh in self.shards.values():
            if sh.agent_port is not None and sh.status in (
                "ready", "running"
            ):
                self._send(sh, {"type": "seeds", "agents": agents})

    def _agents_map(self) -> Dict[str, Tuple[str, int]]:
        return {
            agent_id_for(sid): (sh.cfg.cluster.host, sh.agent_port)
            for sid, sh in self.shards.items()
            if sh.agent_port is not None
        }

    def _send(self, sh: _Shard, msg: Dict[str, Any]) -> None:
        try:
            sh.conn.send(msg)
        except (BrokenPipeError, OSError):
            pass

    # -- event pump --------------------------------------------------------
    async def _pump(self) -> None:
        while not self._closing:
            for sid, sh in list(self.shards.items()):
                try:
                    while sh.conn.poll(0):
                        self._on_msg(sid, sh, sh.conn.recv())
                except (EOFError, OSError):
                    pass
                if (
                    sh.proc is not None
                    and not sh.proc.is_alive()
                    and sh.status not in (
                        "drained", "crashed", "failed", "stopped",
                    )
                ):
                    self._on_crash(sid, sh)
            await asyncio.sleep(0.02)

    def _on_msg(self, sid: str, sh: _Shard, msg: Dict[str, Any]) -> None:
        kind = msg.get("type")
        if kind == "ready":
            sh.agent_port = msg["agent_port"]
            sh.metrics_port = msg.get("metrics_port")
            sh.node_ids = msg.get("nodes", [])
            sh.status = "ready"
            sh.ready_event.set()
        elif kind == "hb":
            sh.last_hb = msg
            if (
                sh.status == "ready"
                and msg.get("nodes", 0) > 0
                and msg.get("joined") == msg.get("nodes")
            ):
                sh.status = "running"
            health = msg.get("health")
            if health is not None and self.cluster_health is not None:
                self.cluster_health.ingest(
                    sid, health, msg.get("inflight", 0)
                )
                self.cluster_health.maybe_tick()
        elif kind == "task":
            self.ledger.on_rm_event(
                msg["tid"], msg["ev"], msg.get("outcome")
            )
            if msg["ev"] in TERMINAL_EVENTS:
                self._relay_done(msg["tid"], msg.get("origin"))
        elif kind == "submitted":
            self.ledger.submit_acks += 1
        elif kind == "submit_failed":
            self.ledger.submit_failures += 1
        elif kind == "drained":
            sh.status = "drained"
            sh.drained_event.set()
        elif kind == "flight":
            if self.coordinator is not None:
                self.coordinator.on_shard_dump(
                    sid, msg.get("reason", "?"), msg.get("path")
                )
        elif kind == "snapshot_done":
            if self.coordinator is not None:
                self.coordinator.on_snapshot_done(
                    sid, msg.get("reason", "?"),
                    msg.get("bundle"), msg.get("path"),
                )
        elif kind == "fatal":
            self.log.warning("shard %s fatal: %s", sid, msg.get("error"))

    def _relay_done(self, tid: str, origin: Optional[str]) -> None:
        shard_id = self.node_shard.get(origin or "")
        if shard_id is None:
            return
        sh = self.shards.get(shard_id)
        if sh is not None and sh.proc is not None and sh.proc.is_alive():
            self._send(sh, {"type": "task_done", "tid": tid})

    # -- observability plane ---------------------------------------------
    def _part_dir(self, sid: str, incarnation: int) -> str:
        assert self.observe_dir is not None
        return os.path.join(self.observe_dir, f"shard-{sid}-{incarnation}")

    def _observation(self, sid: str, incarnation: int) -> Dict[str, Any]:
        """The shard's observation flags with its files pointed into
        this incarnation's own directory."""
        flags = dict(self.configs[sid].observation)
        if flags:
            part = self._part_dir(sid, incarnation)
            os.makedirs(part, exist_ok=True)
            if flags.get("trace"):
                flags["trace"] = os.path.join(part, "trace.jsonl")
            if flags.get("profile"):
                flags["folded"] = os.path.join(part, "profile.folded")
        return flags

    def _fanout_snapshot(
        self, reason: str, bundle_n: int, exclude: Optional[str]
    ) -> None:
        """BundleCoordinator callback: ask every live shard to dump."""
        for sid, sh in self.shards.items():
            if sid == exclude:
                continue
            if sh.proc is not None and sh.proc.is_alive():
                self._send(sh, {
                    "type": "snapshot", "reason": reason,
                    "bundle": bundle_n,
                })

    def request_snapshot(self, reason: str) -> Optional[str]:
        """Supervisor-initiated correlated bundle (None while cooling
        down or when the plane is off)."""
        if self.coordinator is None:
            return None
        return self.coordinator.trigger(reason)

    def write_cluster_artifacts(
        self, trace: Optional[str] = None, folded: Optional[str] = None,
    ) -> Optional[Dict[str, Any]]:
        """Merge the shards' files into the cluster artifacts.

        Call after :meth:`stop`.  Writes *trace* (default
        ``cluster-trace.jsonl``) — the epoch-aligned, id-re-keyed,
        parent-stitched merge of every shard incarnation's trace plus
        the supervisor's cluster-health series — and *folded* (default
        ``cluster.folded``), the summed flame profile.  A SIGKILLed
        incarnation contributes what it wrote before the kill.  Returns
        paths plus the cross-shard connectivity summary.
        """
        if self.observe_dir is None:
            return None
        from repro.profiling.folded import (
            merge_folded,
            read_folded,
            write_folded,
        )
        from repro.telemetry.cluster import cross_shard_summary, merge_traces
        from repro.telemetry.export import read_jsonl, write_trace_data

        def files(name: str) -> List[str]:
            paths = (
                os.path.join(self._part_dir(sid, n), name)
                for sid in sorted(self.shards)
                for n in range(self.shards[sid].restarts + 1)
            )
            return [p for p in paths if os.path.exists(p)]

        parts = [read_jsonl(p) for p in files("trace.jsonl")]
        merged = merge_traces(parts)
        if self.cluster_health is not None:
            merged.series.extend(self.cluster_health.records())
        trace = trace or os.path.join(self.observe_dir, "cluster-trace.jsonl")
        write_trace_data(trace, merged)
        counts = merge_folded(read_folded(p) for p in files("profile.folded"))
        folded = write_folded(
            folded or os.path.join(self.observe_dir, "cluster.folded"), counts,
        ) if counts else None
        summary = cross_shard_summary(merged)
        return {
            "trace": trace,
            "folded": folded,
            "parts": len(parts),
            "stitched_spans": merged.meta.get("stitched_spans", 0),
            "tasks": summary["tasks"],
            "cross_shard_tasks": summary["cross_shard_tasks"],
            "connected_tasks": summary["connected_tasks"],
            "orphan_spans": summary["orphan_spans"],
            "bundles": (
                self.coordinator.record()
                if self.coordinator is not None else []
            ),
            "profiles": {
                p.meta.get("shard"): p.profile
                for p in parts if p.profile is not None
            },
        }

    def _on_crash(self, sid: str, sh: _Shard) -> None:
        sh.status = "crashed"
        self.log.warning(
            "shard %s exited (code %s) without draining",
            sid, sh.proc.exitcode,
        )
        if self._closing:
            return
        if sh.restarts >= MAX_RESTARTS:
            sh.status = "failed"
            self.log.warning("shard %s exceeded restart budget", sid)
            return
        task = asyncio.get_running_loop().create_task(
            self._respawn(sid), name=f"respawn:{sid}"
        )
        self._respawn_tasks[sid] = task

    async def _respawn(self, sid: str) -> None:
        sh = self.shards[sid]
        await asyncio.sleep(
            min(RESPAWN_BACKOFF * 2 ** sh.restarts, RESPAWN_BACKOFF_MAX)
        )
        if self._closing:
            return
        new = self._spawn(sid, respawn=True)
        try:
            await asyncio.wait_for(
                new.ready_event.wait(), self.start_timeout
            )
        except asyncio.TimeoutError:
            return  # the pump will see the child die and retry
        self._send_seeds()

    # -- application API ---------------------------------------------------
    def submit(self, n: int = 1, shard_id: Optional[str] = None) -> None:
        """Inject *n* task submissions into a shard (round-robin when
        *shard_id* is None)."""
        live = [
            sh for sh in self.shards.values()
            if sh.status == "running" and (
                shard_id is None or sh.cfg.shard_id == shard_id
            )
        ]
        if not live:
            raise RuntimeError("no running shard to submit to")
        sh = live[self._submit_rr % len(live)]
        self._submit_rr += 1
        self._send(sh, {"type": "submit", "n": n})

    def pause_tasks(self) -> None:
        """Stop every shard's task generator (the soak's settle phase)."""
        for sh in self.shards.values():
            self._send(sh, {"type": "pause_tasks"})

    def rm_shard_id(self) -> Optional[str]:
        """The shard hosting the elected RM (from heartbeats)."""
        for sh in self.shards.values():
            rm_id = sh.last_hb.get("rm_id")
            if rm_id:
                return self.node_shard.get(rm_id)
        return None

    async def wait_rm_ready(self, timeout: float = 60.0) -> None:
        """Until every shard's heartbeat reports the RM up and ready."""
        await self._poll_until(
            lambda: all(
                sh.last_hb.get("rm_ready") for sh in self.shards.values()
            ),
            timeout, "rm_ready",
        )

    async def wait_running(
        self, shard_id: Optional[str] = None, timeout: float = 60.0
    ) -> None:
        """Until the shard(s) report every node joined.  Looks the
        shard up by id on every poll: a respawn replaces the
        bookkeeping object, and a freshly killed process may not have
        been noticed by the pump yet — require liveness too."""
        ids = [shard_id] if shard_id is not None else list(self.shards)

        def running() -> bool:
            return all(
                self.shards[sid].status == "running"
                and self.shards[sid].proc is not None
                and self.shards[sid].proc.is_alive()
                for sid in ids
            )

        await self._poll_until(
            running, timeout, f"running:{shard_id or 'all'}",
        )

    async def wait_respawned(
        self, shard_id: str, timeout: float = 60.0
    ) -> None:
        """After a kill: until the shard has been respawned at least
        once more and its nodes have all re-joined."""
        base = self.shards[shard_id].restarts

        def respawned() -> bool:
            sh = self.shards[shard_id]
            return (
                sh.restarts > base
                and sh.status == "running"
                and sh.proc is not None and sh.proc.is_alive()
            )

        await self._poll_until(
            respawned, timeout, f"respawn:{shard_id}",
        )

    async def wait_tasks_settled(self, timeout: float = 60.0) -> None:
        """Until every RM-seen task has reached a terminal event."""
        await self._poll_until(
            lambda: not self.ledger.open_tasks(), timeout, "tasks settled",
        )

    async def _poll_until(
        self, cond, timeout: float, what: str
    ) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while not cond():
            if loop.time() > deadline:
                raise asyncio.TimeoutError(f"timed out waiting for {what}")
            await asyncio.sleep(0.05)

    # -- fault injection / drain -------------------------------------------
    def kill_shard(self, shard_id: str) -> None:
        """SIGKILL one shard (the crash the respawn path recovers)."""
        sh = self.shards[shard_id]
        if sh.proc is not None and sh.proc.is_alive():
            sh.proc.kill()

    async def drain_shard(
        self, shard_id: str, timeout: float = 30.0
    ) -> bool:
        """Gracefully drain one shard; True if it reported a clean
        drain and exited."""
        sh = self.shards[shard_id]
        self._respawn_cancel(shard_id)
        self._send(sh, {"type": "drain"})
        if sh.proc is not None and sh.proc.is_alive():
            try:
                sh.proc.terminate()  # SIGTERM: same path as the message
            except (ProcessLookupError, OSError):
                pass
        try:
            await asyncio.wait_for(sh.drained_event.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        await self._join_proc(sh)
        return True

    async def drain(self, timeout: float = 60.0) -> bool:
        """Drain the whole cluster: peer shards first, the RM's last."""
        rm_sid = self.rm_shard_id()
        order = [s for s in self.shards if s != rm_sid]
        ok = True
        results = await asyncio.gather(*(
            self.drain_shard(sid, timeout) for sid in order
        ))
        ok = all(results)
        if rm_sid is not None and rm_sid in self.shards:
            ok = await self.drain_shard(rm_sid, timeout) and ok
        return ok

    def _respawn_cancel(self, shard_id: str) -> None:
        task = self._respawn_tasks.pop(shard_id, None)
        if task is not None and not task.done():
            task.cancel()

    async def _join_proc(self, sh: _Shard) -> None:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + JOIN_GRACE
        while sh.proc.is_alive() and loop.time() < deadline:
            await asyncio.sleep(0.05)
        if sh.proc.is_alive():
            sh.proc.kill()
        sh.proc.join(timeout=1.0)

    async def stop(self) -> None:
        """Tear everything down (SIGTERM, then SIGKILL stragglers)."""
        self._closing = True
        for task in self._respawn_tasks.values():
            if not task.done():
                task.cancel()
        for sh in self.shards.values():
            if sh.proc is not None and sh.proc.is_alive():
                try:
                    sh.proc.terminate()
                except (ProcessLookupError, OSError):
                    pass
        await asyncio.gather(*(
            self._join_proc(sh) for sh in self.shards.values()
        ))
        # The pump exits as soon as _closing flips, but a SIGTERM'd
        # shard drains on its way out — sweep the pipes once after the
        # join so its last ledger messages still land.
        for sid, sh in self.shards.items():
            try:
                while sh.conn.poll(0):
                    self._on_msg(sid, sh, sh.conn.recv())
            except (EOFError, OSError):
                pass
        for sh in self.shards.values():
            sh.status = "stopped"
            try:
                sh.conn.close()
            except OSError:
                pass
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except (asyncio.CancelledError, Exception):
                pass
        if self.httpd is not None:
            self.httpd.close()

    # -- observability -----------------------------------------------------
    def metrics_text(self) -> str:
        """Aggregated exposition: every shard's /metrics merged with the
        supervisor-level series.  Runs on the endpoint's thread."""
        texts: List[str] = []
        for sh in list(self.shards.values()):
            if sh.metrics_port is None:
                continue
            url = f"http://{sh.cfg.cluster.host}:{sh.metrics_port}/metrics"
            try:
                with urllib.request.urlopen(url, timeout=1.0) as resp:
                    texts.append(resp.read().decode("utf-8"))
            except OSError:
                continue
        m = MetricsRegistry()
        for sid, sh in self.shards.items():
            m.gauge(
                "repro_supervisor_shard_up",
                help="1 while the shard process is alive", shard=sid,
            ).set(1.0 if sh.proc is not None and sh.proc.is_alive() else 0.0)
            m.counter(
                "repro_supervisor_shard_restarts_total",
                help="respawns performed for the shard", shard=sid,
            ).value = float(sh.restarts)
        counts = self.ledger.counts()
        m.gauge(
            "repro_supervisor_tasks_open",
            help="RM-seen tasks with no terminal event yet",
        ).set(counts["open"])
        m.counter(
            "repro_supervisor_tasks_terminal_total",
            help="tasks that reached a terminal event",
        ).value = float(counts["terminal"])
        if self.cluster_health is not None:
            self.cluster_health.publish(m)
        return merge_prometheus(texts + [m.to_prometheus_text()])

    def status(self) -> Dict[str, Any]:
        """Health snapshot (also the aggregated /healthz body)."""
        return {
            "status": "ok",
            "shards": {
                sid: {
                    "status": sh.status,
                    "pid": sh.proc.pid if sh.proc is not None else None,
                    "alive": bool(
                        sh.proc is not None and sh.proc.is_alive()
                    ),
                    "restarts": sh.restarts,
                    "joined": sh.last_hb.get("joined"),
                    "nodes": len(sh.node_ids),
                    "rm_ready": sh.last_hb.get("rm_ready"),
                    "inflight": sh.last_hb.get("inflight"),
                }
                for sid, sh in self.shards.items()
            },
            "tasks": self.ledger.counts(),
        }
