"""The multi-process live soak: the sharded runtime under sustained
load with fault injection.

``repro-live-soak`` (and the CI ``live-soak-smoke`` job) runs this
scenario end to end:

1. spawn N shards hosting the whole population (RM candidate ``M0``
   plus ``P1..Pn``), wait for the decentralized roster to converge and
   the §4.1 election to seat the RM;
2. originate a steady task stream from every shard;
3. SIGKILL one non-RM shard mid-run, assert the supervisor respawns it
   and its nodes re-join under their old ids;
4. let the stream settle and check task conservation — every task the
   RM accepted reached exactly one terminal event (completed, rejected
   or failed; crash-severed sessions are recovered by the §4.5 repair
   path or expire through the loss grace, never silently dropped);
5. scrape the supervisor's aggregated ``/metrics``;
6. drain one shard gracefully (SIGTERM semantics) and verify it left
   with no in-flight work abandoned.

The defaults are CI-sized.  ``--peers 10000 --shards 8`` reproduces
the documented local run (see ``docs/runtime.md`` for ulimit notes).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.manager import RMConfig
from repro.media.fig1 import build_fig1_graph
from repro.media.objects import MediaObject
from repro.runtime.node import NodeSpec
from repro.runtime.shard import ShardConfig
from repro.runtime.supervisor import ClusterSupervisor, partition_specs


@dataclass
class SoakConfig:
    """One soak run's shape."""

    peers: int = 1000
    shards: int = 4
    duration: float = 45.0
    #: Cluster-wide task origination rate (tasks/s), split over shards.
    task_rate: float = 4.0
    task_deadline: float = 30.0
    kill: bool = True
    drain: bool = True
    host: str = "127.0.0.1"
    metrics_port: int = 0
    record_dir: Optional[str] = None
    #: Root of the cluster observability plane's artifacts (per-shard
    #: trace streams, merged cluster trace + .folded, correlated flight
    #: bundles).  None = plane off, shard behaviour unchanged.
    observe_dir: Optional[str] = None
    seed: int = 7
    profiler_update_period: float = 5.0
    gossip_period: float = 1.0
    object_duration_s: float = 1.0
    join_timeout: float = 60.0
    settle_grace: float = 60.0


def soak_specs(cfg: SoakConfig) -> List[NodeSpec]:
    """The soak population: a well-provisioned RM candidate plus
    uniform peers all hosting the Figure-1 edge set (so any peer can
    take over any reassigned session) and the source object."""
    scenario = build_fig1_graph(duration_s=60.0)  # canonical calibration
    edges = [
        {
            "src": e.src, "dst": e.dst, "service_id": e.service_id,
            "work": e.work, "out_bytes": e.out_bytes, "edge_id": e.edge_id,
        }
        for e in scenario.graph.edges()
    ]
    movie = MediaObject(
        "movie", scenario.source_object.fmt,
        duration_s=cfg.object_duration_s,
    )
    specs = [NodeSpec(
        node_id="M0", power=50.0, bandwidth=1.0e7, uptime=1.0,
        profiler_update_period=cfg.profiler_update_period,
    )]
    for i in range(cfg.peers):
        pid = f"P{i + 1}"
        # Edge ids must be unique per hosted instance: every peer
        # carries the full edge set so any session can be reassigned
        # anywhere (§4.5), so qualify the id with the host.
        hosted = [
            {**e, "edge_id": f"{e['edge_id']}@{pid}"} for e in edges
        ]
        specs.append(NodeSpec(
            node_id=pid,
            power=10.0, bandwidth=1.25e6, uptime=0.9,
            objects=[movie],
            service_edges=hosted,
            profiler_update_period=cfg.profiler_update_period,
        ))
    return specs


def soak_shard_configs(cfg: SoakConfig) -> List[ShardConfig]:
    specs = soak_specs(cfg)
    buckets = partition_specs(specs, cfg.shards)
    rm_config = RMConfig(
        max_peers=cfg.peers + 8,
        expected_update_period=cfg.profiler_update_period,
    )
    out: List[ShardConfig] = []
    for i, bucket in enumerate(buckets):
        sid = f"s{i}"
        record_dir = (
            os.path.join(cfg.record_dir, sid) if cfg.record_dir else None
        )
        out.append(ShardConfig(
            shard_id=sid,
            specs=bucket,
            expected_nodes=len(specs),
            host=cfg.host,
            rm_config=rm_config,
            join_timeout=cfg.join_timeout,
            gossip_period=cfg.gossip_period,
            record_dir=record_dir,
            observe=cfg.observe_dir is not None,
            task_rate=cfg.task_rate / len(buckets),
            task_deadline=cfg.task_deadline,
            seed=cfg.seed + i,
        ))
    return out


async def run_soak(cfg: SoakConfig) -> Dict[str, Any]:
    """Run the scenario; returns the result document (``ok`` rolls up
    every acceptance check)."""
    configs = soak_shard_configs(cfg)
    expected_nodes = cfg.peers + 1
    sup = ClusterSupervisor(
        configs, metrics_port=cfg.metrics_port,
        start_timeout=cfg.join_timeout,
        observe_dir=cfg.observe_dir,
    )
    result: Dict[str, Any] = {
        "peers": cfg.peers, "shards": len(configs),
        "duration": cfg.duration,
        "killed": None, "respawned": None,
        "converged": False, "no_task_lost": False,
        "metrics_ok": False, "drain": None,
    }
    loop = asyncio.get_running_loop()
    try:
        await sup.start()
        await sup.wait_running(timeout=cfg.join_timeout)
        await sup.wait_rm_ready(timeout=cfg.join_timeout)
        t0 = loop.time()
        kill_at = t0 + 0.35 * cfg.duration
        end_at = t0 + cfg.duration

        if cfg.kill:
            await asyncio.sleep(max(0.0, kill_at - loop.time()))
            rm_sid = sup.rm_shard_id()
            candidates = [
                sid for sid in sup.shards if sid != rm_sid
            ] or list(sup.shards)
            victim = candidates[-1]
            result["killed"] = victim
            sup.kill_shard(victim)
            # Respawn + roster pull + re-join under the old ids.
            await sup.wait_respawned(victim, timeout=cfg.join_timeout)
            result["respawned"] = True

        await asyncio.sleep(max(0.0, end_at - loop.time()))
        sup.pause_tasks()
        await sup.wait_tasks_settled(timeout=cfg.settle_grace)

        counts = sup.ledger.counts()
        result["tasks"] = counts
        result["no_task_lost"] = counts["open"] == 0
        result["converged"] = all(
            sh.last_hb.get("roster", {}).get("nodes_up") == expected_nodes
            and sh.last_hb.get("roster", {}).get("agents_up")
            == len(configs)
            for sh in sup.shards.values()
        )
        result["restarts"] = {
            sid: sh.restarts for sid, sh in sup.shards.items()
        }

        text = sup.metrics_text()
        result["metrics_ok"] = (
            "repro_supervisor_shard_up" in text
            and "repro_shard_nodes_joined" in text
        )
        if sup.httpd is not None:
            result["metrics_url"] = sup.httpd.url

        if cfg.observe_dir:
            # Force one correlated bundle so every soak produces the
            # artifact even when no anomaly fired on its own.
            bundle_dir = sup.request_snapshot("soak_checkpoint")
            if bundle_dir is not None and cfg.record_dir:
                live = sum(
                    1 for sh in sup.shards.values()
                    if sh.proc is not None and sh.proc.is_alive()
                )
                deadline = loop.time() + 10.0
                while loop.time() < deadline:
                    bundle = sup.coordinator.bundles[-1]
                    if len(bundle["shards"]) >= live:
                        break
                    await asyncio.sleep(0.1)

        if cfg.drain:
            rm_sid = sup.rm_shard_id()
            targets = [
                sid for sid in sup.shards
                if sid != rm_sid and sid != result["killed"]
            ] or [
                sid for sid in sup.shards if sid != rm_sid
            ]
            if targets:
                target = targets[-1]
                ok = await sup.drain_shard(
                    target, timeout=cfg.settle_grace
                )
                result["drain"] = {"shard": target, "ok": ok}
    finally:
        await sup.stop()

    if cfg.observe_dir:
        result["observe"] = sup.write_cluster_artifacts()

    checks = [
        result["converged"], result["no_task_lost"], result["metrics_ok"],
    ]
    if cfg.kill:
        checks.append(bool(result["respawned"]))
    if cfg.drain:
        checks.append(bool(result["drain"] and result["drain"]["ok"]))
    if cfg.observe_dir:
        obs = result.get("observe") or {}
        result["observe_ok"] = bool(
            obs.get("trace")
            and os.path.exists(obs["trace"])
            and obs.get("orphan_spans", 1) == 0
        )
        checks.append(result["observe_ok"])
    result["ok"] = all(checks)
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-live-soak",
        description="multi-process live soak with fault injection",
    )
    parser.add_argument("--peers", type=int, default=1000)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--duration", type=float, default=45.0)
    parser.add_argument("--rate", type=float, default=4.0,
                        help="cluster-wide tasks/s")
    parser.add_argument("--no-kill", action="store_true",
                        help="skip the mid-run shard kill")
    parser.add_argument("--no-drain", action="store_true",
                        help="skip the graceful-drain check")
    parser.add_argument("--metrics-port", type=int, default=0)
    parser.add_argument("--record-dir", default=None,
                        help="flight-recorder bundle directory")
    parser.add_argument("--observe", dest="observe_dir", default=None,
                        help="cluster observability artifact directory "
                             "(per-shard traces, merged trace/.folded, "
                             "correlated bundles)")
    parser.add_argument("--profiler-period", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", dest="json_out", default=None,
                        help="also write the result document here")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    cfg = SoakConfig(
        peers=args.peers, shards=args.shards, duration=args.duration,
        task_rate=args.rate, kill=not args.no_kill,
        drain=not args.no_drain, metrics_port=args.metrics_port,
        record_dir=args.record_dir, observe_dir=args.observe_dir,
        profiler_update_period=args.profiler_period, seed=args.seed,
    )
    result = asyncio.run(run_soak(cfg))
    doc = json.dumps(result, indent=2, sort_keys=True)
    print(doc)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(doc + "\n")
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
