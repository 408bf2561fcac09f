"""``repro-live`` — run a live UDP domain and stream one media task.

Boots an in-process :class:`~repro.runtime.cluster.LiveCluster`
(roster agent + RM candidate + N peers on localhost UDP sockets), submits
a Figure-1 media task from a peer, waits for the ``TASK_REQUEST →
TASK_ACK → COMPOSE → STREAM → TASK_DONE`` chain to finish over the
wire, and prints per-node traffic summaries.

Example::

    repro-live --peers 4 --origin P4 --deadline 20

With ``--shards N`` the same domain runs on the sharded multi-process
runtime instead: a :class:`~repro.runtime.supervisor.ClusterSupervisor`
spawns one ``ShardHost`` process per shard, the decentralized roster
assembles the domain, and the tasks are injected through the
supervisor's control pipe::

    repro-live --peers 64 --shards 4 --tasks 8
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any, Dict, List, Optional

from repro.core.manager import RMConfig
from repro.net.node import RPCError
from repro.runtime.cluster import LiveCluster, LiveClusterConfig
from repro.telemetry.logs import configure_logging
from repro.telemetry.observation import (
    Observation,
    add_observation_flags,
    observation_flags,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-live",
        description=(
            "Run the middleware protocol over real localhost UDP sockets: "
            "form a domain, elect an RM, and stream a media task."
        ),
    )
    parser.add_argument(
        "--peers", type=int, default=4,
        help="number of worker peers (plus one RM candidate; default 4)",
    )
    parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="run the domain on N supervised shard processes instead of "
        "a single in-process loop (default 0 = in-process)",
    )
    parser.add_argument(
        "--origin", default="P4",
        help="peer that submits the task (default P4)",
    )
    parser.add_argument(
        "--deadline", type=float, default=20.0,
        help="task deadline in seconds (default 20)",
    )
    parser.add_argument(
        "--duration", type=float, default=3.0,
        help="media object duration in seconds; work scales with it "
        "(default 3)",
    )
    parser.add_argument(
        "--tasks", type=int, default=1,
        help="how many tasks to submit back-to-back (default 1)",
    )
    parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="wall-clock completion timeout per task (default 30)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON report instead of text",
    )
    add_observation_flags(parser, clock="wall")
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus text /metrics and /healthz on "
        "127.0.0.1:PORT while the run is live (0 = ephemeral port)",
    )
    parser.add_argument(
        "--linger", type=float, default=0.0, metavar="SECONDS",
        help="keep the cluster (and /metrics endpoint) up this many "
        "seconds after the tasks finish (default 0)",
    )
    parser.add_argument(
        "--log-level", metavar="LEVEL",
        help="enable structured per-node logging at LEVEL "
        "(e.g. INFO, DEBUG; off by default)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="with --log-level: one JSON object per log line",
    )
    return parser


async def run_live(
    args: argparse.Namespace, obs: Observation
) -> Dict[str, Any]:
    config = LiveClusterConfig(
        n_peers=args.peers, object_duration_s=args.duration,
    )
    config.rm_config = RMConfig(
        expected_update_period=config.profiler_update_period,
        placement_policy=args.policy, enable_defense=args.defense,
    )
    cluster = LiveCluster(config)
    known = sorted(s.node_id for s in cluster.specs)
    if args.origin not in known:
        raise ValueError(
            f"unknown origin peer {args.origin!r}; choose from "
            f"{', '.join(known)}"
        )

    def _health() -> Dict[str, Any]:
        doc: Dict[str, Any] = {"status": "ok", "nodes": len(cluster.nodes)}
        if obs.session is not None:
            doc["profiler"] = obs.session.summary()
        return doc

    report: Dict[str, Any] = {"tasks": []}
    async with cluster:
        obs.start(cluster, health_fn=_health)
        if obs.httpd is not None:
            print(f"metrics endpoint: {obs.httpd.url}/metrics",
                  file=sys.stderr)
        try:
            rm = cluster.rm_node
            report["rm"] = rm.node_id
            report["peers"] = sorted(n.node_id for n in cluster.peers())
            for _ in range(args.tasks):
                ack = await cluster.submit(
                    args.origin, deadline=args.deadline,
                    timeout=args.timeout,
                )
                entry: Dict[str, Any] = {"ack": dict(ack)}
                task_id = ack.get("task_id")
                if ack.get("disposition") == "accepted" and task_id:
                    await cluster.wait_task_event(
                        task_id, "completed", timeout=args.timeout,
                    )
                    task = cluster.task(task_id)
                    entry["state"] = task.state.name
                    entry["events"] = [
                        ev for _, tid, ev in cluster.task_events
                        if tid == task_id
                    ]
                report["tasks"].append(entry)
            if args.linger > 0:
                await asyncio.sleep(args.linger)
            report["summaries"] = cluster.summaries()
            report["aggregate"] = cluster.aggregate_summary()
            obs.meta["aggregate"] = report["aggregate"]
        finally:
            # While the cluster is still up: the sampler's last snapshot
            # reads live nodes.
            obs.stop()
    return report


async def run_sharded(args: argparse.Namespace) -> Dict[str, Any]:
    """The ``--shards`` path: the same fig-1 style domain, but hosted
    by supervised shard processes with the decentralized roster."""
    from repro.runtime.soak import SoakConfig, soak_shard_configs
    from repro.runtime.supervisor import ClusterSupervisor

    cfg = SoakConfig(
        peers=args.peers, shards=args.shards,
        task_rate=0.0, kill=False, drain=False,
        task_deadline=args.deadline,
        object_duration_s=args.duration,
        metrics_port=args.metrics_port or 0,
    )
    sup = ClusterSupervisor(
        soak_shard_configs(cfg),
        serve_metrics=args.metrics_port is not None,
        metrics_port=args.metrics_port or 0,
        start_timeout=cfg.join_timeout,
    )
    report: Dict[str, Any] = {"shards": args.shards}
    loop = asyncio.get_running_loop()
    try:
        await sup.start()
        await sup.wait_running(timeout=cfg.join_timeout)
        await sup.wait_rm_ready(timeout=cfg.join_timeout)
        report["rm_shard"] = sup.rm_shard_id()
        if args.metrics_port is not None and sup.httpd is not None:
            print(f"metrics endpoint: {sup.httpd.url}/metrics",
                  file=sys.stderr)
        sup.submit(args.tasks)
        # The ledger only knows about a task once its origin shard acks
        # the submission, so wait for the acks before "settled".
        deadline = loop.time() + args.timeout * max(1, args.tasks)
        while loop.time() < deadline:
            c = sup.ledger.counts()
            if c["submit_acks"] + c["submit_failures"] >= args.tasks:
                break
            await asyncio.sleep(0.1)
        await sup.wait_tasks_settled(
            timeout=max(1.0, deadline - loop.time())
        )
        if args.linger > 0:
            await asyncio.sleep(args.linger)
        report["tasks"] = sup.ledger.counts()
        report["status"] = sup.status()
    finally:
        await sup.stop()
    return report


def _print_sharded_text(report: Dict[str, Any]) -> None:
    counts = report["tasks"]
    print(
        f"sharded domain up: {report['shards']} shards, "
        f"RM on {report['rm_shard']}"
    )
    print(
        f"tasks: submitted={counts['submit_acks']} "
        f"terminal={counts['terminal']} open={counts['open']} "
        f"failed_submits={counts['submit_failures']}"
    )
    base = {
        "seen", "terminal", "open", "reassigned",
        "submit_acks", "submit_failures",
    }
    by_event = ", ".join(
        f"{k}={n}" for k, n in sorted(counts.items()) if k not in base
    )
    if by_event:
        print(f"outcomes: {by_event}")


def _print_text(report: Dict[str, Any]) -> None:
    print(f"domain up: RM={report['rm']} peers={', '.join(report['peers'])}")
    for i, entry in enumerate(report["tasks"], 1):
        ack = entry["ack"]
        line = f"task {i}: {ack.get('disposition', '?')}"
        if "state" in entry:
            line += f" -> {entry['state']} ({' -> '.join(entry['events'])})"
        print(line)
    agg = report["aggregate"]
    print(
        f"traffic: sent={agg['sent']} delivered={agg['delivered']} "
        f"dropped={agg['dropped']}"
    )
    kinds = ", ".join(
        f"{k}={n}" for k, n in sorted(agg["by_kind"].items())
    )
    print(f"by kind: {kinds}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.peers < 1:
        parser.error("--peers must be at least 1 (an RM needs a domain)")
    if args.origin == "P4" and args.peers < 4:
        args.origin = "P1"
    if args.log_level:
        configure_logging(args.log_level, json_lines=args.log_json)
    flags = observation_flags(parser, args)
    if args.shards:
        if args.shards < 1:
            parser.error("--shards must be at least 1")
        if args.trace or args.profile or args.sample is not None:
            parser.error(
                "--trace/--sample/--profile are in-process features; "
                "with --shards use --record-dir on repro-live-soak or "
                "each shard's own /metrics"
            )
        try:
            report = asyncio.run(run_sharded(args))
        except (asyncio.TimeoutError, TimeoutError):
            print("error: sharded live run timed out", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(report, indent=2, default=str))
        else:
            _print_sharded_text(report)
        counts = report["tasks"]
        failed = (
            counts["open"] > 0
            or counts["submit_failures"] > 0
            or counts["submit_acks"] < args.tasks
        )
        return 1 if failed else 0
    if args.metrics_port is not None and not args.trace:
        parser.error("--metrics-port requires --trace (it serves the "
                     "run's metrics registry)")
    obs = Observation.wall(
        metrics_port=args.metrics_port,
        log=lambda line: print(line, file=sys.stderr),
        **flags,
    )
    try:
        with obs:
            report = asyncio.run(run_live(args, obs))
    except (asyncio.TimeoutError, TimeoutError, RPCError) as exc:
        print(f"error: live run failed: {exc or 'timed out'}",
              file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, default=str))
    else:
        _print_text(report)
    failed = any(
        e["ack"].get("disposition") == "accepted" and e.get("state") != "DONE"
        for e in report["tasks"]
    )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
