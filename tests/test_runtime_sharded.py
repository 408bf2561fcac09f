"""The sharded multi-process runtime, end to end.

The acceptance scenario for the cluster supervisor: shard processes
spawned over a control pipe, the decentralized roster assembling one
domain across them, a SIGKILLed shard respawned with its nodes
re-joining under their old ids, task conservation through the fault,
aggregated metrics, and a graceful drain.  Everything runs at miniature
scale (a handful of peers, a few shards) — the CI ``live-soak-smoke``
job runs the same scenario at 200 peers via ``repro-live-soak``.

Pure-function layers (spec partitioning, Prometheus merging, the task
ledger) are unit-tested without processes first.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.runtime.node import NodeSpec
from repro.runtime.supervisor import (
    TaskLedger,
    merge_prometheus,
    partition_specs,
)

pytestmark = pytest.mark.integration


def run(coro):
    return asyncio.run(coro)


# -- pure layers -------------------------------------------------------------

def specs(n):
    return [NodeSpec(node_id=f"P{i}") for i in range(n)]


def test_partition_specs_round_robin():
    buckets = partition_specs(specs(7), 3)
    assert [len(b) for b in buckets] == [3, 2, 2]
    # Shard 0 gets the first spec — the RM candidate stays on s0.
    assert buckets[0][0].node_id == "P0"
    got = sorted(s.node_id for b in buckets for s in b)
    assert got == sorted(s.node_id for s in specs(7))


def test_partition_specs_drops_empty_buckets():
    # More shards than specs: empty shards would never join; they are
    # elided rather than spawned.
    buckets = partition_specs(specs(2), 4)
    assert [len(b) for b in buckets] == [1, 1]


def test_merge_prometheus_sums_series():
    a = (
        "# HELP repro_x things\n"
        "# TYPE repro_x gauge\n"
        "repro_x 2\n"
        'repro_y{shard="s0"} 1\n'
    )
    b = (
        "# HELP repro_x things\n"
        "# TYPE repro_x gauge\n"
        "repro_x 3\n"
        'repro_y{shard="s1"} 5\n'
    )
    text = merge_prometheus([a, b])
    lines = text.splitlines()
    # One HELP/TYPE pair survives; same-name same-label samples sum;
    # distinct label sets stay distinct.
    assert lines.count("# HELP repro_x things") == 1
    assert "repro_x 5.0" in lines
    assert 'repro_y{shard="s0"} 1.0' in lines
    assert 'repro_y{shard="s1"} 5.0' in lines


def test_merge_prometheus_family_semantics():
    """Satellite check: explicit per-family merge semantics.  Additive
    families (inflight counts) sum across shards; replicated-view
    families (each shard reports the same cluster-wide roster) take the
    max — summing them would triple-count the population."""
    a = (
        "repro_shard_tasks_inflight 3\n"
        "repro_shard_roster_nodes_up 9\n"
        "repro_shard_rm_ready 1\n"
        'repro_slo_burn_rate{slo="miss_rate",window="fast"} 2\n'
    )
    b = (
        "repro_shard_tasks_inflight 4\n"
        "repro_shard_roster_nodes_up 9\n"
        "repro_shard_rm_ready 0\n"
        'repro_slo_burn_rate{slo="miss_rate",window="fast"} 5\n'
    )
    lines = merge_prometheus([a, b]).splitlines()
    assert "repro_shard_tasks_inflight 7.0" in lines  # sum
    assert "repro_shard_roster_nodes_up 9.0" in lines  # max, not 18
    assert "repro_shard_rm_ready 1.0" in lines  # any shard ready
    # Worst shard's burn is the cluster answer.
    assert (
        'repro_slo_burn_rate{slo="miss_rate",window="fast"} 5.0' in lines
    )


def test_merge_prometheus_family_agg_override():
    text = merge_prometheus(
        ["repro_x 2\n", "repro_x 3\n"], family_agg={"repro_x": "max"}
    )
    assert "repro_x 3.0" in text.splitlines()


def test_task_ledger_conservation_accounting():
    led = TaskLedger()
    led.on_rm_event("t1", "admitted", None)
    led.on_rm_event("t2", "admitted", None)
    assert sorted(led.open_tasks()) == ["t1", "t2"]
    led.on_rm_event("t1", "completed", "ok")
    led.on_rm_event("t2", "reassigned", None)
    assert led.open_tasks() == ["t2"]
    led.on_rm_event("t2", "failed", "failed")
    assert led.open_tasks() == []
    counts = led.counts()
    assert counts["seen"] == 2 and counts["terminal"] == 2
    assert counts["open"] == 0 and counts["reassigned"] == 1
    assert counts["completed"] == 1 and counts["failed"] == 1
    # Terminal is latched: a duplicate event cannot reopen a task.
    led.on_rm_event("t1", "completed", "ok")
    assert led.counts()["terminal"] == 2


# -- one shard host, in process ----------------------------------------------

def test_rm_ready_handoff_is_a_callback_not_a_polling_task():
    """A shard that hosts the elected RM announces ``rm_ready`` from the
    node's ``on_role`` callback: every task the host creates is
    recorded, and none of them is an ``rmwatch:*`` poller."""
    import multiprocessing

    from repro.runtime.cluster import LiveClusterConfig, fig1_specs
    from repro.runtime.shard import ShardConfig, ShardHost

    async def main():
        created = []

        def factory(loop, coro, **kwargs):
            task = asyncio.Task(coro, loop=loop, **kwargs)
            created.append(task)
            return task

        asyncio.get_running_loop().set_task_factory(factory)
        parent, child = multiprocessing.Pipe()
        cfg = ShardConfig(
            shard_id="s0", specs=fig1_specs(LiveClusterConfig()),
            expected_nodes=5,
        )
        host = ShardHost(cfg, child)
        runner = asyncio.ensure_future(host.run())
        parent.send({"type": "seeds", "agents": {}})
        await asyncio.wait_for(host._ready.wait(), 15.0)
        agent = host.cluster.agent
        assert agent.rm_id == "M0" and agent.rm_ready
        assert agent.rm_epoch == 2  # elected = 1, assumed = 2
        rm = host.cluster.nodes["M0"]
        assert rm.role == "rm"
        # The held records were forwarded with the announcement.
        await asyncio.wait_for(rm.admitted(4), 5.0)
        assert sorted(rm.node.info.peers) == ["P1", "P2", "P3", "P4"]
        host.request_drain()
        await asyncio.wait_for(runner, 30.0)
        parent.close()
        return [task.get_name() for task in created]

    names = run(main())
    assert any(name.startswith("pump:") for name in names)
    assert not any(name.startswith("rmwatch:") for name in names)


def test_respawned_coordinator_adopts_the_standing_rm():
    """An agent that rebuilds its replica by pulling sees the whole
    population before any local join.  Even when it is the ring-lowest
    agent it must adopt the RM state riding the pull replies, not run
    a second election (and emit a phantom ``rm.elected``)."""
    from repro import telemetry
    from repro.runtime.agent import RosterAgent
    from repro.runtime.cluster import LiveCluster
    from repro.runtime.roster import ring_position

    async def main():
        tel = telemetry.activate(telemetry.Telemetry.wall())
        try:
            async with LiveCluster() as cluster:
                first = cluster.agent
                # Pick the newcomer's shard id so that it, not the
                # cluster's agent, is the election coordinator.
                sid = next(
                    f"r{i}" for i in range(1000)
                    if ring_position(f"roster@r{i}")
                    < ring_position(first.node_id)
                )
                late = RosterAgent(
                    sid, cluster.directory, expected_nodes=5,
                )
                await late.start()
                try:
                    late.add_seed_agents({
                        first.node_id:
                            (first.transport.host, first.transport.port),
                    })
                    assert await late.pull_roster(timeout=5.0)
                    assert late.roster.coordinator() == late.node_id
                    assert len(late.roster.nodes_up()) == 5
                    assert (late.rm_id, late.rm_ready, late.rm_epoch) == (
                        first.rm_id, True, first.rm_epoch,
                    )
                finally:
                    await late.close()
            return [
                ev.node for ev in tel.tracer.events
                if ev.name == "rm.elected"
            ]
        finally:
            telemetry.deactivate()

    assert run(main()) == ["roster@s0"]


# -- the full multi-process scenario -----------------------------------------

@pytest.fixture(scope="module")
def soak_result(tmp_path_factory):
    """One shared miniature soak: spawn, kill+respawn, settle, drain —
    with the cluster observability plane on (per-shard trace files,
    health rollup, correlated bundles, per-shard profilers)."""
    from repro.runtime.soak import SoakConfig, run_soak

    root = tmp_path_factory.mktemp("soak")
    cfg = SoakConfig(
        peers=8, shards=3, duration=6.0, task_rate=3.0,
        profiler_update_period=0.5, join_timeout=30.0,
        settle_grace=45.0, object_duration_s=1.0,
        record_dir=str(root / "flight"),
        observe_dir=str(root / "observe"),
    )
    return run(run_soak(cfg))


def test_soak_passes_every_acceptance_check(soak_result):
    assert soak_result["ok"], soak_result


def test_killed_shard_respawns_and_rejoins(soak_result):
    victim = soak_result["killed"]
    assert victim is not None and soak_result["respawned"]
    assert soak_result["restarts"][victim] >= 1
    # Every *other* shard came through without a restart.
    assert all(
        n == 0 for sid, n in soak_result["restarts"].items()
        if sid != victim
    )


def test_roster_reconverges_after_the_fault(soak_result):
    # Every shard's replica counts the full population again: the
    # respawned nodes re-joined under their old ids (9 nodes, 3 agents).
    assert soak_result["converged"], soak_result


def test_no_task_lost_through_kill_and_drain(soak_result):
    counts = soak_result["tasks"]
    assert soak_result["no_task_lost"]
    assert counts["open"] == 0
    assert counts["terminal"] == counts["seen"]
    assert counts["submit_failures"] == 0
    assert counts["seen"] > 0  # the stream actually flowed


def test_supervisor_metrics_aggregate_all_shards(soak_result):
    assert soak_result["metrics_ok"]


def test_graceful_drain_left_cleanly(soak_result):
    assert soak_result["drain"] is not None
    assert soak_result["drain"]["ok"], soak_result["drain"]
    # The drained shard was not the one we killed, nor the RM's.
    assert soak_result["drain"]["shard"] != soak_result["killed"]


# -- the cluster observability plane ------------------------------------------

def test_observe_writes_merged_cluster_trace(soak_result):
    obs = soak_result.get("observe")
    assert obs, soak_result
    assert soak_result["observe_ok"], obs
    assert os.path.exists(obs["trace"])
    # Every shard incarnation contributed a part (the killed shard's
    # pre-kill file plus its respawn's).
    assert obs["parts"] >= soak_result["shards"] + 1


def test_observe_killed_incarnation_contributes_its_prefix(soak_result):
    """The SIGKILLed shard's first incarnation wrote its trace as it
    went: its file holds what it finished before the kill (and none of
    the records a clean exit appends), and the merge reads it beside
    the respawn's."""
    from repro.telemetry.export import read_jsonl

    obs = soak_result["observe"]
    victim = soak_result["killed"]
    part = read_jsonl(os.path.join(
        os.path.dirname(obs["trace"]), f"shard-{victim}-0", "trace.jsonl",
    ))
    assert part.meta["shard"] == victim and part.spans
    assert part.profile is None and not part.metrics
    merged = read_jsonl(obs["trace"])
    assert merged.meta["shards"].count(victim) == 2


def test_observe_cross_shard_tasks_form_connected_paths(soak_result):
    """The e2e acceptance check: a task admitted on one shard whose
    work executed on another yields a single connected critical path in
    the merged trace — no orphan fragments."""
    from repro.telemetry.cluster import cross_shard_summary
    from repro.telemetry.export import read_jsonl

    obs = soak_result["observe"]
    data = read_jsonl(obs["trace"])
    summary = cross_shard_summary(data)
    assert summary["tasks"] > 0
    assert summary["cross_shard_tasks"] > 0, summary
    assert summary["orphan_spans"] == 0
    cross = [t for t in summary["per_task"] if t["cross_shard"]]
    assert any(t["connected"] for t in cross), summary
    # A cross-shard task may lack its root only because the SIGKILLed
    # shard died before writing it — never because stitching left a
    # span dangling under a known root.
    for t in cross:
        if not t["connected"]:
            assert t["orphans"] == 0, t


def test_observe_trace_carries_cluster_health_series(soak_result):
    from repro.telemetry.export import read_jsonl

    data = read_jsonl(soak_result["observe"]["trace"])
    names = {rec.get("name") for rec in data.series}
    assert "repro_load_imbalance" in names
    assert "repro_sched_miss_ratio" in names
    scoped = [
        rec for rec in data.series
        if (rec.get("labels") or {}).get("scope") == "cluster"
    ]
    assert scoped and all(rec.get("v") for rec in scoped)


def test_observe_merges_cluster_folded_profile(soak_result):
    from repro.profiling.folded import read_folded

    obs = soak_result["observe"]
    assert obs.get("folded") and os.path.exists(obs["folded"])
    counts = read_folded(obs["folded"])
    assert counts and sum(counts.values()) > 0
    # At least one live-runtime frame made it into the cluster flame.
    assert any("repro" in stack for stack in counts)


def test_observe_correlated_bundle_collects_shards(soak_result):
    bundles = soak_result["observe"]["bundles"]
    checkpoint = [
        b for b in bundles if b["reason"] == "soak_checkpoint"
    ]
    assert checkpoint, bundles
    bundle = checkpoint[-1]
    # The snapshot fan-out gathered a dump from every live shard.
    assert len(bundle["shards"]) >= 2, bundle
    manifest_path = os.path.join(bundle["dir"], "manifest.json")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["reason"] == "soak_checkpoint"
    for sid in bundle["shards"]:
        dump = os.path.join(bundle["dir"], f"{sid}.jsonl")
        assert os.path.exists(dump)
        with open(dump, "r", encoding="utf-8") as fh:
            first = json.loads(fh.readline())
        assert first.get("type") == "meta"


def test_observe_shard_profilers_stayed_under_budget(soak_result):
    """The GIL-model acceptance check: every shard's wall profiler ran
    with the handoff model on and its estimated (not just measured)
    cost stayed under 5% of the run."""
    profiles = soak_result["observe"]["profiles"]
    assert profiles, soak_result["observe"]
    for sid, prof in profiles.items():
        assert prof["samples"] > 0, (sid, prof)
        assert prof.get("gil_per_sample_s", 0) > 0, (sid, prof)
        assert prof["estimated_seconds"] >= prof["gil_seconds"]
        assert prof["budget"]["overhead_ratio"] < 0.05, (sid, prof)
