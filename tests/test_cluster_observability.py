"""The cluster observability plane, unit-tested without processes.

Covers the supervisor-side pieces the sharded soak exercises end to
end in ``test_runtime_sharded.py``: cursor-based trace shipping (the
flush-before-trim regression), cross-shard merge + parentage stitching,
``.folded`` profile merge/diff, the cluster health rollup with SLO burn
over merged series, correlated flight bundles, the GIL-handoff cost
model, and the ``repro-trace merge`` / ``diff-profile`` / dash panel
surfaces.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import telemetry
from repro.telemetry.export import TraceData, read_jsonl
from repro.telemetry.ship import TraceShipper
from repro.telemetry.tracer import (
    MESSAGE,
    SERVICE,
    TASK,
    Span,
    TraceEvent,
)


def make_tracer():
    return telemetry.Telemetry.wall().tracer


def finish_span(tracer, name, kind=SERVICE, trace_id=None, parent=None):
    span = tracer.start_span(
        name, kind, trace_id=trace_id,
        parent_id=parent.span_id if parent is not None else None,
    )
    return tracer.end_span(span)


# -- trace shipping (span-loss regression) ------------------------------------

class TestTraceShipper:
    def test_collect_hands_out_unshipped_suffix_once(self):
        tracer = make_tracer()
        for i in range(3):
            finish_span(tracer, f"a{i}")
        tracer.event("e0")
        ship = TraceShipper(tracer, shard="s0")
        recs = ship.collect()
        assert [r["type"] for r in recs] == ["span"] * 3 + ["event"]
        assert all(r["attrs"]["shard"] == "s0" for r in recs)
        assert ship.collect() == []  # nothing new
        finish_span(tracer, "a3")
        assert [r["name"] for r in ship.collect()] == ["a3"]
        assert ship.total_spans == 4 and ship.total_events == 1

    def test_collect_limit_leaves_remainder_pending(self):
        tracer = make_tracer()
        for i in range(5):
            finish_span(tracer, f"a{i}")
        ship = TraceShipper(tracer)
        assert len(ship.collect(limit=2)) == 2
        assert ship.pending() == 3
        assert len(ship.collect()) == 3

    def test_trim_never_drops_unshipped_records(self):
        """The span-loss window regression: a burst of spans arriving
        between flushes must survive any trim, no matter how far past
        the high-water mark the history grew."""
        tracer = make_tracer()
        ship = TraceShipper(tracer)
        finish_span(tracer, "shipped")
        ship.collect()
        # Burst: 50 spans arrive before the next flush.
        for i in range(50):
            finish_span(tracer, f"burst{i}")
        dropped = ship.trim(keep=2, high=10)
        # Only the already-shipped prefix (1 span) was droppable.
        assert dropped == 1
        names = [r["name"] for r in ship.collect()]
        assert names == [f"burst{i}" for i in range(50)]

    def test_trim_drops_shipped_prefix_down_to_keep(self):
        tracer = make_tracer()
        ship = TraceShipper(tracer)
        for i in range(20):
            finish_span(tracer, f"a{i}")
        ship.collect()
        dropped = ship.trim(keep=5, high=10)
        assert dropped == 15
        assert len(tracer.spans) == 5
        # Cursor followed the deletion: nothing re-ships.
        assert ship.collect() == []
        assert ship.total_spans == 20

    def test_trim_high_watermark_hysteresis(self):
        tracer = make_tracer()
        ship = TraceShipper(tracer)
        for i in range(8):
            finish_span(tracer, f"a{i}")
        ship.collect()
        assert ship.trim(keep=2, high=10) == 0  # under the mark
        assert len(tracer.spans) == 8


# -- merge + stitch -----------------------------------------------------------

def shard_part(shard, epoch, spans, events=()):
    data = TraceData()
    data.meta = {
        "clock": "wall", "version": 1, "shard": shard,
        "epoch_unix": epoch,
    }
    data.spans = list(spans)
    data.events = list(events)
    return data


def span(sid, name, kind, trace_id=None, parent=None, start=0.0,
         end=1.0, **attrs):
    return Span(
        span_id=sid, trace_id=trace_id, parent_id=parent, name=name,
        kind=kind, node="n", start=start, end=end, status="ok",
        attrs=attrs,
    )


class TestMergeTraces:
    def test_rekeys_ids_and_aligns_epochs(self):
        from repro.telemetry.cluster import merge_traces

        # Both shards used span ids 1/2; s1 started 10s later.
        a = shard_part("s0", 1000.0, [
            span(1, "task", TASK, trace_id="task:t1", start=0.0, end=5.0),
            span(2, "hop", SERVICE, trace_id="task:t1", parent=1,
                 start=1.0, end=2.0),
        ])
        b = shard_part("s1", 1010.0, [
            span(1, "other", TASK, trace_id="task:t2", start=0.0,
                 end=1.0),
            span(2, "hop2", SERVICE, trace_id="task:t2", parent=1,
                 start=0.2, end=0.8),
        ])
        merged = merge_traces([a, b])
        assert merged.meta["merged_from"] == 2
        assert merged.meta["epoch_unix"] == 1000.0
        ids = [s.span_id for s in merged.spans]
        assert sorted(ids) == [1, 2, 3, 4]  # one namespace, no dups
        by_name = {s.name: s for s in merged.spans}
        # s1's timestamps shifted onto s0's axis.
        assert by_name["other"].start == pytest.approx(10.0)
        assert by_name["hop2"].start == pytest.approx(10.2)
        # Parent links survived the re-key, per shard.
        assert by_name["hop"].parent_id == by_name["task"].span_id
        assert by_name["hop2"].parent_id == by_name["other"].span_id
        assert by_name["hop"].attrs["shard"] == "s0"
        assert by_name["hop2"].attrs["shard"] == "s1"

    def test_stitches_cross_shard_orphans_under_task_span(self):
        from repro.telemetry.cluster import (
            cross_shard_summary,
            merge_traces,
        )

        # Task admitted on s0; a service hop + message executed on s1
        # arrive parentless (their parent lived in another process).
        a = shard_part("s0", 1000.0, [
            span(1, "task", TASK, trace_id="task:t1", start=0.0,
                 end=5.0),
        ])
        b = shard_part("s1", 1000.0, [
            span(7, "hop", SERVICE, trace_id="task:t1", start=1.0,
                 end=2.0),
            span(8, "msg", MESSAGE, trace_id="task:t1", start=0.5,
                 end=0.6),
        ])
        merged = merge_traces([a, b])
        assert merged.meta["stitched_spans"] == 2
        task = next(s for s in merged.spans if s.kind == TASK)
        for s in merged.spans:
            if s is task:
                continue
            assert s.parent_id == task.span_id
            assert s.attrs.get("stitched") is True
        summary = cross_shard_summary(merged)
        assert summary["tasks"] == 1
        assert summary["cross_shard_tasks"] == 1
        assert summary["connected_tasks"] == 1
        assert summary["orphan_spans"] == 0

    def test_rootless_trace_is_not_connected(self):
        from repro.telemetry.cluster import (
            cross_shard_summary,
            merge_traces,
        )

        # No task span anywhere: nothing to stitch under, and the
        # summary must not claim connectivity.
        b = shard_part("s1", 1000.0, [
            span(7, "hop", SERVICE, trace_id="task:t1", start=1.0,
                 end=2.0),
        ])
        merged = merge_traces([b])
        summary = cross_shard_summary(merged)
        assert summary["tasks"] == 1
        assert summary["connected_tasks"] == 0

    def test_unstitched_merge_reports_orphans(self):
        from repro.telemetry.cluster import (
            cross_shard_summary,
            merge_traces,
        )

        a = shard_part("s0", 1000.0, [
            span(1, "task", TASK, trace_id="task:t1", start=0.0,
                 end=5.0),
        ])
        b = shard_part("s1", 1000.0, [
            span(7, "hop", SERVICE, trace_id="task:t1", start=1.0,
                 end=2.0),
        ])
        merged = merge_traces([a, b], stitch=False)
        summary = cross_shard_summary(merged)
        assert summary["orphan_spans"] == 1
        assert summary["connected_tasks"] == 0

    def test_events_and_series_carry_shard_provenance(self):
        from repro.telemetry.cluster import merge_traces

        a = shard_part(
            "s0", 1000.0,
            [span(1, "task", TASK, trace_id="task:t1")],
            [TraceEvent(time=1.0, name="ev", node="n",
                        trace_id="task:t1", span_id=1)],
        )
        a.series = [{"name": "repro_load_mean", "labels": {},
                     "t": [1.0], "v": [0.5]}]
        merged = merge_traces([a])
        assert merged.events[0].attrs["shard"] == "s0"
        assert merged.events[0].span_id == merged.spans[0].span_id
        assert merged.series[0]["labels"]["shard"] == "s0"

    def test_write_trace_data_roundtrips(self, tmp_path):
        from repro.telemetry.cluster import merge_traces, write_trace_data

        a = shard_part("s0", 1000.0, [
            span(1, "task", TASK, trace_id="task:t1", start=0.0,
                 end=5.0),
            span(2, "hop", SERVICE, trace_id="task:t1", parent=1,
                 start=1.0, end=2.0),
        ])
        merged = merge_traces([a])
        dest = tmp_path / "cluster.jsonl"
        n = write_trace_data(dest, merged)
        assert n == 3  # meta + 2 spans
        back = read_jsonl(dest)
        assert back.meta["merged_from"] == 1
        assert [s.name for s in back.spans] == ["task", "hop"]
        assert back.spans[1].parent_id == back.spans[0].span_id


# -- folded profiles ----------------------------------------------------------

class TestFolded:
    def test_parse_read_write_roundtrip(self, tmp_path):
        from repro.profiling.folded import (
            parse_folded,
            read_folded,
            write_folded,
        )

        text = "a;b 10\na;c 3\n# comment\n\na;b 2\n"
        counts = parse_folded(text)
        assert counts == {"a;b": 12.0, "a;c": 3.0}
        path = tmp_path / "p.folded"
        write_folded(path, counts)
        assert read_folded(path) == {"a;b": 12.0, "a;c": 3.0}
        # Hottest first in the artifact.
        assert (path.read_text().splitlines()[0]) == "a;b 12"

    def test_merge_sums_across_shards(self):
        from repro.profiling.folded import merge_folded

        merged = merge_folded([
            {"a;b": 5.0, "a;c": 1.0},
            {"a;b": 2.0, "a;d": 4.0},
        ])
        assert merged == {"a;b": 7.0, "a;c": 1.0, "a;d": 4.0}

    def test_diff_names_the_injected_hot_stack(self):
        from repro.profiling.folded import diff_folded, format_diff

        base = {"main;work": 90.0, "main;idle": 10.0}
        # The injected hotspot eats 50% of the new profile.
        new = {"main;work": 45.0, "main;idle": 5.0,
               "main;hotspot;spin": 50.0}
        diff = diff_folded(base, new)
        regressed = [r["stack"] for r in diff["regressed"]]
        assert regressed[0] == "main;hotspot;spin"
        top = diff["regressed"][0]
        assert top["base_share"] == 0.0
        assert top["new_share"] == pytest.approx(0.5)
        report = format_diff(diff)
        assert "main;hotspot;spin" in report
        assert "regressed (grew):" in report
        assert "improved (shrank):" in report

    def test_diff_drops_noise_below_min_delta(self):
        from repro.profiling.folded import diff_folded

        base = {"a": 1000.0, "b": 10.0}
        new = {"a": 1001.0, "b": 10.0}
        diff = diff_folded(base, new, min_delta=0.01)
        assert diff["regressed"] == [] and diff["improved"] == []


# -- cluster health rollup ----------------------------------------------------

def health(n, total, peak, finished=0, missed=0, admitted=0,
           redirected=0, inflight=0):
    return {
        "loads": {"n": n, "sum": total, "max": peak},
        "finished": {"normal": finished},
        "missed": {"normal": missed},
        "rm": {"admitted": admitted, "rejected": 0,
               "redirected_out": redirected},
        "inflight": inflight,
    }


class TestClusterHealth:
    def test_folds_shard_payloads_into_cluster_series(self):
        from repro.runtime.observe import ClusterHealth

        ch = ClusterHealth()
        ch.ingest("s0", health(4, 2.0, 0.9, finished=30, missed=3))
        ch.ingest("s1", health(4, 1.0, 0.5, finished=10, missed=1))
        ch.tick(now=1.0)
        s = ch.sampler
        # Mean over the merged population: 3.0 / 8 peers.
        assert s.series("repro_load_mean", scope="cluster").last \
            == pytest.approx(0.375)
        # Global peak over merged mean.
        assert s.series("repro_load_imbalance", scope="cluster").last \
            == pytest.approx(0.9 / 0.375)
        # Miss ratio over summed counters: 4 / 40.
        assert s.series(
            "repro_sched_miss_ratio", qos="normal", scope="cluster"
        ).last == pytest.approx(0.1)
        # Per-shard provenance series exist too.
        assert s.series("repro_shard_load_max", shard="s0").last \
            == pytest.approx(0.9)
        assert s.series("repro_shard_imbalance", shard="s1").last \
            == pytest.approx(0.5 / 0.25)

    def test_rm_rates_are_deltas_not_totals(self):
        from repro.runtime.observe import ClusterHealth

        ch = ClusterHealth()
        ch.ingest("s0", health(1, 0.5, 0.5, admitted=10))
        ch.tick(now=0.0)
        ch.ingest("s0", health(1, 0.5, 0.5, admitted=30))
        ch.tick(now=10.0)
        assert ch.sampler.series(
            "repro_rm_admission_rate", scope="cluster"
        ).last == pytest.approx(2.0)

    def test_maybe_tick_is_rate_limited(self):
        from repro.runtime.observe import ClusterHealth

        ch = ClusterHealth(tick_interval=1.0)
        ch.ingest("s0", health(1, 0.5, 0.5))
        assert ch.maybe_tick(now=0.0)
        assert not ch.maybe_tick(now=0.5)
        assert ch.maybe_tick(now=1.5)
        assert ch.n_ticks == 2

    def test_slo_burn_over_cluster_series_triggers_recorder(self):
        from repro.runtime.observe import ClusterHealth

        triggers = []

        class FakeRecorder:
            def trigger(self, reason, now=None, key=None):
                triggers.append((reason, key))
                return "bundle-dir"

        ch = ClusterHealth(
            recorder=FakeRecorder(),
            slo_kwargs={
                "fast_window": 5.0, "slow_window": 50.0,
                "min_samples": 3, "warmup": 0.2,
            },
        )
        # Sustained 50% miss ratio on the merged population: burn
        # 0.5 / 0.01 budget = 50x >> the fast threshold.
        for i in range(12):
            ch.ingest("s0", health(2, 1.0, 0.6, finished=10 * (i + 1),
                                   missed=5 * (i + 1)))
            ch.tick(now=float(i))
        assert ch.monitor.alerts, "cluster burn never fired"
        alert = ch.monitor.alerts[0]
        assert alert.slo == "miss_rate"
        assert alert.dump == "bundle-dir"
        assert any(r == "slo_burn_fast" for r, _ in triggers)

    def test_prometheus_lines_roll_up_cluster_gauges(self):
        from repro.runtime.observe import ClusterHealth

        ch = ClusterHealth()
        ch.ingest("s0", health(4, 2.0, 0.9, finished=10, missed=1))
        ch.tick(now=1.0)
        text = "\n".join(ch.prometheus_lines())
        assert 'repro_cluster_load_mean{scope="cluster"} 0.5' in text
        assert "repro_cluster_load_imbalance" in text
        assert 'repro_cluster_miss_ratio{qos="normal"' in text
        assert "# TYPE repro_cluster_load_mean gauge" in text

    def test_records_are_jsonl_ready_series(self):
        from repro.runtime.observe import ClusterHealth

        ch = ClusterHealth()
        ch.ingest("s0", health(1, 0.5, 0.5))
        ch.tick(now=1.0)
        recs = ch.records()
        assert all({"name", "labels", "t", "v"} <= set(r) for r in recs)
        names = {r["name"] for r in recs}
        assert "repro_load_mean" in names
        assert "repro_shard_load_mean" in names


# -- correlated bundles -------------------------------------------------------

class TestBundleCoordinator:
    def make(self, tmp_path, cooldown=30.0):
        from repro.runtime.observe import BundleCoordinator

        fanouts = []
        clock = {"t": 0.0}
        coord = BundleCoordinator(
            str(tmp_path / "correlated"),
            fanout=lambda reason, n, exclude: fanouts.append(
                (reason, n, exclude)
            ),
            cooldown=cooldown,
            clock=lambda: clock["t"],
        )
        return coord, fanouts, clock

    def test_trigger_opens_bundle_and_fans_out(self, tmp_path):
        coord, fanouts, _ = self.make(tmp_path)
        bundle_dir = coord.trigger("soak_checkpoint")
        assert bundle_dir is not None and os.path.isdir(bundle_dir)
        assert os.path.basename(bundle_dir) == "000-soak_checkpoint"
        assert fanouts == [("soak_checkpoint", 0, None)]
        manifest = json.loads(
            (tmp_path / "correlated" / "000-soak_checkpoint"
             / "manifest.json").read_text()
        )
        assert manifest["reason"] == "soak_checkpoint"
        assert manifest["source"] == "supervisor"

    def test_shard_dump_adopts_source_and_excludes_it(self, tmp_path):
        coord, fanouts, _ = self.make(tmp_path)
        dump = tmp_path / "flight-000-rm_failover.jsonl"
        dump.write_text('{"type":"meta"}\n')
        bundle_dir = coord.on_shard_dump("s1", "rm_failover", str(dump))
        assert bundle_dir is not None
        # The triggering shard's dump landed without a snapshot round
        # trip; the fan-out skipped it.
        assert fanouts == [("rm_failover", 0, "s1")]
        assert (tmp_path / "correlated" / "000-rm_failover"
                / "s1.jsonl").exists()
        assert coord.bundles[0]["shards"] == {"s1": "s1.jsonl"}

    def test_snapshot_done_collects_peer_dumps(self, tmp_path):
        coord, _, _ = self.make(tmp_path)
        coord.trigger("slo_burn_fast")
        peer = tmp_path / "snap-s2.jsonl"
        peer.write_text('{"type":"meta"}\n')
        coord.on_snapshot_done("s2", "slo_burn_fast", 0, str(peer))
        bundle = coord.bundles[0]
        assert bundle["shards"]["s2"] == "s2.jsonl"
        manifest = json.loads(
            (tmp_path / "correlated" / "000-slo_burn_fast"
             / "manifest.json").read_text()
        )
        assert manifest["shards"] == {"s2": "s2.jsonl"}
        # Stale/unknown bundle ids are ignored, not crashes.
        coord.on_snapshot_done("s2", "slo_burn_fast", 99, str(peer))

    def test_cooldown_coalesces_repeat_triggers(self, tmp_path):
        coord, fanouts, clock = self.make(tmp_path, cooldown=10.0)
        assert coord.trigger("hot") is not None
        clock["t"] = 5.0
        assert coord.trigger("hot") is None
        assert coord.skipped == {"hot": 1}
        clock["t"] = 15.0
        assert coord.trigger("hot") is not None
        assert len(coord.bundles) == 2 and len(fanouts) == 2

    def test_record_summarises_for_result_documents(self, tmp_path):
        coord, _, _ = self.make(tmp_path)
        coord.trigger("a")
        rec = coord.record()
        assert rec[0]["reason"] == "a"
        assert rec[0]["source"] == "supervisor"
        assert rec[0]["shards"] == []


# -- GIL-handoff cost model ---------------------------------------------------

class TestGilCostModel:
    def test_estimate_within_bounds_and_cached(self):
        from repro.profiling.sampler import (
            _GIL_COST_BOUNDS,
            estimate_gil_handoff_cost,
        )

        per = estimate_gil_handoff_cost(phase_s=0.02)
        assert _GIL_COST_BOUNDS[0] <= per <= _GIL_COST_BOUNDS[1]
        # Cached process-wide: the second call is instant and equal.
        t0 = time.perf_counter()
        assert estimate_gil_handoff_cost() == per
        assert time.perf_counter() - t0 < 0.01

    def test_estimated_cost_includes_per_sample_tax(self):
        from repro.profiling.sampler import WallStackProfiler

        prof = WallStackProfiler(
            period=0.01, gil_cost_per_sample=100e-6
        )
        prof.n_samples = 50
        prof.self_time_s = 0.002
        assert prof.gil_cost_s == pytest.approx(50 * 100e-6)
        assert prof.estimated_cost_s == pytest.approx(0.002 + 0.005)

    def test_zeroed_model_restores_measured_cost_only(self):
        from repro.profiling.sampler import WallStackProfiler

        prof = WallStackProfiler(period=0.01, gil_cost_per_sample=0.0)
        prof.n_samples = 1000
        prof.self_time_s = 0.003
        assert prof.estimated_cost_s == pytest.approx(0.003)

    def test_budgeter_meters_the_estimated_cost(self):
        from repro.profiling import profile_wall

        sess = profile_wall(period=0.01, start=False)
        sess.profiler.gil_cost_per_sample = 200e-6
        sess.profiler.n_samples = 100
        sess.profiler.self_time_s = 0.001
        src = dict(sess.budgeter._sources)["profiler"]
        assert src() == pytest.approx(0.001 + 0.02)
        sess.stop()
        rec = sess.record(top_n=1)
        assert rec["gil_per_sample_s"] == pytest.approx(200e-6)
        assert rec["gil_seconds"] == pytest.approx(0.02)
        assert rec["estimated_seconds"] == pytest.approx(0.021)

    def test_live_profiler_stays_under_budget_with_gil_model(self):
        """The budget acceptance check at unit scale: a short idle-ish
        run's estimated cost (measured + modelled GIL tax) stays well
        under 5% of wall time."""
        from repro.profiling import profile_wall

        sess = profile_wall(period=0.02)
        t0 = time.perf_counter()
        deadline = t0 + 0.5
        x = 0
        while time.perf_counter() < deadline:
            x += 1
        sess.stop()
        wall = time.perf_counter() - t0
        assert sess.profiler.agg.n_samples > 0
        assert sess.profiler.estimated_cost_s / wall < 0.05
        assert sess.profiler.estimated_cost_s \
            > sess.profiler.self_time_s  # the model added a real tax


# -- CLI surfaces -------------------------------------------------------------

class TestCli:
    def write_part(self, tmp_path, shard, epoch, spans):
        from repro.telemetry.cluster import write_trace_data

        part = shard_part(shard, epoch, spans)
        path = tmp_path / f"trace-{shard}-0.jsonl"
        write_trace_data(path, part)
        return str(path)

    def test_trace_merge_subcommand(self, tmp_path, capsys):
        from repro.telemetry.cli import main

        a = self.write_part(tmp_path, "s0", 1000.0, [
            span(1, "task", TASK, trace_id="task:t1", start=0.0,
                 end=5.0),
        ])
        b = self.write_part(tmp_path, "s1", 1002.0, [
            span(1, "hop", SERVICE, trace_id="task:t1", start=1.0,
                 end=2.0),
        ])
        out = tmp_path / "cluster.jsonl"
        assert main(["merge", a, b, "-o", str(out)]) == 0
        text = capsys.readouterr().out
        assert "merged 2 shard stream(s)" in text
        assert "1 cross-shard" in text
        data = read_jsonl(out)
        assert data.meta["stitched_spans"] == 1
        hop = next(s for s in data.spans if s.name == "hop")
        assert hop.start == pytest.approx(3.0)  # epoch-aligned

    def test_trace_merge_json_summary(self, tmp_path, capsys):
        from repro.telemetry.cli import main

        a = self.write_part(tmp_path, "s0", 1000.0, [
            span(1, "task", TASK, trace_id="task:t1"),
        ])
        assert main(["merge", a, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tasks"] == 1 and doc["orphan_spans"] == 0

    def test_diff_profile_subcommand(self, tmp_path, capsys):
        from repro.profiling.folded import write_folded
        from repro.telemetry.cli import main

        base = tmp_path / "base.folded"
        new = tmp_path / "new.folded"
        write_folded(base, {"main;work": 90, "main;idle": 10})
        write_folded(new, {"main;work": 50, "main;hotspot": 50})
        assert main(["diff-profile", str(base), str(new)]) == 0
        text = capsys.readouterr().out
        assert "main;hotspot" in text and "regressed" in text

    def test_diff_profile_json(self, tmp_path, capsys):
        from repro.profiling.folded import write_folded
        from repro.telemetry.cli import main

        base = tmp_path / "base.folded"
        new = tmp_path / "new.folded"
        write_folded(base, {"a": 10})
        write_folded(new, {"b": 10})
        assert main(["diff-profile", str(base), str(new),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regressed"][0]["stack"] == "b"

    def test_diff_profile_missing_file_errors(self, tmp_path, capsys):
        from repro.telemetry.cli import main

        assert main(["diff-profile", str(tmp_path / "nope.folded"),
                     str(tmp_path / "nope2.folded")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_plain_report_path_still_works(self, tmp_path, capsys):
        from repro.telemetry.cli import main
        from repro.telemetry.cluster import write_trace_data

        part = shard_part("s0", 1000.0, [
            span(1, "task", TASK, trace_id="task:t1", start=0.0,
                 end=5.0),
        ])
        path = tmp_path / "out.jsonl"
        write_trace_data(path, part)
        assert main([str(path)]) == 0
        assert capsys.readouterr().out

    def test_bench_profile_flags_require_profile(self, capsys):
        from repro.benchmarking.cli import main

        with pytest.raises(SystemExit):
            main(["--quick", "--profile-folded", "x.folded"])
        assert "--profile" in capsys.readouterr().err


# -- bench harness folded capture ---------------------------------------------

def test_run_benchmark_captures_folded_off_report():
    from repro.benchmarking import harness
    from repro.profiling.folded import parse_folded

    def busy():
        deadline = time.perf_counter() + 0.25
        x = 0
        while time.perf_counter() < deadline:
            x += 1
        return {"events": x}

    rec = harness.run_benchmark(
        "busy", busy, warmup=0, repeat=1, profile=True
    )
    assert rec.profile is not None and rec.profile["samples"] > 0
    assert rec.folded and parse_folded(rec.folded)
    # The raw stacks stay out of the JSON report document.
    assert "folded" not in rec.as_dict()


# -- dash cluster panel -------------------------------------------------------

def cluster_trace():
    data = TraceData()
    data.meta = {"clock": "wall", "merged_from": 2}
    data.series = [
        {"name": "repro_sched_miss_ratio",
         "labels": {"qos": "normal", "scope": "cluster"},
         "t": [1.0, 2.0], "v": [0.05, 0.12]},
        {"name": "repro_load_imbalance",
         "labels": {"scope": "cluster"},
         "t": [1.0, 2.0], "v": [1.5, 2.5]},
        {"name": "repro_shard_imbalance", "labels": {"shard": "s0"},
         "t": [1.0], "v": [1.2]},
        {"name": "repro_shard_imbalance", "labels": {"shard": "s1"},
         "t": [1.0], "v": [2.7]},
        {"name": "repro_slo_burn_rate",
         "labels": {"slo": "miss_rate", "window": "fast"},
         "t": [2.0], "v": [12.0]},
    ]
    return data


class TestDashClusterPanel:
    def test_summary_extracts_rollup(self):
        from repro.telemetry.dash import cluster_summary

        doc = cluster_summary(cluster_trace())
        assert doc["shards"] == ["s0", "s1"]
        assert doc["miss_ratio"]["normal"] == pytest.approx(0.12)
        assert doc["load_imbalance"] == pytest.approx(2.5)
        assert doc["shard_imbalance"] == {"s0": 1.2, "s1": 2.7}
        assert doc["slo_burn"]["miss_rate/fast"] == pytest.approx(12.0)

    def test_rendered_panel_shows_spread_and_burn_state(self):
        from repro.telemetry.dash import render_report

        text = render_report(cluster_trace())
        assert "cluster" in text
        assert "miss_ratio[normal]=12.0%" in text
        assert "spread 1.50" in text
        assert "BURNING" in text

    def test_single_process_trace_has_no_panel(self):
        from repro.telemetry.dash import cluster_summary, render_report

        data = TraceData()
        data.meta = {"clock": "wall"}
        data.series = [
            {"name": "repro_sched_miss_ratio",
             "labels": {"qos": "normal"}, "t": [1.0], "v": [0.0]},
        ]
        assert cluster_summary(data) is None
        assert "BURNING" not in render_report(data)

    def test_report_dict_includes_cluster_doc(self):
        from repro.telemetry.dash import report_dict

        doc = report_dict(cluster_trace())
        assert doc["cluster"]["shards"] == ["s0", "s1"]
