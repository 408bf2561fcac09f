"""The unified telemetry layer: tracer, metrics, export, trace_id plumbing.

Covers the three pillars in isolation (span trees, registry semantics,
JSONL round-trips), the ``trace_id`` threading through messages and the
wire codec, the analysis/CLI surface, and — the one guarantee the whole
design leans on — that disabled telemetry stays cheap.
"""

from __future__ import annotations

import io
import json
import time

import pytest

from repro import telemetry
from repro.net.message import (
    Message,
    next_trace_id,
    reset_message_ids,
    trace_id_for_payload,
)
from repro.net.network import Network, NetworkStats
from repro.net.node import NetNode
from repro.runtime.codec import decode_frame, encode_message
from repro.sim.core import Environment
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry.analyze import (
    format_report,
    message_kind_counts,
    reliability_summary,
    task_traces,
)
from repro.telemetry.cli import main as trace_cli_main
from repro.telemetry.export import read_jsonl, write_jsonl


@pytest.fixture(autouse=True)
def _isolate_global_handle():
    """Every test starts and ends with the no-op default installed."""
    telemetry.deactivate()
    yield
    telemetry.deactivate()


def make_sim_telemetry():
    env = Environment()
    return env, Telemetry.sim(env)


# -- tracer ------------------------------------------------------------------

class TestTracer:
    def test_span_records_kind_trace_and_duration(self):
        env, tel = make_sim_telemetry()
        span = tel.tracer.start_span(
            "t1", kind=telemetry.TASK, node="rm0", trace_id="task:t1"
        )
        env.run(until=2.5)
        tel.tracer.end_span(span, status="completed")
        assert span.duration == pytest.approx(2.5)
        assert span.status == "completed"
        assert tel.tracer.spans_of_kind(telemetry.TASK) == [span]
        assert tel.tracer.trace("task:t1") == [span]

    def test_keyed_spans_close_without_holding_the_object(self):
        _, tel = make_sim_telemetry()
        tel.tracer.start_span(
            "t1", kind=telemetry.TASK, key="task:t1", trace_id="task:t1"
        )
        assert tel.tracer.open_span("task:t1") is not None
        closed = tel.tracer.end_span_key("task:t1", status="rejected")
        assert closed is not None and closed.status == "rejected"
        assert tel.tracer.open_span("task:t1") is None
        assert tel.tracer.end_span_key("task:t1") is None  # already gone

    def test_parent_links_form_a_tree(self):
        _, tel = make_sim_telemetry()
        parent = tel.tracer.start_span(
            "t1", kind=telemetry.TASK, key="task:t1", trace_id="task:t1"
        )
        child = tel.tracer.start_span(
            "svc", kind=telemetry.SERVICE, trace_id="task:t1",
            parent_id=tel.tracer.open_span("task:t1").span_id,
        )
        assert child.parent_id == parent.span_id

    def test_finish_open_closes_leftovers(self):
        _, tel = make_sim_telemetry()
        tel.tracer.start_span("t1", kind=telemetry.TASK, key="task:t1")
        assert tel.tracer.finish_open() == 1
        assert tel.tracer.spans[-1].status == "unfinished"

    def test_noop_tracer_is_inert(self):
        noop = telemetry.NOOP.tracer
        span = noop.start_span("x", kind=telemetry.TASK, key="k")
        noop.end_span(span)
        noop.event("e")
        assert len(noop) == 0 and noop.spans == []


# -- metrics -----------------------------------------------------------------

class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("msgs_total").inc()
        reg.counter("msgs_total").inc(2)
        reg.gauge("depth", peer="P1").set(7)
        h = reg.histogram("lat_seconds")
        for v in (0.004, 0.04, 0.4):
            h.observe(v)
        assert reg.value("msgs_total") == 3
        assert reg.value("depth", peer="P1") == 7
        assert h.count == 3 and h.mean == pytest.approx(0.148)

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("c", peer="P1").inc()
        reg.counter("c", peer="P2").inc(4)
        assert reg.value("c", peer="P1") == 1
        assert reg.total("c") == 5

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("sent_total", help="messages sent").inc(5)
        reg.histogram("lat_seconds", buckets=[0.1, 1.0]).observe(0.05)
        text = reg.to_prometheus_text()
        assert "# TYPE sent_total counter" in text
        assert "sent_total 5" in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text


# -- JSONL export ------------------------------------------------------------

class TestExport:
    def build(self):
        env, tel = make_sim_telemetry()
        root = tel.tracer.start_span(
            "t1", kind=telemetry.TASK, node="rm0", trace_id="task:t1",
            key="task:t1",
        )
        env.run(until=1.0)
        tel.tracer.start_span(
            "svcA", kind=telemetry.SERVICE, node="p1", trace_id="task:t1",
            parent_id=root.span_id, key="hop",
        )
        env.run(until=2.0)
        tel.tracer.end_span_key("hop")
        tel.tracer.end_span_key("task:t1", status="completed")
        tel.tracer.event("rm.elected", node="boot", rm="rm0")
        tel.metrics.counter("repro_net_messages_sent_total").inc(3)
        return tel

    def test_span_tree_round_trips_through_jsonl(self, tmp_path):
        tel = self.build()
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, tel.tracer, tel.metrics, meta={"seed": 7})
        data = read_jsonl(path)
        assert data.clock == "sim"
        assert data.meta["seed"] == 7
        assert [s.as_dict() for s in data.spans] == [
            s.as_dict() for s in sorted(
                tel.tracer.spans, key=lambda s: (s.start, s.span_id)
            )
        ]
        by_id = {s.span_id: s for s in data.spans}
        child = next(s for s in data.spans if s.kind == telemetry.SERVICE)
        assert by_id[child.parent_id].kind == telemetry.TASK
        assert data.events[0].name == "rm.elected"
        assert any(
            m["name"] == "repro_net_messages_sent_total"
            and m["value"] == 3
            for m in data.metrics
        )

    def test_reader_tolerates_unknown_record_types(self, tmp_path):
        tel = self.build()
        path = tmp_path / "trace.jsonl"
        write_jsonl(path, tel.tracer, tel.metrics)
        with open(path, "a", encoding="utf-8") as fp:
            fp.write(json.dumps({"type": "future-thing", "x": 1}) + "\n")
        data = read_jsonl(path)
        assert len(data.spans) == 2

    def test_write_accepts_file_object(self):
        tel = self.build()
        buf = io.StringIO()
        write_jsonl(buf, tel.tracer, tel.metrics)
        first = json.loads(buf.getvalue().splitlines()[0])
        assert first["type"] == "meta" and first["clock"] == "sim"


# -- trace_id threading ------------------------------------------------------

class TestTraceId:
    def setup_method(self):
        reset_message_ids()

    def test_task_payloads_derive_the_task_trace(self):
        assert trace_id_for_payload({"task_id": "t9"}) == "task:t9"

        class Order:
            task_id = "t3"

        assert trace_id_for_payload({"order": Order()}) == "task:t3"
        assert trace_id_for_payload({"x": 1}) is None

    def test_ensure_trace_id_is_deterministic_after_reset(self):
        a = Message(kind="ping", src="a", dst="b").ensure_trace_id()
        reset_message_ids()
        b = Message(kind="ping", src="a", dst="b").ensure_trace_id()
        assert a == b

    def test_ensure_trace_id_prefers_task_payload_and_sticks(self):
        msg = Message(kind="step_done", src="a", dst="b",
                      payload={"task_id": "t5"})
        assert msg.ensure_trace_id() == "task:t5"
        assert msg.ensure_trace_id() == "task:t5"  # idempotent

    def test_reset_rewinds_the_trace_counter(self):
        first = next_trace_id()
        reset_message_ids()
        assert next_trace_id() == first

    def _ping_pong(self, env):
        net = Network(env)
        a = NetNode(env, net, "a")
        b = NetNode(env, net, "b")
        got = {}
        b.on("ping", lambda m: got.setdefault("req", m))
        a.on("pong", lambda m: got.setdefault("rep", m))
        a.send("ping", "b", {"n": 1})
        env.run(until=1.0)
        b.reply(got["req"], "pong", {"n": 2})
        env.run(until=2.0)
        return got

    def test_network_send_stamps_and_reply_inherits(self):
        env = Environment()
        with telemetry.session(Telemetry.sim(env)):
            got = self._ping_pong(env)
        assert got["req"].trace_id is not None
        assert got["rep"].trace_id == got["req"].trace_id

    def test_disabled_telemetry_assigns_no_trace_ids(self):
        got = self._ping_pong(Environment())
        assert got["req"].trace_id is None
        assert got["rep"].trace_id is None
        assert next_trace_id() == "m1"  # the counter never moved

    def test_message_sent_before_the_session_joins_its_reply(self):
        env = Environment()
        net = Network(env)
        a = NetNode(env, net, "a")
        b = NetNode(env, net, "b")
        got = {}
        b.on("ping", lambda m: got.setdefault("req", m))
        a.on("pong", lambda m: got.setdefault("rep", m))
        a.send("ping", "b")
        with telemetry.session(Telemetry.sim(env)):
            env.run(until=1.0)
            b.reply(got["req"], "pong")
            env.run(until=2.0)
        assert got["req"].trace_id == "m1"
        assert got["rep"].trace_id == "m1"

    def test_task_payload_reply_joins_the_task_trace(self):
        env = Environment()
        net = Network(env)
        a = NetNode(env, net, "a")
        b = NetNode(env, net, "b")
        got = {}
        b.on("ask", lambda m: got.setdefault("req", m))
        a.on("task_ack", lambda m: got.setdefault("rep", m))
        a.send("ask", "b")
        env.run(until=1.0)
        b.reply(got["req"], "task_ack", {"task_id": "t7"})
        env.run(until=2.0)
        assert got["rep"].trace_id == "task:t7"

    def test_codec_carries_trace_id(self):
        msg = Message(kind="ping", src="a", dst="b", trace_id="task:t1")
        out = decode_frame(encode_message(msg))["msg"]
        assert out.trace_id == "task:t1"

    def test_codec_tolerates_frames_without_trace_id(self):
        # A frame from a pre-trace encoder: same version, no field.
        frame = json.loads(
            encode_message(Message(kind="ping", src="a", dst="b"))
        )
        frame["msg"].pop("trace_id")
        out = decode_frame(json.dumps(frame).encode())["msg"]
        assert out.trace_id is None


# -- stats schema unification ------------------------------------------------

class TestStatsSchema:
    def test_summary_includes_reliability_counters(self):
        summary = NetworkStats().summary()
        for key in ("retransmits", "duplicates", "malformed", "acks_sent"):
            assert summary[key] == 0


# -- instrumented simulator --------------------------------------------------

class TestInstrumentedSim:
    def test_network_spans_and_counters(self):
        env = Environment()
        with telemetry.session(Telemetry.sim(env)) as tel:
            net = Network(env)
            a = NetNode(env, net, "a")
            NetNode(env, net, "b")
            a.send("ping", "b", {"task_id": "t1"})
            a.send("ping", "nowhere")  # unknown destination: dropped
            env.run(until=1.0)
        msg_spans = tel.tracer.spans_of_kind(telemetry.MESSAGE)
        assert {s.status for s in msg_spans} == {"ok", "dropped"}
        ok = next(s for s in msg_spans if s.status == "ok")
        assert ok.trace_id == "task:t1" and ok.node == "a"
        assert tel.metrics.value("repro_net_messages_sent_total") == 2
        assert tel.metrics.value("repro_net_messages_delivered_total") == 1
        assert tel.metrics.value("repro_net_messages_dropped_total") == 1

    def test_session_restores_previous_handle(self):
        assert telemetry.current() is telemetry.NOOP
        with telemetry.session(Telemetry.wall()):
            assert telemetry.current() is not telemetry.NOOP
        assert telemetry.current() is telemetry.NOOP


# -- analysis + CLI ----------------------------------------------------------

def _sample_trace(tmp_path):
    env, tel = make_sim_telemetry()
    root = tel.tracer.start_span(
        "t1", kind=telemetry.TASK, node="rm0", trace_id="task:t1",
        key="task:t1",
    )
    env.run(until=0.5)
    for i, peer in enumerate(("p1", "p2")):
        s = tel.tracer.start_span(
            f"svc{i}", kind=telemetry.SERVICE, node=peer,
            trace_id="task:t1", parent_id=root.span_id, step_index=i,
        )
        env.run(until=env.now + 1.0)
        tel.tracer.end_span(s)
    tel.tracer.start_span(
        "stream", kind=telemetry.MESSAGE, node="p1", trace_id="task:t1",
        key="m", dst="p2",
    )
    tel.tracer.end_span_key("m")
    tel.tracer.end_span_key("task:t1", status="completed")
    tel.metrics.counter("net_messages_sent_total").inc(4)  # pre-rename trace
    tel.metrics.counter("net_messages_delivered_total").inc(4)
    path = tmp_path / "t.jsonl"
    write_jsonl(path, tel.tracer, tel.metrics)
    return path


class TestAnalysis:
    def test_critical_path_matches_hops(self, tmp_path):
        data = read_jsonl(_sample_trace(tmp_path))
        traces = task_traces(data)
        assert len(traces) == 1
        trace = traces[0]
        assert trace.status == "completed"
        assert len(trace.hops) == 2
        path = trace.critical_path()
        assert [s.kind for s in path] == [
            telemetry.TASK, telemetry.SERVICE, telemetry.SERVICE
        ]
        assert trace.nodes[:3] == ["rm0", "p1", "p2"]

    def test_reliability_and_kind_summaries(self, tmp_path):
        data = read_jsonl(_sample_trace(tmp_path))
        assert message_kind_counts(data) == {"stream": 1}
        rel = reliability_summary(data)
        assert rel["sent"] == 4 and rel["delivered"] == 4

    def test_format_report_renders(self, tmp_path):
        data = read_jsonl(_sample_trace(tmp_path))
        text = format_report(data)
        assert "critical path" in text and "task t1: completed" in text

    def test_cli_text_and_json(self, tmp_path, capsys):
        path = _sample_trace(tmp_path)
        assert trace_cli_main([str(path)]) == 0
        assert "critical path" in capsys.readouterr().out
        assert trace_cli_main([str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tasks"][0]["hops"] == 2

    def test_cli_missing_file(self, tmp_path, capsys):
        assert trace_cli_main([str(tmp_path / "nope.jsonl")]) == 2


# -- live e2e ----------------------------------------------------------------

@pytest.mark.integration
class TestLiveTracing:
    """One task over real UDP sockets leaves a linked causal trace."""

    @pytest.fixture(scope="class")
    def live_trace(self):
        import asyncio

        from repro.runtime.cluster import LiveCluster, LiveClusterConfig

        tel = telemetry.activate(Telemetry.wall())
        out = {}

        async def main():
            config = LiveClusterConfig(object_duration_s=3.0)
            async with LiveCluster(config) as cluster:
                out["rm_id"] = cluster.rm_node.node_id
                ack = await cluster.submit("P4", deadline=20.0, timeout=15.0)
                await cluster.wait_task_event(
                    ack["task_id"], "completed", timeout=15.0
                )
                task = cluster.task(ack["task_id"])
                out["task_id"] = task.task_id
                out["allocation"] = list(task.allocation)
                out["aggregate"] = cluster.aggregate_summary()

        try:
            asyncio.run(main())
            tel.tracer.finish_open()
            out["tel"] = tel
            yield out
        finally:
            telemetry.deactivate()

    def test_task_span_lives_on_the_rm(self, live_trace):
        tel = live_trace["tel"]
        trace_id = f"task:{live_trace['task_id']}"
        task_spans = [
            s for s in tel.tracer.spans_of_kind(telemetry.TASK)
            if s.trace_id == trace_id
        ]
        assert len(task_spans) == 1
        span = task_spans[0]
        assert span.node == live_trace["rm_id"]
        assert span.status == "completed"
        assert span.duration is not None and span.duration > 0

    def test_service_spans_match_the_allocation_hops(self, live_trace):
        tel = live_trace["tel"]
        trace_id = f"task:{live_trace['task_id']}"
        hops = [
            s for s in tel.tracer.spans_of_kind(telemetry.SERVICE)
            if s.trace_id == trace_id
        ]
        assert len(hops) == len(live_trace["allocation"])
        # Every hop executed on the peer the allocation placed it on,
        # under the RM's task span.
        task_span = next(
            s for s in tel.tracer.spans_of_kind(telemetry.TASK)
            if s.trace_id == trace_id
        )
        hops.sort(key=lambda s: s.attrs["step_index"])
        for hop, (service_id, peer_id) in zip(
            hops, live_trace["allocation"]
        ):
            assert hop.name == service_id
            assert hop.node == peer_id
            assert hop.parent_id == task_span.span_id
            assert hop.status == "ok"

    def test_trace_links_roster_agent_rm_and_peers(self, live_trace):
        tel = live_trace["tel"]
        trace_id = f"task:{live_trace['task_id']}"
        msg_nodes = {
            s.node for s in tel.tracer.spans_of_kind(telemetry.MESSAGE)
            if s.trace_id == trace_id
        }
        assert len(msg_nodes) >= 2  # request from origin, orders from RM
        (elected,) = [
            ev for ev in tel.tracer.events if ev.name == "rm.elected"
        ]
        assert elected.node == "roster@s0"
        assert elected.attrs["rm"] == live_trace["rm_id"]

    def test_exported_live_trace_reports_a_critical_path(
        self, live_trace, tmp_path
    ):
        tel = live_trace["tel"]
        path = tmp_path / "live.jsonl"
        write_jsonl(
            path, tel.tracer, tel.metrics,
            meta={"aggregate": live_trace["aggregate"]},
        )
        data = read_jsonl(path)
        assert data.clock == "wall"
        traces = [
            t for t in task_traces(data)
            if t.task_id == live_trace["task_id"]
        ]
        assert len(traces) == 1
        assert len(traces[0].hops) == len(live_trace["allocation"])
        rel = reliability_summary(data)
        assert rel["sent"] > 0 and rel["acks_sent"] > 0


# -- disabled overhead -------------------------------------------------------

class TestDisabledOverhead:
    def test_noop_guard_is_cheap(self):
        """The call-site pattern must cost ~a dict read and a branch.

        A generous ceiling (well above any realistic interpreter) so
        the test only fails when the disabled path grows real work —
        not under CI noise.
        """
        n = 200_000
        start = time.perf_counter()
        for _ in range(n):
            tel = telemetry.current()
            if tel.enabled:  # pragma: no cover - never taken
                tel.tracer.event("x")
        elapsed = time.perf_counter() - start
        assert elapsed / n < 5e-6, f"{elapsed / n:.2e}s per guarded call"

    def test_sampler_call_sites_stay_cheap_when_disabled(self):
        """The health-pipeline instrumentation shape: the always-on
        per-class accounting (a dict bump) plus the guarded metric and
        trigger-event emission.  With telemetry disabled this must stay
        in the same cost class as the bare guard."""
        n = 200_000
        completed_by_class: dict = {}
        start = time.perf_counter()
        for _ in range(n):
            cls = "normal"
            completed_by_class[cls] = completed_by_class.get(cls, 0) + 1
            tel = telemetry.current()
            if tel.enabled:  # pragma: no cover - never taken
                tel.metrics.counter(
                    "repro_sched_jobs_completed_total", qos=cls
                ).inc()
                tel.tracer.event("job.missed", node="p0", qos=cls)
        elapsed = time.perf_counter() - start
        assert elapsed / n < 5e-6, f"{elapsed / n:.2e}s per guarded call"
        assert completed_by_class["normal"] == n
