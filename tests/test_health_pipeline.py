"""The continuous health pipeline: sampler, flight recorder, endpoint,
quantiles, and the repro-dash CLI.

Covers the tentpole surfaces end to end — simulated overlay probes
feeding ring-buffered series, anomaly-triggered flight bundles (RM
failover / deadline-miss burst / UDP retry storm, each exactly one dump
under cooldown), the Prometheus ``/metrics`` + ``/healthz`` endpoint —
plus the satellites: metric-name aliases and histogram quantile
helpers.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro import telemetry
from repro.core.manager import RMConfig
from repro.gossip import GossipConfig
from repro.net import ConstantLatency, Network
from repro.overlay import FailoverConfig, OverlayNetwork, PeerSpec
from repro.scheduling.processor import qos_class
from repro.sim import Environment, RandomStreams
from repro.telemetry import (
    FlightRecorder,
    HealthSampler,
    SeriesRing,
    Telemetry,
)
from repro.telemetry.dash import main as dash_main
from repro.telemetry.export import read_jsonl, write_jsonl
from repro.telemetry.httpd import TelemetryHTTPServer
from repro.telemetry.metrics import (
    Histogram,
    MetricsRegistry,
    bucket_quantile,
)
from repro.telemetry.timeseries import overlay_probes


@pytest.fixture(autouse=True)
def _isolate_global_handle():
    telemetry.deactivate()
    yield
    telemetry.deactivate()


def build_overlay(env, max_peers=8, n_peers=4, enable_gossip=False):
    net = Network(env, ConstantLatency(0.005), bandwidth=1e7)
    overlay = OverlayNetwork(
        env, net,
        rm_config=RMConfig(max_peers=max_peers),
        gossip_config=GossipConfig(period=1.0, fanout=2),
        failover_config=FailoverConfig(
            sync_period=1.0, dead_after_periods=2.0
        ),
        enable_gossip=enable_gossip,
        enable_backups=True,
        streams=RandomStreams(0),
    )
    for i in range(n_peers):
        overlay.join(PeerSpec(
            peer_id=f"p{i}", power=10.0, bandwidth=2e6, uptime=0.9,
        ))
    return overlay, net


# -- series rings ------------------------------------------------------------

class TestSeriesRing:
    def test_ring_is_bounded(self):
        ring = SeriesRing("x", capacity=3)
        for i in range(10):
            ring.append(float(i), float(i * 2))
        assert len(ring) <= 3
        # Old points are merged, never dropped; the newest stays raw.
        assert sum(ring.counts()) == 10
        assert ring.last == 18.0
        assert ring.points()[-1] == (9.0, 18.0, 18.0, 18.0, 1)

    def test_record_round_trip(self):
        ring = SeriesRing("repro_peer_load", {"peer": "p1"})
        ring.append(1.0, 0.5)
        rec = ring.as_record()
        assert rec["name"] == "repro_peer_load"
        assert rec["labels"] == {"peer": "p1"}
        back = SeriesRing.from_record(rec)
        assert back.values() == [0.5]

    def test_capacity_validated(self):
        # A merge needs a pair: one slot cannot hold history.
        for capacity in (0, 1):
            with pytest.raises(ValueError):
                SeriesRing("x", capacity=capacity)


# -- the sampler over a simulated overlay ------------------------------------

class TestHealthSampler:
    def test_sim_sampler_records_core_signals(self):
        env = Environment()
        overlay, net = build_overlay(env, n_peers=4)
        tel = telemetry.activate(Telemetry.sim(env))
        sampler = HealthSampler(tel, period=1.0)
        for probe in overlay_probes(overlay, net):
            sampler.add_probe(probe)
        sampler.attach_sim(env)
        env.run(until=10.0)
        assert sampler.n_samples >= 10
        assert sampler.errors == 0
        load = sampler.series("repro_peer_load", peer="p0")
        assert load is not None and len(load) >= 10
        for name in (
            "repro_load_imbalance", "repro_load_stdev",
            "repro_gossip_staleness_max", "repro_rm_admission_rate",
            "repro_net_send_rate",
        ):
            assert sampler.series(name) is not None, name
        miss = sampler.series("repro_sched_miss_ratio", qos="normal")
        assert miss is not None and len(miss) >= 1

    def test_sampler_is_opt_in_no_events_without_attach(self):
        """The default path schedules nothing: building the sampler must
        not add kernel events (trajectory-golden safety)."""
        env = Environment()
        overlay, net = build_overlay(env, n_peers=2)
        env.run(until=5.0)
        baseline = env.n_processed

        env2 = Environment()
        overlay2, net2 = build_overlay(env2, n_peers=2)
        tel = Telemetry.sim(env2)
        sampler = HealthSampler(tel, period=1.0)
        for probe in overlay_probes(overlay2, net2):
            sampler.add_probe(probe)
        # No attach_sim: identical trajectory.
        env2.run(until=5.0)
        assert env2.n_processed == baseline

    def test_probe_errors_are_counted_not_raised(self):
        tel = Telemetry.wall()
        sampler = HealthSampler(tel, period=1.0)

        def bad_probe(s):
            raise RuntimeError("boom")

        sampler.add_probe(bad_probe)
        sampler.sample()
        assert sampler.errors == 1
        assert sampler.n_samples == 1

    def test_period_validated(self):
        with pytest.raises(ValueError):
            HealthSampler(Telemetry.wall(), period=0.0)

    def test_wall_thread_samples_and_stops(self):
        tel = Telemetry.wall()
        sampler = HealthSampler(tel, period=0.01)
        sampler.add_probe(lambda s: s.observe("sig", 1.0))
        sampler.start_wall()
        import time
        time.sleep(0.1)
        sampler.stop_wall()
        n = sampler.n_samples
        assert n >= 2
        time.sleep(0.05)
        assert sampler.n_samples == n  # thread really stopped

    def test_series_ride_into_jsonl_export(self, tmp_path):
        env = Environment()
        overlay, net = build_overlay(env, n_peers=2)
        tel = telemetry.activate(Telemetry.sim(env))
        sampler = HealthSampler(tel, period=1.0)
        for probe in overlay_probes(overlay, net):
            sampler.add_probe(probe)
        sampler.attach_sim(env)
        env.run(until=5.0)
        path = tmp_path / "t.jsonl"
        write_jsonl(path, tel.tracer, tel.metrics, sampler=sampler)
        data = read_jsonl(path)
        assert data.series
        names = {rec["name"] for rec in data.series}
        assert "repro_load_imbalance" in names


# -- flight recorder ---------------------------------------------------------

class TestFlightRecorder:
    def test_rm_failover_triggers_exactly_one_dump(self, tmp_path):
        env = Environment()
        overlay, net = build_overlay(env, n_peers=4)
        domain = next(iter(overlay.domains.values()))
        assert domain.backup is not None
        primary = domain.rm
        tel = telemetry.activate(Telemetry.sim(env))
        recorder = FlightRecorder(tel, out_dir=str(tmp_path))

        def killer():
            yield env.timeout(10.0)
            overlay.fail_peer(primary.node_id)

        env.process(killer())
        env.run(until=40.0)
        recorder.close()
        assert len(recorder.dumps) == 1
        bundle = read_jsonl(recorder.dumps[0])
        assert bundle.meta["bundle"] == "flight"
        assert bundle.meta["reason"] == "rm_failover"
        assert any(
            ev.name == "failover.takeover" for ev in bundle.events
        )
        # Only the last-N-seconds window rides along.
        window_start = bundle.meta["time"] - bundle.meta["window"]
        assert all(ev.time >= window_start for ev in bundle.events)

    def test_miss_burst_triggers_exactly_one_dump(self, tmp_path):
        tel = telemetry.activate(Telemetry.wall())
        recorder = FlightRecorder(
            tel, out_dir=str(tmp_path), miss_burst=5, miss_window=10.0,
        )
        # A burst of 20 misses inside the window: one dump, not 15.
        for i in range(20):
            tel.tracer.event("job.missed", node="p0", qos="normal")
        recorder.close()
        assert len(recorder.dumps) == 1
        bundle = read_jsonl(recorder.dumps[0])
        assert bundle.meta["reason"] == "deadline_miss_burst"
        assert sum(
            1 for ev in bundle.events if ev.name == "job.missed"
        ) >= 5

    def test_udp_retry_storm_triggers_exactly_one_dump(self, tmp_path):
        tel = telemetry.activate(Telemetry.wall())
        recorder = FlightRecorder(
            tel, out_dir=str(tmp_path), retry_burst=8, retry_window=5.0,
        )
        for i in range(30):
            tel.tracer.event("udp.retry", node="p0", dst="p1", attempt=1)
        recorder.close()
        assert len(recorder.dumps) == 1
        assert "udp_retry_storm" in recorder.dumps[0]

    def test_below_burst_threshold_never_dumps(self, tmp_path):
        tel = telemetry.activate(Telemetry.wall())
        recorder = FlightRecorder(
            tel, out_dir=str(tmp_path), miss_burst=50,
        )
        for _ in range(10):
            tel.tracer.event("job.missed", node="p0", qos="low")
        recorder.close()
        assert recorder.dumps == []

    def test_dump_includes_current_series_and_metrics(self, tmp_path):
        tel = telemetry.activate(Telemetry.wall())
        sampler = HealthSampler(tel, period=1.0)
        sampler.add_probe(lambda s: s.observe("repro_load_mean", 0.7))
        sampler.sample()
        tel.metrics.counter("repro_net_messages_sent_total").inc(9)
        recorder = FlightRecorder(
            tel, out_dir=str(tmp_path), sampler=sampler,
        )
        path = recorder.dump("manual")
        recorder.close()
        bundle = read_jsonl(path)
        assert any(
            rec["name"] == "repro_load_mean" for rec in bundle.series
        )
        assert any(
            m["name"] == "repro_net_messages_sent_total"
            and m["value"] == 9
            for m in bundle.metrics
        )

    def test_close_detaches_listener(self, tmp_path):
        tel = telemetry.activate(Telemetry.wall())
        recorder = FlightRecorder(tel, out_dir=str(tmp_path))
        recorder.close()
        for _ in range(100):
            tel.tracer.event("udp.retry", node="p0")
        assert recorder.dumps == []
        assert len(recorder) == 0


# -- /metrics endpoint -------------------------------------------------------

class TestHttpEndpoint:
    def _get(self, url):
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read().decode()

    def test_metrics_and_healthz_serve(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_net_messages_sent_total", help="messages sent"
        ).inc(5)
        registry.histogram("repro_sched_service_time_seconds").observe(0.2)
        with TelemetryHTTPServer(
            registry.to_prometheus_text,
            health_fn=lambda: {"status": "ok", "nodes": 3},
        ) as server:
            status, body = self._get(f"{server.url}/metrics")
            assert status == 200
            assert "# TYPE repro_net_messages_sent_total counter" in body
            assert "repro_net_messages_sent_total 5" in body
            assert 'repro_sched_service_time_seconds_bucket{le="+Inf"} 1' \
                in body
            status, body = self._get(f"{server.url}/healthz")
            assert status == 200
            assert json.loads(body) == {"status": "ok", "nodes": 3}

    def test_unknown_path_404s(self):
        with TelemetryHTTPServer(lambda: "") as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                self._get(f"{server.url}/nope")
            assert err.value.code == 404

    def test_metrics_error_returns_500(self):
        def broken():
            raise RuntimeError("registry gone")

        with TelemetryHTTPServer(broken) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                self._get(f"{server.url}/metrics")
            assert err.value.code == 500


# -- quantile helpers --------------------------------------------------------

class TestQuantiles:
    def test_histogram_quantiles_interpolate(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        q = h.quantiles()
        assert 0.0 < q[0.5] <= 2.0
        assert q[0.95] <= 4.0
        assert h.quantile(1.0) == 4.0

    def test_overflow_clamps_to_highest_bound(self):
        h = Histogram(buckets=(1.0,))
        h.observe(100.0)
        assert h.quantile(0.99) == 1.0

    def test_empty_histogram_is_zero(self):
        h = Histogram()
        assert h.quantile(0.5) == 0.0

    def test_bucket_quantile_snapshot_format(self):
        buckets = [[0.1, 10], [1.0, 90], ["+Inf", 100]]
        p50 = bucket_quantile(buckets, 0.5)
        assert 0.1 < p50 < 1.0
        assert bucket_quantile(buckets, 0.99) == 1.0

    def test_quantile_range_validated(self):
        with pytest.raises(ValueError):
            bucket_quantile([[1.0, 1]], 1.5)


# -- metric names ------------------------------------------------------------

class TestMetricNames:
    def test_aliases_are_gone_names_are_literal(self):
        # The PR-5 one-release alias read path is retired: pre-namespace
        # names are now distinct families, not views of the canonical
        # ones, and the alias table no longer exists.
        assert not hasattr(
            __import__("repro.telemetry.metrics", fromlist=["x"]),
            "METRIC_ALIASES",
        )
        registry = MetricsRegistry()
        registry.counter("net_messages_sent_total").inc(3)
        registry.counter("repro_net_messages_sent_total").inc(4)
        assert registry.value("repro_net_messages_sent_total") == 4
        assert registry.value("net_messages_sent_total") == 3
        assert registry.families() == [
            "net_messages_sent_total", "repro_net_messages_sent_total",
        ]

    def test_qos_class_buckets(self):
        assert qos_class(2.5) == "high"
        assert qos_class(1.0) == "normal"
        assert qos_class(0.4) == "low"


# -- repro-dash CLI ----------------------------------------------------------

class TestDashCli:
    def _sampled_trace(self, tmp_path):
        env = Environment()
        overlay, net = build_overlay(
            env, max_peers=2, n_peers=4, enable_gossip=True
        )
        tel = telemetry.activate(Telemetry.sim(env))
        sampler = HealthSampler(tel, period=1.0)
        for probe in overlay_probes(overlay, net):
            sampler.add_probe(probe)
        sampler.attach_sim(env)
        env.run(until=20.0)
        path = tmp_path / "trace.jsonl"
        write_jsonl(
            path, tel.tracer, tel.metrics,
            meta={"runtime": "sim"}, sampler=sampler,
        )
        return path

    def test_report_renders_sparklines(self, tmp_path, capsys):
        path = self._sampled_trace(tmp_path)
        assert dash_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro health report" in out
        assert "repro_load_imbalance" in out
        assert "repro_sched_miss_ratio" in out
        assert "repro_gossip_staleness_max" in out

    def test_json_report_has_series(self, tmp_path, capsys):
        path = self._sampled_trace(tmp_path)
        assert dash_main([str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {rec["name"] for rec in doc["series"]}
        assert "repro_load_imbalance" in names
        assert "repro_gossip_staleness_max" in names

    def test_markdown_mode_emits_tables(self, tmp_path, capsys):
        path = self._sampled_trace(tmp_path)
        assert dash_main([str(path), "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "# repro health report" in out
        assert "| labels | trend | stats |" in out

    def test_bundle_section(self, tmp_path, capsys):
        path = self._sampled_trace(tmp_path)
        tel = telemetry.activate(Telemetry.wall())
        recorder = FlightRecorder(tel, out_dir=str(tmp_path))
        tel.tracer.event("failover.takeover", node="b0", old_rm="m0")
        recorder.close()
        assert len(recorder.dumps) == 1
        assert dash_main(
            [str(path), "--bundle", recorder.dumps[0]]
        ) == 0
        out = capsys.readouterr().out
        assert "flight recorder" in out
        assert "reason=rm_failover" in out

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        assert dash_main([str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unsampled_trace_says_rerun_with_sample(
        self, tmp_path, capsys
    ):
        env = Environment()
        tel = telemetry.activate(Telemetry.sim(env))
        path = tmp_path / "plain.jsonl"
        write_jsonl(path, tel.tracer, tel.metrics)
        assert dash_main([str(path)]) == 0
        assert "--sample" in capsys.readouterr().out
