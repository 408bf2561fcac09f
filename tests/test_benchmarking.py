"""The repro-bench harness: measurement and report schema."""

import json

import pytest

from repro.benchmarking import cli
from repro.core import protocol
from repro.benchmarking.harness import (
    SCHEMA_VERSION,
    BenchRecord,
    report_document,
    run_benchmark,
    write_report,
)
from repro.benchmarking.scenarios import BENCHES, select


def load_report(path):
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def _toy_bench(counter):
    def fn():
        counter["calls"] += 1
        return {"events": 1000, "metrics": {"widgets": 7}}

    return fn


class TestRunBenchmark:
    def test_warmup_and_repeat_accounting(self):
        counter = {"calls": 0}
        rec = run_benchmark("toy", _toy_bench(counter), warmup=2, repeat=3)
        assert counter["calls"] == 5
        assert rec.warmup == 2
        assert rec.repeat == 3

    def test_statistics_shape(self):
        rec = run_benchmark("toy", _toy_bench({"calls": 0}), warmup=0,
                            repeat=3)
        assert rec.events == 1000
        assert set(rec.wall_s) == {"mean", "min", "max", "stdev"}
        assert rec.wall_s["min"] <= rec.wall_s["mean"] <= rec.wall_s["max"]
        # Throughput uses the best (minimum) wall sample.
        assert rec.events_per_sec == pytest.approx(
            rec.events / rec.wall_s["min"]
        )
        assert rec.peak_rss_kb > 0
        assert rec.metrics == {"widgets": 7}

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError):
            run_benchmark("toy", _toy_bench({"calls": 0}), repeat=0)

    def test_single_repeat_has_zero_stdev(self):
        rec = run_benchmark("toy", _toy_bench({"calls": 0}), warmup=0,
                            repeat=1)
        assert rec.wall_s["stdev"] == 0.0


class TestReportRoundTrip:
    def _record(self, name="toy", eps=123.0):
        return BenchRecord(
            name=name, params={"n": 1}, warmup=1, repeat=2,
            wall_s={"mean": 1.0, "min": 1.0, "max": 1.0, "stdev": 0.0},
            events=123, events_per_sec=eps, peak_rss_kb=100,
        )

    def test_write_then_load(self, tmp_path):
        doc = report_document([self._record()], mode="full")
        path = tmp_path / "bench.json"
        write_report(str(path), doc)
        loaded = load_report(str(path))
        assert loaded["schema_version"] == SCHEMA_VERSION == 2
        assert "bench_id" not in loaded
        assert loaded["mode"] == "full"
        (result,) = loaded["results"]
        assert result["name"] == "toy"
        assert result["events_per_sec"] == 123.0
        assert "phases" not in result


class TestSelect:
    def test_default_returns_all(self):
        assert [s.name for s in select()] == [s.name for s in BENCHES]

    def test_only_filters_in_registry_order(self):
        names = [
            s.name
            for s in select(only=["micro_allocate", "micro_event_kernel"])
        ]
        assert names == ["micro_event_kernel", "micro_allocate"]

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="no_such_bench"):
            select(only=["no_such_bench"])

    def test_quick_params_change_effective_params(self):
        spec = next(s for s in BENCHES if s.name == "micro_net_burst")
        full = spec.effective_params(quick=False)
        quick = spec.effective_params(quick=True)
        assert quick["n_messages"] < full["n_messages"]
        assert quick["paced"] is full["paced"] is False


class TestUngatedMicros:
    NAMES = {
        "micro_udp_roundtrip", "micro_pump_tick", "micro_allocate",
        "micro_timers", "micro_codec", "micro_processor",
        "micro_net_stream", "micro_net_burst", "micro_report",
    }

    @pytest.mark.parametrize("name", ["micro_net_stream", "micro_net_burst"])
    def test_net_send_is_three_events_per_message_both_ways(self, name):
        spec = next(s for s in BENCHES if s.name == name)
        out = spec.make(n_messages=500, paced=spec.params["paced"])()
        assert out["events"] == 3 * 500 + 2
        assert out["metrics"]["messages"] == 500
        assert out["metrics"]["events_per_message"] == 3.0
        assert out["metrics"]["messages_per_s"] > 0

    def test_periodic_timers_event_count(self):
        spec = next(s for s in BENCHES if s.name == "micro_timers")
        out = spec.make(n_peers=100, sim_seconds=10.0)()
        # 200 start events, then 100 x (20 samples + 5 reports) ticks.
        assert out["metrics"]["ticks"] == 2500
        assert out["events"] == 2700
        assert out["metrics"]["ticks_per_s"] > 0
        # Each period's ticks share a heap entry once their phases align.
        assert 0 < out["metrics"]["peak_heap"] <= 4
        full = spec.make(**spec.effective_params(quick=True))()
        assert full["events"] == 5000 + 2500 * (10 + 2)

    def test_registered_and_run_by_quick(self):
        # Nothing is gated (the events/sec gate is gone); the micros
        # must still be registered, with a --quick size.
        specs = {s.name: s for s in select()}
        assert self.NAMES <= set(specs)
        assert all(specs[n].quick_params for n in self.NAMES)

    def test_udp_roundtrip_delivers_every_message(self):
        spec = next(s for s in BENCHES if s.name == "micro_udp_roundtrip")
        out = spec.make(n_messages=150)()
        assert out["events"] == 150
        assert out["metrics"] == {"retransmits": 0, "acks": 150}

    def test_pump_tick_drains_every_timeout(self):
        spec = next(s for s in BENCHES if s.name == "micro_pump_tick")
        assert spec.make(n_timeouts=2500)()["events"] >= 2500

    def test_codec_times_every_corpus_kind(self):
        spec = next(s for s in BENCHES if s.name == "micro_codec")
        out = spec.make(n_rounds=20)()
        per_kind = out["metrics"]["us_per_message"]
        assert set(per_kind) == {
            protocol.COMPOSE, protocol.STREAM, protocol.STEP_DONE,
            protocol.TASK_REQUEST, protocol.LOAD_UPDATE, "ack",
        }
        assert all(us > 0 for us in per_kind.values())
        assert out["events"] == 20 * 6

    def test_allocate_places_on_the_dense_64_peer_domain(self):
        spec = next(s for s in BENCHES if s.name == "micro_allocate")
        out = spec.make(n_allocations=40, warmup=5.0)()
        assert out["events"] == 40
        metrics = out["metrics"]
        assert metrics["domain_peers"] == 64
        # The search's work, pinned: a speed-up keeps every figure.
        assert metrics == {
            "domain_peers": 64, "requests": 534, "placed": 40,
            "paths_examined": 1818, "candidates": 1817,
            "winners_digest": "aedb5dfe3e85a4ee1cb5e6e6c40c43c0",
        }

    def test_processor_slices_leave_nothing_for_the_collector(self):
        spec = next(s for s in BENCHES if s.name == "micro_processor")
        out = spec.make(n_jobs=300)()
        assert out["events"] > 2 * 300  # quanta and wake-ups split jobs
        assert out["metrics"] == {
            "gc_collected": 0, "kernel_events": 2637, "seq": 2637,
        }

    def test_report_path_kernel_work_is_pinned(self):
        spec = next(s for s in BENCHES if s.name == "micro_report")
        out = spec.make(n_peers=40, sim_seconds=10.0)()
        # 40 peers, a report every 2 s from t = 2 to 10.
        assert out["events"] == 200
        metrics = out["metrics"]
        assert metrics["reports_per_s"] > 0
        # The load-report path before its trim did exactly this work.
        assert (metrics["kernel_events"], metrics["seq"]) == (1703, 1827)


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert cli.main(["--list"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == [
            "micro_event_kernel", "micro_net_stream", "micro_net_burst",
            "micro_timers", "micro_udp_roundtrip",
            "micro_pump_tick", "micro_allocate", "micro_processor",
            "micro_report", "micro_codec",
        ]

    def test_unknown_bench_exits_two(self, capsys):
        assert cli.main(["--only", "nope", "--out", "-"]) == 2

    def test_micro_quick_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = cli.main([
            "--quick", "--only", "micro_net_stream", "--out", str(out),
            "--warmup", "0", "--repeat", "1",
        ])
        assert rc == 0
        doc = load_report(str(out))
        assert doc["schema_version"] == 2
        assert doc["mode"] == "quick"
        (rec,) = doc["results"]
        assert rec["name"] == "micro_net_stream"
        assert rec["events"] > 0
        assert rec["events_per_sec"] > 0
