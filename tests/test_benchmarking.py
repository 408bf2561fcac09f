"""The repro-bench harness: measurement and report schema."""

import json

import pytest

from repro.benchmarking import cli
from repro.benchmarking.harness import (
    SCHEMA_VERSION,
    BenchRecord,
    PhaseTimer,
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
        return {
            "events": 1000,
            "phases": {"build": 0.001, "run": 0.002},
            "metrics": {"widgets": 7},
        }

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
        assert rec.phases == {"build": 0.001, "run": 0.002}

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError):
            run_benchmark("toy", _toy_bench({"calls": 0}), repeat=0)

    def test_single_repeat_has_zero_stdev(self):
        rec = run_benchmark("toy", _toy_bench({"calls": 0}), warmup=0,
                            repeat=1)
        assert rec.wall_s["stdev"] == 0.0


class TestPhaseTimer:
    def test_phases_accumulate(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            pass
        with timer.phase("a"):
            pass
        with timer.phase("b"):
            pass
        assert set(timer.phases) == {"a", "b"}
        assert timer.phases["a"] >= 0.0


class TestReportRoundTrip:
    def _record(self, name="toy", eps=123.0):
        return BenchRecord(
            name=name, params={"n": 1}, warmup=1, repeat=2,
            wall_s={"mean": 1.0, "min": 1.0, "max": 1.0, "stdev": 0.0},
            events=123, events_per_sec=eps, peak_rss_kb=100,
        )

    def test_write_then_load(self, tmp_path):
        doc = report_document([self._record()], mode="full",
                              bench_id="BENCH_T")
        path = tmp_path / "bench.json"
        write_report(str(path), doc)
        loaded = load_report(str(path))
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert loaded["bench_id"] == "BENCH_T"
        assert loaded["mode"] == "full"
        assert loaded["results"][0]["name"] == "toy"
        assert loaded["results"][0]["events_per_sec"] == 123.0



class TestSelect:
    def test_default_returns_all(self):
        assert [s.name for s in select()] == [s.name for s in BENCHES]

    def test_quick_skips_heavy_rungs(self):
        names = {s.name for s in select(quick=True)}
        assert "scalability_2500" not in names
        assert "scalability_250" in names

    def test_only_filters_in_registry_order(self):
        names = [
            s.name
            for s in select(only=["micro_mailbox", "scalability_250"])
        ]
        assert names == ["scalability_250", "micro_mailbox"]

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="no_such_bench"):
            select(only=["no_such_bench"])

    def test_quick_params_change_effective_params(self):
        spec = next(s for s in BENCHES if s.name == "micro_mailbox")
        full = spec.effective_params(quick=False)
        quick = spec.effective_params(quick=True)
        assert quick["n_items"] < full["n_items"]


class TestUngatedMicros:
    NAMES = {
        "micro_udp_roundtrip", "micro_pump_tick", "micro_allocate",
        "micro_periodic_timers",
    }

    def test_periodic_timers_event_count(self):
        spec = next(s for s in BENCHES if s.name == "micro_periodic_timers")
        out = spec.make(n_peers=100, sim_seconds=10.0)()
        # 200 start events, then 100 x (20 samples + 5 reports) ticks.
        assert out["metrics"]["ticks"] == 2500
        assert out["events"] == 2700
        full = spec.make(**spec.effective_params(quick=True))()
        assert full["events"] == 5000 + 2500 * (10 + 2)

    def test_listed_in_family_micro_but_not_gated(self):
        # Nothing is gated any more (the events/sec gate is gone); the
        # micros must still be registered, and run by --quick.
        specs = {s.name: s for s in select(quick=True)}
        assert self.NAMES <= set(specs)
        assert all(specs[n].family == "micro" for n in self.NAMES)

    def test_udp_roundtrip_delivers_every_message(self):
        spec = next(s for s in BENCHES if s.name == "micro_udp_roundtrip")
        out = spec.make(n_messages=150)()
        assert out["events"] == 150
        assert out["metrics"] == {"retransmits": 0, "acks": 150}

    def test_pump_tick_drains_every_timeout(self):
        spec = next(s for s in BENCHES if s.name == "micro_pump_tick")
        assert spec.make(n_timeouts=2500)()["events"] >= 2500

    def test_allocate_places_on_the_dense_64_peer_domain(self):
        spec = next(s for s in BENCHES if s.name == "micro_allocate")
        out = spec.make(n_allocations=40, warmup=5.0)()
        assert out["events"] == 40
        metrics = out["metrics"]
        assert metrics["domain_peers"] == 64
        assert 0 < metrics["placed"] <= 40
        assert metrics["paths_examined"] >= metrics["placed"]


class TestCli:
    def test_list_exits_zero(self, capsys):
        assert cli.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "scalability_1000" in out

    def test_unknown_bench_exits_two(self, capsys):
        assert cli.main(["--only", "nope", "--out", "-"]) == 2

    def test_micro_quick_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = cli.main([
            "--quick", "--only", "micro_mailbox", "--out", str(out),
            "--warmup", "0", "--repeat", "1", "--bench-id", "BENCH_T",
        ])
        assert rc == 0
        doc = load_report(str(out))
        assert doc["bench_id"] == "BENCH_T"
        assert doc["mode"] == "quick"
        (rec,) = doc["results"]
        assert rec["name"] == "micro_mailbox"
        assert rec["events"] > 0
        assert rec["events_per_sec"] > 0
