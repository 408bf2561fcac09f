"""The self-observing runtime: profiler, overhead budgeter, SLO burn.

Covers the tentpole surfaces — sim/wall sampling profilers (with the
trajectory-identity guarantee for the sim hook), folded-stack
aggregation, the overhead budgeter's staged backoff/recovery, and
multi-window SLO burn-rate alerting into the flight recorder — plus the
satellites: SeriesRing rollup edge cases, the recorder's cooldown
gauge/skip counter, and the liar_peers/liar_control SLO distinction.
"""

from __future__ import annotations

import os
from time import perf_counter, sleep

import pytest

import repro
from repro import telemetry
from repro.profiling import (
    Actuator,
    BurnRateMonitor,
    OverheadBudgeter,
    SLO,
    SimEventProfiler,
    StackAggregator,
    WallStackProfiler,
    profile_sim,
    profile_wall,
)
from repro.profiling.budget import ACTION_CODES
from repro.profiling.stacks import OTHER_KEY
from repro.scenarios import build_stressed_scenario, load_spec
from repro.sim import Environment
from repro.telemetry import FlightRecorder, HealthSampler, Telemetry
from repro.telemetry.timeseries import SeriesRing


@pytest.fixture(autouse=True)
def _isolate_global_handle():
    telemetry.deactivate()
    yield
    telemetry.deactivate()


def toy_sim(n_workers: int = 4, ticks: int = 100) -> Environment:
    env = Environment()

    def worker():
        for _ in range(ticks):
            yield env.timeout(1.0)

    for _ in range(n_workers):
        env.process(worker())
    return env


class _Clock:
    def __init__(self):
        self.t = 0.0
        self.label = "sim_seconds"

    def now(self):
        return self.t


class _FakeTel:
    """Just enough Telemetry surface for a sampler + monitor."""

    def __init__(self):
        self.clock = _Clock()


# -- stack aggregation -------------------------------------------------------

class TestStackAggregator:
    def test_top_orders_by_count_then_stack(self):
        agg = StackAggregator()
        agg.add("a;b", count=3)
        agg.add("a;c", count=1)
        agg.add("z", count=3)
        top = agg.top(2)
        assert [s for s, _, _ in top] == ["a;b", "z"]

    def test_overflow_folds_into_other(self):
        agg = StackAggregator(max_stacks=2)
        agg.add("a")
        agg.add("b")
        agg.add("c")
        agg.add("d")
        assert agg.truncated == 2
        assert dict((s, c) for s, c, _ in agg.top(10))[OTHER_KEY] == 2.0
        # Existing stacks keep accumulating after the table is full.
        agg.add("a")
        assert dict((s, c) for s, c, _ in agg.top(10))["a"] == 2.0

    def test_folded_output_format(self, tmp_path):
        agg = StackAggregator()
        agg.add("main;hot_loop", count=41)
        agg.add("main;idle", count=1)
        path = agg.write_folded(str(tmp_path / "out.folded"))
        lines = open(path).read().splitlines()
        assert "main;hot_loop 41" in lines
        assert "main;idle 1" in lines

    def test_record_and_publish(self):
        agg = StackAggregator()
        agg.add("a;b", count=9)
        agg.add("c", count=1)
        rec = agg.record(top_n=1)
        # n_samples counts add() calls; shares weight by count.
        assert rec["samples"] == 2 and rec["unique_stacks"] == 2
        assert rec["top"][0] == {
            "stack": "a;b", "count": 9.0, "seconds": 0.0, "share": 0.9,
        }
        tel = Telemetry.wall()
        agg.publish(tel.metrics, top_n=1)
        assert tel.metrics.value("repro_prof_samples") == 2.0
        assert tel.metrics.value(
            "repro_prof_hot_share", rank="1", stack="a;b"
        ) == 0.9


# -- the sim profiler --------------------------------------------------------

class TestSimEventProfiler:
    def test_trajectory_identical_with_profiler_attached(self):
        base = toy_sim()
        base.run()

        env = toy_sim()
        prof = SimEventProfiler(env, stride=8)
        prof.attach()
        env.run()
        prof.detach()
        assert env.n_processed == base.n_processed
        assert env.now == base.now
        assert prof.agg.n_samples > 0

    def test_stride_controls_sample_count(self):
        env = toy_sim()
        prof = SimEventProfiler(env, stride=10)
        prof.attach()
        env.run()
        expected = env.n_processed // 10
        assert abs(prof.agg.n_samples - expected) <= 1

    def test_stacks_attribute_dispatch_targets(self):
        env = toy_sim()
        prof = SimEventProfiler(env, stride=4)
        prof.attach()
        env.run()
        stacks = [s for s, _, _ in prof.agg.top(10)]
        assert stacks and all(s.startswith("sim.dispatch;") for s in stacks)
        assert any(s.endswith(":worker") for s in stacks)

    def test_detach_stops_sampling(self):
        env = toy_sim(ticks=10)
        prof = SimEventProfiler(env, stride=1)
        prof.attach()
        prof.detach()
        env.run()
        assert prof.agg.n_samples == 0

    def test_rate_setting_is_live(self):
        env = toy_sim()
        prof = SimEventProfiler(env, stride=4)
        prof.set_rate_setting(400.0)
        assert prof.stride == 400
        assert prof.get_rate_setting() == 400.0
        # Never finer than one sample per event.
        prof.set_rate_setting(0.2)
        assert prof.stride == 1


# -- the wall profiler -------------------------------------------------------

class TestWallStackProfiler:
    def test_samples_other_threads_not_itself(self):
        prof = WallStackProfiler(period=0.005)
        prof.start()
        deadline = perf_counter() + 2.0
        while prof.agg.n_samples < 3 and perf_counter() < deadline:
            sleep(0.01)
        prof.stop()
        assert prof.agg.n_samples >= 3
        assert all(
            "sampler.py:_loop" not in s for s, _, _ in prof.agg.top(50)
        )

    def test_stop_is_idempotent_and_final(self):
        prof = WallStackProfiler(period=0.005)
        prof.start()
        prof.stop()
        n = prof.agg.n_samples
        prof.stop()
        sleep(0.02)
        assert prof.agg.n_samples == n


# -- the overhead budgeter ---------------------------------------------------

class _SyntheticLoad:
    """A cost source whose rate is inversely proportional to a knob."""

    def __init__(self, rate: float):
        self.rate = rate  # overhead ratio contributed at setting=1
        self.setting = 1.0
        self.cost = 0.0
        self._last = perf_counter()

    def tick(self):
        now = perf_counter()
        self.cost += (self.rate / self.setting) * (now - self._last)
        self._last = now

    def get(self):
        return self.setting

    def set(self, v):
        self.setting = v


class TestOverheadBudgeter:
    def test_converges_under_synthetic_load_and_recovers(self):
        load = _SyntheticLoad(rate=0.08)
        budgeter = OverheadBudgeter(budget=0.02, min_interval=0.0)
        budgeter.add_source("load", lambda: load.cost)
        budgeter.add_actuator(
            Actuator("knob", load.get, load.set, lo=1.0, hi=64.0)
        )
        for _ in range(8):
            sleep(0.002)
            load.tick()
            budgeter.evaluate()
        # 8% load / knob settles around the 2% budget: the knob lands
        # in [4, 8] (timing jitter may overshoot one doubling, then
        # hysteresis holds or walks it back).
        assert 4.0 <= load.setting <= 8.0
        assert budgeter.n_backoffs >= 2
        assert budgeter.overhead_ratio <= 0.08 / 4.0 + 0.005
        # Load vanishes -> recovery walks the knob back to full
        # resolution (lo), never past it.
        load.rate = 0.0
        for _ in range(12):
            sleep(0.002)
            load.tick()
            budgeter.evaluate()
        assert load.setting == 1.0
        assert budgeter.n_recovers >= 2

    def test_severe_overshoot_backs_off_every_knob(self):
        budgeter = OverheadBudgeter(budget=0.02, min_interval=0.0)
        a = _SyntheticLoad(rate=0.0)
        b = _SyntheticLoad(rate=0.0)
        budgeter.add_actuator(Actuator("a", a.get, a.set, lo=1.0, hi=8.0))
        budgeter.add_actuator(Actuator("b", b.get, b.set, lo=1.0, hi=8.0))
        burst = _SyntheticLoad(rate=0.5)  # >> 2x budget: severe
        budgeter.add_source("burst", lambda: burst.cost)
        sleep(0.002)
        burst.tick()
        budgeter.evaluate()
        assert a.setting == 2.0 and b.setting == 2.0

    def test_mild_overshoot_moves_one_knob_in_order(self):
        budgeter = OverheadBudgeter(budget=0.02, min_interval=0.0)
        a = _SyntheticLoad(rate=0.0)
        b = _SyntheticLoad(rate=0.0)
        budgeter.add_actuator(Actuator("a", a.get, a.set, lo=1.0, hi=8.0))
        budgeter.add_actuator(Actuator("b", b.get, b.set, lo=1.0, hi=8.0))
        mild = _SyntheticLoad(rate=0.03)  # over budget, under 2x
        budgeter.add_source("mild", lambda: mild.cost)
        sleep(0.002)
        mild.tick()
        budgeter.evaluate()
        assert a.setting == 2.0 and b.setting == 1.0

    def test_decisions_are_recorded_with_settings(self):
        load = _SyntheticLoad(rate=0.5)
        budgeter = OverheadBudgeter(budget=0.02, min_interval=0.0)
        budgeter.add_source("load", lambda: load.cost)
        budgeter.add_actuator(
            Actuator("knob", load.get, load.set, lo=1.0, hi=64.0)
        )
        sleep(0.002)
        load.tick()
        decision = budgeter.evaluate()
        assert decision["action"] == "backoff"
        assert decision["settings"] == {"knob": 2.0}
        assert budgeter.decisions[-1] is decision
        assert set(ACTION_CODES) == {"backoff", "hold", "recover"}

    def test_min_interval_rate_limits(self):
        budgeter = OverheadBudgeter(budget=0.02, min_interval=60.0)
        budgeter.evaluate()
        assert budgeter.maybe_evaluate() is None


# -- SLO burn-rate alerting --------------------------------------------------

def miss_rate_slo(threshold: float = 0.1) -> SLO:
    return SLO("miss_rate", "repro_sched_miss_ratio", threshold,
               objective=0.99)


def drive(sampler, monitor, points):
    """Feed scripted (t, value) samples through the probe pipeline."""
    script = iter(points)

    def signal_probe(s):
        s.observe("repro_sched_miss_ratio", s._pending)  # noqa: SLF001

    sampler._probes.insert(0, signal_probe)
    for t, v in script:
        sampler.tel.clock.t = t
        sampler._pending = v
        sampler.sample()


class TestBurnRateMonitor:
    def make(self, **kwargs):
        tel = _FakeTel()
        sampler = HealthSampler(tel, period=1.0)
        kwargs.setdefault("fast_window", 10.0)
        kwargs.setdefault("slow_window", 100.0)
        kwargs.setdefault("min_samples", 3)
        monitor = BurnRateMonitor(
            sampler, slos=(miss_rate_slo(),), **kwargs
        )
        sampler.add_probe(monitor.as_probe())
        return sampler, monitor

    def test_fast_burn_fires_once_edge_triggered(self):
        sampler, monitor = self.make()
        points = [(float(t), 0.0) for t in range(6)]
        points += [(float(t), 0.5) for t in range(6, 16)]
        drive(sampler, monitor, points)
        fast = [a for a in monitor.alerts if a.window == "fast"]
        assert len(fast) == 1
        alert = fast[0]
        assert alert.slo == "miss_rate"
        assert alert.burn > 10.0
        assert alert.bad_fraction > 0.1

    def test_warmup_suppresses_early_alert(self):
        sampler, monitor = self.make(warmup=0.5)
        # All-bad samples, but only 3s watched < 0.5 * 10s window.
        drive(sampler, monitor, [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0),
                                 (3.0, 1.0)])
        assert monitor.alerts == []

    def test_hysteresis_clears_then_refires(self):
        sampler, monitor = self.make(warmup=0.0, hysteresis=0.8)
        bad = [(float(t), 1.0) for t in range(5)]
        good = [(float(t), 0.0) for t in range(5, 30)]
        bad2 = [(float(t), 1.0) for t in range(30, 35)]
        drive(sampler, monitor, bad + good + bad2)
        fast = [a for a in monitor.alerts if a.window == "fast"]
        assert len(fast) == 2

    def test_rolled_up_points_judged_by_worst_side(self):
        # A short excursion merged into a low-mean point must still
        # count as bad: the monitor judges ">"-SLOs by the point max.
        ring = SeriesRing("repro_sched_miss_ratio", capacity=4)
        for t, v in [(0, 0.0), (1, 0.9), (2, 0.0), (3, 0.0), (4, 0.0)]:
            ring.append(float(t), v)
        merged = [p for p in ring.points() if p[4] > 1]
        assert merged and all(p[1] < 0.5 for p in merged)
        frac, n = BurnRateMonitor._worst_bad_fraction(
            [ring], 0.0, miss_rate_slo()
        )
        # The bad sample merged with a good neighbour: the whole
        # 2-count point counts bad (conservative over-count, never an
        # excursion hidden by the mean).
        assert n == 5 and frac == pytest.approx(2 / 5)

    def test_burn_series_and_eval_stride_knob(self):
        sampler, monitor = self.make(warmup=0.0)
        monitor.set_rate_setting(2.4)
        assert monitor.eval_stride == 2
        drive(sampler, monitor, [(float(t), 0.0) for t in range(8)])
        ring = sampler.series(
            "repro_slo_burn_rate", slo="miss_rate", window="fast"
        )
        # Every 2nd tick evaluates -> 4 burn points, all zero.
        assert ring is not None and len(ring) == 4
        assert set(ring.values()) == {0.0}


class TestSLOAlertsIntoRecorder:
    def test_alert_triggers_flight_dump_with_cooldown(self, tmp_path):
        env = Environment()
        tel = telemetry.activate(Telemetry.sim(env))
        sampler = HealthSampler(tel, period=1.0)
        recorder = FlightRecorder(
            tel, out_dir=str(tmp_path), sampler=sampler, cooldown=60.0,
        )
        sampler.add_probe(
            lambda s: s.observe("repro_sched_miss_ratio", 1.0)
        )
        monitor = BurnRateMonitor(
            sampler, slos=(miss_rate_slo(),), tel=tel,
            recorder=recorder, fast_window=10.0, min_samples=3,
            warmup=0.0,
        )
        sampler.add_probe(monitor.as_probe())
        sampler.attach_sim(env)
        env.run(until=20.0)
        fast = [a for a in monitor.alerts if a.window == "fast"]
        assert len(fast) == 1
        assert fast[0].dump is not None and os.path.exists(fast[0].dump)
        assert os.path.basename(fast[0].dump).endswith(
            "slo_burn_fast.jsonl"
        )
        assert tel.metrics.value(
            "repro_slo_alerts_total", slo="miss_rate", window="fast"
        ) == 1.0
        assert any(
            ev.name == "slo.burn" for ev in tel.tracer.events
        )


# -- flight recorder cooldown metrics ----------------------------------------

class TestRecorderCooldownMetrics:
    def test_skip_counter_and_gauge_lifecycle(self, tmp_path):
        env = Environment()
        tel = telemetry.activate(Telemetry.sim(env))
        rec = FlightRecorder(tel, out_dir=str(tmp_path), cooldown=30.0)
        assert rec.trigger("slo_burn_fast", now=10.0) is not None
        # Within the cooldown: suppressed, counted, gauge raised.
        assert rec.trigger("slo_burn_fast", now=20.0) is None
        assert rec.skipped == {"slo_burn_fast": 1}
        assert tel.metrics.value(
            "repro_flightrecorder_dump_skipped_total",
            reason="slo_burn_fast",
        ) == 1.0
        assert tel.metrics.value(
            "repro_flightrecorder_cooldown_active",
            reason="slo_burn_fast",
        ) == 1.0
        # Another reason is an independent cooldown domain.
        assert rec.trigger("slo_burn_slow", now=20.0) is not None
        rec.refresh_cooldowns(now=25.0)
        assert tel.metrics.value(
            "repro_flightrecorder_cooldown_active",
            reason="slo_burn_fast",
        ) == 1.0
        rec.refresh_cooldowns(now=45.0)
        assert tel.metrics.value(
            "repro_flightrecorder_cooldown_active",
            reason="slo_burn_fast",
        ) == 0.0
        # Expired: the next trigger dumps again.
        assert rec.trigger("slo_burn_fast", now=45.0) is not None
        rec.close()


# -- SeriesRing rollup edge cases --------------------------------------------

class TestSeriesRingRollup:
    def test_empty_ring(self):
        ring = SeriesRing("x")
        assert len(ring) == 0 and ring.last is None
        assert ring.points() == [] and ring.points_since(0.0) == []
        assert ring.counts() == []
        assert ring.quantile(0.5) == 0.0
        assert ring.as_record()["n"] == []

    def test_exactly_at_capacity_does_not_downsample(self):
        ring = SeriesRing("x", capacity=8)
        for t in range(8):
            ring.append(float(t), float(t))
        assert len(ring) == 8
        assert ring.counts() == [1] * 8
        assert ring.values() == [float(t) for t in range(8)]

    def test_crossing_capacity_merges_oldest_half(self):
        ring = SeriesRing("x", capacity=8)
        for t in range(9):
            ring.append(float(t), float(t))
        # Oldest half (4 points) pairwise-merged to 2; recent 4 raw;
        # the 9th appended after the compact.
        assert len(ring) == 7
        assert sum(ring.counts()) == 9
        points = ring.points()
        assert points[0] == (0.5, 0.5, 0.0, 1.0, 2)
        assert points[-1] == (8.0, 8.0, 8.0, 8.0, 1)
        # Whole-ring extremes survive the merge.
        assert min(p[2] for p in points) == 0.0
        assert max(p[3] for p in points) == 8.0

    def test_odd_half_carries_unpaired_point(self):
        ring = SeriesRing("x", capacity=7)
        for t in range(8):
            ring.append(float(t), float(t))
        assert sum(ring.counts()) == 8
        # half=3: one merged pair + the unpaired point carried as-is.
        assert ring.counts()[:2] == [2, 1]

    def test_quantiles_weight_by_sample_count(self):
        # Stationary signal: count-weighting keeps quantiles anchored
        # to sample mass, so the median survives heavy downsampling.
        ring = SeriesRing("x", capacity=32)
        stationary = [float(1 + (i % 10)) for i in range(100)]
        for t, v in enumerate(stationary):
            ring.append(float(t), v)
        assert sum(ring.counts()) == 100
        assert ring.quantile(0.5) == pytest.approx(5.5, abs=1.0)
        assert ring.quantile(0.0) == 1.0
        assert ring.quantile(1.0) == 10.0

    def test_quantiles_track_mass_not_point_count(self):
        # A monotonic ramp: the oldest bucket absorbs over half the
        # samples.  The count-weighted median lands in that bucket (its
        # stored mean); an unweighted median over the stored points
        # would escape into the raw tail (~88) and be far wrong.
        ring = SeriesRing("x", capacity=32)
        for t, v in enumerate(range(1, 101)):
            ring.append(float(t), float(v))
        points = ring.points()
        running = 0
        for _, mean, mn, mx, cnt in points:
            running += cnt
            if running >= 50:
                median_bucket = (mean, mn, mx)
                break
        assert ring.quantile(0.5) == median_bucket[0]
        assert median_bucket[1] <= 50.0 <= median_bucket[2]
        # The recent raw region keeps its quantiles exact.
        assert ring.quantile(0.9) == 90.0
        assert ring.quantile(1.0) == 100.0

    def test_points_since_stops_at_window_edge(self):
        ring = SeriesRing("x", capacity=64)
        for t in range(50):
            ring.append(float(t), float(t))
        window = ring.points_since(40.0)
        assert [p[0] for p in window] == [float(t) for t in range(40, 50)]

    def test_record_round_trip_keeps_counts(self):
        ring = SeriesRing("x", capacity=4)
        for t in range(6):
            ring.append(float(t), float(t))
        rec = ring.as_record()
        back = SeriesRing.from_record(rec)
        assert back.counts() == ring.counts()
        assert back.values() == pytest.approx(ring.values())

    def test_record_without_counts_restores_ones(self):
        back = SeriesRing.from_record({"name": "x", "t": [0, 1], "v": [2, 3]})
        assert back.points() == [(0.0, 2.0, 2.0, 2.0, 1), (1.0, 3.0, 3.0, 3.0, 1)]


# -- session wiring ----------------------------------------------------------

class TestProfileSessions:
    def test_profile_sim_preserves_scenario_trajectory(self, tmp_path):
        docs = []
        for profiled in (False, True):
            spec = load_spec(os.path.join(
                repo_root(), "benchmarks", "scenarios",
                "liar_control.json",
            ))
            spec.duration = 20.0
            spec.drain = 10.0
            stressed = build_stressed_scenario(
                spec, out_dir=str(tmp_path), profile=profiled
            )
            stressed.run()
            docs.append(stressed.metrics_document())
        plain, profiled = docs
        assert profiled["events"] == plain["events"]
        assert profiled["messages"] == plain["messages"]
        assert "profile" in profiled and "profile" not in plain
        assert profiled["profile"]["samples"] > 0

    def test_profile_wall_session_lifecycle(self, tmp_path):
        tel = telemetry.activate(Telemetry.wall())
        sess = profile_wall(tel=tel, period=0.005)
        deadline = perf_counter() + 2.0
        while (sess.profiler.agg.n_samples < 2
               and perf_counter() < deadline):
            sleep(0.01)
        sess.stop()
        rec = sess.record()
        assert rec["runtime"] == "wall" and rec["samples"] >= 2
        assert "budget" in rec and "slo" not in rec
        path = sess.write_folded(str(tmp_path / "w.folded"))
        assert path and os.path.getsize(path) > 0
        sess.publish(tel.metrics)
        assert tel.metrics.value("repro_prof_budget_target") == 0.02

    def test_liar_pair_slo_distinction(self, tmp_path):
        """liar_peers burns the miss-rate SLO; liar_control must not."""
        alerts = {}
        for name in ("liar_control", "liar_peers"):
            spec = load_spec(os.path.join(
                repo_root(), "benchmarks", "scenarios", f"{name}.json"
            ))
            out = tmp_path / name
            out.mkdir()
            stressed = build_stressed_scenario(
                spec, out_dir=str(out), profile=True
            )
            stressed.run()
            alerts[name] = [
                a for a in stressed.obs.session.alerts
                if a.slo == "miss_rate"
            ]
        assert alerts["liar_control"] == []
        assert len(alerts["liar_peers"]) >= 1
        alert = alerts["liar_peers"][0]
        assert alert.window == "fast"
        assert alert.dump is not None and os.path.exists(alert.dump)


def repo_root() -> str:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    return os.path.dirname(src)


# -- CLI integration ---------------------------------------------------------

class TestCLI:
    def test_repro_run_scenario_profile(self, tmp_path, capsys):
        from repro.workloads.cli import main

        spec = os.path.join(
            repo_root(), "benchmarks", "scenarios", "liar_control.json"
        )
        rc = main([
            "--scenario", spec, "--profile",
            "--profile-folded", str(tmp_path / "hot.folded"),
            "--metrics-out", str(tmp_path / "m.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profiler:" in out and "samples" in out
        assert os.path.getsize(tmp_path / "hot.folded") > 0
        import json
        doc = json.load(open(tmp_path / "m.json"))
        assert doc["profile"]["runtime"] == "sim"
        assert doc["profile"]["budget"]["target"] == 0.02

    def test_repro_run_trace_profile_record(self, tmp_path, capsys):
        from repro.telemetry.export import read_jsonl
        from repro.workloads.cli import main
        from repro.workloads.configio import config_to_json
        from repro.workloads.scenario import ScenarioConfig

        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_to_json(ScenarioConfig()))
        trace = tmp_path / "t.jsonl"
        rc = main([
            str(cfg), "--duration", "30", "--drain", "10",
            "--trace", str(trace), "--sample", "--profile",
        ])
        assert rc == 0
        data = read_jsonl(str(trace))
        assert data.profile is not None
        assert data.profile["runtime"] == "sim"
        assert data.profile["slo"]["slos"][0]["name"] == "miss_rate"

    def test_profile_flags_require_profile(self, tmp_path):
        from repro.workloads.cli import main

        with pytest.raises(SystemExit):
            main(["x.json", "--profile-budget", "0.05"])
        with pytest.raises(SystemExit):
            main(["x.json", "--profile-folded", "f.folded"])

    def test_repro_bench_profile_hot_paths(self, tmp_path, capsys):
        from repro.benchmarking.cli import main

        rc = main([
            "--quick", "--only", "micro_event_kernel",
            "--repeat", "1", "--profile",
            "--out", str(tmp_path / "b.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "micro_event_kernel:" in out
        import json
        doc = json.load(open(tmp_path / "b.json"))
        prof = doc["results"][0]["profile"]
        assert prof["runtime"] == "wall"
        assert prof["budget"]["target"] == 0.02

    def test_dash_renders_profiler_and_slo_panels(self, tmp_path,
                                                  capsys):
        from repro.telemetry.dash import main as dash_main
        from repro.workloads.cli import main as run_main
        from repro.workloads.configio import config_to_json
        from repro.workloads.scenario import ScenarioConfig

        cfg = tmp_path / "cfg.json"
        cfg.write_text(config_to_json(ScenarioConfig()))
        trace = tmp_path / "t.jsonl"
        rc = run_main([
            str(cfg), "--duration", "30", "--drain", "10",
            "--trace", str(trace), "--sample", "--profile",
        ])
        assert rc == 0
        capsys.readouterr()
        assert dash_main([str(trace)]) == 0
        out = capsys.readouterr().out
        assert "profiler" in out and "slo burn" in out
        assert "partition_drops=" in out
