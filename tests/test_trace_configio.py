"""Trace-driven workloads and config serialization."""

import io

import pytest

from repro.core.manager import RMConfig
from repro.media import MediaFormat
from repro.workloads import (
    PopulationConfig,
    ScenarioConfig,
    WorkloadConfig,
    build_scenario,
)
from repro.workloads.configio import (
    config_from_dict,
    config_from_json,
    config_to_json,
)
from repro.workloads.trace import (
    TraceEntry,
    TraceRecorder,
    TraceReplayProcess,
    load_trace,
    save_trace,
)

GOAL = MediaFormat("MPEG-4", 640, 480, 64.0)


def entry(t=1.0, origin="p0", name="obj0", deadline=20.0, importance=2.0):
    return TraceEntry(
        time=t, origin=origin, object_name=name, goal=GOAL,
        deadline=deadline, importance=importance,
    )


class TestTraceFormat:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            entry(t=-1.0)
        with pytest.raises(ValueError):
            entry(deadline=0.0)

    def test_round_trip(self):
        entries = [entry(t=0.5), entry(t=2.0, name="obj1")]
        buf = io.StringIO()
        save_trace(entries, buf)
        loaded = load_trace(buf.getvalue())
        assert loaded == entries

    def test_load_sorts_by_time(self):
        entries = [entry(t=5.0), entry(t=1.0)]
        buf = io.StringIO()
        save_trace(entries, buf)
        loaded = load_trace(buf.getvalue())
        assert [e.time for e in loaded] == [1.0, 5.0]

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            load_trace("a,b,c\n1,2,3\n")

    def test_bad_format_label_rejected(self):
        text = (
            "time,origin,object,goal,deadline,importance\n"
            "1.0,p0,obj0,not-a-format,5.0,1\n"
        )
        with pytest.raises(ValueError):
            load_trace(text)

    def test_format_label_round_trip(self):
        from repro.workloads.trace import _format_from_str

        assert _format_from_str(GOAL.label()) == GOAL


class TestRecordReplay:
    def build(self, seed=21):
        cfg = ScenarioConfig(
            seed=seed,
            population=PopulationConfig(n_peers=8, n_objects=4),
            workload=WorkloadConfig(rate=0.8),
        )
        return build_scenario(cfg)

    def test_recorder_captures_generated_requests(self):
        scenario = self.build()
        recorder = TraceRecorder()
        scenario.workload.on_generate = recorder.record
        scenario.run(duration=60.0, drain=20.0)
        assert len(recorder.entries) == scenario.workload.n_generated
        assert recorder.entries == sorted(
            recorder.entries, key=lambda e: e.time
        )
        # And the dump parses back.
        assert load_trace(recorder.dumps()) == recorder.entries

    def test_replay_reproduces_submissions(self):
        # 1. Record a run.
        scenario = self.build()
        recorder = TraceRecorder()
        scenario.workload.on_generate = recorder.record
        summary1 = scenario.run(duration=60.0, drain=30.0)

        # 2. Replay the trace on a fresh identical system (workload
        # process disabled).
        scenario2 = self.build()
        scenario2.workload.stop()
        replay = TraceReplayProcess(scenario2.overlay, recorder.entries)
        scenario2.env.run(until=scenario2.env.now + 90.0)
        assert replay.n_submitted == len(recorder.entries)
        summary2 = scenario2.summary()
        # Same peers, same requests, same policies: same outcomes.
        assert summary2.n_met == summary1.n_met
        assert summary2.n_missed == summary1.n_missed

    def test_replay_skips_unknown_origins(self):
        scenario = self.build()
        scenario.workload.stop()
        replay = TraceReplayProcess(
            scenario.overlay, [entry(origin="ghost-peer")]
        )
        scenario.env.run(until=10.0)
        assert replay.n_skipped == 1 and replay.n_submitted == 0


class TestConfigIO:
    def test_round_trip_preserves_values(self):
        cfg = ScenarioConfig(
            seed=77,
            rm=RMConfig(placement_policy="least_loaded"),
            population=PopulationConfig(n_peers=13, power_cv=0.7),
            workload=WorkloadConfig(rate=1.5),
        )
        again = config_from_json(config_to_json(cfg))
        assert again.seed == 77
        assert again.rm.placement_policy == "least_loaded"
        assert again.population.n_peers == 13
        assert again.population.power_cv == 0.7
        assert again.workload.rate == 1.5
        # Untouched nested defaults survive.
        assert again.rm.max_peers == cfg.rm.max_peers

    def test_partial_config(self):
        cfg = config_from_json(
            '{"seed": 3, "population": {"n_peers": 5}}'
        )
        assert cfg.seed == 3
        assert cfg.population.n_peers == 5
        assert cfg.population.mean_power == PopulationConfig().mean_power

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_json('{"not_a_knob": 1}')
        # Retired keys are unknown keys like any other: the legacy-tracer
        # switch, and the second policy field (rm.placement_policy is
        # the one).
        with pytest.raises(ValueError, match="tracing"):
            config_from_json('{"tracing": true}')
        with pytest.raises(ValueError, match="allocation_policy"):
            config_from_json('{"allocation_policy": "random"}')

    @pytest.mark.parametrize("section, key", [
        (None, "intra_latency"), (None, "inter_latency"),
        (None, "latency_jitter"), (None, "metrics_period"),
        ("population", "uptime_alpha"), ("population", "uptime_beta"),
        ("workload", "max_goal_hops"), ("churn", "exempt_rms"),
        ("qualification", "w_power"), ("qualification", "w_bandwidth"),
        ("qualification", "w_uptime"),
        ("gossip", "bloom_bits"), ("gossip", "bloom_hashes"),
        ("rm", "monitor_period"), ("rm", "low_importance_cap"),
    ])
    def test_retired_key_rejected_by_name(self, section, key):
        # Knobs nothing set became module constants; a saved config that
        # still names one fails loudly instead of being ignored.
        doc = {key: 1.0} if section is None else {section: {key: 1.0}}
        with pytest.raises(ValueError, match=key):
            config_from_dict(doc)

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_json('{"population": {"n_cores": 4}}')

    def test_null_churn_section(self):
        cfg = config_from_json('{"churn": null}')
        assert cfg.churn is None

    def test_churn_section_builds(self):
        cfg = config_from_json('{"churn": {"mean_lifetime": 50.0}}')
        assert cfg.churn is not None
        assert cfg.churn.mean_lifetime == 50.0

    def test_bandwidth_tiers_tuple_restored(self):
        cfg0 = ScenarioConfig()
        text = config_to_json(cfg0)
        cfg = config_from_json(text)
        assert isinstance(cfg.population.bandwidth_tiers, tuple)

    def test_built_config_runs(self):
        cfg = config_from_json(
            '{"seed": 2, "population": {"n_peers": 6, "n_objects": 3},'
            ' "workload": {"rate": 0.5}}'
        )
        summary = build_scenario(cfg).run(duration=40.0, drain=20.0)
        assert summary.n_submitted >= 0
