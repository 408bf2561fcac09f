"""The adversarial scenario DSL: spec validation, stressors, suite."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.scenarios import (
    METRICS_SCHEMA_VERSION,
    AdversarySpec,
    ArrivalSpec,
    FaultScript,
    FaultSpec,
    MisbehavingPeer,
    ScenarioSpec,
    build_stressed_scenario,
    choose_liars,
    load_spec,
    make_workload_cls,
    parse_spec,
    peak_multiplier,
    rate_multiplier,
    run_spec,
)
from repro.scenarios import suite as scenario_suite
from repro.sim import Environment, RandomStreams
from repro.sim import rng as sim_rng
from repro.sim.rng import fallback_rng, set_ambient_streams
from repro.workloads.configio import config_from_dict
from repro.workloads.scenario import build_scenario


@pytest.fixture(autouse=True)
def _clear_ambient():
    yield
    set_ambient_streams(None)


def small_doc(**extra):
    """A fast-but-real scenario document (12 peers, short run)."""
    doc = {
        "name": "t",
        "duration": 20.0,
        "drain": 10.0,
        "base": {
            "seed": 7,
            "population": {"n_peers": 12, "n_objects": 6},
            "workload": {"rate": 0.8},
        },
    }
    doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# Spec parsing and validation
# ---------------------------------------------------------------------------

class TestSpecValidation:
    def test_minimal_spec_gets_defaults(self):
        spec = ScenarioSpec.from_dict({"name": "x"})
        assert spec.name == "x"
        assert spec.duration == 120.0 and spec.drain == 30.0
        assert spec.arrivals is None and spec.cost is None
        assert spec.faults == [] and spec.adversaries is None
        assert spec.health is None

    def test_name_required(self):
        with pytest.raises(ValueError, match="needs a name"):
            ScenarioSpec.from_dict({"duration": 10})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            ScenarioSpec.from_dict({"name": "x", "turbo": True})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ValueError, match="arrivals.*unknown keys"):
            ScenarioSpec.from_dict(
                {"name": "x", "arrivals": {"shape": "diurnal", "boost": 2}}
            )

    def test_base_goes_through_config_parser(self):
        spec = ScenarioSpec.from_dict(small_doc())
        assert spec.base.seed == 7
        assert spec.base.population.n_peers == 12
        with pytest.raises(Exception):
            ScenarioSpec.from_dict(
                {"name": "x", "base": {"not_a_section": {}}}
            )

    def test_bad_arrival_shape(self):
        with pytest.raises(ValueError, match="arrivals.shape"):
            ArrivalSpec(shape="bursty")

    def test_flash_crowd_needs_window(self):
        with pytest.raises(ValueError, match="t_end"):
            ArrivalSpec(shape="flash_crowd", t_start=10.0, t_end=5.0)

    def test_amplitude_bounds(self):
        with pytest.raises(ValueError, match="amplitude"):
            ArrivalSpec(shape="diurnal", amplitude=1.5)

    def test_bad_fault_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(at=1.0, kind="meteor")

    def test_fault_needs_at_and_kind(self):
        with pytest.raises(ValueError, match="'at' and 'kind'"):
            FaultSpec.from_dict({"kind": "heal"})

    def test_fault_split_bounds(self):
        with pytest.raises(ValueError, match="split"):
            FaultSpec(at=1.0, kind="partition", split=1.0)

    def test_adversary_bounds(self):
        with pytest.raises(ValueError, match="fraction"):
            AdversarySpec(fraction=0.0)
        with pytest.raises(ValueError, match="mode"):
            AdversarySpec(mode="chaotic")
        with pytest.raises(ValueError, match="inflate_factor"):
            AdversarySpec(inflate_factor=0.5)

    def test_health_bounds(self):
        with pytest.raises(ValueError, match="period"):
            ScenarioSpec.from_dict(
                {"name": "x", "health": {"period": 0.0}}
            )

    def test_parse_json(self):
        spec = parse_spec(json.dumps(small_doc()), fmt="json")
        assert spec.name == "t"

    def test_parse_unknown_format(self):
        with pytest.raises(ValueError, match="unknown scenario format"):
            parse_spec("{}", fmt="yaml")

    def test_load_spec_json_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(small_doc()))
        assert load_spec(str(path)).base.seed == 7

    def test_toml_gated_on_tomllib(self, tmp_path):
        text = 'name = "t"\nduration = 20.0\n'
        try:
            import tomllib  # noqa: F401
        except ImportError:
            with pytest.raises(ValueError, match="3.11"):
                parse_spec(text, fmt="toml")
        else:
            assert parse_spec(text, fmt="toml").name == "t"


# ---------------------------------------------------------------------------
# Shaped arrivals
# ---------------------------------------------------------------------------

class TestRateShaping:
    def test_flash_crowd_multiplier_window(self):
        shape = ArrivalSpec(shape="flash_crowd", t_start=10.0, t_end=20.0,
                            multiplier=6.0)
        assert rate_multiplier(shape, 9.9) == 1.0
        assert rate_multiplier(shape, 10.0) == 6.0
        assert rate_multiplier(shape, 19.99) == 6.0
        assert rate_multiplier(shape, 20.0) == 1.0
        assert peak_multiplier(shape) == 6.0

    def test_diurnal_stays_inside_envelope(self):
        shape = ArrivalSpec(shape="diurnal", period=100.0, amplitude=0.8)
        peak = peak_multiplier(shape)
        values = [rate_multiplier(shape, t / 10.0) for t in range(3000)]
        assert all(0.0 < v <= peak + 1e-12 for v in values)
        assert max(values) == pytest.approx(1.8, abs=1e-3)
        assert min(values) == pytest.approx(0.2, abs=1e-3)

    def test_constant_shape_is_flat(self):
        shape = ArrivalSpec(shape="constant")
        assert rate_multiplier(shape, 123.4) == 1.0
        assert peak_multiplier(shape) == 1.0

    def test_thinning_concentrates_arrivals_in_burst(self):
        """Mean gap during the flash window ~ multiplier x shorter."""
        shape = ArrivalSpec(shape="flash_crowd", t_start=0.0, t_end=1e9,
                            multiplier=5.0)
        cls = make_workload_cls(shape)
        wl = object.__new__(cls)
        wl.config = type("C", (), {"rate": 1.0})()
        wl.rng = np.random.default_rng(3)
        in_burst = [wl._next_gap(0.0) for _ in range(2000)]

        shape2 = ArrivalSpec(shape="flash_crowd", t_start=1e8, t_end=1e9,
                             multiplier=5.0)
        wl2 = object.__new__(make_workload_cls(shape2))
        wl2.config = wl.config
        wl2.rng = np.random.default_rng(3)
        outside = [wl2._next_gap(0.0) for _ in range(2000)]

        mean_in = sum(in_burst) / len(in_burst)
        mean_out = sum(outside) / len(outside)
        assert mean_in == pytest.approx(0.2, rel=0.1)
        assert mean_out == pytest.approx(1.0, rel=0.1)

    def test_make_workload_cls_binds_shape(self):
        shape = ArrivalSpec(shape="diurnal")
        cls = make_workload_cls(shape)
        assert cls.shape is shape
        assert "diurnal" in cls.__name__


# ---------------------------------------------------------------------------
# Heavy-tailed costs
# ---------------------------------------------------------------------------

class TestHeavyTailCosts:
    def test_pareto_multiplier_mean_near_one(self):
        from repro.workloads.population import (
            PopulationConfig, _duration_multiplier,
        )

        cfg = PopulationConfig(duration_dist="pareto",
                               duration_pareto_alpha=2.5,
                               duration_cap=100.0)
        rng = np.random.default_rng(11)
        draws = [_duration_multiplier(cfg, rng) for _ in range(20000)]
        assert sum(draws) / len(draws) == pytest.approx(1.0, abs=0.05)
        assert max(draws) <= 100.0

    def test_cap_is_enforced(self):
        from repro.workloads.population import (
            PopulationConfig, _duration_multiplier,
        )

        cfg = PopulationConfig(duration_dist="lognormal",
                               duration_sigma=2.0, duration_cap=3.0)
        rng = np.random.default_rng(1)
        assert all(
            _duration_multiplier(cfg, rng) <= 3.0 for _ in range(5000)
        )

    def test_fixed_draws_nothing_extra(self):
        """The default path consumes the same RNG sequence as ever."""
        from repro.workloads.catalog import MediaCatalog
        from repro.workloads.population import (
            PopulationConfig, make_objects,
        )

        catalog = MediaCatalog()
        fixed = make_objects(
            catalog, PopulationConfig(n_objects=8),
            np.random.default_rng(5),
        )
        rng = np.random.default_rng(5)
        heavy = make_objects(
            catalog,
            PopulationConfig(n_objects=8, duration_dist="pareto"),
            rng,
        )
        # Same formats chosen when dists agree on the draw budget...
        assert [o.duration_s for o in fixed] == [
            PopulationConfig().object_duration
        ] * 8
        # ...heavy-tailed objects spread around the canonical duration.
        assert len({round(o.duration_s, 9) for o in heavy}) > 1

    def test_population_validation(self):
        from repro.workloads.population import PopulationConfig

        with pytest.raises(ValueError):
            PopulationConfig(duration_dist="weibull")
        with pytest.raises(ValueError):
            PopulationConfig(duration_dist="pareto",
                             duration_pareto_alpha=1.0)
        with pytest.raises(ValueError):
            PopulationConfig(duration_cap=0.0)


# ---------------------------------------------------------------------------
# Fault scripts
# ---------------------------------------------------------------------------

def build_small(seed=7, n_peers=12, rate=0.8):
    cfg = config_from_dict({
        "seed": seed,
        "population": {"n_peers": n_peers, "n_objects": 6},
        "workload": {"rate": rate},
    })
    return build_scenario(cfg)


class TestFaultScript:
    def test_fail_peers_kills_exact_count(self):
        scenario = build_small()
        script = FaultScript(
            scenario.overlay, scenario.network,
            [FaultSpec(at=2.0, kind="fail_peers", count=3)],
            rng=scenario.streams.get("faults"),
        )
        alive_before = sum(
            1 for n in scenario.overlay.peers.values() if n.alive
        )
        scenario.env.run(until=5.0)
        alive_after = sum(
            1 for n in scenario.overlay.peers.values() if n.alive
        )
        assert alive_before - alive_after >= 3
        assert script.n_failed == 3
        assert script.counters()["peers_failed"] == 3
        assert [kind for _, kind, _ in script.log] == ["fail_peers"]

    def test_fail_domain_spares_rm_by_default(self):
        scenario = build_small(n_peers=16)
        script = FaultScript(
            scenario.overlay, scenario.network,
            [FaultSpec(at=2.0, kind="fail_domain", fraction=1.0)],
            rng=scenario.streams.get("faults"),
        )
        rm_ids = {rm.node_id for rm in scenario.overlay.rms()}
        scenario.env.run(until=5.0)
        _, _, detail = script.log[0]
        assert detail["failed"]
        assert not set(detail["failed"]) & rm_ids

    def test_partition_and_heal_round_trip(self):
        scenario = build_small()
        script = FaultScript(
            scenario.overlay, scenario.network,
            [
                FaultSpec(at=2.0, kind="partition", split=0.5),
                FaultSpec(at=8.0, kind="heal"),
            ],
            rng=scenario.streams.get("faults"),
        )
        scenario.env.run(until=5.0)
        assert scenario.network._partition is not None
        scenario.env.run(until=12.0)
        assert scenario.network._partition is None
        assert script.n_partitions == 1 and script.n_heals == 1
        assert scenario.network.stats.partition_drops > 0

    def test_events_replay_in_time_order(self):
        scenario = build_small()
        script = FaultScript(
            scenario.overlay, scenario.network,
            [
                FaultSpec(at=6.0, kind="heal"),
                FaultSpec(at=3.0, kind="partition", split=0.4),
            ],
            rng=scenario.streams.get("faults"),
        )
        scenario.env.run(until=10.0)
        times = [t for t, _, _ in script.log]
        assert times == sorted(times)
        assert [k for _, k, _ in script.log] == ["partition", "heal"]


# ---------------------------------------------------------------------------
# Adversaries
# ---------------------------------------------------------------------------

def _report(peer_id="p1", power=10.0, u=0.9, t=0.0):
    from repro.monitoring.profiler import LoadReport

    return LoadReport(
        peer_id=peer_id, time=t, power=power, utilization=u,
        load=power * u, bw_used=0.0, queue_work=5.0, queue_length=3,
    )


class _FakePeer:
    def __init__(self):
        self.node_id = "p1"
        self.processor = type("P", (), {"power": 40.0})()
        self.config = type("C", (), {"power": 40.0})()
        self.sent = []
        self.profiler = type(
            "Pr", (), {"report_fn": self.sent.append}
        )()


class TestAdversary:
    def test_choose_liars_is_seed_deterministic(self):
        ids = [f"p{i}" for i in range(20)]
        a = choose_liars(ids, 0.25, RandomStreams(9).get("adversary"))
        b = choose_liars(ids, 0.25, RandomStreams(9).get("adversary"))
        assert a == b and len(a) == 5
        assert set(a) <= set(ids)

    def test_choose_liars_at_least_one(self):
        assert len(choose_liars(["a", "b"], 0.01,
                                np.random.default_rng(0))) == 1

    def test_constant_liar_claims_idle(self):
        peer = _FakePeer()
        liar = MisbehavingPeer(
            peer, AdversarySpec(mode="constant", claimed_utilization=0.0),
            true_power=10.0,
        )
        # Join-claim inflation undone: the peer executes at true power.
        assert peer.processor.power == 10.0 and peer.config.power == 10.0
        peer.profiler.report_fn(_report())
        assert len(peer.sent) == 1
        rpt = peer.sent[0]
        assert rpt.utilization == 0.0 and rpt.load == 0.0
        assert rpt.queue_work == 0.0 and rpt.queue_length == 0
        assert liar.n_lies == liar.n_reports == 1

    def test_inflate_liar_overstates_power(self):
        peer = _FakePeer()
        MisbehavingPeer(
            peer, AdversarySpec(mode="inflate", inflate_factor=4.0),
            true_power=10.0,
        )
        peer.profiler.report_fn(_report(power=10.0, u=0.8))
        rpt = peer.sent[0]
        assert rpt.power == 40.0
        assert rpt.utilization == pytest.approx(0.2)
        assert rpt.load == pytest.approx(2.0)

    def test_intermittent_liar_follows_duty_cycle(self):
        peer = _FakePeer()
        liar = MisbehavingPeer(
            peer,
            AdversarySpec(mode="intermittent", period=10.0, duty=0.5,
                          claimed_utilization=0.0),
            true_power=10.0,
        )
        peer.profiler.report_fn(_report(u=0.9, t=2.0))   # first half: lies
        peer.profiler.report_fn(_report(u=0.9, t=7.0))   # second half: truth
        assert peer.sent[0].utilization == 0.0
        assert peer.sent[1].utilization == 0.9
        assert liar.n_reports == 2 and liar.n_lies == 1

    def test_detach_restores_report_fn(self):
        peer = _FakePeer()
        original = peer.profiler.report_fn
        liar = MisbehavingPeer(
            peer, AdversarySpec(mode="constant", claimed_utilization=0.0),
            true_power=10.0,
        )
        assert peer.profiler.report_fn is not original
        liar.detach()
        assert peer.profiler.report_fn is original
        # Reports now flow through unmolested.
        peer.profiler.report_fn(_report(u=0.9))
        assert peer.sent[0].utilization == 0.9
        assert liar.n_lies == 0

    def test_detach_is_idempotent_and_wrap_safe(self):
        peer = _FakePeer()
        original = peer.profiler.report_fn
        liar = MisbehavingPeer(
            peer, AdversarySpec(mode="constant", claimed_utilization=0.0),
            true_power=10.0,
        )
        liar.detach()
        liar.detach()  # second call is a no-op
        assert peer.profiler.report_fn is original
        # If something else re-wrapped the hook, detach must not clobber.
        sentinel = peer.sent.append
        liar2 = MisbehavingPeer(
            peer, AdversarySpec(mode="constant", claimed_utilization=0.0),
            true_power=10.0,
        )
        peer.profiler.report_fn = sentinel
        liar2.detach()
        assert peer.profiler.report_fn is sentinel

    def test_builder_detaches_liars_after_run(self, tmp_path):
        spec = ScenarioSpec.from_dict(small_doc(
            adversaries={"fraction": 0.25, "mode": "constant",
                         "claimed_utilization": 0.0},
        ))
        stressed = build_stressed_scenario(spec, out_dir=str(tmp_path))
        stressed.run()
        assert stressed.liars
        for liar in stressed.liars:
            assert liar.peer.profiler.report_fn is liar._forward


# ---------------------------------------------------------------------------
# Builder + end-to-end runs
# ---------------------------------------------------------------------------

FULL_DOC = {
    "name": "kitchen_sink",
    "duration": 25.0,
    "drain": 10.0,
    "base": {
        "seed": 7,
        "population": {"n_peers": 16, "n_objects": 8},
        "workload": {"rate": 1.0},
    },
    "arrivals": {"shape": "flash_crowd", "t_start": 8.0, "t_end": 16.0,
                 "multiplier": 5.0},
    "cost": {"dist": "pareto", "alpha": 1.6, "cap": 8.0},
    "faults": [
        {"at": 10.0, "kind": "partition", "split": 0.5},
        {"at": 18.0, "kind": "heal"},
    ],
    "adversaries": {"fraction": 0.25, "mode": "constant",
                    "claim_factor": 2.0},
    "health": {"period": 1.0, "flight_recorder": False},
}


class TestBuilder:
    def test_metrics_document_schema(self, tmp_path):
        spec = ScenarioSpec.from_dict(FULL_DOC)
        doc = run_spec(spec, out_dir=str(tmp_path))
        assert doc["schema_version"] == METRICS_SCHEMA_VERSION
        assert doc["scenario"] == "kitchen_sink"
        assert doc["seed"] == 7
        assert doc["events"] > 0 and doc["messages"] > 0
        assert doc["partition_drops"] <= doc["dropped"]
        assert doc["faults"]["partitions"] == 1
        assert doc["faults"]["heals"] == 1
        assert doc["adversary"]["liars"]
        assert doc["adversary"]["lies"] > 0
        assert doc["health"]  # sampled series made it into the doc
        assert isinstance(doc["summary"], dict)
        assert "tasks" in doc["summary"] or doc["summary"]

    def test_builder_installs_ambient_streams(self):
        spec = ScenarioSpec.from_dict(small_doc())
        stressed = build_stressed_scenario(spec)
        assert sim_rng._ambient is stressed.scenario.streams

    def test_spec_reusable_across_builds(self, tmp_path):
        """One loaded spec can be built repeatedly (bench repeat)."""
        spec = ScenarioSpec.from_dict(FULL_DOC)
        base_duration = spec.base.population.object_duration
        run_spec(spec, out_dir=str(tmp_path))
        assert spec.base.population.object_duration == base_duration
        assert spec.base.population.duration_dist == "fixed"
        run_spec(spec, out_dir=str(tmp_path))

    def test_liars_attract_work_and_degrade_service(self, tmp_path):
        """The shipped liar_peers/liar_control pair shows degradation."""
        root = os.path.dirname(os.path.dirname(repro.__file__))
        repo = os.path.dirname(root)
        pair = {}
        for name in ("liar_control", "liar_peers"):
            spec = load_spec(os.path.join(
                repo, "benchmarks", "scenarios", f"{name}.json"
            ))
            spec.duration = 45.0
            spec.drain = 15.0
            pair[name] = run_spec(spec, out_dir=str(tmp_path))
        control = pair["liar_control"]["summary"]
        liars = pair["liar_peers"]["summary"]
        assert pair["liar_peers"]["adversary"]["lies"] > 0
        # Misreporting must measurably hurt the RM's decisions.
        assert liars["miss_rate"] > control["miss_rate"]
        assert pair["liar_peers"]["value_goodput"] < (
            pair["liar_control"]["value_goodput"]
        )


class TestDeterminism:
    def test_same_spec_same_trajectory_across_processes(self, tmp_path):
        """Bit-for-bit reproducibility: fresh interpreters, same counts."""
        spec_path = tmp_path / "det.json"
        doc = dict(FULL_DOC)
        doc["duration"] = 15.0
        doc["drain"] = 8.0
        spec_path.write_text(json.dumps(doc))
        script = (
            "import json, sys\n"
            "from repro.scenarios import load_spec, run_spec\n"
            "d = run_spec(load_spec(sys.argv[1]), out_dir=sys.argv[2])\n"
            "print(json.dumps({k: d[k] for k in ("
            "'events', 'messages', 'dropped', 'partition_drops')}"
            " | {'lies': d['adversary'].get('lies', 0)}))\n"
        )
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        outs = []
        for run in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script, str(spec_path),
                 str(tmp_path)],
                capture_output=True, text=True, env=env, check=True,
            )
            outs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        assert outs[0] == outs[1]
        assert outs[0]["events"] > 0 and outs[0]["lies"] > 0

    def test_ambient_fallback_derives_from_scenario_seed(self):
        set_ambient_streams(RandomStreams(5))
        a = fallback_rng("latency").random(4)
        set_ambient_streams(RandomStreams(5))
        b = fallback_rng("latency").random(4)
        assert np.array_equal(a, b)
        # Distinct from the explicitly plumbed stream of the same name.
        c = RandomStreams(5).get("latency").random(4)
        assert not np.array_equal(a, c)

    def test_no_ambient_falls_back_to_entropy(self):
        set_ambient_streams(None)
        a = fallback_rng("latency").random(4)
        b = fallback_rng("latency").random(4)
        assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Health coupling (flash-crowd miss spike, flight recorder trigger)
# ---------------------------------------------------------------------------

class TestHealthCoupling:
    def test_flash_crowd_spikes_per_qos_miss_series(self, tmp_path):
        doc = {
            "name": "burst",
            "duration": 40.0,
            "drain": 15.0,
            "base": {
                "seed": 7,
                "population": {"n_peers": 16, "n_objects": 8},
                "workload": {"rate": 1.0, "deadline_slack": 2.0},
            },
            "arrivals": {"shape": "flash_crowd", "t_start": 15.0,
                         "t_end": 30.0, "multiplier": 8.0},
            "health": {"period": 1.0, "flight_recorder": False},
        }
        spec = ScenarioSpec.from_dict(doc)
        stressed = build_stressed_scenario(spec, out_dir=str(tmp_path))
        stressed.run()
        rings = [
            r for r in stressed.obs.sampler.all_series()
            if r.name == "repro_sched_miss_ratio"
        ]
        assert rings, "per-QoS miss series were not sampled"
        assert all("qos" in r.labels for r in rings)
        spiked = False
        for ring in rings:
            times, values = ring.times(), ring.values()
            before = [v for t, v in zip(times, values) if t < 15.0]
            after = [v for t, v in zip(times, values) if t >= 15.0]
            if after and max(after) > (max(before) if before else 0.0):
                spiked = True
        assert spiked, "no QoS class's miss ratio rose under the burst"

    def test_deadline_miss_burst_fires_once_per_cooldown(self, tmp_path):
        from repro import telemetry
        from repro.telemetry.flight_recorder import FlightRecorder
        from repro.telemetry.tracer import TraceEvent

        tel = telemetry.Telemetry.sim(Environment())
        recorder = FlightRecorder(
            tel, out_dir=str(tmp_path), miss_burst=3, miss_window=5.0,
            cooldown=30.0,
        )

        def miss(t):
            recorder._on_record(
                "event", TraceEvent(time=t, name="job.missed", node="p0")
            )

        # 4 misses in 1s: the 4th crosses burst=3 -> one dump.
        for t in (0.0, 0.2, 0.4, 0.6):
            miss(t)
        assert len(recorder.dumps) == 1
        # A sustained storm inside the cooldown stays at one dump.
        for t in (1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 29.0):
            miss(t)
        assert len(recorder.dumps) == 1
        # Past the cooldown, a fresh burst fires exactly once more.
        for t in (31.0, 31.2, 31.4, 31.6, 32.0):
            miss(t)
        assert len(recorder.dumps) == 2
        assert recorder.n_triggers == 2
        for path in recorder.dumps:
            assert os.path.exists(path)
            meta = json.loads(open(path).readline())
            assert meta["reason"] == "deadline_miss_burst"
        recorder.close()

    def test_scenario_flight_dump_lands_in_out_dir(self, tmp_path):
        doc = {
            "name": "storm",
            "duration": 30.0,
            "drain": 10.0,
            "base": {
                "seed": 11,
                "population": {"n_peers": 12, "n_objects": 6},
                "workload": {"rate": 3.0, "deadline_slack": 1.5},
            },
            "health": {"period": 1.0, "flight_recorder": True,
                       "miss_burst": 2, "miss_window": 30.0,
                       "cooldown": 1000.0},
        }
        spec = ScenarioSpec.from_dict(doc)
        stressed = build_stressed_scenario(spec, out_dir=str(tmp_path))
        stressed.run()
        metrics = stressed.metrics_document()
        assert metrics["flight_dumps"] == stressed.obs.recorder.dumps
        for path in stressed.obs.recorder.dumps:
            assert os.path.dirname(path) == str(tmp_path)
            assert os.path.exists(path)


# ---------------------------------------------------------------------------
# Suite + CLI surfaces
# ---------------------------------------------------------------------------

class TestSuite:
    def write_config(self, tmp_path, name="mini", **extra):
        doc = small_doc(**extra)
        doc["name"] = name
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return path

    def test_discover_sorts_and_validates(self, tmp_path):
        self.write_config(tmp_path, "bbb")
        self.write_config(tmp_path, "aaa")
        (tmp_path / "notes.txt").write_text("ignored")
        paths = scenario_suite.discover(str(tmp_path))
        assert [os.path.basename(p) for p in paths] == [
            "aaa.json", "bbb.json",
        ]

    def test_discover_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            scenario_suite.discover(str(tmp_path / "nope"))
        with pytest.raises(FileNotFoundError):
            scenario_suite.discover(str(tmp_path))  # empty

    def test_run_suite_produces_gate_compatible_records(self, tmp_path):
        # "Compatible" now means: the records fit the bench report schema.
        from repro.benchmarking import harness

        self.write_config(tmp_path)
        records = scenario_suite.run_suite(
            str(tmp_path), quick=True, out_dir=str(tmp_path)
        )
        assert len(records) == 1
        rec = records[0]
        assert rec.events > 0 and rec.events_per_sec > 0
        assert rec.metrics["schema_version"] == METRICS_SCHEMA_VERSION
        doc = harness.report_document([rec], mode="quick")
        assert doc["schema_version"] == harness.SCHEMA_VERSION
        assert doc["results"][0]["name"] == "mini"
        assert doc["results"][0]["events_per_sec"] == rec.events_per_sec

    def test_run_suite_quick_caps_duration(self, tmp_path):
        self.write_config(tmp_path, duration=500.0, drain=100.0)
        records = scenario_suite.run_suite(
            str(tmp_path), quick=True, out_dir=str(tmp_path)
        )
        assert records[0].metrics["duration"] == scenario_suite.QUICK_DURATION

    def test_run_suite_unknown_only_raises(self, tmp_path):
        self.write_config(tmp_path)
        with pytest.raises(KeyError, match="unknown scenario"):
            scenario_suite.run_suite(str(tmp_path), only=["ghost"])

    def test_shipped_suite_is_discoverable_and_valid(self):
        root = os.path.dirname(os.path.dirname(repro.__file__))
        repo = os.path.dirname(root)
        paths = scenario_suite.discover(
            os.path.join(repo, "benchmarks", "scenarios")
        )
        assert len(paths) >= 6
        names = set()
        for path in paths:
            spec = load_spec(path)
            assert spec.name == os.path.splitext(
                os.path.basename(path)
            )[0]
            names.add(spec.name)
        assert {"flash_crowd", "liar_peers", "liar_control",
                "partition_heal", "domain_failure"} <= names


class TestCli:
    def write_config(self, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(small_doc()))
        return path

    def test_repro_run_scenario_writes_metrics(self, tmp_path, capsys):
        from repro.workloads import cli

        spec_path = self.write_config(tmp_path)
        out = tmp_path / "metrics.json"
        rc = cli.main(["--scenario", str(spec_path),
                       "--metrics-out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == METRICS_SCHEMA_VERSION
        assert doc["events"] > 0
        assert "scenario 't'" in capsys.readouterr().out

    def test_repro_run_scenario_seed_override(self, tmp_path, capsys):
        from repro.workloads import cli

        spec_path = self.write_config(tmp_path)
        rc = cli.main(["--scenario", str(spec_path), "--seed", "99"])
        assert rc == 0
        assert "seed=99" in capsys.readouterr().out

    def test_repro_run_rejects_config_plus_scenario(self, tmp_path):
        from repro.workloads import cli

        spec_path = self.write_config(tmp_path)
        with pytest.raises(SystemExit):
            cli.main([str(spec_path), "--scenario", str(spec_path)])

    def test_repro_run_metrics_out_requires_scenario(self, tmp_path):
        from repro.workloads import cli

        with pytest.raises(SystemExit):
            cli.main(["--metrics-out", str(tmp_path / "m.json")])

    def test_repro_run_scenario_honours_trace(self, tmp_path):
        from repro.telemetry.export import read_jsonl
        from repro.workloads import cli

        trace = tmp_path / "s.jsonl"
        rc = cli.main(["--scenario", str(self.write_config(tmp_path)),
                       "--trace", str(trace)])
        assert rc == 0
        data = read_jsonl(str(trace))
        assert data.meta["scenario"] == "t" and data.meta["seed"] == 7
        assert data.spans and not data.series  # the spec has no health

    def test_repro_run_scenario_sample_overrides_health_period(
        self, tmp_path
    ):
        from repro.telemetry.export import read_jsonl
        from repro.workloads import cli

        path = tmp_path / "h.json"
        path.write_text(json.dumps(small_doc(health={"period": 5.0})))
        trace = tmp_path / "s.jsonl"
        rc = cli.main(["--scenario", str(path), "--trace", str(trace),
                       "--sample", "2"])
        assert rc == 0
        series = read_jsonl(str(trace)).series
        assert series
        # 30 s of run sampled every 2 s (the flag), not every 5 (the spec).
        assert max(len(rec["t"]) for rec in series) == 16

    @pytest.mark.parametrize("flag", [
        ["--duration", "5"], ["--drain", "5"], ["--record-trace", "r.csv"],
    ])
    def test_repro_run_scenario_rejects_spec_owned_flags(
        self, tmp_path, flag, capsys
    ):
        from repro.workloads import cli

        with pytest.raises(SystemExit) as exc:
            cli.main(["--scenario", str(self.write_config(tmp_path))] + flag)
        assert exc.value.code == 2
        assert f"{flag[0]} cannot be combined" in capsys.readouterr().err

    def test_repro_bench_adversarial_list(self, tmp_path, capsys):
        from repro.benchmarking import cli

        self.write_config(tmp_path)
        rc = cli.main(["--suite", "adversarial",
                       "--scenario-dir", str(tmp_path), "--list"])
        assert rc == 0
        assert "mini.json" in capsys.readouterr().out

    def test_repro_bench_adversarial_runs_and_reports(self, tmp_path,
                                                      capsys):
        from repro.benchmarking import cli

        self.write_config(tmp_path)
        out = tmp_path / "report.json"
        rc = cli.main([
            "--suite", "adversarial", "--scenario-dir", str(tmp_path),
            "--quick", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert "bench_id" not in report
        assert report["results"][0]["name"] == "mini"
        assert report["results"][0]["metrics"]["schema_version"] == (
            METRICS_SCHEMA_VERSION
        )

    def test_repro_bench_adversarial_missing_dir_exits_2(self, tmp_path):
        from repro.benchmarking import cli

        rc = cli.main(["--suite", "adversarial",
                       "--scenario-dir", str(tmp_path / "none")])
        assert rc == 2
