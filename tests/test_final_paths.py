"""Final coverage batch: tracing, CLI export, churn mutator, misc."""

import json

import numpy as np

from repro import telemetry
from repro.core import protocol
from repro.experiments.cli import main as cli_main
from repro.workloads import (
    PopulationConfig,
    ScenarioConfig,
    WorkloadConfig,
    build_scenario,
)


class TestTracingScenario:
    def test_tracer_records_when_enabled(self):
        cfg = ScenarioConfig(
            seed=6,
            population=PopulationConfig(n_peers=6, n_objects=3),
            workload=WorkloadConfig(rate=0.5),
        )
        scenario = build_scenario(cfg)
        with telemetry.session(telemetry.Telemetry.sim(scenario.env)) as tel:
            scenario.run(duration=40.0, drain=20.0)
        assert tel.tracer.spans_of_kind(telemetry.MESSAGE)
        assert tel.tracer.spans_of_kind(telemetry.SERVICE)
        assert "task.admitted" in {e.name for e in tel.tracer.events}

    def test_no_tracer_by_default(self):
        cfg = ScenarioConfig(
            seed=6,
            population=PopulationConfig(n_peers=4, n_objects=2),
        )
        scenario = build_scenario(cfg)
        assert telemetry.current() is telemetry.NOOP
        assert not hasattr(scenario, "tracer")


    def test_telemetry_is_the_only_trace_channel(self):
        """No second observer threaded through the protocol constructors."""
        import inspect
        import pathlib

        import repro
        from repro.core import Peer, ResourceManager
        from repro.net import Network
        from repro.overlay import OverlayNetwork
        from repro.scheduling.processor import Processor

        for cls in (Network, OverlayNetwork, Peer, ResourceManager, Processor):
            assert "tracer" not in inspect.signature(cls).parameters, cls
        src = pathlib.Path(repro.__file__).parent
        assert not (src / "sim" / "trace.py").exists()
        offenders = [
            str(path) for path in src.rglob("*.py")
            if "sim.trace" in path.read_text(encoding="utf-8")
        ]
        assert offenders == []


class TestCliExport:
    def test_json_and_csv_written(self, tmp_path, capsys):
        jdir = tmp_path / "json"
        cdir = tmp_path / "csv"
        assert cli_main([
            "f1", "--quick", "--json", str(jdir), "--csv", str(cdir),
        ]) == 0
        doc = json.loads((jdir / "f1.json").read_text())
        assert doc["experiment_id"] == "f1"
        assert len(doc["rows"]) == 3
        csv_text = (cdir / "f1.csv").read_text()
        assert csv_text.splitlines()[0].startswith("path,")


class TestChurnMutator:
    def test_replacement_spec_rewritten(self):
        from repro.core.manager import RMConfig
        from repro.net import ConstantLatency, Network
        from repro.overlay import (
            ChurnConfig,
            ChurnProcess,
            OverlayNetwork,
            PeerSpec,
        )
        from repro.sim import Environment

        env = Environment()
        net = Network(env, ConstantLatency(0.005))
        overlay = OverlayNetwork(env, net,
                                 rm_config=RMConfig(max_peers=20),
                                 enable_gossip=False)
        for i in range(6):
            overlay.join(PeerSpec(peer_id=f"p{i}", power=10.0,
                                  bandwidth=2e6, uptime=0.9))

        def upgrade(spec, old_id):
            spec.power = 99.0  # replacements arrive beefier
            return spec

        churn = ChurnProcess(
            overlay,
            ChurnConfig(mean_lifetime=3.0, mean_offtime=0.5),
            rng=np.random.default_rng(4),
            spec_mutator=upgrade,
        )
        churn.watch_all()
        env.run(until=60.0)
        assert churn.rejoins > 0
        upgraded = [
            s for pid, s in overlay.specs.items() if ".r" in pid
        ]
        assert upgraded and all(s.power == 99.0 for s in upgraded)


class TestSmallBits:
    def test_protocol_size_default(self):
        assert protocol.size_of("unknown-kind") == 256.0
        assert protocol.size_of(protocol.RM_SYNC) == 4096.0

    def test_environment_repr(self):
        from repro.sim import Environment

        env = Environment()
        env.timeout(1.0)
        text = repr(env)
        assert "now=0.0" in text and "queued=1" in text

    def test_network_hottest_destination(self):
        from repro.net import ConstantLatency, NetNode, Network
        from repro.sim import Environment

        env = Environment()
        net = Network(env, ConstantLatency(0.001))
        a = NetNode(env, net, "a")
        b = NetNode(env, net, "b")
        assert net.stats.hottest_destination() == ("", 0)
        a.send("x", "b")
        a.send("x", "b")
        b.send("x", "a")
        node, count = net.stats.hottest_destination()
        assert node == "b" and count == 2

    def test_scenario_summary_idempotent(self):
        cfg = ScenarioConfig(
            seed=6,
            population=PopulationConfig(n_peers=4, n_objects=2),
            workload=WorkloadConfig(rate=0.5),
        )
        scenario = build_scenario(cfg)
        scenario.run(duration=30.0, drain=10.0)
        s1 = scenario.summary()
        s2 = scenario.summary()
        assert s1.n_met == s2.n_met and s1.messages == s2.messages
