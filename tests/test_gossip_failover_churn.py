"""Gossip convergence, RM failover, and churn processes."""

import pytest

from repro.core.manager import RMConfig
from repro.gossip import GossipConfig
from repro.net import ConstantLatency, Network
from repro.overlay import (
    ChurnConfig,
    ChurnProcess,
    FailoverConfig,
    OverlayNetwork,
    PeerSpec,
)
from repro.sim import Environment, RandomStreams


def build_overlay(env, max_peers=3, enable_gossip=True,
                  gossip_config=None, failover_config=None,
                  enable_backups=True):
    net = Network(env, ConstantLatency(0.005), bandwidth=1e7)
    return OverlayNetwork(
        env, net,
        rm_config=RMConfig(max_peers=max_peers),
        gossip_config=gossip_config or GossipConfig(period=1.0, fanout=2),
        failover_config=failover_config or FailoverConfig(
            sync_period=1.0, dead_after_periods=2.0
        ),
        enable_gossip=enable_gossip,
        enable_backups=enable_backups,
        streams=RandomStreams(0),
    )


def spec(pid, **kw):
    defaults = dict(power=10.0, bandwidth=2e6, uptime=0.9)
    defaults.update(kw)
    return PeerSpec(peer_id=pid, **defaults)


class TestGossipConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GossipConfig(period=0)
        with pytest.raises(ValueError):
            GossipConfig(fanout=0)


class TestGossipConvergence:
    def test_summaries_spread_to_all_rms(self):
        env = Environment()
        overlay = build_overlay(env, max_peers=3)
        for i in range(9):  # 3 domains of 3
            overlay.join(spec(f"p{i}"))
        assert overlay.n_domains == 3
        env.run(until=30.0)
        agents = [d.gossip for d in overlay.domains.values()]
        assert all(len(a.summaries) == 3 for a in agents)
        assert all(a.digest() == agents[0].digest() for a in agents[1:])

    def test_remote_summaries_visible_to_rm(self):
        env = Environment()
        overlay = build_overlay(env, max_peers=2)
        for i in range(4):
            overlay.join(spec(f"p{i}"))
        env.run(until=30.0)
        for rm in overlay.rms():
            assert len(rm.info.remote_summaries) == overlay.n_domains - 1

    def test_version_bumps_on_membership_change(self):
        env = Environment()
        overlay = build_overlay(env, max_peers=4)
        overlay.join(spec("p0"))
        env.run(until=5.0)
        agent = next(iter(overlay.domains.values())).gossip
        v_before = agent.summaries["p0"].version
        overlay.join(spec("p1"))
        env.run(until=10.0)
        assert agent.summaries["p0"].version > v_before

    def test_unchanged_contents_do_not_bump_version(self):
        env = Environment()
        overlay = build_overlay(env, max_peers=4)
        overlay.join(spec("p0"))
        env.run(until=3.0)
        agent = next(iter(overlay.domains.values())).gossip
        v = agent.summaries["p0"].version
        env.run(until=20.0)
        assert agent.summaries["p0"].version == v


class TestGossipRosterAndParity:
    def test_digest_placeholder_domain_overwritten_by_summary(self):
        """Regression: an RM first seen in a digest is recorded under the
        "?" placeholder; the real domain id must replace it once that
        RM's summary arrives (redirect targeting reads this roster)."""
        from repro.core import protocol
        from repro.net import Message
        from repro.summaries.domain_summary import DomainSummary

        env = Environment()
        overlay = build_overlay(env, max_peers=4)
        overlay.join(spec("p0"))
        env.run(until=2.0)
        agent = next(iter(overlay.domains.values())).gossip
        digest = Message(
            kind=protocol.GOSSIP_DIGEST, src="rmX", dst="p0",
            payload={"digest": {"rmX": 3}}, size=64.0,
        )
        agent._handle_digest(digest)
        assert agent.rm.known_rms["rmX"] == "?"
        summaries = Message(
            kind=protocol.GOSSIP_SUMMARIES, src="rmX", dst="p0",
            payload={"summaries": [
                DomainSummary(domain_id="d9", rm_id="rmX", version=3)
            ]},
            size=64.0,
        )
        agent._handle_summaries(summaries)
        assert agent.rm.known_rms["rmX"] == "d9"
        assert "rmX" in agent.rm.info.remote_summaries

    def test_received_summary_is_what_was_sent(self):
        """Sim/live parity regression: the simulated fabric hands payload
        objects over by reference, while the UDP runtime serializes every
        hop.  A receiver holds the object it was sent, so the publisher
        never writes a published summary: its load refresh replaces it,
        or current load would time-travel to remote RMs without any
        gossip round."""
        env = Environment()
        overlay = build_overlay(env, max_peers=2)
        for i in range(4):  # 2 domains of 2
            overlay.join(spec(f"p{i}"))
        assert overlay.n_domains == 2
        env.run(until=30.0)
        agents = [d.gossip for d in overlay.domains.values()]
        a, b = agents
        a_id = a.rm.node_id
        held_by_b = b.summaries[a_id]
        before = held_by_b.mean_utilization
        # The publisher's no-version-bump load refresh stays local.
        a.rm.info.mean_utilization = lambda now: 123.0
        refreshed = a.publish()
        assert refreshed.mean_utilization == 123.0
        assert refreshed.version == held_by_b.version
        assert a.summaries[a_id] is refreshed is not held_by_b
        assert held_by_b.mean_utilization == before != 123.0
        # The RM's redirect view is backed by what the receiver holds.
        assert b.rm.info.remote_summaries[a_id] is held_by_b


class TestGossipPayloads:
    """Every field of the two gossip rows is optional and ``summaries``
    is untyped (the live roster pages share the kinds): a schema-valid
    payload the simulated agent does not expect must not raise."""

    def _agent_and_post(self, payload_by_kind):
        from repro.net import Message
        from repro.runtime.codec import _payload_checks

        env = Environment()
        overlay = build_overlay(env, max_peers=4)
        overlay.join(spec("p0"))
        env.run(until=2.0)
        agent = next(iter(overlay.domains.values())).gossip
        for kind, payload in payload_by_kind:
            assert _payload_checks[kind](payload), payload  # decode accepts it
            agent.rm.post(Message(kind=kind, src="rmX", dst=agent.rm.node_id,
                                  payload=payload, msg_id=next(env.ids.msg)))
        env.run(until=3.0)
        return agent

    def test_digest_without_digest_reads_as_empty(self):
        from repro.core import protocol

        agent = self._agent_and_post([(protocol.GOSSIP_DIGEST, {})])
        assert agent.n_foreign == 0

    def test_summaries_without_summaries_reads_as_empty(self):
        from repro.core import protocol

        agent = self._agent_and_post([(protocol.GOSSIP_SUMMARIES, {})])
        assert set(agent.summaries) == {agent.rm.node_id}

    def test_foreign_summaries_items_are_skipped_and_counted(self):
        from repro.core import protocol
        from repro.summaries.domain_summary import DomainSummary

        items = [{"rm_id": "rmX"}, 7, DomainSummary("d9", "rmY", version=1)]
        agent = self._agent_and_post(
            [(protocol.GOSSIP_SUMMARIES, {"summaries": items})])
        assert agent.n_foreign == 2
        assert "rmY" in agent.summaries and "rmX" not in agent.summaries


class TestFailover:
    def build_domain_with_backup(self, env):
        overlay = build_overlay(env, max_peers=8, enable_gossip=False)
        for i in range(4):
            overlay.join(spec(f"p{i}"))
        domain = next(iter(overlay.domains.values()))
        assert domain.backup is not None
        return overlay, domain

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FailoverConfig(sync_period=0)
        with pytest.raises(ValueError):
            FailoverConfig(dead_after_periods=0.5)

    def test_backup_requires_passive(self):
        env = Environment()
        overlay, domain = self.build_domain_with_backup(env)
        from repro.overlay.failover import FailoverAgent

        with pytest.raises(ValueError):
            FailoverAgent(domain.rm, domain.rm)  # active as backup

    def test_no_takeover_while_primary_alive(self):
        env = Environment()
        overlay, domain = self.build_domain_with_backup(env)
        env.run(until=30.0)
        assert not domain.failover.took_over
        assert domain.rm.active

    def test_takeover_after_primary_crash(self):
        env = Environment()
        overlay, domain = self.build_domain_with_backup(env)
        primary, backup = domain.rm, domain.backup

        def killer():
            yield env.timeout(10.0)
            overlay.fail_peer(primary.node_id)

        env.process(killer())
        env.run(until=30.0)
        new_domain = next(iter(overlay.domains.values()))
        assert new_domain.rm is backup
        assert backup.active and backup.rm_id == backup.node_id
        # Members re-pointed to the new RM.
        for pid, node in overlay.peers.items():
            if node.alive and pid != backup.node_id:
                assert node.rm_id == backup.node_id
        # The dead primary was pruned from the restored roster.
        assert not backup.info.has_peer(primary.node_id)

    def test_takeover_restores_replicated_roster(self):
        env = Environment()
        overlay, domain = self.build_domain_with_backup(env)
        primary, backup = domain.rm, domain.backup
        members_before = set(primary.info.peers)

        def killer():
            yield env.timeout(10.0)
            overlay.fail_peer(primary.node_id)

        env.process(killer())
        env.run(until=30.0)
        expected = members_before - {primary.node_id}
        assert set(backup.info.peers) == expected


class TestChurn:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChurnConfig(mean_lifetime=0)
        with pytest.raises(ValueError):
            ChurnConfig(graceful_prob=1.5)

    def test_departures_and_rejoins(self):
        env = Environment()
        overlay = build_overlay(env, max_peers=20, enable_gossip=False)
        for i in range(10):
            overlay.join(spec(f"p{i}"))
        churn = ChurnProcess(
            overlay,
            ChurnConfig(mean_lifetime=5.0, mean_offtime=1.0,
                        graceful_prob=0.5),
            rng=__import__("numpy").random.default_rng(1),
        )
        churn.watch_all()
        env.run(until=60.0)
        assert churn.departures > 0
        assert churn.rejoins > 0
        # Population stays roughly stationary.
        assert overlay.n_peers >= 5

    def test_rms_exempt(self):
        env = Environment()
        overlay = build_overlay(env, max_peers=20, enable_gossip=False)
        for i in range(6):
            overlay.join(spec(f"p{i}"))
        domain = next(iter(overlay.domains.values()))
        churn = ChurnProcess(
            overlay,
            ChurnConfig(mean_lifetime=2.0, mean_offtime=0.5),
            rng=__import__("numpy").random.default_rng(2),
        )
        churn.watch_all()
        env.run(until=60.0)
        # Primary and designated backup never churned away.
        assert domain.rm.alive
        assert domain.backup is not None and domain.backup.alive

    def test_no_replacement_when_disabled(self):
        env = Environment()
        overlay = build_overlay(env, max_peers=20, enable_gossip=False)
        for i in range(6):
            overlay.join(spec(f"p{i}"))
        churn = ChurnProcess(
            overlay,
            ChurnConfig(mean_lifetime=3.0, replace=False),
            rng=__import__("numpy").random.default_rng(3),
        )
        churn.watch_all()
        env.run(until=100.0)
        assert churn.rejoins == 0
        assert overlay.n_peers < 6


class TestTrajectoryDeterminism:
    """A run must be a pure function of (config, seed) — in particular
    independent of PYTHONHASHSEED.  The repair fan-out used to iterate a
    ``set`` of peer ids, so the COMPOSE send order (and from there the
    whole trajectory) varied run to run under churn.  The backup RM's
    takeover replayed its COMPOSEs the same way; a lossy network makes
    it take over (every later latency draw moved)."""

    _SCRIPT = """
from repro.core.manager import RMConfig
from repro.overlay import ChurnConfig
from repro.workloads import (
    PopulationConfig, ScenarioConfig, WorkloadConfig, build_scenario,
)

cfg = ScenarioConfig(
    seed=11,
    population=PopulationConfig(n_peers=60, n_objects=30, replication=3),
    workload=WorkloadConfig(rate=1.5),
    rm=RMConfig(max_peers=16),
    churn=ChurnConfig(mean_lifetime=8.0, mean_offtime=2.0),
)
scenario = build_scenario(cfg)
scenario.env.run(until=scenario.env.now + 40.0)
print(scenario.env.n_processed, scenario.network.stats.sent,
      scenario.churn.departures, scenario.churn.rejoins)
"""

    _LOSS_SCRIPT = """
from repro.workloads import (
    PopulationConfig, ScenarioConfig, WorkloadConfig, build_scenario,
)

scenario = build_scenario(ScenarioConfig(
    seed=1,
    population=PopulationConfig(n_peers=14, n_objects=6, replication=2),
    workload=WorkloadConfig(rate=0.4),
    loss_rate=0.2,
))
agents = [d.failover for d in scenario.overlay.domains.values()]
summary = scenario.run(duration=400.0, drain=60.0)
print(scenario.env.n_processed, scenario.network.stats.sent,
      sum(a is not None and a.took_over for a in agents), summary.n_failed)
"""

    def test_trajectory_independent_of_hash_seed(self):
        import os
        import subprocess
        import sys

        for script in (self._SCRIPT, self._LOSS_SCRIPT):
            outputs = []
            for hash_seed in ("101", "202"):
                env = dict(os.environ)
                env["PYTHONHASHSEED"] = hash_seed
                env.setdefault("PYTHONPATH", "src")
                proc = subprocess.run(
                    [sys.executable, "-c", script],
                    capture_output=True, text=True, env=env, timeout=120,
                )
                assert proc.returncode == 0, proc.stderr
                outputs.append(proc.stdout.strip())
            exercised = outputs[0].split()[2]
            assert int(exercised) > 0, (
                "scenario never exercised churn/repair or a takeover"
            )
            assert outputs[0] == outputs[1], (
                f"trajectory depends on PYTHONHASHSEED: "
                f"{outputs[0]!r} != {outputs[1]!r}"
            )
