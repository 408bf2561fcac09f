"""Robustness odds-and-ends and a scale smoke test."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.manager import RMConfig
from repro.net import ConnectionManager, ConstantLatency, NetNode, Network
from repro.sim import Environment
from repro.workloads import (
    PopulationConfig,
    ScenarioConfig,
    WorkloadConfig,
    build_scenario,
)


class TestGossipRobustness:
    def test_gossip_survives_dead_rm(self):
        """Digests sent to a crashed RM are dropped; the survivors keep
        converging among themselves."""
        from repro.overlay import OverlayNetwork, PeerSpec
        from repro.gossip import GossipConfig

        env = Environment()
        net = Network(env, ConstantLatency(0.005), bandwidth=1e7)
        overlay = OverlayNetwork(
            env, net, rm_config=RMConfig(max_peers=2),
            gossip_config=GossipConfig(period=1.0, fanout=2),
            enable_backups=False,
        )
        for i in range(8):  # 4 domains of 2
            overlay.join(PeerSpec(peer_id=f"p{i}", power=10.0,
                                  bandwidth=2e6, uptime=0.9))
        assert overlay.n_domains == 4
        env.run(until=10.0)
        # Kill one RM outright (no backup: the domain goes dark).
        victim = overlay.rms()[0]
        overlay.fail_peer(victim.node_id)
        env.run(until=40.0)  # gossip keeps running; no exceptions
        survivors = [
            d.gossip for d in overlay.domains.values()
            if d.gossip is not None and d.rm.alive
        ]
        assert len(survivors) == 3
        # Survivors still hold each other's summaries.
        for agent in survivors:
            held = set(agent.summaries)
            for other in survivors:
                assert other.rm.node_id in held


class TestConnectionManagerProperties:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=9),  # target node
            min_size=1,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants_under_random_ensure_sequences(self, ops, cap):
        env = Environment()
        net = Network(env, ConstantLatency(0.0001), bandwidth=1e9)
        owner = NetNode(env, net, "owner")
        for i in range(10):
            NetNode(env, net, f"t{i}")
        cm = ConnectionManager(owner, max_connections=cap)

        for target in ops:
            cm.ensure(f"t{target}")
            # Invariants after every operation:
            assert cm.n_open <= cap
            assert f"t{target}" in cm.connections()
            env.run()  # drain handshakes


@pytest.mark.slow
class TestScale:
    def test_256_peers_run_completes_quickly(self):
        import time

        cfg = ScenarioConfig(
            seed=3,
            population=PopulationConfig(
                n_peers=256, n_objects=64, replication=3
            ),
            workload=WorkloadConfig(rate=5.0),
            rm=RMConfig(max_peers=24),
        )
        scenario = build_scenario(cfg)
        assert scenario.overlay.n_domains >= 8
        start = time.time()
        summary = scenario.run(duration=120.0, drain=30.0)
        wall = time.time() - start
        assert wall < 120.0, f"256-peer run too slow: {wall:.1f}s"
        assert summary.n_submitted > 400
        assert summary.goodput > 0.8
        # Control overhead stays decentralized.
        per_peer = summary.messages / 256 / summary.duration
        assert per_peer < 5.0
