"""Network fabric: delivery, ordering, failures, stats."""

import pytest

from repro.common.errors import UnknownPeer
from repro.net import ConstantLatency, Message, NetNode, Network, UniformLatency
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def make_pair(env, latency=0.01, bandwidth=1e9):
    net = Network(env, ConstantLatency(latency), bandwidth=bandwidth)
    return net, NetNode(env, net, "a"), NetNode(env, net, "b")


class TestRegistration:
    def test_duplicate_id_rejected(self, env):
        net, a, _b = make_pair(env)
        with pytest.raises(ValueError):
            NetNode(env, net, "a")

    def test_unknown_lookup_raises(self, env):
        net, *_ = make_pair(env)
        with pytest.raises(UnknownPeer):
            net.node("ghost")

    def test_node_ids(self, env):
        net, *_ = make_pair(env)
        assert set(net.node_ids) == {"a", "b"}

    def test_unregister(self, env):
        net, a, b = make_pair(env)
        net.unregister("b")
        assert not net.knows("b")


class TestDelivery:
    def test_latency_plus_transmission(self, env):
        net, a, b = make_pair(env, latency=0.5, bandwidth=1000.0)
        got = []
        b.on("m", lambda msg: got.append(env.now))
        a.send("m", "b", size=500.0)  # 0.5s transmission
        env.run()
        assert got and abs(got[0] - 1.0) < 1e-9

    def test_fifo_per_link(self, env):
        """A later small message never overtakes an earlier big one."""
        net = Network(env, ConstantLatency(0.0), bandwidth=1000.0)
        a = NetNode(env, net, "a")
        b = NetNode(env, net, "b")
        got = []
        b.on("m", lambda msg: got.append(msg.payload["i"]))
        a.send("m", "b", {"i": 1}, size=10_000.0)  # 10s
        a.send("m", "b", {"i": 2}, size=1.0)       # tiny, would arrive first
        env.run()
        assert got == [1, 2]

    def test_message_size_validation(self):
        with pytest.raises(ValueError):
            Message(kind="x", src="a", dst="b", size=0)

    def test_stats_accounting(self, env):
        net, a, b = make_pair(env)
        b.on("m", lambda msg: None)
        a.send("m", "b", size=100.0)
        a.send("m", "b", size=200.0)
        env.run()
        assert net.stats.sent == 2
        assert net.stats.delivered == 2
        assert net.stats.bytes_sent == 300.0
        assert net.stats.by_kind["m"] == 2

    def test_unknown_destination_dropped(self, env):
        net, a, _b = make_pair(env)
        a.send("m", "ghost")
        env.run()
        assert net.stats.dropped == 1

    def test_bandwidth_validation(self, env):
        with pytest.raises(ValueError):
            Network(env, bandwidth=0)


class TestFailureInjection:
    def test_down_node_drops_inbound(self, env):
        net, a, b = make_pair(env)
        got = []
        b.on("m", lambda msg: got.append(1))
        net.set_down("b")
        a.send("m", "b")
        env.run()
        assert not got and net.stats.dropped == 1

    def test_down_node_drops_outbound(self, env):
        net, a, b = make_pair(env)
        got = []
        b.on("m", lambda msg: got.append(1))
        net.set_down("a")
        a.send("m", "b")
        env.run()
        assert not got

    def test_in_flight_message_lost_on_crash(self, env):
        net, a, b = make_pair(env, latency=1.0)
        got = []
        b.on("m", lambda msg: got.append(1))

        def crash():
            yield env.timeout(0.5)
            net.set_down("b")

        a.send("m", "b")
        env.process(crash())
        env.run()
        assert not got and net.stats.dropped == 1

    def test_set_up_restores(self, env):
        net, a, b = make_pair(env)
        got = []
        b.on("m", lambda msg: got.append(1))
        net.set_down("b")
        net.set_up("b")
        a.send("m", "b")
        env.run()
        assert got == [1]

    def test_set_down_unknown_raises(self, env):
        net, *_ = make_pair(env)
        with pytest.raises(UnknownPeer):
            net.set_down("ghost")


class TestPartitions:
    def make_quad(self, env):
        net = Network(env, ConstantLatency(0.01), bandwidth=1e9)
        nodes = {nid: NetNode(env, net, nid) for nid in "abcd"}
        got = {nid: [] for nid in "abcd"}
        for nid, node in nodes.items():
            node.on("m", lambda msg, nid=nid: got[nid].append(msg.src))
        return net, nodes, got

    def test_cross_group_send_dropped_and_attributed(self, env):
        net, nodes, got = self.make_quad(env)
        net.set_partition([["a", "b"], ["c", "d"]])
        nodes["a"].send("m", "c")
        env.run()
        assert got["c"] == []
        assert net.stats.dropped == 1
        assert net.stats.partition_drops == 1

    def test_same_group_delivery_unaffected(self, env):
        net, nodes, got = self.make_quad(env)
        net.set_partition([["a", "b"], ["c", "d"]])
        nodes["a"].send("m", "b")
        nodes["c"].send("m", "d")
        env.run()
        assert got["b"] == ["a"] and got["d"] == ["c"]
        assert net.stats.partition_drops == 0

    def test_unlisted_nodes_form_residual_group(self, env):
        # Only one group listed: c and d fall into the implicit
        # residual group — they reach each other but not the island.
        net, nodes, got = self.make_quad(env)
        net.set_partition([["a", "b"]])
        nodes["c"].send("m", "d")
        nodes["c"].send("m", "a")
        env.run()
        assert got["d"] == ["c"]
        assert got["a"] == []
        assert net.stats.partition_drops == 1

    def test_heal_resumes_delivery(self, env):
        net, nodes, got = self.make_quad(env)
        net.set_partition([["a", "b"]])
        nodes["a"].send("m", "c")
        env.run()
        assert got["c"] == [] and net.stats.partition_drops == 1
        net.heal_partition()
        assert not net.partitioned
        nodes["a"].send("m", "c")
        env.run()
        assert got["c"] == ["a"]
        assert net.stats.partition_drops == 1  # no new attribution

    def test_in_flight_message_survives_partition(self, env):
        # The drop happens at send time only: a message already in
        # flight when the partition forms is still delivered.
        net, nodes, got = self.make_quad(env)

        def split():
            yield env.timeout(0.001)
            net.set_partition([["a", "b"]])

        nodes["a"].send("m", "c")
        env.process(split())
        env.run()
        assert got["c"] == ["a"]
        assert net.stats.partition_drops == 0

    def test_reachable_and_partitioned_flags(self, env):
        net, _nodes, _got = self.make_quad(env)
        assert not net.partitioned
        assert net.reachable("a", "c")
        net.set_partition([["a", "b"], ["c"]])
        assert net.partitioned
        assert net.reachable("a", "b")
        assert not net.reachable("a", "c")
        assert not net.reachable("b", "d")  # listed vs residual
        assert net.reachable("d", "d")

    def test_empty_partition_is_noop(self, env):
        net, _nodes, _got = self.make_quad(env)
        net.set_partition([])
        assert not net.partitioned

    def test_repartition_replaces_wholesale(self, env):
        net, nodes, got = self.make_quad(env)
        net.set_partition([["a"]])
        net.set_partition([["a", "b", "c"]])
        nodes["a"].send("m", "b")
        env.run()
        assert got["b"] == ["a"]

    def test_partition_drops_are_subset_of_dropped(self, env):
        net, nodes, _got = self.make_quad(env)
        net.set_partition([["a", "b"]])
        nodes["a"].send("m", "c")   # partition drop
        nodes["a"].send("m", "ghost")  # unknown-destination drop
        env.run()
        assert net.stats.dropped == 2
        assert net.stats.partition_drops == 1

    def test_summary_schema_matches_live_aggregate(self, env):
        """Sim summary() and the live cluster aggregate share one shape."""
        from repro.runtime.cluster import LiveCluster

        net, nodes, _got = self.make_quad(env)
        net.set_partition([["a", "b"]])
        nodes["a"].send("m", "c")
        env.run()
        summary = net.stats.summary()
        assert summary["partition_drops"] == 1
        class FakeCluster:
            nodes: dict = {}
            agent = None
            summaries = LiveCluster.summaries

        agg = LiveCluster.aggregate_summary(FakeCluster())
        # Every aggregated counter exists in the sim summary under the
        # same name (the aggregate skips the per-run hottest_dst pair).
        assert set(agg) <= set(summary)
        assert "partition_drops" in agg


class TestLatencyModels:
    def test_constant(self):
        m = ConstantLatency(0.2)
        assert m.sample("a", "b") == 0.2 == m.expected("a", "b")

    def test_constant_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1.0)

    def test_uniform_in_range(self):
        m = UniformLatency(0.1, 0.2)
        for _ in range(50):
            assert 0.1 <= m.sample("a", "b") <= 0.2
        assert m.expected("a", "b") == pytest.approx(0.15)

    def test_uniform_bad_range(self):
        with pytest.raises(ValueError):
            UniformLatency(0.5, 0.1)

    def test_domain_aware(self):
        from repro.net import DomainAwareLatency

        domains = {"a": "d0", "b": "d0", "c": "d1"}
        m = DomainAwareLatency(domains.get, intra=0.01, inter=0.1, jitter=0.0)
        assert m.sample("a", "b") == 0.01
        assert m.sample("a", "c") == 0.1
        assert m.expected("a", "c") == 0.1

    def test_domain_aware_unknown_is_inter(self):
        from repro.net import DomainAwareLatency

        m = DomainAwareLatency(lambda pid: None, intra=0.01, inter=0.1,
                               jitter=0.0)
        assert m.sample("x", "y") == 0.1

    def test_domain_aware_jitter_bounds(self):
        from repro.net import DomainAwareLatency

        m = DomainAwareLatency(lambda pid: "d", intra=0.01, inter=0.1,
                               jitter=0.5)
        for _ in range(100):
            assert 0.005 <= m.sample("a", "b") <= 0.015

    def test_domain_aware_validation(self):
        from repro.net import DomainAwareLatency

        with pytest.raises(ValueError):
            DomainAwareLatency(lambda p: "d", jitter=1.5)
        with pytest.raises(ValueError):
            DomainAwareLatency(lambda p: "d", intra=-1)


class TestExpectedDelay:
    def test_matches_model_plus_transmission(self, env):
        net = Network(env, ConstantLatency(0.1), bandwidth=1000.0)
        assert net.expected_delay("a", "b", size=100.0) == pytest.approx(0.2)


class TestFifoFloorPruning:
    """Regression: ``_last_arrival`` must not outlive its nodes."""

    def test_unregister_prunes_last_arrival(self, env):
        net, a, b = make_pair(env)
        b.on("m", lambda msg: None)
        a.send("m", "b")
        a.send("m", "a")  # self-send keeps an (a, a) entry alive
        env.run()
        assert ("a", "b") in net._last_arrival
        net.unregister("b")
        assert all("b" not in k for k in net._last_arrival)
        assert ("a", "a") in net._last_arrival  # unrelated pairs survive

    def test_rejoin_same_id_gets_fresh_fifo_floor(self, env):
        """A reused id must not inherit the departed peer's FIFO floor."""
        net = Network(env, ConstantLatency(0.0), bandwidth=1000.0)
        a = NetNode(env, net, "a")
        b = NetNode(env, net, "b")
        b.on("m", lambda msg: None)
        a.send("m", "b", size=100_000.0)  # arrival floored at t=100
        net.unregister("b")
        b2 = NetNode(env, net, "b")
        got = []
        b2.on("m", lambda msg: got.append(env.now))
        a.send("m", "b", size=1000.0)  # 1s transmission, no stale floor
        env.run()
        assert got and got[0] == pytest.approx(1.0)

    def test_churned_overlay_keeps_fabric_state_bounded(self):
        from repro.core.manager import RMConfig
        from repro.overlay import ChurnConfig, ChurnProcess, OverlayNetwork, PeerSpec
        from repro.sim import RandomStreams

        env = Environment()
        net = Network(env, ConstantLatency(0.005), bandwidth=1e7)
        overlay = OverlayNetwork(
            env, net, rm_config=RMConfig(max_peers=20),
            enable_gossip=False, streams=RandomStreams(0),
        )
        for i in range(10):
            overlay.join(PeerSpec(peer_id=f"p{i}", power=10.0,
                                  bandwidth=2e6, uptime=0.9))
        churn = ChurnProcess(
            overlay,
            ChurnConfig(mean_lifetime=5.0, mean_offtime=1.0),
            rng=__import__("numpy").random.default_rng(4),
        )
        churn.watch_all()
        env.run(until=120.0)
        assert churn.departures > 0
        # Every departed peer has left the fabric: node registry and the
        # FIFO floor map only reference currently registered ids.
        registered = set(net.node_ids)
        assert registered == set(overlay.peers)
        for src, dst in net._last_arrival:
            assert src in registered and dst in registered
