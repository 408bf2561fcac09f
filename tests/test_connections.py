"""The Connection Manager (§2): bounded connections, LRU eviction."""

import pytest

from repro.net import (
    ConnectionManager,
    ConstantLatency,
    NetNode,
    Network,
)
from repro.net.connections import HANDSHAKE_KIND
from repro.sim import Environment
from tests.conftest import build_live_domain


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def nodes(env):
    net = Network(env, ConstantLatency(0.001), bandwidth=1e9)
    return net, [NetNode(env, net, f"n{i}") for i in range(8)]


class TestConnectionManager:
    def test_capacity_validation(self, nodes):
        _net, ns = nodes
        with pytest.raises(ValueError):
            ConnectionManager(ns[0], max_connections=0)

    def test_first_ensure_opens_and_handshakes(self, nodes, env):
        net, ns = nodes
        cm = ConnectionManager(ns[0], max_connections=4)
        assert cm.ensure("n1") is True
        assert "n1" in cm.connections() and cm.n_open == 1
        env.run()
        assert net.stats.by_kind.get(HANDSHAKE_KIND) == 1

    def test_repeat_ensure_is_free(self, nodes, env):
        net, ns = nodes
        cm = ConnectionManager(ns[0], max_connections=4)
        cm.ensure("n1")
        assert cm.ensure("n1") is False
        env.run()
        assert net.stats.by_kind.get(HANDSHAKE_KIND) == 1

    def test_no_self_connection(self, nodes):
        _net, ns = nodes
        cm = ConnectionManager(ns[0], max_connections=4)
        assert cm.ensure("n0") is False
        assert cm.n_open == 0

    def test_lru_eviction_at_cap(self, nodes, env):
        _net, ns = nodes
        cm = ConnectionManager(ns[0], max_connections=2)
        cm.ensure("n1")
        env.run(until=1.0)
        cm.ensure("n2")
        env.run(until=2.0)
        cm.ensure("n1")  # touch n1: n2 becomes LRU
        env.run(until=3.0)
        cm.ensure("n3")
        assert "n1" in cm.connections() and "n3" in cm.connections()
        assert "n2" not in cm.connections()
        assert cm.evicted == 1

    def test_close_all(self, nodes):
        _net, ns = nodes
        cm = ConnectionManager(ns[0], max_connections=4)
        cm.ensure("n1")
        cm.ensure("n2")
        cm.close_all()
        assert cm.n_open == 0

    def test_connections_lru_order(self, nodes, env):
        _net, ns = nodes
        cm = ConnectionManager(ns[0], max_connections=4)
        cm.ensure("n1")
        env.run(until=1.0)
        cm.ensure("n2")
        env.run(until=2.0)
        cm.ensure("n1")
        assert cm.connections() == ["n2", "n1"]


class TestPeerIntegration:
    def test_streaming_opens_connections(self):
        d = build_live_domain()
        d.submit(origin="P4", deadline=60.0)
        d.env.run(until=30.0)
        # P1 streamed to P2, P2 to P4 (the e1,e2 chain).
        assert "P2" in d.peers["P1"].connections.connections()
        assert "P4" in d.peers["P2"].connections.connections()

    def test_failed_peer_drops_connections(self):
        d = build_live_domain()
        d.submit(origin="P4", deadline=60.0)
        d.env.run(until=4.0)
        d.peers["P1"].fail()
        assert d.peers["P1"].connections.n_open == 0
