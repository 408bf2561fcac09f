"""The Resource Manager's information base (§3.1)."""

import pytest

from repro.common.errors import UnknownPeer
from repro.core.info_base import DomainInfoBase, PeerRecord
from repro.graphs.service_graph import ServiceGraph, ServiceStep
from repro.monitoring.profiler import LoadReport


def report(pid, load, power=10.0, t=0.0):
    return LoadReport(
        peer_id=pid, time=t, power=power, utilization=load / power,
        load=load, bw_used=0.0, queue_work=0.0, queue_length=0,
    )


@pytest.fixture
def info():
    base = DomainInfoBase("d0", "rm0")
    for pid in ("p1", "p2", "p3"):
        base.add_peer(PeerRecord(peer_id=pid, power=10.0, bandwidth=1e6))
    return base


class TestRoster:
    def test_duplicate_add_rejected(self, info):
        with pytest.raises(ValueError):
            info.add_peer(PeerRecord(peer_id="p1", power=1.0, bandwidth=1.0))

    def test_unknown_lookup(self, info):
        with pytest.raises(UnknownPeer):
            info.peer("ghost")
        with pytest.raises(UnknownPeer):
            info.remove_peer("ghost")

    def test_remove_peer_returns_pruned_edges(self, info):
        info.register_service_instance("a", "b", "s1", "p1", 1.0, edge_id="e1")
        info.register_service_instance("b", "c", "s2", "p1", 1.0, edge_id="e2")
        info.register_service_instance("a", "c", "s3", "p2", 1.0, edge_id="e3")
        removed = info.remove_peer("p1")
        assert len(removed) == 2
        assert info.resource_graph.n_edges == 1
        assert not info.has_peer("p1") and info.n_peers == 2


class TestLoadView:
    def test_unreported_peer_has_zero_load(self, info):
        assert info.effective_load("p1", now=0.0) == 0.0

    def test_report_updates_load(self, info):
        info.update_from_report(report("p1", 4.0, t=5.0))
        assert info.effective_load("p1", now=6.0) == 4.0
        assert info.staleness("p1", now=8.0) == pytest.approx(3.0)

    def test_staleness_inf_before_first_report(self, info):
        assert info.staleness("p1", now=100.0) == float("inf")

    def test_projection_adds_to_load(self, info):
        info.update_from_report(report("p1", 4.0))
        info.project_allocation("t1", {"p1": 2.0}, expires_at=50.0)
        assert info.effective_load("p1", now=0.0) == 6.0

    def test_projection_expires(self, info):
        info.project_allocation("t1", {"p1": 2.0}, expires_at=50.0)
        assert info.effective_load("p1", now=51.0) == 0.0

    def test_release_projection(self, info):
        info.project_allocation("t1", {"p1": 2.0, "p2": 1.0},
                                expires_at=1e9)
        info.release_projection("t1")
        assert info.effective_load("p1", now=0.0) == 0.0
        assert info.effective_load("p2", now=0.0) == 0.0

    def test_projection_for_unknown_peer_ignored(self, info):
        info.project_allocation("t1", {"ghost": 5.0}, expires_at=1e9)
        # no exception, nothing recorded

    def test_load_vector_covers_all_peers(self, info):
        info.update_from_report(report("p2", 3.0))
        vec = info.load_vector(now=0.0)
        assert set(vec.peers()) == {"p1", "p2", "p3"}
        assert vec.get("p2") == 3.0

    def test_utilization_vector(self, info):
        info.update_from_report(report("p1", 5.0))
        utils = info.utilization_vector(now=0.0)
        assert utils["p1"] == pytest.approx(0.5)
        assert utils["p2"] == 0.0

    def test_zero_power_claim_does_not_crash_utilization(self, info):
        """A peer that joins claiming zero power must not divide by 0."""
        info.add_peer(PeerRecord(peer_id="z", power=0.0, bandwidth=1e6))
        info.update_from_report(report("z", 1.0, power=10.0))
        utils = info.utilization_vector(now=0.0)
        assert utils["z"] > 0.0  # clamped denominator, huge utilization
        assert info.mean_utilization(now=0.0) > 0.0

    def test_release_projection_leaves_no_residue(self, info):
        """Churny task turnover must not grow _projections forever."""
        for i in range(5):
            info.project_allocation(f"t{i}", {"p1": 2.0}, expires_at=1e9)
            info.release_projection(f"t{i}")
        assert "p1" not in info._projections

    def test_expiry_sweep_deletes_drained_entries(self, info):
        info.project_allocation("t1", {"p1": 2.0}, expires_at=10.0)
        assert "p1" in info._projections
        info.effective_load("p1", now=11.0)  # sweep: all deltas expired
        assert "p1" not in info._projections


class TestObjectsAndServices:
    def test_peers_with_object(self, info):
        info.peer("p1").objects.add("movie")
        info.peer("p3").objects.add("movie")
        assert set(info.peers_with_object("movie")) == {"p1", "p3"}
        assert info.peers_with_object("ghost") == []

    def test_all_objects_and_services(self, info):
        info.peer("p1").objects.add("o1")
        info.peer("p2").objects.add("o2")
        info.register_service_instance("a", "b", "svcX", "p1", 1.0,
                                       edge_id="e1")
        assert info.all_objects() == {"o1", "o2"}
        assert "svcX" in info.all_services()

    def test_register_service_instance_updates_roster(self, info):
        edge = info.register_service_instance("a", "b", "svc", "p2", 2.0,
                                              edge_id="e1")
        assert "svc" in info.peer("p2").services
        assert edge.peer_id == "p2"
        assert info.resource_graph.edge(edge.edge_id) is edge


class TestRunningTasks:
    def make_graph(self, task_id, peers):
        steps = [
            ServiceStep(index=i, service_id=f"s{i}", peer_id=p,
                        work=1.0, out_bytes=0.0, src_state=i,
                        dst_state=i + 1)
            for i, p in enumerate(peers)
        ]
        return ServiceGraph(task_id, peers[0], peers[-1], steps)

    def test_register_and_drop(self, info):
        g = self.make_graph("t1", ["p1", "p2"])
        info.register_service_graph(g)
        assert info.service_graphs["t1"] is g
        assert info.drop_service_graph("t1") is g
        assert info.drop_service_graph("t1") is None
