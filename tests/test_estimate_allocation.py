"""Completion-time estimation and the Fig-3 allocation algorithm."""

import pytest

from repro.common.errors import NoFeasibleAllocation
from repro.core.allocation import Allocator, select_max_fairness
from repro.core.estimate import CompletionTimeEstimator
from repro.core.info_base import DomainInfoBase, PeerRecord
from repro.media.fig1 import build_fig1_graph
from repro.monitoring.profiler import LoadReport
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.core import Environment
from repro.sim.ids import Ids
from repro.tasks.qos import QoSRequirements
from repro.tasks.task import ApplicationTask


def make_domain(loads=None, power=10.0):
    loads = loads or {}
    env = Environment()
    net = Network(env, ConstantLatency(0.01), bandwidth=1.25e6)
    info = DomainInfoBase("d0", "rm0")
    scenario = build_fig1_graph()
    for pid in scenario.peers:
        rec = PeerRecord(peer_id=pid, power=power, bandwidth=1.25e6)
        info.add_peer(rec)
        rec.last_report = LoadReport(
            peer_id=pid, time=0.0, power=power,
            utilization=loads.get(pid, 0.0) / power,
            load=loads.get(pid, 0.0), bw_used=0.0,
            queue_work=0.0, queue_length=0,
        )
        rec.reported_at = 0.0
    for edge in scenario.graph.edges():
        info.register_service_instance(
            edge.src, edge.dst, edge.service_id, edge.peer_id,
            edge.work, edge.out_bytes, edge_id=edge.edge_id,
        )
    return info, net, scenario


_ids = Ids()


def make_task(deadline=60.0, scenario=None):
    sc = scenario or build_fig1_graph()
    return ApplicationTask(
        name="movie", qos=QoSRequirements(deadline=deadline),
        initial_state=sc.v_init, goal_state=sc.v_sol,
        origin_peer="P4", submitted_at=0.0,
        task_id=f"t{next(_ids.task)}",
    )


class TestEstimator:
    def test_validation(self):
        with pytest.raises(ValueError):
            CompletionTimeEstimator(min_free_frac=0.0)
        with pytest.raises(ValueError):
            CompletionTimeEstimator(safety_margin=1.0)
        with pytest.raises(ValueError):
            CompletionTimeEstimator(max_utilization=0.0)

    def test_service_time_slows_with_load(self):
        info, net, sc = make_domain(loads={"P1": 0.0})
        est = CompletionTimeEstimator()
        edge = info.resource_graph.edge("e1")
        t_idle = est.service_time(info, edge, now=0.0)
        info2, _, _ = make_domain(loads={"P1": 8.0})
        edge2 = info2.resource_graph.edge("e1")
        t_busy = est.service_time(info2, edge2, now=0.0)
        assert t_busy > 4 * t_idle

    def test_service_time_floor_at_saturation(self):
        info, net, sc = make_domain(loads={"P1": 10.0})
        est = CompletionTimeEstimator(min_free_frac=0.05)
        edge = info.resource_graph.edge("e1")
        t = est.service_time(info, edge, now=0.0)
        assert t == pytest.approx(edge.work / (10.0 * 0.05))

    def test_work_scale_scales_time(self):
        info, net, sc = make_domain()
        est = CompletionTimeEstimator()
        edge = info.resource_graph.edge("e1")
        assert est.service_time(info, edge, 0.0, work_scale=2.0) == \
            pytest.approx(2 * est.service_time(info, edge, 0.0))

    def test_transfer_time_zero_for_self_or_empty(self):
        info, net, sc = make_domain()
        est = CompletionTimeEstimator()
        assert est.transfer_time(net, "P1", "P1", 1e6) == 0.0
        assert est.transfer_time(net, "P1", "P2", 0.0) == 0.0

    def test_estimate_path_sums_hops(self):
        info, net, sc = make_domain()
        est = CompletionTimeEstimator()
        path = [info.resource_graph.edge("e1"),
                info.resource_graph.edge("e2")]
        total = est.estimate_path(
            info, net, path, 0.0, "P1", "P4", in_bytes=3.84e6
        )
        manual = (
            est.service_time(info, path[0], 0.0)  # e1 at P1 (src local)
            + est.transfer_time(net, "P1", "P2", path[0].out_bytes)
            + est.service_time(info, path[1], 0.0)
            + est.transfer_time(net, "P2", "P4", path[1].out_bytes)
        )
        assert total == pytest.approx(manual)

    def test_estimate_inf_for_missing_peer(self):
        info, net, sc = make_domain()
        edge = info.resource_graph.edge("e1")
        info.remove_peer("P1")
        est = CompletionTimeEstimator()
        assert est.estimate_path(
            info, net, [edge], 0.0, "P2", "P4", 1e6
        ) == float("inf")

    def test_capacity_overload_check(self):
        info, net, sc = make_domain(loads={"P1": 9.5})
        est = CompletionTimeEstimator(max_utilization=1.0)
        edge = info.resource_graph.edge("e1")  # ~16 work units
        # With a 10s deadline the demanded rate 1.6 exceeds free 0.5.
        assert est.path_overloads(info, [edge], 0.0, deadline=10.0)
        # A long deadline demands little rate.
        assert not est.path_overloads(info, [edge], 0.0, deadline=1000.0)


class TestAllocator:
    def test_fig1_picks_lightest_short_path(self):
        """With P2 busy, fairness-max prefers e3 at P3 (the §4.3 story)."""
        info, net, sc = make_domain(loads={"P1": 2.0, "P2": 5.0,
                                           "P3": 1.0, "P4": 1.0})
        task = make_task(scenario=sc)
        result = Allocator().allocate(
            info, net, task, sc.v_init, sc.v_sol,
            source_peer="P1", sink_peer="P4",
            in_bytes=sc.source_object.size_bytes, now=0.0,
        )
        assert result.edge_ids == ["e1", "e3"]
        assert result.n_candidates == 3

    def test_choice_flips_with_load(self):
        """Loading P3 steers the winner away from e3 (hosted at P3)."""
        info, net, sc = make_domain(loads={"P1": 2.0, "P2": 1.0,
                                           "P3": 5.0, "P4": 1.0})
        task = make_task(scenario=sc)
        result = Allocator().allocate(
            info, net, task, sc.v_init, sc.v_sol,
            source_peer="P1", sink_peer="P4",
            in_bytes=sc.source_object.size_bytes, now=0.0,
        )
        assert "e3" not in result.edge_ids
        assert all(e.peer_id != "P3" for e in result.path)

    def test_powerless_peer_is_infeasible_not_a_crash(self):
        """A peer record with ``power = 0`` (a live JOIN can no longer
        claim it, but the info base does not forbid it): the peer reads
        as infinitely overloaded, its edges prune, and nothing divides
        by zero."""
        info, net, sc = make_domain()
        info.peer("P2").power = 0.0
        est = CompletionTimeEstimator()
        graph = info.resource_graph
        for edge in (e for e in graph.edges() if e.peer_id == "P2"):
            assert est.service_time(info, edge, 0.0) == float("inf")
        e1_e2 = [graph.edge("e1"), graph.edge("e2")]
        assert est.estimate_path(
            info, net, e1_e2, 0.0, "P1", "P4", 1e6
        ) == float("inf")
        assert est.path_overloads(info, e1_e2, 0.0, 60.0)
        request = dict(
            v_init=sc.v_init, v_sol=sc.v_sol, source_peer="P1",
            sink_peer="P4", in_bytes=sc.source_object.size_bytes, now=0.0,
        )
        for policy in ("paper", "exhaustive"):
            result = Allocator(visited_policy=policy).allocate(
                info, net, make_task(scenario=sc), **request
            )
            # e2 and e4 sit on P2, which leaves {e1, e3} alone.
            assert result.edge_ids == ["e1", "e3"]
            assert (result.n_candidates, result.n_examined) == (1, 1)
        for pid in ("P1", "P3", "P4"):
            info.peer(pid).power = 0.0
        with pytest.raises(NoFeasibleAllocation) as exc:
            Allocator().allocate(
                info, net, make_task(scenario=sc), **request
            )
        assert exc.value.reason == "qos"

    def test_no_path_reason(self):
        info, net, sc = make_domain()
        task = make_task(scenario=sc)
        with pytest.raises(NoFeasibleAllocation) as exc:
            Allocator().allocate(
                info, net, task, "nonexistent-state", sc.v_sol,
                "P1", "P4", 1e6, 0.0,
            )
        assert exc.value.reason == "no_path"

    def test_qos_reason_when_deadline_impossible(self):
        info, net, sc = make_domain()
        task = make_task(deadline=0.5, scenario=sc)  # far too tight
        with pytest.raises(NoFeasibleAllocation) as exc:
            Allocator().allocate(
                info, net, task, sc.v_init, sc.v_sol,
                "P1", "P4", sc.source_object.size_bytes, 0.0,
            )
        assert exc.value.reason == "qos"

    def test_expired_task_rejected(self):
        info, net, sc = make_domain()
        task = make_task(deadline=10.0, scenario=sc)
        with pytest.raises(NoFeasibleAllocation):
            Allocator().allocate(
                info, net, task, sc.v_init, sc.v_sol,
                "P1", "P4", 1e6, now=task.submitted_at + 11.0,
            )

    def test_remaining_deadline_shrinks_feasible_set(self):
        """A redirected task (clock already running) gets stricter checks."""
        info, net, sc = make_domain()
        task = make_task(deadline=12.0, scenario=sc)
        result_fresh = Allocator().allocate(
            info, net, task, sc.v_init, sc.v_sol,
            "P1", "P4", sc.source_object.size_bytes, now=0.0,
        )
        assert result_fresh is not None
        with pytest.raises(NoFeasibleAllocation):
            Allocator().allocate(
                info, net, task, sc.v_init, sc.v_sol,
                "P1", "P4", sc.source_object.size_bytes, now=8.0,
            )

    def test_deltas_and_max_post_util(self):
        info, net, sc = make_domain()
        task = make_task(deadline=60.0, scenario=sc)
        result = Allocator().allocate(
            info, net, task, sc.v_init, sc.v_sol,
            "P1", "P4", sc.source_object.size_bytes, 0.0,
        )
        for edge in result.path:
            assert result.deltas[edge.peer_id] > 0
        expected = {
            e.peer_id: e.work / 60.0 for e in result.path
        }
        for pid, delta in expected.items():
            assert result.deltas[pid] == pytest.approx(delta)

    def test_custom_selector_used(self):
        picked = {}

        def pick_last(candidates):
            picked["n"] = len(candidates)
            return candidates[-1]

        info, net, sc = make_domain()
        task = make_task(scenario=sc)
        result = Allocator(selector=pick_last).allocate(
            info, net, task, sc.v_init, sc.v_sol,
            "P1", "P4", sc.source_object.size_bytes, 0.0,
        )
        assert picked["n"] == 3
        assert result.edge_ids == ["e1", "e4", "e5", "e8"]

    def test_select_max_fairness_tie_keeps_first(self):
        from repro.core.allocation import Candidate

        a = Candidate([], 0.5, 1.0, {})
        b = Candidate([], 0.5, 2.0, {})
        assert select_max_fairness([a, b]) is a

    def test_max_candidates_cap(self):
        info, net, sc = make_domain()
        task = make_task(scenario=sc)
        result = Allocator(max_candidates=1).allocate(
            info, net, task, sc.v_init, sc.v_sol,
            "P1", "P4", sc.source_object.size_bytes, 0.0,
        )
        assert result.n_candidates == 1

    def test_allocation_pairs(self):
        info, net, sc = make_domain()
        task = make_task(scenario=sc)
        result = Allocator().allocate(
            info, net, task, sc.v_init, sc.v_sol,
            "P1", "P4", sc.source_object.size_bytes, 0.0,
        )
        pairs = result.allocation_pairs()
        assert all(isinstance(s, str) and isinstance(p, str)
                   for s, p in pairs)
