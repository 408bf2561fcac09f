"""Targeted tests for less-travelled paths."""

from repro.core import protocol
from repro.net.message import Message
from repro.tasks.task import TaskOutcome
from tests.conftest import build_live_domain


class TestJoinCapacity:
    def test_busy_rm_redirects_joins(self, live_domain):
        rm = live_domain.rm
        assert rm.consider_join(10.0, 1e6, 0.9) == "accept"
        rm.profiler._util.value = 0.99  # saturate the RM itself
        assert rm.consider_join(10.0, 1e6, 0.9) == "redirect"

    def test_threshold_configurable(self):
        from repro.core.manager import RMConfig

        d = build_live_domain(
            rm_config=RMConfig(join_accept_max_util=0.10)
        )
        d.rm.profiler._util.value = 0.2
        assert d.rm.consider_join(10.0, 1e6, 0.9) == "redirect"


class TestManagerHandlerEdges:
    def test_task_done_for_unknown_task_ignored(self, live_domain):
        rm = live_domain.rm
        rm._handle_task_done(Message(
            kind=protocol.TASK_DONE, src="P1", dst="rm0",
            payload={"task_id": "ghost", "completed_at": 1.0,
                     "sink": "P1"},
        ))
        assert rm.stats["completed"] == 0

    def test_duplicate_task_done_counted_once(self, live_domain):
        d = live_domain
        d.submit(deadline=60.0)
        d.env.run(until=30.0)
        task = d.task()
        assert task.outcome is TaskOutcome.MET_DEADLINE
        # A duplicate completion (e.g. a retried message) is ignored.
        d.rm._handle_task_done(Message(
            kind=protocol.TASK_DONE, src="P4", dst="rm0",
            payload={"task_id": task.task_id,
                     "completed_at": d.env.now, "sink": "P4"},
        ))
        assert d.rm.stats["completed"] == 1

    def test_stale_epoch_step_done_ignored(self, live_domain):
        d = live_domain
        d.submit(deadline=60.0)
        d.env.run(until=0.5)
        task = d.task()
        session = d.rm.sessions[task.task_id]
        session.epoch = 3
        before = session.last_step_done
        d.rm._handle_step_done(Message(
            kind=protocol.STEP_DONE, src="P1", dst="rm0",
            payload={"task_id": task.task_id, "step_index": 0,
                     "peer_id": "P1", "epoch": 1},
        ))
        assert session.last_step_done == before

    def test_domain_fairness_exposed(self, live_domain):
        f = live_domain.rm.domain_fairness()
        assert 0.0 < f <= 1.0

    def test_peer_leave_for_unknown_peer_harmless(self, live_domain):
        live_domain.rm._handle_peer_leave(Message(
            kind=protocol.PEER_LEAVE, src="x", dst="rm0",
            payload={"peer_id": "never-joined"},
        ))


class TestOverlayQueries:
    def test_domain_for(self):
        from repro.core.manager import RMConfig
        from repro.net import ConstantLatency, Network
        from repro.overlay import OverlayNetwork, PeerSpec
        from repro.sim import Environment

        env = Environment()
        net = Network(env, ConstantLatency(0.005))
        overlay = OverlayNetwork(env, net,
                                 rm_config=RMConfig(max_peers=8),
                                 enable_gossip=False)
        overlay.join(PeerSpec(peer_id="p0", power=10.0,
                              bandwidth=2e6, uptime=0.9))
        assert overlay.domain_for("p0") is not None
        assert overlay.domain_for("ghost") is None

    def test_prefer_domain_contacts_it_first(self):
        from repro.core.manager import RMConfig
        from repro.net import ConstantLatency, Network
        from repro.overlay import OverlayNetwork, PeerSpec
        from repro.sim import Environment

        env = Environment()
        net = Network(env, ConstantLatency(0.005))
        overlay = OverlayNetwork(env, net,
                                 rm_config=RMConfig(max_peers=4),
                                 enable_gossip=False)
        for i in range(6):  # d0 fills to 4, d1 holds 2
            overlay.join(PeerSpec(peer_id=f"p{i}", power=10.0,
                                  bandwidth=2e6, uptime=0.9))
        assert overlay.n_domains == 2
        d1 = overlay.domain_of["p5"]
        overlay.join(
            PeerSpec(peer_id="late", power=1.0, bandwidth=2e6,
                     uptime=0.9),
            prefer_domain=d1,
        )
        assert overlay.domain_of["late"] == d1
        # Preferring the full domain still lands in the one with room.
        d0 = overlay.domain_of["p0"]
        assert d0 != d1
        overlay.join(
            PeerSpec(peer_id="later", power=1.0, bandwidth=2e6,
                     uptime=0.9),
            prefer_domain=d0,
        )
        assert overlay.domain_of["later"] == d1


class TestArrivalEdgeCases:
    def test_no_live_origin_skips_arrival(self):
        from repro.workloads import (
            PopulationConfig,
            ScenarioConfig,
            WorkloadConfig,
            build_scenario,
        )

        cfg = ScenarioConfig(
            seed=2,
            population=PopulationConfig(n_peers=4, n_objects=2),
            workload=WorkloadConfig(rate=2.0),
        )
        scenario = build_scenario(cfg)
        for pid in list(scenario.overlay.peers):
            scenario.overlay.fail_peer(pid)
        scenario.env.run(until=20.0)  # arrivals find no one: no crash
        assert scenario.workload.n_generated == 0


class TestMeasuredTimings:
    def test_service_graph_carries_real_step_intervals(self, live_domain):
        """§3.1 item 7: run-time computation intervals in G_s."""
        d = live_domain
        d.submit(deadline=60.0)
        d.env.run(until=4.8)  # step 0 done, step 1 in flight
        task = d.task()
        graph = d.rm.info.service_graphs[task.task_id]
        assert 0 in graph.timings
        start, end = graph.timings[0]
        assert end > start            # a real execution interval
        assert end - start > 0.5      # e1 takes ~1.6s at power 10
