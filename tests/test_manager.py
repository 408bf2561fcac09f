"""The Resource Manager: admission, sessions, repair, adaptation."""

from repro import telemetry
from repro.core import protocol
from repro.core.manager import RMConfig
from repro.tasks.task import TaskOutcome, TaskState
from tests.conftest import build_live_domain


class TestAdmission:
    def test_accept_and_complete(self, live_domain):
        d = live_domain
        acks = d.submit(deadline=60.0)
        d.env.run(until=60.0)
        assert acks[0]["disposition"] == "accepted"
        task = d.task()
        assert task.outcome is TaskOutcome.MET_DEADLINE
        assert task.allocation  # non-empty chain
        assert d.rm.stats["admitted"] == 1
        assert d.rm.stats["completed"] == 1

    def test_unknown_object_rejected_without_other_domains(self, live_domain):
        d = live_domain
        acks = d.submit(name="ghost-object")
        d.env.run(until=5.0)
        assert acks[0]["disposition"] == "rejected"
        assert d.task().state is TaskState.REJECTED
        assert d.task().meta["reject_reason"] == "no_object"

    def test_impossible_deadline_rejected(self, live_domain):
        d = live_domain
        acks = d.submit(deadline=0.2)
        d.env.run(until=5.0)
        assert acks[0]["disposition"] == "rejected"

    def test_degenerate_task_source_equals_goal(self, live_domain):
        """Requesting the object's own format means a plain transfer."""
        d = live_domain
        acks = d.submit(goal=d.scenario.v_init, deadline=60.0)
        d.env.run(until=60.0)
        assert acks[0]["disposition"] == "accepted"
        task = d.task()
        assert task.allocation == []  # no transcoding steps
        assert task.outcome is TaskOutcome.MET_DEADLINE

    def test_origin_is_sink_receives_stream(self, live_domain):
        d = live_domain
        d.submit(origin="P3")
        d.env.run(until=60.0)
        # The sink announces completion: the TASK_DONE message span
        # starts at the peer the stream was delivered to.
        done = [
            s for s in d.tel.tracer.spans_of_kind(telemetry.MESSAGE)
            if s.name == protocol.TASK_DONE
        ]
        assert done and done[0].node == "P3"

    def test_projection_released_after_completion(self, live_domain):
        d = live_domain
        d.submit()
        d.env.run(until=60.0)
        task = d.task()
        for pid in {p for _s, p in task.allocation}:
            assert d.rm.info.effective_load(pid, d.env.now) == \
                d.rm.info.peer(pid).reported_load

    def test_concurrent_tasks_all_complete(self, live_domain):
        d = live_domain
        for origin in ("P2", "P3", "P4"):
            d.submit(origin=origin, deadline=90.0)
        d.env.run(until=120.0)
        outcomes = [t.outcome for t in d.rm.tasks.values()]
        assert all(o is TaskOutcome.MET_DEADLINE for o in outcomes)


class TestFailureHandling:
    def test_peer_crash_triggers_repair(self):
        d = build_live_domain()
        d.submit(deadline=90.0)

        def killer():
            yield d.env.timeout(4.0)  # step 1 executing at P2
            d.peers["P2"].fail()

        d.env.process(killer())
        d.env.run(until=120.0)
        task = d.task()
        assert task.repairs >= 1
        assert task.outcome is TaskOutcome.MET_DEADLINE
        assert d.rm.stats["repairs"] >= 1
        # P2's services are gone from the resource graph.
        assert d.rm.info.resource_graph.edges_at_peer("P2") == []
        assert not d.rm.info.has_peer("P2")

    def test_repair_disabled_fails_task(self):
        d = build_live_domain(rm_config=RMConfig(enable_repair=False))
        d.submit(deadline=90.0)

        def killer():
            yield d.env.timeout(4.0)
            d.peers["P2"].fail()

        d.env.process(killer())
        d.env.run(until=150.0)
        task = d.task()
        assert task.outcome is TaskOutcome.FAILED
        assert d.rm.stats["failed"] == 1

    def test_graceful_leave_detected_immediately(self):
        d = build_live_domain()
        d.submit(deadline=90.0)

        def leaver():
            yield d.env.timeout(4.0)
            d.peers["P2"].leave()

        d.env.process(leaver())
        d.env.run(until=20.0)
        # PEER_LEAVE beats the silence detector: roster updated well
        # before the ~7s liveness timeout would fire.
        assert not d.rm.info.has_peer("P2")

    def test_origin_failure_fails_task(self):
        d = build_live_domain()
        d.submit(origin="P4", deadline=90.0)

        def killer():
            yield d.env.timeout(2.0)
            d.peers["P4"].fail()

        d.env.process(killer())
        d.env.run(until=150.0)
        assert d.task().outcome is TaskOutcome.FAILED

    def test_lost_task_declared_after_grace(self):
        d = build_live_domain(
            rm_config=RMConfig(task_loss_grace=5.0, enable_repair=False)
        )
        d.submit(deadline=20.0)

        def killer():
            yield d.env.timeout(4.0)
            d.peers["P2"].fail()

        d.env.process(killer())
        d.env.run(until=60.0)
        task = d.task()
        assert task.outcome is TaskOutcome.FAILED
        # failed either by repair-disabled path or by loss grace; both
        # clean up the session.
        assert task.task_id not in d.rm.sessions


class TestSnapshotRestore:
    def test_round_trip_preserves_domain_view(self, live_domain):
        d = live_domain
        d.submit(deadline=90.0)
        d.env.run(until=3.0)
        snap = d.rm.snapshot_state()
        from repro.core.manager import ResourceManager

        backup = ResourceManager(
            d.env, d.net, "backup0", "d0", active=False
        )
        backup.restore_state(snap)
        assert set(backup.info.peers) == set(d.rm.info.peers)
        assert backup.object_catalog.keys() == d.rm.object_catalog.keys()
        assert backup.info.resource_graph.n_edges == \
            d.rm.info.resource_graph.n_edges
        assert set(backup.tasks) == set(d.rm.tasks)
        assert set(backup.sessions) == set(d.rm.sessions)

    def test_snapshot_peer_records_are_copies(self, live_domain):
        d = live_domain
        snap = d.rm.snapshot_state()
        snap["peers"]["P1"].objects.add("tampered")
        assert "tampered" not in d.rm.info.peer("P1").objects


class TestJoinDecision:
    def test_accept_when_room(self, live_domain):
        assert live_domain.rm.consider_join(10.0, 1e6, 0.9) == "accept"

    def test_promote_when_full(self):
        d = build_live_domain(rm_config=RMConfig(max_peers=4))
        assert d.rm.is_full
        assert d.rm.consider_join(10.0, 1e6, 0.9) == "promote"

    def test_passive_rm_redirects(self, live_domain):
        from repro.core.manager import ResourceManager

        backup = ResourceManager(
            live_domain.env, live_domain.net, "b0", "d0", active=False
        )
        assert backup.consider_join(10.0, 1e6, 0.9) == "redirect"
