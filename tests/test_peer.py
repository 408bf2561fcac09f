"""Peer-side session execution: streams, epochs, cancellation."""

from repro import telemetry
from repro.core import protocol
from repro.core.session import ComposeOrder
from repro.graphs.service_graph import ServiceStep
from tests.conftest import build_live_domain


def make_order(d, task_id="tX", epoch=0, steps_peers=("P2",),
               rm_id="rm0", resume_from=0):
    steps = [
        ServiceStep(index=i, service_id=f"svc{i}", peer_id=p,
                    work=5.0, out_bytes=1000.0, src_state=i,
                    dst_state=i + 1)
        for i, p in enumerate(steps_peers)
    ]
    return ComposeOrder(
        task_id=task_id, rm_id=rm_id, source_peer="P1",
        sink_peer="P4", steps=steps, abs_deadline=d.env.now + 100.0,
        importance=1.0, in_bytes=1000.0, resume_from=resume_from,
        epoch=epoch,
    )


class TestComposeOrder:
    def test_next_peer_after(self, live_domain):
        order = make_order(live_domain, steps_peers=("P2", "P3"))
        assert order.next_peer_after(0) == "P3"
        assert order.next_peer_after(1) == "P4"

    def test_bytes_into(self, live_domain):
        order = make_order(live_domain, steps_peers=("P2", "P3"))
        assert order.bytes_into(0) == 1000.0
        assert order.bytes_into(1) == order.steps[0].out_bytes


class TestStreamHandling:
    def test_stale_epoch_dropped(self, live_domain):
        d = live_domain
        peer = d.peers["P2"]
        new = make_order(d, epoch=2)
        peer._handle_compose_msg = None  # noqa - direct injection below
        peer._orders["tX"] = new
        # A stale stream from epoch 0 must not start a job.
        result = peer._process_stream(
            {"task_id": "tX", "step_index": 0, "epoch": 0}
        )
        assert result is None
        assert peer.processor.queue_length == 0

    def test_unknown_task_dropped(self, live_domain):
        peer = live_domain.peers["P2"]
        assert peer._process_stream(
            {"task_id": "ghost", "step_index": 0, "epoch": 0}
        ) is None

    def test_misdelivered_step_dropped(self, live_domain):
        d = live_domain
        peer = d.peers["P3"]  # order says step 0 runs at P2
        peer._orders["tX"] = make_order(d)
        assert peer._process_stream(
            {"task_id": "tX", "step_index": 0, "epoch": 0}
        ) is None

    def test_unknown_task_drops_are_counted(self, live_domain):
        from repro.net.message import Message

        peer = live_domain.peers["P2"]
        metrics = live_domain.tel.metrics
        peer._handle_start_stream(Message(
            kind=protocol.START_STREAM, src="rm0", dst="P2",
            payload={"task_id": "ghost", "from_step": 0},
        ))
        peer._handle_stream(Message(
            kind=protocol.STREAM, src="P1", dst="P2",
            payload={"task_id": "ghost", "step_index": 0, "epoch": 0},
        ))
        for kind in (protocol.START_STREAM, protocol.STREAM):
            assert metrics.value(
                "repro_peer_unmatched_total", kind=kind
            ) == 1

    def test_stale_epoch_is_not_counted_unmatched(self, live_domain):
        d = live_domain
        peer = d.peers["P2"]
        peer._orders["tX"] = make_order(d, epoch=2)
        assert peer._process_stream(
            {"task_id": "tX", "step_index": 0, "epoch": 0}
        ) is None
        assert d.tel.metrics.total("repro_peer_unmatched_total") == 0

    def test_unmatched_drop_without_telemetry_records_nothing(self):
        d = build_live_domain()  # its handle is never activated
        with telemetry.session(telemetry.Telemetry.noop()) as noop:
            d.peers["P2"]._process_stream(
                {"task_id": "ghost", "step_index": 0, "epoch": 0}
            )
        for tel in (noop, d.tel):
            assert tel.metrics.total("repro_peer_unmatched_total") == 0

    def test_unmatched_drops_are_tallied_with_telemetry_off(self):
        from repro.net.message import Message

        d = build_live_domain()  # its handle is never activated
        peer = d.peers["P2"]
        with telemetry.session(telemetry.Telemetry.noop()):
            peer._handle_start_stream(Message(
                kind=protocol.START_STREAM, src="rm0", dst="P2",
                payload={"task_id": "ghost", "from_step": 0},
            ))
            peer._process_stream(
                {"task_id": "ghost", "step_index": 0, "epoch": 0}
            )
        assert peer.unmatched == {
            protocol.START_STREAM: 1, protocol.STREAM: 1,
        }

    def test_older_compose_does_not_replace_newer(self, live_domain):
        d = live_domain
        peer = d.peers["P2"]
        newer = make_order(d, epoch=3)
        peer._orders["tX"] = newer
        from repro.net.message import Message

        older = make_order(d, epoch=1)
        peer._handle_compose(Message(
            kind=protocol.COMPOSE, src="rm0", dst="P2",
            payload={"order": older},
        ))
        assert peer._orders["tX"] is newer

    def test_cancel_task_cancels_jobs(self, live_domain):
        d = live_domain
        d.submit(deadline=90.0)
        d.env.run(until=4.0)  # step 1 queued/running at P2
        peer = d.peers["P2"]
        task_id = d.task().task_id
        from repro.net.message import Message

        peer._handle_cancel_task(Message(
            kind=protocol.CANCEL_TASK, src="rm0", dst="P2",
            payload={"task_id": task_id},
        ))
        assert task_id not in peer._orders
        d.env.run(until=6.0)
        assert peer.processor.n_cancelled >= 0  # no crash; jobs resolved


class TestFailureAPI:
    def test_fail_is_idempotent(self, live_domain):
        peer = live_domain.peers["P2"]
        peer.fail()
        peer.fail()
        assert not peer.alive
        assert not live_domain.net.is_up("P2")

    def test_leave_notifies_rm(self, live_domain):
        d = live_domain
        d.peers["P2"].leave()
        d.env.run(until=1.0)
        assert not d.rm.info.has_peer("P2")

    def test_dead_peer_sends_nothing(self, live_domain):
        d = live_domain
        d.peers["P2"].fail()
        d.env.run(until=10.0)
        # Profiler was stopped: no more load updates from P2.
        updates_from_p2 = [
            s for s in d.tel.tracer.spans_of_kind(telemetry.MESSAGE)
            if s.node == "P2" and s.name == protocol.LOAD_UPDATE
        ]
        assert all(s.start <= 0.0 for s in updates_from_p2)

    def test_rm_takeover_repoints(self, live_domain):
        d = live_domain
        peer = d.peers["P2"]
        from repro.net.message import Message

        peer._handle_rm_takeover(Message(
            kind=protocol.RM_TAKEOVER, src="b0", dst="P2",
            payload={"rm_id": "b0"},
        ))
        assert peer.rm_id == "b0"


class TestTaskStateRelease:
    def test_no_peer_holds_task_state_after_a_drained_run(self):
        """Regression: only the sink (on completion) and CANCEL_TASK
        released a task's order, dependencies and job list, so every
        source and intermediate hop kept them for every task it ever
        served, and ``current_dependencies()`` walked them all on each
        LOAD_UPDATE.  A hop now drops the order once it has forwarded
        past its last step, the job list with its last job, and the
        dependencies once the task's deadline has passed."""
        from repro.core.manager import RMConfig
        from repro.workloads import (
            PopulationConfig,
            ScenarioConfig,
            WorkloadConfig,
            build_scenario,
        )

        scenario = build_scenario(ScenarioConfig(
            seed=11,
            population=PopulationConfig(
                n_peers=64, n_objects=32, replication=3,
            ),
            workload=WorkloadConfig(rate=4.0),
            rm=RMConfig(max_peers=16),
        ))
        summary = scenario.run(30.0, drain=60.0)
        assert summary.n_completed > 50
        # Repairs and reassignments re-send orders to hops whose part is
        # done; this run has none, so every hop's state must be gone.
        assert summary.n_repairs == summary.n_reassignments == 0
        tasks = scenario.overlay.all_tasks()
        assert all(t.state.name in ("DONE", "FAILED", "REJECTED")
                   for t in tasks)
        assert scenario.env.now > max(
            t.absolute_deadline for t in tasks
        ) + 2.0  # a report tick after the last deadline
        for node in [*scenario.overlay.peers.values(),
                     *scenario.overlay.rms()]:
            assert not node._orders, node
            assert not node._deps, node
            assert not node._task_jobs, node


class TestLocalChainExecution:
    def test_consecutive_steps_on_same_peer(self, live_domain):
        """Two chain steps hosted at one peer need no network hop."""
        d = live_domain
        order = make_order(d, steps_peers=("P2", "P2"))
        d.peers["P2"]._orders["tX"] = order
        d.peers["P4"]._orders["tX"] = order
        d.rm._orders["tX"] = order  # rm receives TASK_DONE anyway
        d.peers["P1"]._orders["tX"] = order
        d.peers["P1"]._handle_start_stream(
            type("M", (), {"payload": {"task_id": "tX", "from_step": 0}})()
        )
        d.env.run(until=20.0)
        # Both jobs executed on P2.
        assert d.peers["P2"].processor.n_completed == 2
