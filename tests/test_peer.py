"""Peer-side session execution: streams, epochs, cancellation."""

from repro import telemetry
from repro.core import protocol
from repro.core.session import ComposeOrder
from repro.graphs.service_graph import ServiceStep


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
