"""Peer-side session execution: streams, epochs, cancellation, and the
park that holds what overtakes a task's order."""

from itertools import permutations

import pytest

from repro import telemetry
from repro.core import protocol
from repro.core.peer import PARK_LIMIT, PARK_TTL
from repro.core.session import ComposeOrder
from repro.graphs.service_graph import ServiceStep
from repro.net.message import Message
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


def compose(order, dst="P2"):
    return Message(kind=protocol.COMPOSE, src="rm0", dst=dst,
                   payload={"order": order})


def start_stream(task_id, dst="P2", from_step=0):
    return Message(kind=protocol.START_STREAM, src="rm0", dst=dst,
                   payload={"task_id": task_id, "from_step": from_step})


def stream(task_id, dst="P2", step_index=0, epoch=0, src="P1"):
    return Message(kind=protocol.STREAM, src=src, dst=dst, payload={
        "task_id": task_id, "step_index": step_index, "epoch": epoch,
        "from": src,
    })


class TestComposeOrder:
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
        """A message naming a task with no order here is parked, not
        dropped; it is counted when its park expires."""
        d = live_domain
        peer = d.peers["P2"]
        metrics = d.tel.metrics
        peer._handle_start_stream(start_stream("ghost"))
        peer._handle_stream(stream("ghost"))
        assert peer._n_parked == 2
        assert metrics.total("repro_peer_unmatched_total") == 0
        d.env.run(until=PARK_TTL + 1.0)  # a report tick expires the park
        assert not peer._parked and peer._n_parked == 0
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
        d = build_live_domain()  # its handle is never activated
        peer = d.peers["P2"]
        with telemetry.session(telemetry.Telemetry.noop()):
            peer._handle_start_stream(start_stream("ghost"))
            peer._handle_stream(stream("ghost"))
            assert peer.unmatched == {}
            d.env.run(until=PARK_TTL + 1.0)
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


class TestParking:
    """What a peer does with a message that overtakes its task's order."""

    def test_compose_releases_parked_messages_in_arrival_order(
        self, live_domain
    ):
        d = live_domain
        peer = d.peers["P2"]
        seen = []
        peer.on(protocol.STREAM, lambda m: seen.append(m.payload["n"]),
                replace=True)
        for n in range(3):
            msg = stream("tX")
            msg.payload["n"] = n
            peer._handle_stream(msg)
        assert seen == [] and peer._n_parked == 3
        peer._handle_compose(compose(make_order(d)))
        assert seen == [0, 1, 2]
        assert not peer._parked and peer._n_parked == 0

    def test_first_park_of_a_task_nudges_the_rm_once(self, live_domain):
        d = live_domain
        peer = d.peers["P2"]
        nudges = []
        d.net.nudge = lambda src, dst: nudges.append((src, dst))
        peer._handle_start_stream(start_stream("tX"))
        peer._handle_stream(stream("tX"))
        peer._handle_stream(stream("tY"))
        assert nudges == [("P2", "rm0"), ("P2", "rm0")]  # tX, then tY

    def test_expiry_is_checked_when_something_is_parked(self, live_domain):
        d = live_domain
        peer = d.peers["P2"]
        peer._handle_stream(stream("old"))
        d.env.run(until=PARK_TTL - 1.0)
        peer._handle_stream(stream("young"))
        d.env.run(until=PARK_TTL + 0.5)  # before P2's next report tick
        assert peer._n_parked == 2
        peer._handle_start_stream(start_stream("newest"))
        assert list(peer._parked) == ["young", "newest"]
        assert peer.unmatched == {protocol.STREAM: 1}
        assert d.tel.metrics.value(
            "repro_peer_unmatched_total", kind=protocol.STREAM
        ) == 1

    def test_an_expired_park_is_not_released(self, live_domain):
        d = live_domain
        peer = d.peers["P2"]
        peer._handle_stream(stream("tX"))
        d.env.run(until=PARK_TTL + 0.5)
        peer._handle_compose(compose(make_order(d)))
        assert peer.processor.queue_length == 0
        assert peer.unmatched == {protocol.STREAM: 1}

    def test_overflow_is_dropped_and_counted(self, live_domain):
        peer = live_domain.peers["P2"]
        for i in range(PARK_LIMIT):
            peer._handle_stream(stream(f"t{i}"))
        assert peer.unmatched == {}
        peer._handle_start_stream(start_stream("t0"))
        assert peer._n_parked == PARK_LIMIT
        assert peer.unmatched == {protocol.START_STREAM: 1}

    def test_message_for_a_lingering_task_is_dropped_at_once(
        self, live_domain
    ):
        d = live_domain
        peer = d.peers["P2"]
        peer._linger["tX"] = d.env.now + 50.0  # its part here is over
        nudges = []
        d.net.nudge = lambda src, dst: nudges.append((src, dst))
        peer._handle_stream(stream("tX"))
        assert not peer._parked and nudges == []
        assert peer.unmatched == {protocol.STREAM: 1}

    def test_cancel_task_discards_what_is_parked(self, live_domain):
        d = live_domain
        peer = d.peers["P2"]
        peer._handle_start_stream(start_stream("tX"))
        peer._handle_stream(stream("tX"))
        peer._handle_cancel_task(Message(
            kind=protocol.CANCEL_TASK, src="rm0", dst="P2",
            payload={"task_id": "tX"},
        ))
        assert not peer._parked and peer._n_parked == 0
        peer._handle_compose(compose(make_order(d)))
        assert peer.processor.queue_length == 0  # nothing was released
        assert peer.unmatched == {}

    def test_sim_network_nudge_schedules_nothing(self, live_domain):
        d = live_domain
        queued, sent = len(d.env._queue), d.net.stats.sent
        d.net.nudge("P2", "rm0")
        assert (len(d.env._queue), d.net.stats.sent) == (queued, sent)


def hold_until(net, dst, held_kind, until_kind):
    """Deliver the first *held_kind* message to *dst* right after the
    first *until_kind* one (unchanged if *until_kind* comes first)."""
    deliver = net._deliver
    held = []
    state = {"done": False}

    def swapped(msg):
        if msg.dst == dst and not state["done"]:
            if msg.kind == held_kind:
                held.append(msg)
                return
            if msg.kind == until_kind:
                state["done"] = True
                deliver(msg)
                for m in held:
                    deliver(m)
                return
        deliver(msg)

    net._deliver = swapped


RM_KINDS = (protocol.COMPOSE, protocol.START_STREAM, protocol.CANCEL_TASK)


class TestSwappedDelivery:
    """Every ordered pair of the kinds the RM sends the source peer P1
    (the Fig-1 chain runs P1 -> P2 -> sink P4), delivered the other way
    round, and the RM's COMPOSE against the upstream STREAM at P2."""

    @staticmethod
    def _run(d, cancel):
        if cancel:
            # The RM cancels the task right after admitting it: P1 is
            # sent COMPOSE, START_STREAM, CANCEL_TASK in that order.
            emit = d.rm.on_task_event

            def on_event(task, event):
                emit(task, event)
                if event == "admitted":
                    d.rm.send(protocol.CANCEL_TASK, "P1",
                              {"task_id": task.task_id})
            d.rm.on_task_event = on_event
        d.submit(deadline=60.0)
        # Past the deadline, the RM's loss grace and the park's TTL.
        d.env.run(until=100.0)
        task = d.task()
        assert task.state.name in ("DONE", "FAILED")
        for node in (*d.peers.values(), d.rm):
            assert not node._parked and node._n_parked == 0, node
        return task

    @pytest.mark.parametrize("held,first", list(permutations(RM_KINDS, 2)))
    def test_rm_pair_delivered_swapped(self, live_domain, held, first):
        hold_until(live_domain.net, "P1", held, first)
        self._run(live_domain, cancel=True)

    @pytest.mark.parametrize("dst,until", [
        ("P1", protocol.START_STREAM),
        ("P2", protocol.STREAM),
    ])
    def test_overtaken_compose_still_completes(self, live_domain, dst, until):
        d = live_domain
        hold_until(d.net, dst, protocol.COMPOSE, until)
        assert self._run(d, cancel=False).state.name == "DONE"
        assert all(not p.unmatched for p in d.peers.values())


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
        tasks = [t for rm in scenario.overlay.rms() for t in rm.tasks.values()]
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
            assert not node._parked, node


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
