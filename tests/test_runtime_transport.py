"""Reliability and parity tests for the live UDP transport.

Packet loss is injected with the transport's ``drop_fn`` shim (drop the
first N transmissions of a message); the ack/backoff retry loop must
still deliver exactly once, well inside a 5-second wall-clock budget.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import time

import pytest

from repro.core import protocol
from repro.core.session import ComposeOrder
from repro.monitoring.profiler import LoadReport
from repro.net.message import Message
from repro.net.network import ConstantLatency, Network
from repro.runtime.codec import encode_message
from repro.runtime.transport import (
    RTO_FLOOR,
    PeerDirectory,
    RttEstimate,
    UdpTransport,
)
from repro.sim.core import Environment
from repro.sim.ids import Ids


def run(coro):
    return asyncio.run(coro)


_ids = Ids()


#: A payload of each kind's shape, for messages whose content does not
#: matter: decode drops a payload that is not its kind's shape.
SHAPED = {
    protocol.LOAD_UPDATE: lambda: {"report": LoadReport(
        peer_id="A", time=1.0, power=10.0, utilization=0.4, load=4.0,
        bw_used=0.0, queue_work=0.0, queue_length=0,
    )},
    protocol.TASK_REQUEST: lambda: {
        "name": "movie", "goal_state": "V3", "deadline": 20.0,
    },
    protocol.STEP_DONE: lambda: {
        "task_id": "t1", "step_index": 0, "peer_id": "A",
    },
    protocol.TASK_DONE: lambda: {"task_id": "t1", "completed_at": 1.0},
    protocol.COMPOSE: lambda: {"order": ComposeOrder(
        task_id="t1", rm_id="A", source_peer="A", sink_peer="B", steps=[],
        abs_deadline=20.0, importance=1.0, in_bytes=0.0,
    )},
    protocol.PEER_LEAVE: lambda: {"peer_id": "A"},
    protocol.JOIN_REQUEST: lambda: {
        "peer_id": "A", "host": "127.0.0.1", "port": 1, "power": 10.0,
        "bandwidth": 1.25e6, "uptime": 1.0,
    },
}


def message(**kwargs):
    """A Message numbered the way a sender numbers it."""
    if "payload" not in kwargs:
        kwargs["payload"] = SHAPED[kwargs["kind"]]()
    return Message(msg_id=next(_ids.msg), **kwargs)


def stream(i):
    """Stream data entering step *i*: the step index orders a sequence."""
    return {"task_id": "t1", "step_index": i}


def make_pair(drop_fn=None, **kwargs):
    """Two endpoints A and B on one directory; B records deliveries."""
    directory = PeerDirectory()
    inbox = []
    a = UdpTransport("A", directory, lambda m: None,
                     drop_fn=drop_fn, **kwargs)
    b = UdpTransport("B", directory, inbox.append, **kwargs)
    return directory, a, b, inbox


async def start_all(*transports):
    for t in transports:
        await t.start()


def close_all(*transports):
    for t in transports:
        t.close()


def drop_first(n):
    """A DropFn swallowing the first *n* transmissions of each message."""
    def fn(msg, attempt):
        return attempt < n
    return fn


async def wait_for(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


def test_clean_delivery():
    async def main():
        _, a, b, inbox = make_pair()
        await start_all(a, b)
        try:
            msg = message(kind="load_update", src="A", dst="B", size=256.0)
            a.send(msg)
            assert await wait_for(lambda: len(inbox) == 1)
            assert inbox[0] == msg
            assert a.stats.sent == 1 and a.stats.dropped == 0
            assert b.stats.delivered == 1
            assert a.retransmits == 0 and b.duplicates == 0
        finally:
            close_all(a, b)
    run(main())


def test_retry_recovers_from_packet_loss():
    """Drop the first 2 datagrams of every message: the exponential
    backoff retry loop must still deliver, exactly once, quickly."""
    async def main():
        _, a, b, inbox = make_pair(
            drop_fn=drop_first(2), ack_timeout=0.02, backoff=2.0,
            max_retries=6,
        )
        await start_all(a, b)
        try:
            start = time.monotonic()
            msg = message(kind="task_request", src="A", dst="B", size=512.0)
            a.send(msg)
            assert await wait_for(lambda: len(inbox) == 1)
            elapsed = time.monotonic() - start
            # Two lost attempts cost ~0.02 + 0.04 s of backoff.
            assert elapsed < 5.0
            await a.flush()
            assert inbox[0] == msg
            assert a.retransmits >= 2
            assert a.stats.dropped == 0
            assert b.stats.delivered == 1
        finally:
            close_all(a, b)
    run(main())


def test_loss_beyond_retry_budget_is_a_drop():
    async def main():
        _, a, b, inbox = make_pair(
            drop_fn=drop_first(100), ack_timeout=0.01, backoff=1.5,
            max_retries=2,
        )
        await start_all(a, b)
        try:
            a.send(message(kind="step_done", src="A", dst="B", size=96.0))
            await a.flush()
            assert inbox == []
            assert a.stats.dropped == 1
            assert a.retransmits == 2  # budget exhausted
        finally:
            close_all(a, b)
    run(main())


def test_duplicate_suppression():
    """A lost *ack* makes the sender retransmit a message the receiver
    already has: every copy is re-acked but delivered only once."""
    async def main():
        directory, a, b, inbox = make_pair(ack_timeout=0.02, max_retries=4)
        await start_all(a, b)
        try:
            msg = message(kind="task_done", src="A", dst="B", size=128.0)
            frame_addr = directory.address("B")
            # Simulate retransmissions reaching B directly, bypassing
            # the retry loop: hand B the same datagram three times.
            from repro.runtime.codec import encode_message
            data = encode_message(msg)
            for _ in range(3):
                b.datagram_received(data, ("127.0.0.1", 9))
            assert frame_addr is not None
            assert len(inbox) == 1
            assert b.stats.delivered == 1
            assert b.duplicates == 2
            assert b.acks_sent == 3  # every copy re-acked
        finally:
            close_all(a, b)
    run(main())


def test_wall_clock_bound_under_loss():
    """A small burst under 1-in-2 loss completes well under 5 s."""
    async def main():
        def lossy(msg, attempt):
            return attempt == 0 and msg.msg_id % 2 == 0
        _, a, b, inbox = make_pair(
            drop_fn=lossy, ack_timeout=0.02, backoff=2.0, max_retries=5,
        )
        await start_all(a, b)
        try:
            start = time.monotonic()
            sent = [
                message(kind="stream", src="A", dst="B",
                        payload=stream(i), size=64.0)
                for i in range(20)
            ]
            for m in sent:
                a.send(m)
            assert await wait_for(lambda: len(inbox) == len(sent))
            assert time.monotonic() - start < 5.0
            assert sorted(m.payload["step_index"] for m in inbox) == list(
                range(20)
            )
            assert b.duplicates == 0  # each delivered exactly once
        finally:
            close_all(a, b)
    run(main())


def test_malformed_datagram_counted_not_delivered():
    async def main():
        _, a, b, inbox = make_pair()
        await start_all(a, b)
        try:
            b.datagram_received(b"this is not a frame", ("127.0.0.1", 9))
            b.datagram_received(b'{"v": 99, "t": "msg"}', ("127.0.0.1", 9))
            assert inbox == []
            assert b.malformed == 2
            assert b.stats.delivered == 0
        finally:
            close_all(a, b)
    run(main())


def test_hostile_load_update_counted_not_delivered():
    """A LOAD_UPDATE whose report carries a string load used to decode,
    reach the RM's info base and crash the next allocation (and with it
    the live clock pump); it is now dropped at the codec as malformed."""
    report = LoadReport(
        peer_id="A", time=1.0, power=10.0, utilization=0.5, load=5.0,
        bw_used=0.0, queue_work=0.0, queue_length=0,
    )
    frame = json.loads(encode_message(message(
        kind=protocol.LOAD_UPDATE, src="A", dst="B",
        payload={"report": report}, size=256.0,
    )))
    frame["msg"]["payload"]["report"]["load"] = "boom"

    async def main():
        _, a, b, inbox = make_pair()
        await start_all(a, b)
        try:
            b.datagram_received(json.dumps(frame).encode(), ("127.0.0.1", 9))
            assert inbox == []
            assert b.malformed == 1
            assert b.stats.delivered == 0
        finally:
            close_all(a, b)
    run(main())


def _payload_frame(value):
    """A message frame whose payload carries *value* under ``x``."""
    return json.dumps({"v": 1, "t": "msg", "msg": {
        "kind": "load_update", "src": "A", "dst": "B",
        "payload": {"x": value}, "size": 64.0, "msg_id": 1,
        "reply_to": None, "sent_at": 0.0,
    }}).encode()


@pytest.mark.parametrize("data", [
    _payload_frame({"__t__": "set", "v": [[1]]}),        # unhashable member
    _payload_frame({"__t__": "dict", "v": [[[1], 2]]}),  # unhashable key
    _payload_frame({"__t__": "tuple", "v": 5}),          # not iterable
    _payload_frame({"__t__": "dict", "v": [[1]]}),       # not a pair
    _payload_frame({"__t__": "set", "v": 3}),            # not iterable
    b"[" * 1000,                              # nested past the recursion limit
    b'{"v":1,"t":"nudge","src":7}',                      # nudge src not str
])
def test_hostile_frames_counted_malformed_not_delivered(data):
    """Regression: these raised TypeError, ValueError or RecursionError
    out of ``decode_frame``, past the transport's ``WireFormatError``
    guard, so nothing was counted and asyncio logged a traceback from
    the read callback.  Each is now one malformed datagram."""
    inbox = []
    b = UdpTransport("B", PeerDirectory(), inbox.append)
    b.datagram_received(data, ("127.0.0.1", 9))
    assert inbox == []
    assert b.malformed == 1 and b.stats.delivered == 0


def test_down_node_semantics():
    async def main():
        _, a, b, inbox = make_pair()
        await start_all(a, b)
        try:
            # Destination locally down: acked (transport alive) but not
            # delivered — mirrors the simulator's crashed-node drop.
            b.set_down("B")
            a.send(message(kind="load_update", src="A", dst="B", size=256.0))
            await a.flush()
            assert inbox == [] and a.stats.dropped == 0
            # Source down: dropped at the send gate, like Network.send.
            a.set_down("A")
            a.send(message(kind="load_update", src="A", dst="B", size=256.0))
            assert a.stats.dropped == 1
        finally:
            close_all(a, b)
    run(main())


def test_summary_parity_between_sim_and_udp():
    """The live transport and the simulated Network expose the same
    NetworkStats.summary() shape, so live and simulated runs are
    directly comparable."""

    async def live_counts():
        _, a, b, inbox = make_pair()
        await start_all(a, b)
        try:
            a.send(message(kind="load_update", src="A", dst="B", size=256.0))
            await wait_for(lambda: len(inbox) == 1)
            return a.summary(), b.summary()
        finally:
            close_all(a, b)

    sender, receiver = run(live_counts())
    sim_keys = set(Network(Environment(), ConstantLatency(0.01)).stats.summary())
    for live in (sender, receiver):
        assert sim_keys <= set(live)  # live adds counters, drops none
        assert {"retransmits", "duplicates", "malformed",
                "acks_sent"} <= set(live)
    assert {"sent", "delivered", "dropped", "bytes_sent", "by_kind",
            "hottest_dst", "hottest_dst_count"} <= sim_keys
    # Sender counts the send; the receiving endpoint counts delivery
    # (in the sim one Network object plays both roles).
    assert sender["sent"] == 1 and sender["by_kind"] == {"load_update": 1}
    assert receiver["delivered"] == 1 and sender["dropped"] == 0


def test_expected_delay_monotone_in_size():
    directory = PeerDirectory()
    t = UdpTransport("A", directory, lambda m: None,
                     est_latency=0.001, est_bandwidth=1e6)
    assert t.expected_delay("A", "B", 512.0) < t.expected_delay("A", "B", 2e6)
    assert t.expected_delay("A", "B", 0.0) == pytest.approx(0.001)


def test_aclose_disarms_pending_sends():
    """Regression: retries mid-backoff used to outlive ``close()``,
    leaking ack waiters into the dying loop.  A pending send is now a
    record plus one armed timer handle; after ``aclose()`` there is no
    record, no armed handle and no Task of the transport's."""
    async def main():
        _, a, b, inbox = make_pair(
            drop_fn=lambda msg, attempt: True,  # black hole: no acks ever
            ack_timeout=5.0, max_retries=8,
        )
        await start_all(a, b)
        try:
            for i in range(10):
                a.send(message(kind="stream", src="A", dst="B",
                               payload=stream(i), size=64.0))
            await asyncio.sleep(0.05)
            handles = [p.handle for p in a._pending_acks.values()]
            assert len(handles) == 10  # all mid-retry, none settled
            assert not any(h.cancelled() for h in handles)
        finally:
            await a.aclose()
            b.close()
        assert a._pending_acks == {}
        assert all(h.cancelled() for h in handles)
        assert a.stats.dropped == 10  # abandoned counts as dropped
        # Nothing of the transport's survives into the loop shutdown.
        leftover = [
            t for t in asyncio.all_tasks() if t is not asyncio.current_task()
        ]
        assert leftover == []
    run(main())


def test_flush_abandons_stragglers():
    """A send still unacked when ``flush`` times out is abandoned — a
    departing node must not leave retry timers running behind it."""
    async def main():
        _, a, b, inbox = make_pair(
            drop_fn=lambda msg, attempt: True,
            ack_timeout=30.0, max_retries=3,
        )
        await start_all(a, b)
        try:
            a.send(message(kind="peer_leave", src="A", dst="B", size=32.0))
            (pending,) = a._pending_acks.values()
            start = time.monotonic()
            await a.flush(timeout=0.05)
            assert time.monotonic() - start < 1.0  # not the 30 s timer
            assert a._pending_acks == {}
            assert pending.handle.cancelled()
            assert a.stats.dropped == 1 and a.retransmits == 0
        finally:
            close_all(a, b)
    run(main())


def test_flush_returns_as_soon_as_everything_is_acked():
    async def main():
        _, a, b, inbox = make_pair(ack_timeout=5.0)
        await start_all(a, b)
        try:
            for i in range(5):
                a.send(message(kind="stream", src="A", dst="B",
                               payload=stream(i), size=64.0))
            start = time.monotonic()
            await a.flush(timeout=5.0)
            assert time.monotonic() - start < 1.0
            assert a._pending_acks == {} and len(inbox) == 5
            assert a.stats.dropped == 0
        finally:
            close_all(a, b)
    run(main())


def test_retransmit_schedule():
    """Attempts 0..max_retries, spaced ``ack_timeout * backoff**k``,
    then exactly one drop — the schedule the coroutine loop had."""
    async def main():
        loop = asyncio.get_running_loop()
        calls = []

        def record(msg, attempt):
            calls.append((attempt, loop.time()))
            return True

        _, a, b, inbox = make_pair(
            drop_fn=record, ack_timeout=0.02, backoff=2.0, max_retries=3,
        )
        await start_all(a, b)
        try:
            a.send(message(kind="step_done", src="A", dst="B", size=96.0))
            assert calls and calls[0][0] == 0  # transmitted inside send()
            await a.flush(timeout=5.0)
            assert [attempt for attempt, _ in calls] == [0, 1, 2, 3]
            gaps = [t1 - t0 for (_, t0), (_, t1) in zip(calls, calls[1:])]
            for gap, want in zip(gaps, (0.02, 0.04, 0.08)):
                assert want <= gap < want + 0.05
            # The drop lands one last timeout (0.16 s) after attempt 3.
            assert loop.time() - calls[-1][1] >= 0.16
            assert a.stats.dropped == 1 and a.retransmits == 3
            assert inbox == []
        finally:
            close_all(a, b)
    run(main())


def test_unencodable_payload_is_a_logged_drop(capture_log):
    """Regression: a payload the codec cannot encode used to raise
    inside the fire-and-forget send Task ("Task exception was never
    retrieved" at GC time).  It is now that message's loss: counted,
    logged once by kind, and never raised into the calling handler."""
    records = capture_log("repro.runtime.transport")

    async def main():
        _, a, b, inbox = make_pair()
        await start_all(a, b)
        try:
            a.send(message(kind="task_request", src="A", dst="B",
                           payload={"blob": object()}, size=64.0))
            assert a._pending_acks == {}
            assert a.stats.sent == 1 and a.stats.dropped == 1
            # The transport is unharmed: the next message goes through.
            a.send(message(kind="task_request", src="A", dst="B", size=64.0))
            assert await wait_for(lambda: len(inbox) == 1)
        finally:
            close_all(a, b)

    run(main())
    warnings = [r for r in records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "task_request" in warnings[0].getMessage()


def test_receiver_learns_sender_address():
    """A respawned process re-binds fresh ports under its old node id;
    the receiver must adopt the address datagrams actually come from,
    or every reply chases the dead socket."""
    async def main():
        directory, a, b, inbox = make_pair()
        await start_all(a, b)
        try:
            directory.add("A", "127.0.0.1", 1)  # stale: A's old life
            a.send(message(kind="join_request", src="A", dst="B", size=64.0))
            assert await wait_for(lambda: len(inbox) == 1)
            assert directory.address("A") == (a.host, a.port)
        finally:
            close_all(a, b)
    run(main())


def test_message_id_reset_determinism():
    """Ids belong to the run: two fresh sim sources number messages
    alike, while two live incarnations start at different offsets (a
    respawned node must not reuse its old life's ``(src, msg_id)``)."""
    first, second = Ids(), Environment().ids
    assert [next(first.msg) for _ in range(3)] == [1, 2, 3]
    assert [next(second.msg) for _ in range(3)] == [1, 2, 3]
    directory = PeerDirectory()
    lives = [UdpTransport("A", directory, lambda m: None) for _ in range(2)]
    assert next(lives[0].ids.msg) != next(lives[1].ids.msg)


# -- retransmission timer from measured round trips (RFC 6298) -------------

def test_rtt_first_sample_sets_srtt_and_half_variance():
    est = RttEstimate(ceiling=1.0)
    est.sample(0.02)
    assert est.srtt == pytest.approx(0.02)
    assert est.rttvar == pytest.approx(0.01)
    assert est.rto == pytest.approx(0.02 + 4 * 0.01)


def test_rtt_later_samples_are_smoothed():
    est = RttEstimate(ceiling=1.0)
    est.sample(0.02)
    est.sample(0.04)
    # RTTVAR from the old SRTT (beta 1/4), then SRTT (alpha 1/8).
    assert est.rttvar == pytest.approx(0.75 * 0.01 + 0.25 * 0.02)
    assert est.srtt == pytest.approx(0.875 * 0.02 + 0.125 * 0.04)
    assert est.rto == pytest.approx(est.srtt + 4 * est.rttvar)


def test_rtt_timeout_is_clamped_to_floor_and_ceiling():
    fast = RttEstimate(ceiling=1.0)
    fast.sample(1e-5)
    assert fast.rto == RTO_FLOOR
    slow = RttEstimate(ceiling=0.05)
    slow.sample(0.1)
    assert slow.rto == 0.05 and slow.srtt == pytest.approx(0.1)


def test_rtt_back_off_doubles_until_the_next_sample():
    est = RttEstimate(ceiling=0.1)
    est.sample(0.006)
    base = est.rto
    assert base == pytest.approx(0.018)
    est.back_off()
    assert est.rto == pytest.approx(2 * base)
    est.back_off()
    assert est.rto == pytest.approx(4 * base)
    for _ in range(5):
        est.back_off()
    assert est.rto == 0.1  # capped at the ceiling
    srtt, rttvar = est.srtt, est.rttvar
    est.sample(0.006)  # a valid sample re-derives the timer
    assert est.srtt == pytest.approx(0.875 * srtt + 0.125 * 0.006)
    assert est.rto == pytest.approx(est.srtt + 4 * est.rttvar)
    assert est.rto < 0.1 and est.rttvar < rttvar


class _Switch:
    """A DropFn that loses copies only while armed: every copy if
    ``every`` is set, else just the first copy of each message."""

    def __init__(self):
        self.armed = False
        self.every = False
        self.calls = []

    def __call__(self, msg, attempt):
        self.calls.append((attempt, asyncio.get_running_loop().time()))
        return self.armed and (self.every or attempt == 0)


async def _warm_up(a, inbox, n=20):
    """*n* acked messages A -> B, one at a time, so each is timed."""
    for i in range(n):
        a.send(message(kind="stream", src="A", dst="B",
                       payload=stream(i), size=64.0))
        await a.flush()
    assert len(inbox) == n and a.retransmits == 0


def test_karn_no_sample_from_a_retransmitted_message():
    """Only an ack of a message sent exactly once is timed; one whose
    first copy was lost only backs its destination's timer off."""
    async def main():
        switch = _Switch()
        _, a, b, inbox = make_pair(drop_fn=switch, ack_timeout=1.0)
        await start_all(a, b)
        try:
            await _warm_up(a, inbox)
            est = a._rtt["B"]
            srtt, rttvar, rto = est.srtt, est.rttvar, est.rto
            switch.armed = True
            a.send(message(kind="compose", src="A", dst="B", size=64.0))
            await a.flush()
            assert len(inbox) == 21 and a.retransmits == 1
            assert (est.srtt, est.rttvar) == (srtt, rttvar)  # no sample
            assert est.rto == pytest.approx(min(2 * rto, 1.0))
            switch.armed = False
            a.send(message(kind="compose", src="A", dst="B", size=64.0))
            await a.flush()
            assert est.srtt != srtt  # a single copy samples again
            assert est.rto == pytest.approx(
                max(est.srtt + 4 * est.rttvar, RTO_FLOOR)
            )
        finally:
            close_all(a, b)
    run(main())


def test_lost_first_copy_recovers_at_the_measured_rto():
    """After the round trip is measured, a lost datagram costs about
    that round trip, not ``ack_timeout`` (1 s here)."""
    async def main():
        switch = _Switch()
        _, a, b, inbox = make_pair(drop_fn=switch, ack_timeout=1.0)
        await start_all(a, b)
        try:
            await _warm_up(a, inbox)
            switch.armed = True
            start = time.monotonic()
            a.send(message(kind="compose", src="A", dst="B", size=64.0))
            assert await wait_for(lambda: len(inbox) == 21)
            assert time.monotonic() - start < 0.25
            assert a.retransmits == 1
        finally:
            close_all(a, b)
    run(main())


def test_measured_rto_keeps_the_give_up_horizon():
    """A message starting at a measured RTO retries first at about that
    RTO, and is dropped no sooner than one starting at ``ack_timeout``
    (Σ ack_timeout·backoff**k, k = 0..max_retries)."""
    async def main():
        ack_timeout, backoff, max_retries = 0.08, 2.0, 1
        switch = _Switch()
        _, a, b, inbox = make_pair(
            drop_fn=switch, ack_timeout=ack_timeout, backoff=backoff,
            max_retries=max_retries,
        )
        await start_all(a, b)
        try:
            await _warm_up(a, inbox)
            rto = a._rtt["B"].rto
            assert rto < ack_timeout
            switch.armed = switch.every = True
            switch.calls.clear()
            loop = asyncio.get_running_loop()
            a.send(message(kind="step_done", src="A", dst="B", size=96.0))
            await a.flush(timeout=5.0)
            dropped_at = loop.time()
            attempts = [attempt for attempt, _ in switch.calls]
            extra = math.ceil(math.log(ack_timeout / rto, backoff))
            assert attempts == list(range(max_retries + extra + 1))
            first_gap = switch.calls[1][1] - switch.calls[0][1]
            assert rto <= first_gap < rto + 0.05
            horizon = sum(
                ack_timeout * backoff ** k for k in range(max_retries + 1)
            )
            assert dropped_at - switch.calls[0][1] >= horizon
            assert a.stats.dropped == 1 and len(inbox) == 20
        finally:
            close_all(a, b)
    run(main())


def test_frame_for_another_node_is_neither_acked_nor_delivered():
    """Regression: a reused loopback port could hand B a frame meant
    for C; B delivered it to its handlers and acked it under its own
    id, which settled nothing at the sender.  It is now dropped."""
    async def main():
        _, a, b, inbox = make_pair()
        await start_all(a, b)
        try:
            data = encode_message(message(
                kind="compose", src="A", dst="C", size=64.0,
            ))
            b.datagram_received(data, (a.host, a.port))
            assert inbox == [] and b.stats.delivered == 0
            assert b.acks_sent == 0 and b.malformed == 1
        finally:
            close_all(a, b)
    run(main())


def test_rtt_samples_feed_the_histogram_with_telemetry_on():
    from repro import telemetry

    async def main():
        _, a, b, inbox = make_pair()
        await start_all(a, b)
        try:
            await _warm_up(a, inbox, n=3)
        finally:
            close_all(a, b)

    with telemetry.session(telemetry.Telemetry.wall()) as tel:
        run(main())
    hist = tel.metrics.histogram("repro_udp_rtt_seconds")
    assert hist.count == 3 and hist.sum > 0


def test_a_stalled_loop_does_not_retransmit_an_acked_message():
    """A timer that fires after the loop stalled past it waits once
    more, as long as it ran late: the ack that arrived meanwhile is read
    first, instead of a spurious retransmission."""
    async def main():
        _, a, b, inbox = make_pair(ack_timeout=1.0)
        await start_all(a, b)
        try:
            await _warm_up(a, inbox)
            assert a._rtt["B"].rto < 0.05
            a.send(message(kind="compose", src="A", dst="B", size=64.0))
            time.sleep(0.1)  # the loop stalls past the measured RTO
            await a.flush()
            assert len(inbox) == 21
            assert a.retransmits == 0 and b.duplicates == 0
        finally:
            close_all(a, b)
    run(main())


def test_the_sender_ends_its_message_span_at_the_ack():
    """Regression: the sender opened ``msg:<id>`` and only the
    receiver's delivery closed it, so across processes every message
    span was lost and the sender's open-span map grew by one entry per
    message.  The peer here is a bare socket that acks like another
    process would: it holds no span of A's."""
    import socket

    from repro import telemetry
    from repro.runtime.codec import decode_frame, encode_ack

    async def main():
        directory = PeerDirectory()
        a = UdpTransport("A", directory, lambda m: None)
        await a.start()
        peer = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        peer.bind((a.host, 0))
        peer.setblocking(False)
        directory.add("B", a.host, peer.getsockname()[1])
        loop = asyncio.get_running_loop()
        try:
            msgs = [
                message(kind="compose", src="A", dst="B", size=64.0)
                for _ in range(3)
            ]
            for msg in msgs:
                a.send(msg)
            for _ in msgs:
                data, addr = await loop.sock_recvfrom(peer, 65536)
                msg_id = decode_frame(data)["msg"].msg_id
                peer.sendto(encode_ack("B", msg_id), addr)
            await a.flush()
            return msgs
        finally:
            a.close()
            peer.close()

    with telemetry.session(telemetry.Telemetry.wall()) as tel:
        msgs = run(main())
    spans = tel.tracer.spans_of_kind(telemetry.MESSAGE)
    assert sorted(s.attrs["msg_id"] for s in spans) == sorted(
        m.msg_id for m in msgs
    )
    assert all(s.status == "ok" and s.node == "A" for s in spans)
    assert all(tel.tracer.open_span(f"msg:{m.msg_id}") is None for m in msgs)


def test_the_receiver_ends_no_message_span():
    """The receiver counts the delivery but leaves span keys alone: a
    ``msg:<id>`` open in its process belongs to one of its own sends."""
    from repro import telemetry

    async def main(tel):
        _, a, b, inbox = make_pair()
        await start_all(a, b)
        try:
            msg = message(kind="compose", src="A", dst="B", size=64.0)
            key = f"msg:{msg.msg_id}"
            own = tel.tracer.start_span("own", telemetry.MESSAGE, key=key)
            b.datagram_received(encode_message(msg), (a.host, a.port))
            assert [m.msg_id for m in inbox] == [msg.msg_id]
            assert tel.tracer.open_span(key) is own
        finally:
            close_all(a, b)

    with telemetry.session(telemetry.Telemetry.wall()) as tel:
        run(main(tel))
    assert tel.metrics.counter(
        "repro_net_messages_delivered_total"
    ).value == 1


class _Recorder:
    """A DropFn logging ``(dst, msg_id, attempt)`` per transmission and
    losing every copy while ``lose`` is set."""

    def __init__(self):
        self.lose = False
        self.sends = []

    def __call__(self, msg, attempt):
        self.sends.append((msg.dst, msg.msg_id, attempt))
        return self.lose


def make_trio(drop_fn, **kwargs):
    """A sends to B and C; B and C record deliveries."""
    directory = PeerDirectory()
    inbox_b, inbox_c = [], []
    a = UdpTransport("A", directory, lambda m: None, drop_fn=drop_fn,
                     **kwargs)
    b = UdpTransport("B", directory, inbox_b.append, **kwargs)
    c = UdpTransport("C", directory, inbox_c.append, **kwargs)
    return a, b, c, inbox_b, inbox_c


def test_nudge_resends_only_what_is_pending_to_the_nudging_node():
    async def main():
        rec = _Recorder()
        a, b, c, inbox_b, inbox_c = make_trio(rec, ack_timeout=2.0)
        await start_all(a, b, c)
        try:
            rec.lose = True
            to_b = message(kind="compose", src="A", dst="B", size=64.0)
            to_c = message(kind="compose", src="A", dst="C", size=64.0)
            a.send(to_b)
            a.send(to_c)
            rec.lose = False
            b.nudge("B", "A")
            assert await wait_for(lambda: len(inbox_b) == 1)
            assert b.nudges_sent == 1 and a.retransmits == 1
            assert rec.sends == [
                ("B", to_b.msg_id, 0), ("C", to_c.msg_id, 0),
                ("B", to_b.msg_id, 1),
            ]
            await asyncio.sleep(0.05)
            assert inbox_c == []  # C's copy waits for its own timer
            assert a.stats.dropped == 0
        finally:
            close_all(a, b, c)
    run(main())


def test_nudged_resend_neither_samples_nor_backs_off_the_rtt():
    """Karn's rule: a nudged message was sent twice, so its ack times
    nothing; and a nudge is no timeout, so the RTO keeps its value."""
    async def main():
        switch = _Switch()
        _, a, b, inbox = make_pair(drop_fn=switch, ack_timeout=1.0)
        await start_all(a, b)
        try:
            await _warm_up(a, inbox)
            est = a._rtt["B"]
            before = (est.srtt, est.rttvar, est.rto)
            switch.armed = True
            a.send(message(kind="compose", src="A", dst="B", size=64.0))
            switch.armed = False
            b.nudge("B", "A")
            await a.flush()
            assert len(inbox) == 21 and a.retransmits == 1
            assert (est.srtt, est.rttvar, est.rto) == before
        finally:
            close_all(a, b)
    run(main())


def test_one_nudged_resend_per_message_until_its_timer_fires():
    async def main():
        rec = _Recorder()
        a, b, c, inbox_b, _ = make_trio(rec, ack_timeout=0.3)
        await start_all(a, b, c)
        try:
            rec.lose = True
            msg = message(kind="compose", src="A", dst="B", size=64.0)
            a.send(msg)
            b.nudge("B", "A")
            b.nudge("B", "A")
            assert await wait_for(lambda: len(rec.sends) == 2)
            await asyncio.sleep(0.05)
            assert rec.sends == [("B", msg.msg_id, 0), ("B", msg.msg_id, 1)]
            # The timer fires (attempt 1 again: a nudge spends no retry),
            # and a nudge after it may resend once more.
            assert await wait_for(lambda: len(rec.sends) == 3)
            assert rec.sends[2] == ("B", msg.msg_id, 1)
            rec.lose = False
            b.nudge("B", "A")
            assert await wait_for(lambda: len(inbox_b) == 1)
            assert a.retransmits == 3
        finally:
            close_all(a, b, c)
    run(main())


def test_nudge_with_nothing_pending_sends_nothing():
    async def main():
        rec = _Recorder()
        a, b, c, _, inbox_c = make_trio(rec, ack_timeout=2.0)
        await start_all(a, b, c)
        try:
            b.nudge("B", "A")  # A holds nothing at all
            rec.lose = True
            a.send(message(kind="compose", src="A", dst="C", size=64.0))
            b.nudge("B", "A")  # A holds something, but not for B
            await asyncio.sleep(0.05)
            assert len(rec.sends) == 1 and a.retransmits == 0
            assert b.nudges_sent == 2 and inbox_c == []
        finally:
            close_all(a, b, c)
    run(main())

