"""Reliability and parity tests for the live UDP transport.

Packet loss is injected with the transport's ``drop_fn`` shim (drop the
first N transmissions of a message); the ack/backoff retry loop must
still deliver exactly once, well inside a 5-second wall-clock budget.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time

import pytest

from repro.core import protocol
from repro.monitoring.profiler import LoadReport
from repro.net.message import Message, reset_message_ids
from repro.net.network import ConstantLatency, Network
from repro.runtime.codec import encode_message
from repro.runtime.transport import PeerDirectory, SimTransport, UdpTransport
from repro.sim.core import Environment


def run(coro):
    return asyncio.run(coro)


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
            msg = Message(kind="load_update", src="A", dst="B",
                          payload={"x": 1}, size=256.0)
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
            msg = Message(kind="task_request", src="A", dst="B",
                          payload={"name": "movie"}, size=512.0)
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
            a.send(Message(kind="step_done", src="A", dst="B", size=96.0))
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
            msg = Message(kind="task_done", src="A", dst="B", size=128.0)
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
                Message(kind="stream", src="A", dst="B",
                        payload={"seq": i}, size=64.0)
                for i in range(20)
            ]
            for m in sent:
                a.send(m)
            assert await wait_for(lambda: len(inbox) == len(sent))
            assert time.monotonic() - start < 5.0
            assert sorted(m.payload["seq"] for m in inbox) == list(range(20))
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
    frame = json.loads(encode_message(Message(
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


def test_down_node_semantics():
    async def main():
        _, a, b, inbox = make_pair()
        await start_all(a, b)
        try:
            # Destination locally down: acked (transport alive) but not
            # delivered — mirrors the simulator's crashed-node drop.
            b.set_down("B")
            a.send(Message(kind="load_update", src="A", dst="B", size=256.0))
            await a.flush()
            assert inbox == [] and a.stats.dropped == 0
            # Source down: dropped at the send gate, like Network.send.
            a.set_down("A")
            a.send(Message(kind="load_update", src="A", dst="B", size=256.0))
            assert a.stats.dropped == 1
        finally:
            close_all(a, b)
    run(main())


def test_summary_parity_between_sim_and_udp():
    """Both transports expose the same NetworkStats.summary() shape, so
    live and simulated runs are directly comparable."""
    env = Environment()
    sim = SimTransport(Network(env, ConstantLatency(0.01)))

    async def live_counts():
        _, a, b, inbox = make_pair()
        await start_all(a, b)
        try:
            a.send(Message(kind="load_update", src="A", dst="B", size=256.0))
            await wait_for(lambda: len(inbox) == 1)
            return a.summary(), b.summary()
        finally:
            close_all(a, b)

    sender, receiver = run(live_counts())
    sim_keys = set(sim.summary())
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
                a.send(Message(kind="stream", src="A", dst="B",
                               payload={"seq": i}, size=64.0))
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
            a.send(Message(kind="leave", src="A", dst="B", size=32.0))
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
                a.send(Message(kind="stream", src="A", dst="B",
                               payload={"seq": i}, size=64.0))
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
            a.send(Message(kind="step_done", src="A", dst="B", size=96.0))
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
            a.send(Message(kind="task_request", src="A", dst="B",
                           payload={"blob": object()}, size=64.0))
            assert a._pending_acks == {}
            assert a.stats.sent == 1 and a.stats.dropped == 1
            # The transport is unharmed: the next message goes through.
            a.send(Message(kind="task_request", src="A", dst="B",
                           payload={"ok": 1}, size=64.0))
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
            a.send(Message(kind="join", src="A", dst="B", size=64.0))
            assert await wait_for(lambda: len(inbox) == 1)
            assert directory.address("A") == (a.host, a.port)
        finally:
            close_all(a, b)
    run(main())


def test_message_id_reset_determinism():
    """Message.reset_ids rewinds the auto-id counter so repeated runs
    assign identical ids (trace comparability across in-process runs)."""
    Message.reset_ids()
    first = [Message(kind="stream", src="a", dst="b", size=1.0).msg_id
             for _ in range(3)]
    Message.reset_ids()
    second = [Message(kind="stream", src="a", dst="b", size=1.0).msg_id
              for _ in range(3)]
    assert first == second == [1, 2, 3]
    reset_message_ids(100)
    assert Message(kind="stream", src="a", dst="b", size=1.0).msg_id == 100
    Message.reset_ids()
