"""The live data path is loop callbacks, not coroutines.

A reliable send is a pending record plus one timer handle; the clock
pump is a ``_drain`` callback plus one ``call_at``.  Neither may create
an asyncio Task in steady state (a Task per datagram was a third of the
live runtime's CPU), and a pump that dies must still be seen dying.
"""

from __future__ import annotations

import asyncio
import logging

import pytest

from repro.net.message import Message
from repro.runtime.node import LiveNode, NodeSpec, SimClockPump
from repro.runtime.transport import PeerDirectory, UdpTransport
from repro.sim.core import Environment

pytestmark = pytest.mark.integration


def test_steady_state_creates_no_tasks():
    """100 acked sends and 100 pump waits: zero Tasks created."""
    async def main():
        loop = asyncio.get_running_loop()
        directory = PeerDirectory()
        inbox = []
        a = UdpTransport("A", directory, lambda m: None)
        b = UdpTransport("B", directory, inbox.append)
        await a.start()
        await b.start()
        env = Environment()
        pump = SimClockPump(env)
        pump_task = asyncio.ensure_future(pump.run())

        def sleeper():
            yield env.timeout(0.001)  # the pump parks on its timer

        created = []

        def counting_factory(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        loop.set_task_factory(counting_factory)
        tasks_before = len(asyncio.all_tasks())
        try:
            for i in range(100):
                a.send(Message(kind="stream", src="A", dst="B",
                               payload={"seq": i}, size=64.0))
                assert len(asyncio.all_tasks()) == tasks_before
                await pump.run_process(sleeper())
                await a.flush(timeout=5.0)
                assert len(asyncio.all_tasks()) == tasks_before
            assert len(inbox) == 100 and a.retransmits == 0
            assert env.now >= 0.1  # 100 timer waits really happened
            assert created == []
        finally:
            loop.set_task_factory(None)
            pump.stop()
            await pump_task
            await a.aclose()
            await b.aclose()
    asyncio.run(main())


def test_stopped_pump_leaves_nothing_armed():
    async def main():
        env = Environment()
        env.timeout(1000.0)
        pump = SimClockPump(env)
        task = asyncio.ensure_future(pump.run())
        await asyncio.sleep(0.01)
        timer = pump._timer
        assert timer is not None and not timer.cancelled()
        pump.kick()
        pump.kick()  # idempotent: one queued drain, not two
        pump.stop()
        await task
        assert timer.cancelled()
        assert pump._timer is None and pump._soon is None
        pump.kick()  # a late datagram after stop arms nothing
        assert pump._timer is None and pump._soon is None
    asyncio.run(main())


def test_raising_sim_process_kills_the_pump_loudly(capture_log):
    """The pump's ``run()`` raises what the sim event raised, and the
    node's done-callback logs it: a dead pump never passes silently."""
    records = capture_log("repro.runtime.node")

    async def main():
        node = LiveNode(NodeSpec(node_id="P1"), PeerDirectory(), "roster@s0")
        env = node.env

        def doomed():
            yield env.timeout(0.01)
            raise RuntimeError("boom")

        env.process(doomed())
        task = asyncio.ensure_future(node.pump.run())
        task.add_done_callback(node._pump_done)
        with pytest.raises(RuntimeError, match="boom"):
            await task
        await asyncio.sleep(0)  # let the done-callback run
        assert node.pump._timer is None and node.pump._soon is None

    asyncio.run(main())
    assert any(
        r.levelno == logging.ERROR and "clock pump died" in r.getMessage()
        for r in records
    )
