"""SimClockPump stall catch-up semantics.

A live node's pump can fall arbitrarily far behind the wall clock — a
stopped laptop lid, a SIGSTOP, an event-loop stall under load.  On
resume the backlog must replay *in timestamp order* (causality inside
the sim kernel is the protocol's correctness), the ``max_batch`` valve
must only interleave I/O yields — never skip or reorder work — and
timers scheduled beyond the stall horizon must not fire early.

The stall is simulated by shifting the pump's wall anchor into the
past, which is exactly what a real stall looks like from the pump's
point of view: suddenly everything is overdue.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.runtime.node import SimClockPump
from repro.sim.core import Environment

pytestmark = pytest.mark.integration


def run(coro):
    return asyncio.run(coro)


async def wait_for(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return predicate()


def timer(env, delay, record, label):
    """A process recording (label, sim-now) after *delay* sim seconds."""
    def gen():
        yield env.timeout(delay)
        record.append((label, env.now))
    return env.process(gen())


def test_stall_catchup_replays_in_order_under_max_batch():
    """A 100 s stall with a deep backlog and ``max_batch=2``: every
    event replays, in timestamp order, at its scheduled sim time."""
    async def main():
        env = Environment()
        record = []
        # Scheduled far enough out that nothing fires naturally during
        # the test; reverse insertion order to catch ordering-by-id.
        delays = [50.0 + i * 0.5 for i in range(20)]
        for i, d in enumerate(reversed(delays)):
            timer(env, d, record, f"t{d:g}")
        pump = SimClockPump(env, max_batch=2)
        task = asyncio.ensure_future(pump.run())
        try:
            await asyncio.sleep(0.05)
            assert record == []  # all timers still in the future
            pump._anchor -= 200.0  # the stall: everything overdue at once
            pump.kick()
            assert await wait_for(lambda: len(record) == len(delays))
            fired_at = [now for _, now in record]
            assert fired_at == sorted(delays)  # order AND timestamps kept
        finally:
            pump.stop()
            await task
    run(main())


def test_stall_catchup_preserves_causal_chains():
    """A process that schedules follow-up work *during* replay lands at
    its causal position, interleaved with independent timers."""
    async def main():
        env = Environment()
        record = []

        def chained():
            yield env.timeout(50.0)
            record.append(("a1", env.now))
            yield env.timeout(10.0)  # scheduled mid-replay, due at 60
            record.append(("a2", env.now))

        env.process(chained())
        timer(env, 55.0, record, "b")
        pump = SimClockPump(env, max_batch=1)
        task = asyncio.ensure_future(pump.run())
        try:
            await asyncio.sleep(0.05)
            pump._anchor -= 100.0
            pump.kick()
            assert await wait_for(lambda: len(record) == 3)
            assert record == [("a1", 50.0), ("b", 55.0), ("a2", 60.0)]
        finally:
            pump.stop()
            await task
    run(main())


def test_timers_beyond_the_stall_do_not_fire_early():
    """Catch-up stops at the (shifted) wall clock: a timer past the
    stall horizon stays pending instead of being dragged forward."""
    async def main():
        env = Environment()
        record = []
        timer(env, 50.0, record, "due")
        timer(env, 1000.0, record, "future")
        pump = SimClockPump(env, max_batch=1000)
        task = asyncio.ensure_future(pump.run())
        try:
            await asyncio.sleep(0.05)
            pump._anchor -= 100.0  # 50 s timer overdue; 1000 s is not
            pump.kick()
            assert await wait_for(lambda: len(record) == 1)
            await asyncio.sleep(0.1)  # catch-up settled; nothing else due
            assert record == [("due", 50.0)]
            # The sim clock never ran ahead of the shifted wall clock.
            assert env.now <= asyncio.get_running_loop().time() - pump._anchor
        finally:
            pump.stop()
            await task
    run(main())


def test_kick_wakes_an_idle_pump():
    """An idle pump (empty queue, infinite sleep) picks up externally
    injected work on ``kick`` — the datagram-arrival path."""
    async def main():
        env = Environment()
        record = []
        pump = SimClockPump(env, max_batch=1000)
        task = asyncio.ensure_future(pump.run())
        try:
            await asyncio.sleep(0.02)  # parked on the infinite wait
            timer(env, 0.0, record, "injected")
            pump.kick()
            assert await wait_for(lambda: len(record) == 1)
        finally:
            pump.stop()
            await task
    run(main())
