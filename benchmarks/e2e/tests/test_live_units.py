import asyncio
import itertools
from time import perf_counter

import pytest

from benchmarks.e2e import live
from benchmarks.e2e.speed import Interval, SpeedMeter


class Msg:
    def __init__(self, src, dst, kind):
        self.src, self.dst, self.kind = src, dst, kind


def decisions(shim, sends):
    return [(m.src, m.dst, m.kind, shim(m, 0)) for m in sends]


def test_loss_does_not_depend_on_interleaving():
    a = [Msg("P2a", "M0", "step_done") for _ in range(400)]
    b = [Msg("P3b", "M0", "task_done") for _ in range(400)]
    one, two = live.LossShim(seed=5), live.LossShim(seed=5)
    one.armed = two.armed = True
    first = decisions(one, a + b)  # all of a, then all of b
    second = decisions(  # strictly alternating
        two, list(itertools.chain.from_iterable(zip(a, b)))
    )
    assert sorted(first) == sorted(second)
    assert one.drops == two.drops
    assert 10 <= sum(one.drops.values()) <= 80  # ~5 % of 800


def test_loss_follows_the_seed_and_waits_until_armed():
    sends = [Msg("P2a", "M0", "stream") for _ in range(2000)]
    one, two = live.LossShim(seed=1), live.LossShim(seed=2)
    assert not any(one(m, 0) for m in sends)  # not armed yet
    one, two = live.LossShim(seed=1), live.LossShim(seed=2)
    one.armed = two.armed = True
    assert decisions(one, sends) != decisions(two, sends)


def test_no_kind_is_exempt_from_loss():
    # A lost first COMPOSE strands its task; the workload must show it.
    shim = live.LossShim(seed=3)
    shim.armed = True
    lost = sum(shim(Msg("M0", "P1a", "compose"), 0) for _ in range(5000))
    assert 150 <= lost <= 350 and shim.drops["compose"] == lost


class StubCluster:
    """Acks at once; completes each task after a fixed delay."""

    def __init__(self, complete_after_s, lose=()):
        self.complete_after_s = complete_after_s
        self.lose = set(lose)
        self.ids = itertools.count()

    async def submit(self, origin, timeout):
        return {"task_id": f"t{next(self.ids)}", "disposition": "accepted"}

    async def wait_task_event(self, task_id, event, timeout):
        wait = 3600.0 if task_id in self.lose else self.complete_after_s
        await asyncio.wait_for(asyncio.sleep(wait), timeout)


def test_open_loop_times_from_due_and_reports_lateness():
    ledger = live._Ledger()
    cluster = StubCluster(complete_after_s=0.01)

    async def late_task():
        due = perf_counter() - 0.05  # the generator ran 50 ms late
        await live._one_task(cluster, "P2a", ledger, due, limit_s=1.0)

    asyncio.run(late_task())
    assert ledger.lateness_s[0] == pytest.approx(0.05, abs=0.01)
    # Latency counts the wait the stall imposed, not just service time.
    assert ledger.latencies_s[0] == pytest.approx(0.06, abs=0.02)


def test_open_loop_keeps_its_schedule_and_counts_timeouts(monkeypatch):
    monkeypatch.setattr(live, "OPEN_LIMIT_S", 0.2)
    ledger, spent = live._Ledger(), Interval()
    cluster = StubCluster(complete_after_s=0.005, lose={"t3"})
    meter = SpeedMeter()
    asyncio.run(live._open_loop(
        cluster, ["P2a"] * 10, ledger, 100.0, meter, spent
    ))
    assert ledger.attempted == 10 and not ledger.in_flight
    assert len(ledger.latencies_s) == 9
    assert ledger.timed_out == {"t3"}
    assert len(ledger.lateness_s) == 10 and max(ledger.lateness_s) < 0.05
    # 10 tasks at 100/s: the last is due at 90 ms, the lost one is
    # given up 200 ms after it was due (at ~230 ms).  The window's wall
    # time is the schedule's, so it is not scaled.
    assert 0.2 < spent.raw_wall_s < 0.6
    assert spent.wall_s == spent.raw_wall_s
    assert 0.0 <= spent.cpu_s < spent.raw_wall_s


def test_closed_loop_scales_each_slice_by_its_own_speed(monkeypatch):
    monkeypatch.setattr(live, "SLICE_TASKS", 4)

    class Meter(SpeedMeter):
        scales = iter([0.5, 2.0])

        def factor(self):
            return next(self.scales)

    ledger, spent = live._Ledger(), Interval()
    cluster = StubCluster(complete_after_s=0.01)
    asyncio.run(live._closed_loop(cluster, ["P2a"] * 8, ledger, Meter(), spent))
    first, second = ledger.latencies_s[:4], ledger.latencies_s[4:]
    assert len(first) == len(second) == 4
    assert max(first) < 0.5 * 0.05 and min(second) > 2.0 * 0.009
    assert spent.raw_wall_s < spent.wall_s  # 0.5x one slice, 2x the other


def test_refused_submission_counts_against_attempts():
    class Refusing(StubCluster):
        async def submit(self, origin, timeout):
            return {"task_id": "t0", "disposition": "rejected"}

    ledger = live._Ledger()
    asyncio.run(live._one_task(Refusing(0.0), "P2a", ledger, None, 1.0))
    assert (ledger.attempted, ledger.refused, ledger.acked) == (1, 1, [])
