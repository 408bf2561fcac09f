import asyncio
import importlib
import inspect

import pytest

from benchmarks.e2e import tracing
from benchmarks.e2e.tracing import (
    ASYNC_ENTRIES, ENTRY_POINTS, SpanTracer, aggregate,
)


class FakeClock:
    """perf_counter stand-in: time moves only when the test says so."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracing, "perf_counter", fake)
    return fake


def by_name(tracer):
    return {s.name: s for s in tracer.finished()}


def test_self_time_is_duration_minus_children(clock):
    tracer = SpanTracer()

    def leaf():
        clock.work(2.0)

    leaf_t = tracer.wrap("leaf", leaf)

    def mid():
        clock.work(1.0)
        leaf_t()
        clock.work(0.5)
        leaf_t()

    mid_t = tracer.wrap("mid", mid)

    def root():
        clock.work(0.25)
        mid_t()
        clock.work(0.25)

    tracer.wrap("root", root)()
    spans = tracer.finished()
    assert [s.name for s in spans] == ["root", "mid", "leaf", "leaf"]
    root_s, mid_s, leaf1, leaf2 = spans
    assert root_s.parent == -1 and mid_s.parent == 0
    assert leaf1.parent == leaf2.parent == 1
    assert root_s.end - root_s.start == pytest.approx(6.0)
    assert root_s.self_s == pytest.approx(0.5)
    assert mid_s.self_s == pytest.approx(1.5)
    assert leaf1.self_s == leaf2.self_s == pytest.approx(2.0)
    # Self times partition the root's duration.
    assert sum(s.self_s for s in spans) == pytest.approx(6.0)


def test_span_closes_when_the_call_raises(clock):
    tracer = SpanTracer()

    def boom():
        clock.work(1.0)
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    (span,) = tracer.finished()
    assert span.self_s == pytest.approx(1.0)
    assert tracer._stack == []


def test_generator_span_excludes_the_consumer(clock):
    tracer = SpanTracer()

    def child():
        clock.work(0.5)

    child_t = tracer.wrap("child", child)

    def gen(n):
        for i in range(n):
            clock.work(1.0)  # the generator's own work
            child_t()
            yield i

    gen_t = tracer.wrap("gen", gen)

    def consumer():
        for _ in gen_t(3):
            clock.work(10.0)  # must not be charged to the generator

    tracer.wrap("consumer", consumer)()
    spans = by_name(tracer)
    assert spans["gen"].self_s == pytest.approx(3.0)
    assert spans["consumer"].self_s == pytest.approx(30.0)
    assert sum(s.self_s for s in tracer.finished()) == pytest.approx(34.5)


def test_generator_closed_early_still_records(clock):
    tracer = SpanTracer()

    def gen():
        while True:
            clock.work(1.0)
            yield 1

    it = tracer.wrap("gen", gen)()
    next(it)
    it.close()
    (span,) = tracer.finished()
    assert span.self_s == pytest.approx(1.0)


def test_async_span_records_interval_without_joining_the_stack(clock):
    tracer = SpanTracer()

    async def start():
        clock.work(1.0)
        await asyncio.sleep(0)
        clock.work(1.0)
        return "up"

    assert asyncio.run(tracer.wrap("start", start)()) == "up"
    (span,) = tracer.finished()
    assert span.self_s == pytest.approx(2.0)
    assert tracer._stack == []


def test_async_entries_are_exactly_the_coroutine_entry_points():
    found = set()
    for name, places in ENTRY_POINTS.items():
        for module_name, class_name, attr in places:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            if inspect.iscoroutinefunction(owner.__dict__[attr]):
                found.add(name)
    assert found == ASYNC_ENTRIES


def test_task_id_and_frame_bytes_are_picked_up(clock):
    tracer = SpanTracer()

    class Task:
        task_id = "t42"

    class Msg:
        payload = {"task_id": "t7"}

    tracer.wrap("admit", lambda self, task: None)(object(), Task())
    tracer.wrap("encode", lambda msg: b"12345")(Msg())
    tracer.wrap("plain", lambda x: "12345")(3)
    admit, encode, plain = tracer.finished()
    assert admit.task_id == "t42"
    assert (encode.task_id, encode.out_bytes) == ("t7", 5)
    assert (plain.task_id, plain.out_bytes) == (None, 0)


def test_aggregate_counts_window_spans_and_all_setup_spans(clock):
    tracer = SpanTracer()
    join = tracer.wrap("overlay.join", lambda: clock.work(1.0))
    send = tracer.wrap("net.send", lambda: clock.work(0.5))
    join()
    send()  # warm-up traffic: before the window
    window_opens = clock.now
    send()
    send()
    rows = aggregate(tracer.finished(), window_opens)
    assert rows["overlay.join"] == {"calls": 1, "self_s": 1.0, "out_bytes": 0}
    assert rows["net.send"]["calls"] == 2
    assert rows["net.send"]["self_s"] == pytest.approx(1.0)
    assert set(rows) == set(ENTRY_POINTS)


def test_installed_patches_and_restores_every_entry_point():
    from repro.net.network import Network
    from repro.runtime import transport

    before = (Network.__dict__["send"], transport.encode_message)
    tracer = SpanTracer()
    with tracer.installed():
        assert Network.__dict__["send"].__wrapped__ is before[0]
        assert transport.encode_message.__wrapped__ is before[1]
    assert (Network.__dict__["send"], transport.encode_message) == before
