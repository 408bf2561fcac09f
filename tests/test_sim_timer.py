"""Timer: process-free recurring work with a process loop's events."""

import pytest

from repro.profiling.stacks import describe_dispatch
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def _loop_trace(use_timer, delay=1.0, until=5.0):
    """Interleave a periodic body with other work scheduled at the same
    times; return the order of everything that ran and the event count."""
    env = Environment()
    log = []

    def body():
        log.append(("tick", env.now))
        # Work the body schedules for the next tick's instant must keep
        # its place ahead of that tick in the seq order.
        env.timeout(delay).callbacks.append(
            lambda ev: log.append(("scheduled-by-tick", env.now))
        )

    def other():
        while True:
            yield env.timeout(delay)
            log.append(("other", env.now))

    env.process(other())
    if use_timer:
        env.every(delay, body)
    else:
        def loop():
            while True:
                yield env.timeout(delay)
                body()
        env.process(loop())
    env.process(other())
    env.run(until=until)
    return log, env.n_processed


class TestEquivalence:
    def test_same_order_and_event_count_as_a_process_loop(self):
        assert _loop_trace(True) == _loop_trace(False)

    def test_callable_delay_is_reread_before_every_tick(self, env):
        delays = iter([1.0, 2.0, 0.5, 4.0, 100.0])
        times = []
        env.every(lambda: next(delays), lambda: times.append(env.now))
        env.run(until=10.0)
        assert times == [1.0, 3.0, 3.5, 7.5]

    def test_start_event_is_urgent_at_creation(self, env):
        order = []
        env.timeout(0.0).callbacks.append(lambda ev: order.append("normal"))
        timer = env.every(1.0, lambda: None)
        timer.callbacks.append(lambda ev: order.append("timer-start"))
        env.run(until=0.0)
        assert order == ["timer-start", "normal"]


class TestRearmInPlace:
    def test_each_tick_reuses_the_timer_and_its_callbacks(self, env):
        timer = env.every(1.0, lambda: None)
        env.step()  # start event
        seen = set()
        for _ in range(5):
            (_t, _prio, _seq, event) = env._queue[0]
            assert event is timer
            seen.add(id(timer.callbacks))
            env.step()
        assert len(seen) == 1
        assert env.n_processed == 6

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.every(-1.0, lambda: None)
        env.every(lambda: -1.0, lambda: None)
        with pytest.raises(ValueError):
            env.run()


class TestCancel:
    def test_pending_tick_pops_as_an_empty_event(self, env):
        calls = []
        timer = env.every(2.0, lambda: calls.append(env.now))
        env.run(until=3.0)
        timer.cancel()
        timer.cancel()  # idempotent
        env.run()
        assert calls == [2.0]
        # start, tick at 2.0, then the orphaned tick at 4.0
        assert env.n_processed == 3
        assert env.now == 4.0

    def test_cancel_from_inside_the_body(self, env):
        calls = []

        def body():
            calls.append(env.now)
            if len(calls) == 3:
                timer.cancel()

        timer = env.every(1.0, body)
        env.run()
        assert calls == [1.0, 2.0, 3.0]
        assert env.n_processed == 4

    def test_cancel_before_start(self, env):
        timer = env.every(1.0, lambda: pytest.fail("ticked"))
        timer.cancel()
        env.run()
        assert env.n_processed == 1


class TestErrors:
    def test_body_exception_propagates_and_stops_the_timer(self, env):
        def body():
            raise KeyError("boom")

        env.every(1.0, body)
        with pytest.raises(KeyError):
            env.run()
        assert env.now == 1.0
        env.run()  # nothing re-armed
        assert env.now == 1.0


class TestProfilingLabel:
    def test_tick_is_labelled_by_its_body(self, env):
        class Profiler:
            def _sample(self):
                pass

        labels = []
        env.set_profile_hook(
            lambda ev, cbs: labels.append(describe_dispatch(ev, cbs))
        )
        env.every(1.0, Profiler()._sample)
        env.run(until=1.0)
        assert labels == [
            "sim.dispatch;Timer;Profiler._sample",
            "sim.dispatch;Timer;Profiler._sample",
        ]


class TestProfileStride:
    def test_stride_carries_across_run_calls(self, env):
        # 100 one-event slices at stride 7: the count must survive each
        # run() return, or no slice ever reaches the stride.
        samples = []
        env.set_profile_hook(lambda ev, cbs: samples.append(ev), 7)
        for k in range(1, 101):
            env.timeout(float(k))
        for k in range(1, 101):
            env.run(until=float(k))
        assert env.n_processed == 100
        assert len(samples) == 14

    def test_coalesced_ticks_are_sampled_at_the_stride(self, env):
        class Profiler:
            def _sample(self):
                pass

        samples = []
        env.set_profile_hook(
            lambda ev, cbs: samples.append(
                (env.now, ev, describe_dispatch(ev, cbs))
            ),
            5,
        )
        for _ in range(50):
            env.every(1.0, Profiler()._sample)
        env.run(until=10.0)
        assert len(env._queue) == 1  # the 50 timers share one entry
        assert env.n_processed == 50 + 500
        assert len(samples) == 550 // 5
        assert {label for _, _, label in samples} == {
            "sim.dispatch;Timer;Profiler._sample"
        }
        # The hook is handed the follower the stride lands on.
        at_one = [ev for t, ev, _ in samples if t == 1.0]
        assert len(at_one) == len(set(at_one)) == 10
