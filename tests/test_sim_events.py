"""Event lifecycle and composition primitives."""

import gc

import pytest

from repro.sim import Environment
from repro.sim.events import AnyOf, Timeout


@pytest.fixture
def env():
    return Environment()


class TestEventLifecycle:
    def test_fresh_event_is_pending(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, env):
        ev = env.event()
        with pytest.raises(RuntimeError):
            _ = ev.value

    def test_succeed_sets_value(self, env):
        ev = env.event()
        ev.succeed(41)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 41

    def test_double_succeed_raises(self, env):
        ev = env.event().succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_then_succeed_raises(self, env):
        ev = env.event()
        ev.fail(ValueError("x"))
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_callbacks_run_on_processing(self, env):
        ev = env.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed("v")
        env.run()
        assert seen == ["v"]
        assert ev.processed

    def test_trigger_from_copies_outcome(self, env):
        src = env.event().succeed(7)
        dst = env.event()
        dst.trigger_from(src)
        assert dst.value == 7 and dst.ok

    def test_trigger_from_untriggered_raises(self, env):
        with pytest.raises(RuntimeError):
            env.event().trigger_from(env.event())


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            Timeout(env, -1.0)

    def test_timeout_fires_at_delay(self, env):
        fired = []
        t = env.timeout(2.5, value="done")
        t.callbacks.append(lambda e: fired.append((env.now, e.value)))
        env.run()
        assert fired == [(2.5, "done")]

    def test_zero_delay_fires_immediately(self, env):
        t = env.timeout(0)
        env.run()
        assert t.processed and env.now == 0.0


class TestConditions:
    def test_any_of_fires_on_first(self, env):
        a, b = env.timeout(1, "a"), env.timeout(3, "b")
        got = []

        def waiter():
            first = yield a | b
            got.append((env.now, first))

        env.process(waiter())
        env.run()
        assert got == [(1.0, a)]

    def test_or_operator(self, env):
        cond = env.timeout(1) | env.timeout(2)
        assert isinstance(cond, AnyOf)

    def test_condition_propagates_failure(self, env):
        bad = env.event()

        def failer():
            yield env.timeout(1)
            bad.fail(RuntimeError("boom"))

        caught = []

        def waiter():
            try:
                yield bad | env.timeout(5)
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(failer())
        env.process(waiter())
        env.run()
        assert caught == ["boom"]

    def test_cross_environment_mix_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            AnyOf(env, [env.timeout(1), other.timeout(1)])

    def test_any_of_with_already_processed_event(self, env):
        a = env.timeout(0, "x")
        env.run()
        assert a.processed
        done = []

        def waiter():
            first = yield a | env.timeout(1)
            done.append((env.now, first, first.value))

        env.process(waiter())
        env.run()
        assert done == [(0.0, a, "x")]

    def test_already_processed_component_fires_it_at_once(self, env):
        a = env.timeout(0, "x")
        env.run()
        cond = env.timeout(1) | a
        assert cond.triggered and cond.value is a

    def test_failing_component_fails_it(self, env):
        bad, slow = env.event(), env.timeout(5)
        cond = bad | slow
        boom = RuntimeError("boom")
        bad.fail(boom)
        cond.callbacks.append(lambda e: None)  # handled: run() must not raise
        env.run()
        assert not cond.ok and cond.value is boom

    @pytest.mark.parametrize("winner", ["timeout", "wake"])
    def test_race_leaves_nothing_for_the_collector(self, env, winner):
        """The processor's race: a quantum against a wake-up.  Whichever
        side wins, the loser closes no reference cycle."""
        seen = []

        def cpu():
            for _ in range(3):
                wake = env.event()
                if winner == "wake":
                    env.timeout(0.5).callbacks.append(
                        lambda _e, wake=wake: wake.succeed())
                seen.append((yield env.timeout(1.0) | wake))

        gc.collect()
        gc.disable()
        try:
            env.process(cpu())
            env.run()
            seen.clear()
            assert gc.collect() == 0
        finally:
            gc.enable()
