"""Process semantics: joining, interrupts, failures."""

import pytest

from repro.sim import Environment, Interrupt


@pytest.fixture
def env():
    return Environment()


class TestBasics:
    def test_process_requires_generator(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_process_is_alive_until_return(self, env):
        def proc():
            yield env.timeout(5)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_join_returns_value(self, env):
        def child():
            yield env.timeout(2)
            return 99

        got = []

        def parent():
            value = yield env.process(child())
            got.append((env.now, value))

        env.process(parent())
        env.run()
        assert got == [(2.0, 99)]

    def test_join_already_finished_process(self, env):
        def child():
            yield env.timeout(1)
            return "early"

        c = env.process(child())
        got = []

        def parent():
            yield env.timeout(5)
            value = yield c  # c finished long ago
            got.append((env.now, value))

        env.process(parent())
        env.run()
        assert got == [(5.0, "early")]

    def test_child_exception_propagates_to_joiner(self, env):
        def child():
            yield env.timeout(1)
            raise KeyError("oops")

        caught = []

        def parent():
            try:
                yield env.process(child())
            except KeyError as exc:
                caught.append(exc.args[0])

        env.process(parent())
        env.run()
        assert caught == ["oops"]

    def test_unjoined_exception_escapes_run(self, env):
        def proc():
            yield env.timeout(1)
            raise RuntimeError("nobody listening")

        env.process(proc())
        with pytest.raises(RuntimeError, match="nobody listening"):
            env.run()

    def test_yielding_non_event_is_type_error(self, env):
        def proc():
            try:
                yield 42
            except TypeError:
                return "caught"
            return "not caught"

        result = env.run(env.process(proc()))
        assert result == "caught"

    def test_immediate_return_process(self, env):
        def proc():
            return "now"
            yield  # pragma: no cover

        assert env.run(env.process(proc())) == "now"


class TestInterrupts:
    def test_interrupt_delivers_cause(self, env):
        got = []

        def victim():
            try:
                yield env.timeout(100)
            except Interrupt as i:
                got.append((env.now, i.args[0]))

        v = env.process(victim())

        def killer():
            yield env.timeout(3)
            v.interrupt({"reason": "test"})

        env.process(killer())
        env.run()
        assert got == [(3.0, {"reason": "test"})]

    def test_interrupted_process_can_continue(self, env):
        log = []

        def victim():
            try:
                yield env.timeout(100)
            except Interrupt:
                log.append("interrupted")
            yield env.timeout(5)
            log.append(env.now)

        v = env.process(victim())

        def killer():
            yield env.timeout(2)
            v.interrupt()

        env.process(killer())
        env.run()
        assert log == ["interrupted", 7.0]

    def test_interrupt_dead_process_raises(self, env):
        def quick():
            yield env.timeout(1)

        p = env.process(quick())
        env.run()
        with pytest.raises(RuntimeError):
            p.interrupt()

    def test_self_interrupt_rejected(self, env):
        def proc():
            me = env.active_process
            with pytest.raises(RuntimeError):
                me.interrupt()
            yield env.timeout(1)

        env.run(env.process(proc()))

    def test_interrupt_does_not_leak_to_waited_event(self, env):
        """The interrupted process detaches from its wait target."""
        def victim():
            try:
                yield env.timeout(10)
            except Interrupt:
                pass
            yield env.timeout(100)  # now waiting on something else

        v = env.process(victim())

        def killer():
            yield env.timeout(1)
            v.interrupt()

        env.process(killer())
        env.run(until=50.0)
        # The original timeout(10) fired at t=11 without resuming the
        # victim a second time; victim is still waiting on timeout(100).
        assert v.is_alive

    def test_interrupt_while_waiting_on_process(self, env):
        def slow():
            yield env.timeout(100)

        log = []

        def parent():
            child = env.process(slow())
            try:
                yield child
            except Interrupt:
                log.append("freed")
            assert child.is_alive  # the child keeps running

        p = env.process(parent())

        def killer():
            yield env.timeout(1)
            p.interrupt()

        env.process(killer())
        env.run()
        assert log == ["freed"]
