"""NetNode: handler dispatch, replies, RPC."""

import pytest

from repro.net import ConstantLatency, NetNode, Network, RPCError, RPCTimeout
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def net(env):
    return Network(env, ConstantLatency(0.01), bandwidth=1e9)


class TestDispatch:
    def test_handler_receives_message(self, env, net):
        a, b = NetNode(env, net, "a"), NetNode(env, net, "b")
        got = []
        b.on("hello", lambda msg: got.append(msg.payload))
        a.send("hello", "b", {"x": 1})
        env.run()
        assert got == [{"x": 1}]

    def test_generator_handler_is_spawned(self, env, net):
        a, b = NetNode(env, net, "a"), NetNode(env, net, "b")
        got = []

        def handler(msg):
            def work():
                yield env.timeout(1)
                got.append(env.now)
            return work()

        b.on("go", handler)
        a.send("go", "b")
        env.run()
        assert got and got[0] > 1.0

    def test_unknown_kind_dropped(self, env, net):
        a, b = NetNode(env, net, "a"), NetNode(env, net, "b")
        a.send("nobody-listens", "b")
        env.run()  # must not raise

    def test_duplicate_handler_rejected(self, env, net):
        a = NetNode(env, net, "a")
        a.on("k", lambda m: None)
        with pytest.raises(ValueError):
            a.on("k", lambda m: None)

    def test_handlers_run_as_mailbox_callbacks_not_in_a_process(
        self, env, net
    ):
        a, b = NetNode(env, net, "a"), NetNode(env, net, "b")
        seen = []
        b.on("hello", lambda msg: seen.append(env.active_process))
        a.send("hello", "b")
        a.send("hello", "b")
        env.run()
        assert seen == [None, None]

    def test_shutdown_detaches_the_pending_get(self, env, net):
        a, b = NetNode(env, net, "a"), NetNode(env, net, "b")
        got = []
        b.on("hello", lambda msg: got.append(msg))
        env.run()  # start events: both nodes wait on their mailbox
        b.shutdown()
        a.send("hello", "b")
        env.run()
        assert got == []
        # The detached get still took the message (and popped empty).
        assert len(b.mailbox) == 0
        # two starts, then the delivery, the mailbox put and the empty get
        assert env.n_processed == 2 + 3

    def test_shutdown_from_inside_a_handler_stops_dispatch(self, env, net):
        a, b = NetNode(env, net, "a"), NetNode(env, net, "b")
        got = []

        def handler(msg):
            got.append(msg.payload["i"])
            b.shutdown()

        b.on("hello", handler)
        for i in range(3):
            a.send("hello", "b", {"i": i})
        env.run()
        assert got == [0]
        assert len(b.mailbox) == 2  # nobody takes the rest


class TestRPC:
    def test_round_trip(self, env, net):
        a, b = NetNode(env, net, "a"), NetNode(env, net, "b")
        b.on("ping", lambda msg: b.reply(msg, "pong", {"v": msg.payload["v"] + 1}))
        result = []

        def client():
            reply = yield from a.rpc("ping", "b", {"v": 1})
            result.append(reply.payload["v"])

        env.run(env.process(client()))
        assert result == [2]

    def test_timeout_raises(self, env, net):
        a, b = NetNode(env, net, "a"), NetNode(env, net, "b")
        # b has no handler: no reply will come.
        def client():
            with pytest.raises(RPCTimeout):
                yield from a.rpc("ping", "b", timeout=0.5)

        env.run(env.process(client()))
        assert env.now >= 0.5

    def test_late_reply_after_timeout_is_ignored(self, env, net):
        a, b = NetNode(env, net, "a"), NetNode(env, net, "b")

        def slow_handler(msg):
            def work():
                yield env.timeout(2.0)
                b.reply(msg, "pong")
            return work()

        b.on("ping", slow_handler)

        def client():
            with pytest.raises(RPCTimeout):
                yield from a.rpc("ping", "b", timeout=0.5)

        env.process(client())
        env.run()  # late pong arrives; must not crash anything

    def test_concurrent_rpcs_correlate(self, env, net):
        a, b = NetNode(env, net, "a"), NetNode(env, net, "b")

        def echo(msg):
            def work():
                yield env.timeout(msg.payload["delay"])
                b.reply(msg, "echo", {"tag": msg.payload["tag"]})
            return work()

        b.on("q", echo)
        results = []

        def client(tag, delay):
            reply = yield from a.rpc("q", "b", {"tag": tag, "delay": delay})
            results.append(reply.payload["tag"])

        env.process(client("slow", 1.0))
        env.process(client("fast", 0.1))
        env.run()
        assert results == ["fast", "slow"]

    def test_shutdown_fails_pending_rpcs(self, env, net):
        a, b = NetNode(env, net, "a"), NetNode(env, net, "b")

        def client():
            with pytest.raises(RPCError):
                yield from a.rpc("ping", "b", timeout=100.0)

        p = env.process(client())

        def killer():
            yield env.timeout(0.1)
            a.shutdown()

        env.process(killer())
        env.run(until=p)

    def test_reply_goes_to_requester_only(self, env, net):
        a, b = NetNode(env, net, "a"), NetNode(env, net, "b")
        c = NetNode(env, net, "c")
        got_c = []
        c.on("pong", lambda m: got_c.append(1))
        b.on("ping", lambda msg: b.reply(msg, "pong"))

        def client():
            yield from a.rpc("ping", "b")

        env.run(env.process(client()))
        assert not got_c
