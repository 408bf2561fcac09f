"""The Store primitive."""

import pytest

from repro.sim import Environment, Store


@pytest.fixture
def env():
    return Environment()


class TestStore:
    def test_capacity_validation(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_put_then_get(self, env):
        st = Store(env)
        st.put("item")
        got = []

        def getter():
            item = yield st.get()
            got.append(item)

        env.process(getter())
        env.run()
        assert got == ["item"]

    def test_get_blocks_until_put(self, env):
        st = Store(env)
        got = []

        def getter():
            item = yield st.get()
            got.append((env.now, item))

        def putter():
            yield env.timeout(4)
            yield st.put("late")

        env.process(getter())
        env.process(putter())
        env.run()
        assert got == [(4.0, "late")]

    def test_bounded_put_blocks(self, env):
        st = Store(env, capacity=1)
        log = []

        def producer():
            yield st.put(1)
            log.append(("put1", env.now))
            yield st.put(2)
            log.append(("put2", env.now))

        def consumer():
            yield env.timeout(5)
            item = yield st.get()
            log.append(("got", item, env.now))

        env.process(producer())
        env.process(consumer())
        env.run()
        assert ("put1", 0.0) in log
        assert ("got", 1, 5.0) in log
        assert ("put2", 5.0) in log

    def test_filtered_get(self, env):
        st = Store(env)
        st.put({"id": 1})
        st.put({"id": 2})
        got = []

        def getter():
            item = yield st.get(filter=lambda m: m["id"] == 2)
            got.append(item)

        env.process(getter())
        env.run()
        assert got == [{"id": 2}]
        assert st.items == [{"id": 1}]

    def test_filtered_get_waits_for_match(self, env):
        st = Store(env)
        st.put("no-match")
        got = []

        def getter():
            item = yield st.get(filter=lambda m: m == "match")
            got.append((env.now, item))

        def putter():
            yield env.timeout(3)
            yield st.put("match")

        env.process(getter())
        env.process(putter())
        env.run()
        assert got == [(3.0, "match")]

    def test_cancel_get(self, env):
        st = Store(env)
        pending = st.get()
        st.cancel_get(pending)
        st.put("x")
        env.run()
        assert st.items == ["x"]
        assert not pending.triggered

    def test_len(self, env):
        st = Store(env)
        st.put("a")
        st.put("b")
        env.run()
        assert len(st) == 2
