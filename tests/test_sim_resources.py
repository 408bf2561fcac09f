"""The Store primitive."""

import pytest

from repro.sim import Environment, Store


@pytest.fixture
def env():
    return Environment()


class TestStore:
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

    def test_len(self, env):
        st = Store(env)
        st.put("a")
        st.put("b")
        env.run()
        assert len(st) == 2
