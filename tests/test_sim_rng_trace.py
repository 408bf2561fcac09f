"""RandomStreams."""

import numpy as np
import pytest

from repro.sim import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_streams(self):
        a = RandomStreams(7).get("arrivals").random(5)
        b = RandomStreams(7).get("arrivals").random(5)
        assert np.array_equal(a, b)

    def test_different_names_independent(self):
        streams = RandomStreams(7)
        a = streams.get("a").random(5)
        b = streams.get("b").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).get("x").random(5)
        b = RandomStreams(2).get("x").random(5)
        assert not np.array_equal(a, b)

    def test_get_is_cached(self):
        streams = RandomStreams(0)
        assert streams.get("x") is streams.get("x")

    def test_seed_type_checked(self):
        with pytest.raises(TypeError):
            RandomStreams("seed")  # type: ignore[arg-type]

    def test_spawn_children_deterministic_and_distinct(self):
        root = RandomStreams(3)
        c1 = root.spawn(0).get("x").random(4)
        c1_again = RandomStreams(3).spawn(0).get("x").random(4)
        c2 = root.spawn(1).get("x").random(4)
        assert np.array_equal(c1, c1_again)
        assert not np.array_equal(c1, c2)

    def test_unrelated_component_isolation(self):
        """Adding draws on one stream must not shift another stream."""
        s1 = RandomStreams(5)
        s1.get("noise").random(100)  # heavy use of an unrelated stream
        a = s1.get("signal").random(3)
        b = RandomStreams(5).get("signal").random(3)
        assert np.array_equal(a, b)
