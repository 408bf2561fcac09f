"""The Jain fairness index (eq. 1) and its §4.2 properties."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fairness import (
    LoadVector,
    aggregate_path_deltas,
    fairness_after_assignment,
    jain_fairness,
    optimal_single_load,
)

loads_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=30,
)

positive_loads = st.lists(
    st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    min_size=2,
    max_size=30,
)


class TestEquationOne:
    def test_equal_loads_give_one(self):
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_peer_is_one(self):
        assert jain_fairness([3.0]) == pytest.approx(1.0)

    def test_all_zero_is_one(self):
        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_one_loaded_among_n(self):
        # F = k/n when k of n peers share the load equally: k=1, n=4.
        assert jain_fairness([8.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_k_of_n_equally_loaded(self):
        # The classic interpretation: F = k/n.
        assert jain_fairness([1, 1, 1, 0, 0, 0]) == pytest.approx(0.5)

    def test_known_value(self):
        # Hand-computed: loads (1,2,3): (6^2)/(3*14) = 36/42.
        assert jain_fairness([1, 2, 3]) == pytest.approx(36 / 42)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([1.0, -0.1])

    @given(loads_strategy)
    def test_range_is_zero_one(self, loads):
        f = jain_fairness(loads)
        assert 0.0 < f <= 1.0 + 1e-12

    @given(positive_loads, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, loads, c):
        a = jain_fairness(loads)
        b = jain_fairness([x * c for x in loads])
        assert a == pytest.approx(b, rel=1e-9)

    @given(positive_loads)
    def test_permutation_invariance(self, loads):
        rng = np.random.default_rng(0)
        shuffled = list(loads)
        rng.shuffle(shuffled)
        assert jain_fairness(loads) == pytest.approx(
            jain_fairness(shuffled), rel=1e-9
        )

    @given(positive_loads)
    def test_maximized_at_equality(self, loads):
        mean = sum(loads) / len(loads)
        assert jain_fairness(loads) <= jain_fairness(
            [mean] * len(loads)
        ) + 1e-12


class TestOptimalSingleLoad:
    def test_formula(self):
        # others (2, 4): l_best = (4+16)/6 = 20/6.
        assert optimal_single_load([2.0, 4.0]) == pytest.approx(20 / 6)

    def test_all_zero_others(self):
        assert optimal_single_load([0.0, 0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            optimal_single_load([])

    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=100.0),
            min_size=1, max_size=10,
        )
    )
    @settings(max_examples=50)
    def test_lbest_maximizes(self, others):
        """§4.2: fairness peaks at l_best and falls off either side."""
        lbest = optimal_single_load(others)
        f_best = jain_fairness(others + [lbest])
        for factor in (0.5, 0.9, 1.1, 2.0):
            candidate = lbest * factor
            if abs(candidate - lbest) < 1e-12:
                continue
            assert jain_fairness(others + [candidate]) <= f_best + 1e-9

    def test_non_monotonic_in_single_load(self):
        """§4.2: F does not move monotonically with one peer's load."""
        others = [4.0, 4.0]
        lbest = optimal_single_load(others)  # = 4
        below = jain_fairness(others + [lbest * 0.25])
        at = jain_fairness(others + [lbest])
        above = jain_fairness(others + [lbest * 4.0])
        assert below < at and above < at


class TestLoadVector:
    def test_set_get(self):
        vec = LoadVector({"a": 1.0})
        vec.set("b", 2.0)
        assert vec.get("a") == 1.0 and vec.get("b") == 2.0
        assert len(vec) == 2 and "a" in vec

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LoadVector({"a": -1.0})

    def test_add_clamps_at_zero(self):
        vec = LoadVector({"a": 1.0})
        vec.add("a", -5.0)
        assert vec.get("a") == 0.0

    def test_remove(self):
        vec = LoadVector({"a": 1.0, "b": 2.0})
        vec.remove("a")
        assert "a" not in vec and len(vec) == 1
        vec.remove("ghost")  # idempotent

    def test_fairness_matches_direct(self):
        loads = {"a": 1.0, "b": 2.0, "c": 3.0}
        assert LoadVector(loads).fairness() == pytest.approx(
            jain_fairness(list(loads.values()))
        )

    def test_empty_fairness_rejected(self):
        with pytest.raises(ValueError):
            LoadVector().fairness()

    def test_fairness_with_matches_recompute(self):
        vec = LoadVector({"a": 1.0, "b": 2.0, "c": 3.0})
        deltas = {"a": 0.5, "c": 1.5}
        expected = jain_fairness([1.5, 2.0, 4.5])
        assert vec.fairness_with(deltas) == pytest.approx(expected)

    def test_fairness_with_ignores_unknown_peer(self):
        vec = LoadVector({"a": 1.0, "b": 1.0})
        assert vec.fairness_with({"ghost": 100.0}) == pytest.approx(1.0)

    def test_fairness_with_does_not_mutate(self):
        vec = LoadVector({"a": 1.0, "b": 2.0})
        before = vec.fairness()
        vec.fairness_with({"a": 10.0})
        assert vec.fairness() == pytest.approx(before)

    @given(
        st.dictionaries(
            st.sampled_from(list("abcdefgh")),
            st.floats(min_value=0.0, max_value=100.0),
            min_size=2,
        ),
        st.dictionaries(
            st.sampled_from(list("abcdefgh")),
            st.floats(min_value=-10.0, max_value=100.0),
        ),
    )
    @settings(max_examples=100)
    # The what-if empties the heavy peer: the running sums cancel to 0
    # (first case) or to their rounding noise (second).
    @example(loads={"d": 1.0, "a": 4.77e-64}, deltas={"d": -1.0})
    @example(loads={"d": 100.0, "a": 0.001}, deltas={"d": -200.0})
    def test_incremental_equals_recompute(self, loads, deltas):
        vec = LoadVector(loads)
        applied = {
            p: max(0.0, loads.get(p, 0.0) + d)
            for p, d in deltas.items()
            if p in loads
        }
        merged = {**loads, **applied}
        expected = pytest.approx(
            jain_fairness(list(merged.values())), rel=1e-9, abs=1e-9
        )
        assert vec.fairness_with(deltas) == expected
        assert vec.fairness_with_batch([deltas])[0] == expected

    @given(
        st.dictionaries(
            st.sampled_from(list("abcdef")),
            st.floats(min_value=0.0, max_value=50.0),
            min_size=1,
        )
    )
    @settings(max_examples=60)
    def test_incremental_sums_survive_mutation(self, loads):
        """set/add/remove keep internal sums consistent with a rebuild."""
        vec = LoadVector(loads)
        vec.set("zz", 5.0)
        vec.add("zz", 2.5)
        vec.remove(next(iter(loads)))
        rebuilt = LoadVector(vec.as_dict())
        assert vec.fairness() == pytest.approx(rebuilt.fairness())


class TestHelpers:
    def test_fairness_after_assignment(self):
        loads = {"a": 1.0, "b": 3.0}
        out = fairness_after_assignment(loads, {"a": 2.0})
        assert out == pytest.approx(1.0)

    def test_aggregate_path_deltas(self):
        deltas = aggregate_path_deltas([("a", 1.0), ("b", 2.0), ("a", 0.5)])
        assert deltas == {"a": 1.5, "b": 2.0}


class TestBatchWhatIf:
    def test_batch_matches_scalar(self):
        vec = LoadVector({"a": 1.0, "b": 2.0, "c": 3.0})
        candidates = [
            {"a": 0.5},
            {"b": 1.0, "c": -1.0},
            {"ghost": 9.0},
            {},
        ]
        batch = vec.fairness_with_batch(candidates)
        for got, deltas in zip(batch, candidates):
            assert got == pytest.approx(vec.fairness_with(deltas))

    def test_empty_candidate_list(self):
        vec = LoadVector({"a": 1.0})
        assert len(vec.fairness_with_batch([])) == 0

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError):
            LoadVector().fairness_with_batch([{}])

    @given(
        st.dictionaries(
            st.sampled_from(list("abcde")),
            st.floats(min_value=0.0, max_value=50.0),
            min_size=2,
        ),
        st.lists(
            st.dictionaries(
                st.sampled_from(list("abcde")),
                st.floats(min_value=-5.0, max_value=50.0),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=60)
    def test_batch_property(self, loads, candidates):
        vec = LoadVector(loads)
        batch = vec.fairness_with_batch(candidates)
        assert len(batch) == len(candidates)
        for got, deltas in zip(batch, candidates):
            assert got == pytest.approx(
                vec.fairness_with(deltas), rel=1e-9, abs=1e-9
            )
