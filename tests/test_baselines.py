"""Baseline selection rules and the policy table that names them."""

import numpy as np
import pytest

from repro.core.allocation import (
    Candidate,
    LeastLoadedSelector,
    RandomSelector,
    RoundRobinSelector,
    select_first,
    select_max_fairness,
)
from repro.core.control.placement import make_selector
from repro.graphs.resource_graph import ServiceEdge


def cand(peers, fairness=0.5, est=1.0, max_util=0.5):
    path = [
        ServiceEdge(src=i, dst=i + 1, service_id=f"s{i}", peer_id=p,
                    work=1.0, edge_id=f"e{i}@{p}")
        for i, p in enumerate(peers)
    ]
    return Candidate(path, fairness, est, {p: 1.0 for p in peers},
                     max_post_util=max_util)


class TestSelectors:
    def test_select_first(self):
        a, b = cand(["p1"]), cand(["p2"])
        assert select_first([a, b]) is a

    def test_select_max_fairness(self):
        a, b = cand(["p1"], fairness=0.3), cand(["p2"], fairness=0.9)
        assert select_max_fairness([a, b]) is b

    def test_random_is_seed_deterministic(self):
        cands = [cand([f"p{i}"]) for i in range(10)]
        s1 = RandomSelector(np.random.default_rng(5))
        s2 = RandomSelector(np.random.default_rng(5))
        assert [s1(cands) for _ in range(5)] == [s2(cands) for _ in range(5)]

    def test_random_covers_candidates(self):
        cands = [cand([f"p{i}"]) for i in range(3)]
        s = RandomSelector(np.random.default_rng(0))
        seen = {id(s(cands)) for _ in range(60)}
        assert len(seen) == 3

    def test_least_loaded_picks_min_max_util(self):
        a = cand(["p1"], max_util=0.9)
        b = cand(["p2"], max_util=0.2)
        assert LeastLoadedSelector()([a, b]) is b

    def test_least_loaded_ties_break_on_est_time(self):
        a = cand(["p1"], max_util=0.5, est=5.0)
        b = cand(["p2"], max_util=0.5, est=1.0)
        assert LeastLoadedSelector()([a, b]) is b

    def test_round_robin_rotates(self):
        sel = RoundRobinSelector()
        a, b = cand(["p1"]), cand(["p2"])
        first = sel([a, b])
        second = sel([a, b])
        assert {id(first), id(second)} == {id(a), id(b)}  # alternates

    def test_round_robin_prefers_unused_peer(self):
        sel = RoundRobinSelector()
        a = cand(["p1"])
        sel([a])  # p1 used once
        b = cand(["p2"])
        assert sel([a, b]) is b

    def test_candidate_peers_deduplicated(self):
        c = cand(["p1", "p1", "p2"])
        assert c.peers() == ["p1", "p2"]


class TestFactories:
    def test_make_selector_names(self):
        assert make_selector("paper") is select_max_fairness
        assert make_selector("first") is select_first
        rng = np.random.default_rng(0)
        assert make_selector("random", rng).rng is rng
        assert isinstance(make_selector("least_loaded"), LeastLoadedSelector)
        # Stateful rules are built fresh per call (one per RM).
        rr = make_selector("round_robin")
        assert isinstance(rr, RoundRobinSelector)
        assert make_selector("round_robin") is not rr

    def test_make_selector_unknown(self):
        with pytest.raises(ValueError):
            make_selector("optimal-oracle")
        with pytest.raises(ValueError):
            make_selector("fairness")  # no alias: the paper's rule is "paper"
