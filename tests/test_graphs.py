"""Resource graph, service graph, and path search."""

import pytest

from repro.graphs import (
    PathSearch,
    ResourceGraph,
    ServiceGraph,
    iter_paths,
)
from repro.graphs.resource_graph import ServiceEdge
from repro.media.fig1 import build_fig1_graph


def diamond() -> ResourceGraph:
    """s -> (a | b) -> t with an extra a->b cross edge."""
    g = ResourceGraph()
    g.add_service("s", "a", "sv1", "p1", 1.0, edge_id="sa")
    g.add_service("s", "b", "sv2", "p2", 1.0, edge_id="sb")
    g.add_service("a", "t", "sv3", "p3", 1.0, edge_id="at")
    g.add_service("b", "t", "sv4", "p4", 1.0, edge_id="bt")
    g.add_service("a", "b", "sv5", "p5", 1.0, edge_id="ab")
    return g


class TestResourceGraph:
    def test_add_state_idempotent(self):
        g = ResourceGraph()
        g.add_state("x")
        g.add_state("x")
        assert g.states == ["x"] and g.n_states == 1

    def test_add_service_creates_endpoints(self):
        g = ResourceGraph()
        e = g.add_service("u", "v", "svc", "p", 2.0, 100.0)
        assert g.has_state("u") and g.has_state("v")
        assert g.out_edges("u") == [e] and g.in_edges("v") == [e]

    def test_parallel_edges_allowed(self):
        g = ResourceGraph()
        g.add_service("u", "v", "svc1", "p1", 1.0)
        g.add_service("u", "v", "svc2", "p2", 1.0)
        assert len(g.out_edges("u")) == 2

    def test_duplicate_edge_id_rejected(self):
        g = ResourceGraph()
        g.add_service("u", "v", "s", "p", 1.0, edge_id="e1")
        with pytest.raises(ValueError):
            g.add_service("u", "v", "s", "p", 1.0, edge_id="e1")

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError):
            ServiceEdge("u", "v", "s", "p", work=-1.0)

    def test_remove_edge(self):
        g = diamond()
        g.remove_edge("ab")
        assert not g.has_edge("ab")
        assert all(e.edge_id != "ab" for e in g.out_edges("a"))
        g.remove_edge("ghost")  # idempotent

    def test_remove_peer_prunes_all_its_edges(self):
        g = ResourceGraph()
        g.add_service("u", "v", "s1", "pX", 1.0)
        g.add_service("v", "w", "s2", "pX", 1.0)
        g.add_service("u", "w", "s3", "pY", 1.0)
        removed = g.remove_peer("pX")
        assert len(removed) == 2
        assert g.n_edges == 1 and g.peers() == ["pY"]

    def test_edges_at_peer(self):
        g = diamond()
        assert [e.edge_id for e in g.edges_at_peer("p1")] == ["sa"]

    def test_copy_is_independent(self):
        g = diamond()
        dup = g.copy()
        dup.remove_peer("p1")
        assert g.has_edge("sa") and not dup.has_edge("sa")

    def test_peers_order(self):
        g = diamond()
        assert g.peers() == ["p1", "p2", "p3", "p4", "p5"]


def multigraph() -> ResourceGraph:
    """Parallel edges (a1|a2, c1|c2, e1|e2) and cycles (x->s, y->x)."""
    g = ResourceGraph()
    for eid, src, dst, peer in [
        ("a1", "s", "x", "pA"), ("a2", "s", "x", "pB"),
        ("b1", "s", "y", "pC"), ("c1", "x", "t", "pA"),
        ("d1", "x", "y", "pB"), ("c2", "x", "t", "pC"),
        ("f1", "x", "s", "pA"), ("e1", "y", "t", "pB"),
        ("g1", "y", "x", "pC"), ("e2", "y", "t", "pA"),
    ]:
        g.add_service(src, dst, "sv_" + eid, peer, 1.0, edge_id=eid)
    return g


def ids(g, v_init, v_sol, policy="paper", banned=(), **kwargs):
    """Edge ids of every yielded path; *banned* edges prune a prefix."""
    def extend(state, edge):
        return None if edge.edge_id in banned else state

    return [
        [e.edge_id for e in path]
        for path, _ in iter_paths(
            g, v_init, v_sol, policy, extend=extend, state=(), **kwargs
        )
    ]


class TestSearch:
    def test_paper_bfs_on_diamond(self):
        paths = ids(diamond(), "s", "t", "paper")
        # 'b' is expanded once (via sb, BFS order); the a->b->t route is
        # pruned by the visited set, but both direct goal edges survive.
        assert ["sa", "at"] in paths
        assert ["sb", "bt"] in paths
        assert ["sa", "ab", "bt"] not in paths

    def test_exhaustive_finds_all_simple_paths(self):
        paths = sorted(map(tuple, ids(diamond(), "s", "t", "exhaustive")))
        assert paths == sorted([
            ("sa", "at"), ("sb", "bt"), ("sa", "ab", "bt"),
        ])

    def test_exhaustive_no_repeated_vertices(self):
        g = diamond()
        g.add_service("b", "a", "back", "p6", 1.0, edge_id="ba")
        for p, _ in iter_paths(g, "s", "t", "exhaustive"):
            visited = ["s"] + [e.dst for e in p]
            assert len(visited) == len(set(visited))

    def test_same_init_and_goal_yields_empty_path(self):
        g = diamond()
        for policy in ("paper", "exhaustive"):
            assert list(iter_paths(g, "s", "s", policy)) == [([], None)]
            assert list(iter_paths(g, "s", "s", policy, state=7)) == [([], 7)]

    def test_missing_vertices_yield_nothing(self):
        g = diamond()
        assert list(iter_paths(g, "ghost", "t")) == []
        assert list(iter_paths(g, "s", "ghost")) == []

    @pytest.mark.parametrize("policy", ["paper", "exhaustive"])
    def test_fold_prunes_prefixes_and_carries_state(self, policy):
        # A prefix predicate is the fold whose state is the prefix:
        # forbid anything through 'a'.
        def extend(prefix, edge):
            return None if edge.dst == "a" else prefix + [edge]

        found = list(
            iter_paths(diamond(), "s", "t", policy, extend=extend, state=[])
        )
        assert [[e.edge_id for e in p] for p, _ in found] == [["sb", "bt"]]
        assert all(path == state for path, state in found)

    def test_yield_order_pinned(self):
        """The order the pre-fold search (PR 14) yielded, pruned or not."""
        sc = build_fig1_graph()
        g = multigraph()
        for policy in ("paper", "exhaustive"):
            assert ids(sc.graph, sc.v_init, sc.v_sol, policy) == [
                ["e1", "e2"], ["e1", "e3"], ["e1", "e4", "e5", "e8"],
            ]
        assert ids(g, "s", "t", "paper") == [
            ["a1", "c1"], ["a1", "c2"], ["b1", "e1"], ["b1", "e2"],
        ]
        # a1 pruned: x is first expanded through its parallel twin a2.
        assert ids(g, "s", "t", "paper", banned={"a1"}) == [
            ["a2", "c1"], ["a2", "c2"], ["b1", "e1"], ["b1", "e2"],
        ]
        assert ids(g, "s", "t", "paper", banned={"a1", "b1"}) == [
            ["a2", "c1"], ["a2", "c2"],
            ["a2", "d1", "e1"], ["a2", "d1", "e2"],
        ]
        assert ids(g, "s", "t", "exhaustive") == [
            ["a1", "c1"], ["a1", "d1", "e1"], ["a1", "d1", "e2"],
            ["a1", "c2"], ["a2", "c1"], ["a2", "d1", "e1"],
            ["a2", "d1", "e2"], ["a2", "c2"], ["b1", "e1"],
            ["b1", "g1", "c1"], ["b1", "g1", "c2"], ["b1", "e2"],
        ]
        assert ids(g, "s", "t", "exhaustive", banned={"a1", "b1"}) == [
            ["a2", "c1"], ["a2", "d1", "e1"], ["a2", "d1", "e2"],
            ["a2", "c2"],
        ]

    @pytest.mark.parametrize("banned", [set(), {"a1"}, {"a1", "b1"}])
    def test_bfs_costs_each_prefix_once_and_never_into_expanded(
        self, banned
    ):
        g = multigraph()
        costed = []
        expanded = {"s"}

        def extend(prefix, edge):
            # Visit-before-cost: a prefix entering an already-expanded
            # state other than the goal is discarded uncosted.
            assert edge.dst == "t" or edge.dst not in expanded
            # ... and extend gets the state its parent prefix produced.
            assert (prefix[-1].dst if prefix else "s") == edge.src
            costed.append(tuple(e.edge_id for e in prefix) + (edge.edge_id,))
            if edge.edge_id in banned:
                return None
            if edge.dst != "t":
                expanded.add(edge.dst)
            return prefix + [edge]

        found = list(iter_paths(g, "s", "t", "paper", extend=extend, state=[]))
        assert len(costed) == len(set(costed))
        assert all(path == state for path, state in found)
        # Every yielded path was costed, prefix by prefix.
        for path, _ in found:
            for n in range(1, len(path) + 1):
                assert tuple(e.edge_id for e in path[:n]) in costed
        if not banned:
            # a2 (x expanded via a1), f1 (back to s), d1 (y expanded via
            # b1) and g1 (x again) never reach extend.
            assert costed == [
                ("a1",), ("b1",), ("a1", "c1"), ("a1", "c2"),
                ("b1", "e1"), ("b1", "e2"),
            ]

    def test_dfs_costs_each_prefix_once(self):
        costed = []

        def extend(prefix, edge):
            costed.append(prefix + (edge.edge_id,))
            return costed[-1]

        found = list(iter_paths(
            multigraph(), "s", "t", "exhaustive", extend=extend, state=(),
        ))
        assert len(costed) == len(set(costed))
        assert all(
            tuple(e.edge_id for e in path) == state for path, state in found
        )

    def test_max_expansions_bounds_search(self):
        g = ResourceGraph()
        # A long chain.
        for i in range(100):
            g.add_service(i, i + 1, f"s{i}", "p", 1.0)
        got = list(iter_paths(g, 0, 100, "paper", max_expansions=5))
        assert got == []

    def test_max_expansions_cut_off_pinned(self):
        """Same cut-off points as the pre-fold search (PR 14)."""
        g = multigraph()
        full = ids(g, "s", "t", "paper")
        assert [ids(g, "s", "t", "paper", max_expansions=m)
                for m in range(5)] == [[], [], [], full, full]
        a1 = [["a1", "c1"], ["a1", "d1", "e1"], ["a1", "d1", "e2"],
              ["a1", "c2"]]
        assert [ids(g, "s", "t", "exhaustive", max_expansions=m)
                for m in range(5)] == [
            [], [], [a1[0], a1[3]], a1,
            a1 + [["a2", "c1"], ["a2", "c2"]],
        ]

    def test_unknown_policy_rejected(self):
        g = diamond()
        with pytest.raises(ValueError):
            list(iter_paths(g, "s", "t", "bogus"))
        with pytest.raises(ValueError):
            PathSearch(g, "bogus")

    def test_parallel_goal_edges_all_yielded(self):
        g = ResourceGraph()
        g.add_service("s", "t", "s1", "p1", 1.0, edge_id="a")
        g.add_service("s", "t", "s2", "p2", 1.0, edge_id="b")
        assert ids(g, "s", "t", "paper") == [["a"], ["b"]]

    def test_path_search_wrapper(self):
        search = PathSearch(diamond(), "exhaustive")
        assert len(search.paths("s", "t")) == 3
        assert search.paths("s", "t")[0][0].edge_id == "sa"


class TestServiceGraph:
    def make_edges(self):
        g = diamond()
        return [g.edge("sa"), g.edge("at")]

    def test_from_edges(self):
        sg = ServiceGraph.from_edges("t1", self.make_edges(), "src", "sink")
        assert len(sg) == 2
        assert sg.steps[0].peer_id == "p1"
        assert sg.allocation_pairs() == [("sv1", "p1"), ("sv3", "p3")]

    def test_from_edges_work_scale(self):
        sg = ServiceGraph.from_edges(
            "t1", self.make_edges(), "src", "sink", work_scale=2.0
        )
        assert sg.steps[0].work == pytest.approx(2.0)
        assert sg.total_work() == pytest.approx(4.0)

    def test_index_offset(self):
        sg = ServiceGraph.from_edges(
            "t1", self.make_edges(), "src", "sink", index_offset=3
        )
        assert [s.index for s in sg.steps] == [3, 4]

    def test_peers_includes_endpoints(self):
        sg = ServiceGraph.from_edges("t1", self.make_edges(), "src", "sink")
        assert sg.peers() == ["src", "p1", "p3", "sink"]
        assert sg.uses_peer("p3") and not sg.uses_peer("ghost")

    def test_steps_on_peer(self):
        sg = ServiceGraph.from_edges("t1", self.make_edges(), "src", "sink")
        assert len(sg.steps_on_peer("p1")) == 1

    def test_replace_step(self):
        sg = ServiceGraph.from_edges("t1", self.make_edges(), "src", "sink")
        new = sg.steps[1].with_peer("p9")
        sg.replace_step(1, new)
        assert sg.steps[1].peer_id == "p9"

    def test_replace_step_index_mismatch(self):
        sg = ServiceGraph.from_edges("t1", self.make_edges(), "src", "sink")
        with pytest.raises(ValueError):
            sg.replace_step(0, sg.steps[1])
        with pytest.raises(IndexError):
            sg.replace_step(9, sg.steps[1].with_peer("x"))

    def test_record_timing_validation(self):
        sg = ServiceGraph.from_edges("t1", self.make_edges(), "src", "sink")
        sg.record_timing(0, 1.0, 2.0)
        assert sg.timings[0] == (1.0, 2.0)
        with pytest.raises(ValueError):
            sg.record_timing(1, 2.0, 1.0)
