"""NetworkX bridge, critical-peer analysis, DOT export."""

import pytest

from repro.graphs import ResourceGraph, ServiceGraph
from repro.graphs.analysis import (
    critical_peers,
    peer_centrality,
    reachable_states,
    resource_graph_to_dot,
    service_graph_to_dot,
    to_networkx,
)
from repro.media.fig1 import build_fig1_graph


@pytest.fixture
def fig1():
    return build_fig1_graph()


class TestNetworkXBridge:
    def test_node_and_edge_counts(self, fig1):
        g = to_networkx(fig1.graph)
        assert g.number_of_nodes() == 5
        assert g.number_of_edges() == 8

    def test_edge_attributes_preserved(self, fig1):
        g = to_networkx(fig1.graph)
        edge = fig1.graph.edge("e1")
        data = g.get_edge_data(edge.src, edge.dst)["e1"]
        assert data["peer_id"] == "P1"
        assert data["work"] == pytest.approx(edge.work)

    def test_parallel_edges_survive(self, fig1):
        e2 = fig1.graph.edge("e2")
        g = to_networkx(fig1.graph)
        assert len(g.get_edge_data(e2.src, e2.dst)) == 2  # e2 and e3

    def test_reachability_matches_search(self, fig1):
        reach = reachable_states(fig1.graph, fig1.v_init)
        assert fig1.v_sol in reach
        assert len(reach) == 5  # the Fig-1 graph is fully reachable

    def test_reachability_unknown_state(self, fig1):
        assert reachable_states(fig1.graph, "ghost") == set()


class TestCriticalPeers:
    def test_p1_is_critical_in_fig1(self, fig1):
        """Every candidate path starts with e1 at P1: P1 is a single
        point of failure for this conversion; P2/P3 back each other up."""
        crit = critical_peers(fig1.graph, fig1.v_init, fig1.v_sol)
        assert "P1" in crit
        assert "P2" not in crit and "P3" not in crit

    def test_replicating_the_critical_service_fixes_it(self, fig1):
        g = fig1.graph
        e1 = g.edge("e1")
        g.add_service(e1.src, e1.dst, "T-e1b", "P3", e1.work,
                      e1.out_bytes, edge_id="e1b")
        crit = critical_peers(g, fig1.v_init, fig1.v_sol)
        assert "P1" not in crit

    def test_disconnected_pair_has_no_critical_peers(self, fig1):
        fig1.graph.add_state("island")
        assert critical_peers(fig1.graph, fig1.v_init, "island") == []

    def test_centrality_sums_to_one(self, fig1):
        cent = peer_centrality(fig1.graph)
        assert sum(cent.values()) == pytest.approx(1.0)
        assert cent["P1"] == pytest.approx(2 / 8)

    def test_centrality_empty_graph(self):
        assert peer_centrality(ResourceGraph()) == {}


class TestDotExport:
    def test_resource_graph_dot_is_wellformed(self, fig1):
        dot = resource_graph_to_dot(fig1.graph)
        assert dot.startswith('digraph "Gr" {')
        assert dot.rstrip().endswith("}")
        assert dot.count("->") == 8
        assert "e1" in dot and "P1" in dot
        # Parses as a DOT-ish structure via networkx-pydot? No pydot
        # offline: at least check balanced braces.
        assert dot.count("{") == dot.count("}")

    def test_service_graph_dot_chain(self, fig1):
        edges = [fig1.graph.edge("e1"), fig1.graph.edge("e3")]
        sg = ServiceGraph.from_edges("t1", edges, "P1", "P4")
        dot = service_graph_to_dot(sg)
        # src -> s0 -> s1 -> sink: three arrows.
        assert dot.count("->") == 3
        assert "source" in dot and "sink" in dot

    def test_quotes_escaped(self):
        g = ResourceGraph()
        g.add_service('a"x', "b", 'svc"1', "p", 1.0, edge_id="e1")
        dot = resource_graph_to_dot(g)
        assert '\\"' in dot
