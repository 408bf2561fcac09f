"""The Fig-3 search on interned states against the search on states.

``_bfs_paper`` runs on the resource graph's search view (states interned
to ints), which every mutation drops.  The reference below is the
search as it was before the view, kept verbatim: it reads the adjacency
dict and compares the states themselves.  Random multigraphs with
parallel edges and mixed state types are mutated step by step, copies
included; after every step both searches must yield the same hits in
the same order.  A stale view is the bug this hunts.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Hashable, Iterator, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import ResourceGraph, iter_paths
from repro.graphs.search import Extend, Path, path_of
from repro.media.formats import MediaFormat


def _bfs_paper(
    graph: ResourceGraph,
    v_init: Hashable,
    v_sol: Hashable,
    extend: Optional[Extend],
    state: Any,
    max_expansions: int,
) -> Iterator[Tuple[Path, Any]]:
    # Read the adjacency dict directly: out_edges() returns a defensive
    # copy, but this loop only iterates (allocation runs this search for
    # every admitted task).
    out = graph._out
    # A queue entry is (edge, state of the parent prefix, parent entry):
    # it is its own parent link, so queueing a prefix copies nothing.
    queue: deque[tuple] = deque(
        (edge, state, None) for edge in out.get(v_init, ())
    )
    popleft = queue.popleft
    append = queue.append
    visited: set[Hashable] = {v_init}
    expansions = 1
    while queue and expansions <= max_expansions:
        entry = popleft()
        edge = entry[0]
        v = edge.dst
        at_goal = v == v_sol
        if not at_goal and v in visited:
            continue
        state = entry[1]
        if extend is not None:
            state = extend(state, edge)
            if state is None:
                continue
        if at_goal:
            yield path_of(entry), state
            continue
        visited.add(v)
        expansions += 1
        for edge in out.get(v, ()):
            append((edge, state, entry))


def make_state(kind: int, i: int) -> Hashable:
    """State *i* of one of three types; a MediaFormat is built afresh on
    every call, so the graph sees equal states that are not identical."""
    if kind == 0:
        return MediaFormat("MPEG-2", 160 * (i + 1), 120, 500.0 + i)
    if kind == 1:
        return f"v{i}"
    return ("fmt", i)


#: One step: (op, a, b, c) with small ints the step reads as it needs.
steps = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "add", "state", "remove_edge",
                         "remove_peer", "copy"]),
        st.integers(0, 5), st.integers(0, 5), st.integers(0, 3),
    ),
    min_size=1, max_size=30,
)


def hits(search, graph, v_init, v_sol, extend, budget):
    return [
        ([e.edge_id for e in path], state)
        for path, state in search(graph, v_init, v_sol, extend, 0, budget)
    ]


def interned(graph, v_init, v_sol, extend, state, budget):
    return iter_paths(graph, v_init, v_sol, "paper", extend, state, budget)


@given(
    kinds=st.lists(st.integers(0, 2), min_size=6, max_size=6),
    program=steps,
    prune_above=st.none() | st.integers(1, 12),
    budget=st.sampled_from([1, 2, 3, 100_000]),
)
@settings(max_examples=250, deadline=None)
def test_interned_search_equals_reference_after_every_step(
    kinds, program, prune_above, budget,
):
    extend = None
    if prune_above is not None:
        def extend(cost, edge):
            cost += int(edge.work)
            return cost if cost <= prune_above else None

    graphs = [ResourceGraph()]
    edge_ids: list = []
    for n, (op, a, b, c) in enumerate(program):
        graph = graphs[c % len(graphs)]
        if op == "add":
            graph.add_service(
                make_state(kinds[a], a), make_state(kinds[b], b),
                f"s{a}{b}", f"p{c}", float(1 + (a * 7 + b) % 5),
                edge_id=f"e{n}",
            )
            edge_ids.append(f"e{n}")
        elif op == "state":
            graph.add_state(make_state(kinds[a], a))
        elif op == "remove_edge" and edge_ids:
            graph.remove_edge(edge_ids[(a * 6 + b) % len(edge_ids)])
        elif op == "remove_peer":
            graph.remove_peer(f"p{a % 4}")
        elif op == "copy":
            graphs.append(graph.copy())
        for g in graphs:
            states = g.states
            for v_init in states:
                for v_sol in states:
                    if v_init == v_sol:
                        continue
                    want = hits(_bfs_paper, g, v_init, v_sol, extend, budget)
                    assert hits(interned, g, v_init, v_sol, extend,
                                budget) == want
