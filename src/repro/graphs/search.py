"""Path enumeration over the resource graph (the search of Fig. 3).

Two *visited policies* are provided:

``"paper"``
    Faithful to the Figure-3 pseudocode: a breadth-first search in which
    an intermediate vertex is marked *visited* when it is first expanded,
    so later paths through it are pruned.  The goal vertex is never
    marked, so every edge reaching it yields a candidate (this is what
    makes the fairness comparison in Fig. 3 meaningful — in Figure 1
    both ``{e1,e2}`` and ``{e1,e3}`` are considered).  Cheap — O(V+E)
    expansions — but may miss the globally best path; experiment F3
    quantifies the gap.

``"exhaustive"``
    Enumerates *all* simple paths (no repeated vertex within a path),
    depth-first, up to an expansion budget.  Exponential in the worst
    case; used by the optimal baseline and in tests as ground truth.

Both are *folds*: the caller's ``extend(state, edge)`` carries a state
along every prefix one edge at a time and returns ``None`` to prune the
prefix, which is then never extended (Fig. 3's "fulfills requirements
in q" check).  Hits are yielded as ``(path, state)``: the edges as a
list of :class:`ServiceEdge` and the state of the complete path.

* ``extend`` runs once per prefix the search costs, on the state its
  parent prefix produced.
* Visit before cost: the BFS drops a prefix entering an already-expanded
  state other than ``v_sol`` without calling ``extend`` — it would be
  discarded whatever it costs (of *k* parallel edges into a state, only
  the first feasible one is expanded).
* The order of hits is fixed — BFS: queue order (expanded states in
  turn, each in adjacency order); DFS: adjacency-order pre-order — and
  pruning only thins it, never reorders it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Hashable, Iterator, List, Optional, Tuple

from repro.graphs.resource_graph import ResourceGraph, ServiceEdge

Path = List[ServiceEdge]
#: ``extend(state, edge) -> state`` of the prefix one edge longer, or
#: ``None`` when that prefix cannot meet the requirements.
Extend = Callable[[Any, ServiceEdge], Any]
#: A prefix as parent links: ``(last edge, ..., link of the parent)``.
_Link = Optional[tuple]


def iter_paths(
    graph: ResourceGraph,
    v_init: Hashable,
    v_sol: Hashable,
    visited_policy: str = "paper",
    extend: Optional[Extend] = None,
    state: Any = None,
    max_expansions: int = 100_000,
) -> Iterator[Tuple[Path, Any]]:
    """Yield candidate execution sequences from ``v_init`` to ``v_sol``.

    Parameters
    ----------
    graph:
        The domain resource graph.
    v_init, v_sol:
        Initial and required application states.  A missing ``v_init``
        or ``v_sol`` yields no paths (the RM then reports "no feasible
        allocation", §4.3).
    visited_policy:
        ``"paper"`` or ``"exhaustive"`` (see module docstring).
    extend, state:
        The fold and the state of the empty prefix (see module
        docstring).  Without ``extend`` nothing is pruned and every
        path is yielded with *state* unchanged.
    max_expansions:
        Safety budget on vertex expansions.
    """
    if visited_policy == "paper":
        search = _bfs_paper
    elif visited_policy == "exhaustive":
        search = _dfs_simple
    else:
        raise ValueError(
            f"unknown visited_policy {visited_policy!r}; "
            "use 'paper' or 'exhaustive'"
        )
    if not graph.has_state(v_init) or not graph.has_state(v_sol):
        return
    if v_init == v_sol:
        # Already in the requested state: the empty sequence solves it.
        yield [], state
        return
    yield from search(graph, v_init, v_sol, extend, state, max_expansions)


def _path_of(link: _Link) -> Path:
    """The edge list a chain of parent links stands for."""
    path: Path = []
    while link is not None:
        path.append(link[0])
        link = link[-1]
    path.reverse()
    return path


def _bfs_paper(
    graph: ResourceGraph,
    v_init: Hashable,
    v_sol: Hashable,
    extend: Optional[Extend],
    state: Any,
    max_expansions: int,
) -> Iterator[Tuple[Path, Any]]:
    # On the graph's interned view, the goal and visited tests compare
    # ints: most pops are parallel edges into an expanded state.
    index, adj = graph.search_view()
    start, goal = index[v_init], index[v_sol]
    # A queue entry is (edge, its dst, state of the parent prefix,
    # parent entry): it is its own parent link, so queueing a prefix
    # copies nothing.  The goal is never marked visited.
    queue: deque[tuple] = deque(
        (edge, dst, state, None) for dst, edge in adj[start]
    )
    popleft = queue.popleft
    append = queue.append
    visited = [False] * len(adj)
    visited[start] = True
    expansions = 1
    while queue and expansions <= max_expansions:
        entry = popleft()
        v = entry[1]
        if visited[v]:
            continue
        state = entry[2]
        if extend is not None:
            state = extend(state, entry[0])
            if state is None:
                continue
        if v == goal:
            yield _path_of(entry), state
            continue
        visited[v] = True
        expansions += 1
        for dst, edge in adj[v]:
            append((edge, dst, state, entry))


def _dfs_simple(
    graph: ResourceGraph,
    v_init: Hashable,
    v_sol: Hashable,
    extend: Optional[Extend],
    state: Any,
    max_expansions: int,
) -> Iterator[Tuple[Path, Any]]:
    budget = [max_expansions]

    def dfs(
        v: Hashable, state: Any, link: _Link, on_path: set[Hashable]
    ) -> Iterator[Tuple[Path, Any]]:
        if budget[0] <= 0:
            return
        budget[0] -= 1
        for edge in graph.out_edges(v):
            nxt = edge.dst
            if nxt in on_path:
                continue
            new_state = state
            if extend is not None:
                new_state = extend(state, edge)
                if new_state is None:
                    continue
            if nxt == v_sol:
                yield _path_of((edge, link)), new_state
                continue
            on_path.add(nxt)
            yield from dfs(nxt, new_state, (edge, link), on_path)
            on_path.discard(nxt)

    yield from dfs(v_init, state, None, {v_init})


class PathSearch:
    """Convenience wrapper bundling a graph with search settings."""

    def __init__(
        self,
        graph: ResourceGraph,
        visited_policy: str = "paper",
        max_expansions: int = 100_000,
    ) -> None:
        if visited_policy not in ("paper", "exhaustive"):
            raise ValueError(f"unknown visited_policy {visited_policy!r}")
        self.graph = graph
        self.visited_policy = visited_policy
        self.max_expansions = max_expansions

    def paths(
        self,
        v_init: Hashable,
        v_sol: Hashable,
        extend: Optional[Extend] = None,
        state: Any = None,
    ) -> List[Path]:
        """All candidate paths as a list (see :func:`iter_paths`)."""
        return [
            path
            for path, _ in iter_paths(
                self.graph,
                v_init,
                v_sol,
                visited_policy=self.visited_policy,
                extend=extend,
                state=state,
                max_expansions=self.max_expansions,
            )
        ]
