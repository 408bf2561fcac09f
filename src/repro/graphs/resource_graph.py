"""The resource graph ``G_r``: domain states and service instances."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterator, List, Optional


@dataclass(frozen=True)
class ServiceEdge:
    """One service instance: a directed edge of ``G_r``.

    Attributes
    ----------
    src, dst:
        Application states (resource-graph vertices) this service
        converts between.
    service_id:
        The service *type* (e.g. a transcoder's ``src->dst`` format
        pair); several peers may host instances of the same type.
    peer_id:
        The hosting peer — executing this edge puts load on that peer.
    work:
        CPU work units consumed per execution (for the task's full
        stream).
    out_bytes:
        Bytes this service emits downstream per execution.
    edge_id:
        Unique label (``e1``, ``e2``, ... in Figure 1); the overlay draws
        it from the run's ids when a peer's service joins.
    """

    src: Hashable
    dst: Hashable
    service_id: str
    peer_id: str
    work: float
    out_bytes: float = 0.0
    edge_id: str = field(kw_only=True)
    meta: Dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError(f"negative work {self.work}")
        if self.out_bytes < 0:
            raise ValueError(f"negative out_bytes {self.out_bytes}")

    def __str__(self) -> str:
        return f"{self.edge_id}[{self.service_id}@{self.peer_id}]"


class ResourceGraph:
    """Directed multigraph of application states and service instances.

    Vertices are arbitrary hashable application states; parallel edges
    (several services, or the same service type on several peers, between
    the same pair of states) are first-class, exactly as in Figure 1
    where edges ``e2`` and ``e3`` both connect ``v2`` to ``v3``.
    """

    def __init__(self) -> None:
        #: Out-edges per state; its keys are the states, in insertion order.
        self._out: Dict[Hashable, List[ServiceEdge]] = {}
        self._edges: Dict[str, ServiceEdge] = {}
        self._view: Optional[tuple] = None

    # -- vertices -----------------------------------------------------------
    def add_state(self, state: Hashable) -> None:
        """Add an application state (idempotent)."""
        if state not in self._out:
            self._out[state] = []
            self._view = None

    def has_state(self, state: Hashable) -> bool:
        return state in self._out

    @property
    def states(self) -> List[Hashable]:
        """All states, in insertion order."""
        return list(self._out)

    def search_view(self) -> tuple:
        """``(index, adj)`` for the Fig-3 search: each state's int, and
        per int its out-edges as ``(dst int, edge)``.  Built on first
        use and dropped by every mutation, so it is never stale."""
        if self._view is None:
            index = {state: i for i, state in enumerate(self._out)}
            self._view = index, [
                [(index[e.dst], e) for e in edges] for edges in self._out.values()
            ]
        return self._view

    # -- edges ------------------------------------------------------------------
    def add_service(
        self,
        src: Hashable,
        dst: Hashable,
        service_id: str,
        peer_id: str,
        work: float,
        out_bytes: float = 0.0,
        *,
        edge_id: str,
        **meta: Any,
    ) -> ServiceEdge:
        """Add a service instance edge; endpoints are created as needed."""
        self.add_state(src)
        self.add_state(dst)
        edge = ServiceEdge(
            src, dst, service_id, peer_id, work, out_bytes,
            edge_id=edge_id, meta=meta,
        )
        if edge.edge_id in self._edges:
            raise ValueError(f"duplicate edge id {edge.edge_id!r}")
        self._edges[edge.edge_id] = edge
        self._out[src].append(edge)
        self._view = None
        return edge

    def remove_edge(self, edge_id: str) -> None:
        """Remove one service instance."""
        edge = self._edges.pop(edge_id, None)
        if edge is None:
            return
        self._out[edge.src].remove(edge)
        self._view = None

    def remove_peer(self, peer_id: str) -> List[ServiceEdge]:
        """Remove every edge hosted at *peer_id* (peer disconnect, §4.1).

        Returns the removed edges so callers can identify affected tasks.
        """
        doomed = [e for e in self._edges.values() if e.peer_id == peer_id]
        for edge in doomed:
            self.remove_edge(edge.edge_id)
        return doomed

    def edge(self, edge_id: str) -> ServiceEdge:
        """Look up an edge by id."""
        return self._edges[edge_id]

    def out_edges(self, state: Hashable) -> List[ServiceEdge]:
        """Edges leaving *state* (``E_out`` of §3.4)."""
        return list(self._out.get(state, ()))

    def edges(self) -> Iterator[ServiceEdge]:
        """All edges, in insertion order."""
        return iter(list(self._edges.values()))

    @property
    def n_states(self) -> int:
        return len(self._out)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def peers(self) -> List[str]:
        """Distinct hosting peers, in first-seen order."""
        seen: Dict[str, None] = {}
        for e in self._edges.values():
            seen.setdefault(e.peer_id, None)
        return list(seen)

    def copy(self) -> "ResourceGraph":
        """Shallow structural copy (edges are immutable, safe to share)."""
        # Bulk-copy the internal dicts (RM backup sync snapshots the
        # whole graph every replication period); the adjacency lists are
        # cloned, the edges themselves shared.
        g = ResourceGraph()
        g._out = {v: list(es) for v, es in self._out.items()}
        g._edges = dict(self._edges)
        return g

    def __repr__(self) -> str:
        return f"<ResourceGraph states={self.n_states} edges={self.n_edges}>"
