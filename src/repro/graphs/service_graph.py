"""The service graph ``G_s``: one task's concrete invocation sequence."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.graphs.resource_graph import ServiceEdge


@dataclass(frozen=True)
class ServiceStep:
    """One invocation in a service graph.

    ``T_1, T_2, T_3`` in Figure 1(B) are steps; each corresponds to one
    resource-graph edge at allocation time, but steps carry their own
    copies of (service, peer, work, bytes) so the service graph stays
    valid when the resource graph is later updated.
    """

    index: int
    service_id: str
    peer_id: str
    work: float
    out_bytes: float
    src_state: Hashable
    dst_state: Hashable
    edge_id: str = ""


class ServiceGraph:
    """The per-task chain of service invocations (paper §3.3).

    The paper models a task as "a sequence of invocations of objects and
    services distributed across multiple processors"; the service graph
    is therefore a chain from the data source to the requesting peer,
    with per-step timing recorded during execution.
    """

    def __init__(
        self,
        task_id: str,
        source_peer: str,
        sink_peer: str,
        steps: Optional[List[ServiceStep]] = None,
    ) -> None:
        self.task_id = task_id
        #: Peer holding the source object (start of the stream).
        self.source_peer = source_peer
        #: Peer that submitted the query (receives the final stream).
        self.sink_peer = sink_peer
        self.steps: List[ServiceStep] = list(steps or [])
        #: Per-step measured (start, end) times, filled during execution.
        self.timings: Dict[int, Tuple[float, float]] = {}
        self.meta: Dict[str, Any] = {}

    @classmethod
    def from_edges(
        cls,
        task_id: str,
        edges: List[ServiceEdge],
        source_peer: str,
        sink_peer: str,
        work_scale: float = 1.0,
        index_offset: int = 0,
    ) -> "ServiceGraph":
        """Build a service graph from a chosen resource-graph path.

        ``work_scale`` converts the edges' canonical (per-reference-
        duration) work and byte volumes into this task's absolute ones.
        """
        steps = [
            ServiceStep(
                index=index_offset + i,
                service_id=e.service_id,
                peer_id=e.peer_id,
                work=e.work * work_scale,
                out_bytes=e.out_bytes * work_scale,
                src_state=e.src,
                dst_state=e.dst,
                edge_id=e.edge_id,
            )
            for i, e in enumerate(edges)
        ]
        return cls(task_id, source_peer, sink_peer, steps)

    def __len__(self) -> int:
        return len(self.steps)

    def peers(self) -> List[str]:
        """Every peer involved: source, all steps, sink (deduplicated)."""
        out: List[str] = []
        for p in [self.source_peer, *(s.peer_id for s in self.steps),
                  self.sink_peer]:
            if p not in out:
                out.append(p)
        return out

    def uses_peer(self, peer_id: str) -> bool:
        """True if the task depends on *peer_id* in any role."""
        return peer_id in self.peers()

    def allocation_pairs(self) -> List[Tuple[str, str]]:
        """``(service_id, peer_id)`` pairs, the task-record form."""
        return [(s.service_id, s.peer_id) for s in self.steps]

    def total_work(self) -> float:
        """Sum of step work (CPU demand the task imposes)."""
        return sum(s.work for s in self.steps)

    def record_timing(self, index: int, start: float, end: float) -> None:
        """Store measured execution interval for one step."""
        if end < start:
            raise ValueError(f"end {end} before start {start}")
        self.timings[index] = (start, end)

    def __repr__(self) -> str:
        chain = " -> ".join(
            f"{s.service_id}@{s.peer_id}" for s in self.steps
        ) or "<empty>"
        return f"<ServiceGraph {self.task_id}: {self.source_peer} | {chain} | {self.sink_peer}>"
