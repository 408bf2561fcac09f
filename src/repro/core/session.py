"""Session state shared between the RM and the participating peers.

A *session* is the execution of one service graph: the source peer
pushes the object through the chain of transcoding steps to the sink
(Fig. 2(C)).  Execution is store-and-forward, matching the paper's
execution-time model (§3.3: the sum of processing and communication
times).

The :class:`ComposeOrder` is the content of the RM's graph-composition
message (§4.3): every participant receives the full chain, so any peer
holding the intermediate data can resume the stream after a repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.graphs.service_graph import ServiceGraph, ServiceStep


@dataclass
class ComposeOrder:
    """The RM's instruction describing one task's service chain.

    Attributes
    ----------
    task_id, rm_id:
        The task and the RM coordinating it (TASK_DONE goes there).
    source_peer / sink_peer:
        Stream endpoints.
    steps:
        The full ordered chain.
    abs_deadline / importance:
        QoS data each peer's Local Scheduler needs for its jobs.
    in_bytes:
        Size of the source object (first transfer).
    resume_from:
        First step index to execute (0 for a fresh start; >0 after a
        repair resumes mid-chain).
    epoch:
        Repair generation; peers ignore stale stream data from an
        earlier epoch so a repaired chain cannot race its dead
        predecessor.
    """

    task_id: str
    rm_id: str
    source_peer: str
    sink_peer: str
    steps: List[ServiceStep]
    abs_deadline: float
    importance: float
    in_bytes: float
    resume_from: int = 0
    epoch: int = 0

    def as_payload(self) -> Dict[str, Any]:
        return {"order": self}

    def bytes_into(self, index: int) -> float:
        """Size of the data entering step *index*."""
        if index == 0:
            return self.in_bytes
        return self.steps[index - 1].out_bytes


@dataclass
class SessionState:
    """RM-side bookkeeping for one running task."""

    task_id: str
    graph: ServiceGraph
    order: ComposeOrder
    started_at: float
    #: Highest contiguous completed step index (-1: none yet).
    last_step_done: int = -1
    #: Which peer currently holds the newest intermediate data.
    data_holder: str = ""
    epoch: int = 0
    repairs: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)

    def note_step_done(self, index: int, peer_id: str) -> None:
        """Record step progress (STEP_DONE handling)."""
        if index > self.last_step_done:
            self.last_step_done = index
            self.data_holder = peer_id

    def resume_point(self) -> int:
        """First step that still needs to run."""
        return self.last_step_done + 1

    def resume_source(self) -> Optional[str]:
        """Peer that should re-emit the data on a repair, if known."""
        if self.last_step_done < 0:
            return self.graph.source_peer
        return self.data_holder or None
