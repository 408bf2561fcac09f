"""Task lifecycle: states, outcomes, and the task record itself."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.tasks.qos import QoSRequirements


class TaskState(enum.Enum):
    """Lifecycle states of an application task.

    ::

        PENDING --admit--> ALLOCATED --start--> RUNNING --finish--> DONE
           |                   |                   |
           +--reject--> REJECTED                   +--peer fail--> (repair)
           +--redirect--> (resubmitted in another domain)
    """

    PENDING = "pending"
    ALLOCATED = "allocated"
    RUNNING = "running"
    DONE = "done"
    REJECTED = "rejected"
    FAILED = "failed"


class TaskOutcome(enum.Enum):
    """Final disposition used by the metrics layer."""

    MET_DEADLINE = "met"
    MISSED_DEADLINE = "missed"
    REJECTED = "rejected"
    FAILED = "failed"


@dataclass
class ApplicationTask:
    """One application task request and its accumulated history.

    Attributes
    ----------
    name:
        Application-level name (``id_t`` in §4.3) — e.g. the requested
        media object.
    qos:
        The requirement set ``q``.
    initial_state / goal_state:
        Resource-graph vertices: where the request starts (e.g. the source
        media format) and what the user asked for.
    origin_peer:
        Peer that submitted the query.
    task_id:
        The run's name for the task (``t<N>``), drawn by the RM that
        receives the query.
    submitted_at:
        Simulation time of submission (stamped by the RM on receipt).
    """

    name: str
    qos: QoSRequirements
    initial_state: Any
    goal_state: Any
    origin_peer: str = ""
    task_id: str = field(kw_only=True)
    submitted_at: float = 0.0
    state: TaskState = TaskState.PENDING
    #: Assigned execution sequence as (service_id, peer_id) pairs.
    allocation: List[Tuple[str, str]] = field(default_factory=list)
    #: Fairness index of the domain load distribution at allocation time.
    allocation_fairness: float = 0.0
    #: Domain that finally admitted the task (after any redirects).
    admitted_domain: Optional[str] = None
    redirects: int = 0
    repairs: int = 0
    finished_at: Optional[float] = None
    outcome: Optional[TaskOutcome] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def absolute_deadline(self) -> float:
        """Wall-clock deadline: submission time + relative deadline."""
        return self.submitted_at + self.qos.deadline

    @property
    def response_time(self) -> Optional[float]:
        """Completion latency, or ``None`` if not finished."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def mark_allocated(
        self,
        allocation: List[Tuple[str, str]],
        fairness: float,
        domain: str,
    ) -> None:
        """Record a successful allocation (RM decision)."""
        if self.state not in (TaskState.PENDING, TaskState.RUNNING):
            raise ValueError(f"cannot allocate task in state {self.state}")
        self.allocation = list(allocation)
        self.allocation_fairness = fairness
        self.admitted_domain = domain
        self.state = TaskState.ALLOCATED

    def mark_running(self) -> None:
        """The streaming session has started."""
        self.state = TaskState.RUNNING

    def mark_done(self, now: float) -> None:
        """Completed; outcome depends on the deadline (soft real-time)."""
        self.finished_at = now
        self.state = TaskState.DONE
        self.outcome = (
            TaskOutcome.MET_DEADLINE
            if now <= self.absolute_deadline
            else TaskOutcome.MISSED_DEADLINE
        )

    def mark_rejected(self, now: float, reason: str = "") -> None:
        """Admission control refused the task everywhere."""
        self.finished_at = now
        self.state = TaskState.REJECTED
        self.outcome = TaskOutcome.REJECTED
        if reason:
            self.meta["reject_reason"] = reason

    def mark_failed(self, now: float, reason: str = "") -> None:
        """The task was lost (e.g. unrepairable peer failure)."""
        self.finished_at = now
        self.state = TaskState.FAILED
        self.outcome = TaskOutcome.FAILED
        if reason:
            self.meta["fail_reason"] = reason

    def __repr__(self) -> str:
        return (
            f"<Task {self.task_id} {self.name!r} {self.state.value}"
            f" dl={self.qos.deadline:g}>"
        )
