"""Exception hierarchy for the reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class UnknownPeer(ReproError, KeyError):
    """An operation referenced a peer id the component does not know."""


class AllocationError(ReproError):
    """Base class for task-allocation failures."""


class NoFeasibleAllocation(AllocationError):
    """The allocation search found no path satisfying the QoS requirements.

    Carries the task id and, when available, the reason breakdown
    (``no_path`` / ``deadline`` / ``capacity``) so admission control can
    decide between rejection and inter-domain redirection.
    """

    def __init__(self, task_id: str, reason: str = "no_path") -> None:
        super().__init__(f"no feasible allocation for task {task_id}: {reason}")
        self.task_id = task_id
        self.reason = reason
