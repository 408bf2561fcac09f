"""Jobs: units of CPU work queued at a processor."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event


class Job:
    """One schedulable unit of CPU work.

    Attributes
    ----------
    work:
        Total demand in work units; a processor with power ``P``
        executes ``P`` work units per second.
    remaining:
        Work still to do (decreases as the job runs).
    abs_deadline:
        Absolute completion deadline (soft — the job keeps running past
        it; the miss is recorded).
    importance:
        Task importance, consumed by value-aware policies.
    service_id / task_id:
        Provenance, for profiling and tracing.
    job_id:
        Breaks policy-key ties in creation order; the peer draws it from
        the run's ids.  Unnumbered jobs (0) tie in queue order.
    """

    __slots__ = (
        "job_id",
        "task_id",
        "service_id",
        "work",
        "remaining",
        "release",
        "abs_deadline",
        "importance",
        "done",
        "started_at",
        "completed_at",
        "preemptions",
        "cancelled",
    )

    def __init__(
        self,
        work: float,
        abs_deadline: float,
        release: float,
        importance: float = 1.0,
        task_id: str = "",
        service_id: str = "",
        job_id: int = 0,
    ) -> None:
        if work <= 0:
            raise ValueError(f"job work must be positive, got {work}")
        self.job_id = job_id
        self.task_id = task_id
        self.service_id = service_id
        self.work = float(work)
        self.remaining = float(work)
        self.release = float(release)
        self.abs_deadline = float(abs_deadline)
        self.importance = float(importance)
        #: Event fired on completion (set by the processor at submit,
        #: cleared once it has fired).
        self.done: Optional["Event"] = None
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.preemptions = 0
        self.cancelled = False

    def laxity(self, now: float, power: float) -> float:
        """Slack before the deadline if run to completion at full speed."""
        return self.abs_deadline - now - self.remaining / power

    @property
    def response_time(self) -> Optional[float]:
        """Release-to-completion latency, if finished."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.release

    @property
    def met_deadline(self) -> Optional[bool]:
        if self.completed_at is None:
            return None
        return self.completed_at <= self.abs_deadline

    def __repr__(self) -> str:
        return (
            f"<Job {self.job_id} task={self.task_id} rem={self.remaining:.3g}"
            f"/{self.work:.3g} dl={self.abs_deadline:.3g}>"
        )
