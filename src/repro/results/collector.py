"""The run-level metrics collector used by all experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.common.util import percentile
from repro.results.timeseries import TimeSeries
from repro.core.fairness import jain_fairness
from repro.sim.core import Environment
from repro.tasks.task import ApplicationTask, TaskOutcome


@dataclass
class RunSummary:
    """Aggregated results of one simulation run."""

    duration: float
    n_submitted: int
    n_admitted: int
    n_completed: int
    n_met: int
    n_missed: int
    n_rejected: int
    n_failed: int
    n_redirected: int
    n_repairs: int
    n_reassignments: int
    mean_response: float
    p95_response: float
    mean_fairness: float
    min_fairness: float
    messages: int
    bytes_sent: float
    #: Sum of importance over tasks that met their deadline / sum over
    #: all terminal tasks — the Jensen-style "overall system benefit"
    #: the paper's Importance_t exists for (§3.3, §5).
    value_goodput: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def miss_rate(self) -> float:
        """Missed deadlines / tasks that reached a terminal state."""
        done = self.n_completed + self.n_failed
        if done == 0:
            return 0.0
        return (self.n_missed + self.n_failed) / done

    @property
    def goodput(self) -> float:
        """Tasks meeting their deadline / all submitted."""
        if self.n_submitted == 0:
            return 0.0
        return self.n_met / self.n_submitted

    @property
    def rejection_rate(self) -> float:
        if self.n_submitted == 0:
            return 0.0
        return self.n_rejected / self.n_submitted

    def row(self) -> Dict[str, Any]:
        """Flat dict for table printing."""
        return {
            "submitted": self.n_submitted,
            "admitted": self.n_admitted,
            "met": self.n_met,
            "missed": self.n_missed,
            "rejected": self.n_rejected,
            "failed": self.n_failed,
            "goodput": self.goodput,
            "miss_rate": self.miss_rate,
            "mean_resp": self.mean_response,
            "p95_resp": self.p95_response,
            "fairness": self.mean_fairness,
            "messages": self.messages,
        }


class MetricsCollector:
    """Observes task lifecycle events and samples system state.

    Wire ``collector.on_task_event`` into the RMs (or the overlay); call
    :meth:`start_sampling` to record the fairness index of the *actual*
    (profiler-measured) load distribution over time; call
    :meth:`summary` after the run.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self.tasks: Dict[str, ApplicationTask] = {}
        self.events: List[tuple[float, str, str]] = []
        self.counts: Dict[str, int] = {}
        self.fairness_series = TimeSeries()
        self.utilization_series = TimeSeries()
        self._overlay: Any = None

    # -- lifecycle hook -----------------------------------------------------
    def on_task_event(self, task: ApplicationTask, event: str) -> None:
        """Register a task lifecycle transition (RM callback)."""
        self.tasks[task.task_id] = task
        self.events.append((self.env.now, task.task_id, event))
        self.counts[event] = self.counts.get(event, 0) + 1

    # -- sampling ------------------------------------------------------------
    def start_sampling(
        self, overlay: Any, period: float = 1.0
    ) -> None:
        """Periodically sample true loads across all live peers.

        ``overlay`` needs a ``peers`` mapping of id -> object exposing
        ``alive`` and a :class:`~repro.monitoring.profiler.Profiler`
        (both :class:`OverlayNetwork` and ad-hoc harnesses satisfy
        this).
        """
        if period <= 0:
            raise ValueError("period must be positive")
        self._overlay = overlay
        self.env.every(period, self._sample)

    def _sample(self) -> None:
        alive = [p.profiler for p in self._overlay.peers.values() if p.alive]
        if alive:
            now = self.env.now
            # Profiler.utilization, read off its EWMA.
            utils = [0.0 if (u := p._util.value) is None else u for p in alive]
            self.fairness_series.add(now, jain_fairness([
                profiler.processor.power * u
                for profiler, u in zip(alive, utils)
            ]))
            self.utilization_series.add(now, sum(utils) / len(alive))

    # -- aggregation ------------------------------------------------------------
    def summary(
        self, net_stats: Optional[Any] = None
    ) -> RunSummary:
        """Aggregate everything observed so far."""
        tasks = list(self.tasks.values())
        responses = [
            t.response_time
            for t in tasks
            if t.outcome in (TaskOutcome.MET_DEADLINE,
                             TaskOutcome.MISSED_DEADLINE)
            and t.response_time is not None
        ]
        n_met = sum(
            1 for t in tasks if t.outcome is TaskOutcome.MET_DEADLINE
        )
        n_missed = sum(
            1 for t in tasks if t.outcome is TaskOutcome.MISSED_DEADLINE
        )
        n_rejected = sum(
            1 for t in tasks if t.outcome is TaskOutcome.REJECTED
        )
        n_failed = sum(1 for t in tasks if t.outcome is TaskOutcome.FAILED)
        value_met = sum(
            t.qos.importance
            for t in tasks
            if t.outcome is TaskOutcome.MET_DEADLINE
        )
        value_all = sum(
            t.qos.importance for t in tasks if t.outcome is not None
        )
        return RunSummary(
            duration=self.env.now,
            n_submitted=self.counts.get("submitted", 0)
            or len(tasks),
            n_admitted=self.counts.get("admitted", 0),
            n_completed=n_met + n_missed,
            n_met=n_met,
            n_missed=n_missed,
            n_rejected=n_rejected,
            n_failed=n_failed,
            n_redirected=self.counts.get("redirected", 0),
            n_repairs=self.counts.get("repaired", 0),
            n_reassignments=self.counts.get("reassigned", 0),
            mean_response=(
                sum(responses) / len(responses) if responses else 0.0
            ),
            p95_response=percentile(responses, 95) if responses else 0.0,
            mean_fairness=(
                self.fairness_series.time_weighted_mean()
                if len(self.fairness_series)
                else 1.0
            ),
            min_fairness=(
                self.fairness_series.min()
                if len(self.fairness_series)
                else 1.0
            ),
            messages=net_stats.sent if net_stats is not None else 0,
            bytes_sent=(
                net_stats.bytes_sent if net_stats is not None else 0.0
            ),
            value_goodput=(value_met / value_all) if value_all else 0.0,
        )
