"""Task lifecycle event emission shared by the control-plane components.

Every component reports transitions through
:func:`emit_task_event` (via ``rm._emit``): it feeds the unified
telemetry layer (span per task, counters) and the RM's
``on_task_event`` metrics hook.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import telemetry
from repro.tasks.task import ApplicationTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manager import ResourceManager

#: Events that end a task's lifecycle (close its telemetry span).
TERMINAL_EVENTS = frozenset({"completed", "rejected", "failed"})


def emit_task_event(
    rm: "ResourceManager", task: ApplicationTask, event: str
) -> None:
    """Record a task lifecycle transition on every observer channel."""
    tel = telemetry.current()
    if tel.enabled:
        trace_id = f"task:{task.task_id}"
        if event == "submitted":
            tel.tracer.start_span(
                task.task_id, kind=telemetry.TASK, node=rm.node_id,
                trace_id=trace_id, key=trace_id,
                origin=task.origin_peer, deadline=task.qos.deadline,
                importance=task.qos.importance,
            )
            tel.metrics.counter("repro_rm_tasks_submitted_total").inc()
        elif event in TERMINAL_EVENTS:
            outcome = task.outcome.value if task.outcome else None
            tel.tracer.end_span_key(trace_id, status=event, outcome=outcome)
            tel.metrics.counter(
                "repro_rm_tasks_finished_total", event=event
            ).inc()
        else:
            span = tel.tracer.open_span(trace_id)
            tel.tracer.event(
                f"task.{event}", node=rm.node_id, trace_id=trace_id,
                span_id=span.span_id if span else None,
            )
    if rm.on_task_event is not None:
        rm.on_task_event(task, event)
