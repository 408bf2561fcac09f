"""The message unit exchanged between overlay nodes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.ids import Ids

_task_traces: Dict[str, str] = {}


def trace_id_for_payload(payload: Dict[str, Any]) -> Optional[str]:
    """Derive the task-trace id a payload belongs to, if any.

    Task-scoped messages all carry the task identity in one of three
    conventional payload shapes: a ``task_id`` field (STEP_DONE,
    TASK_DONE, TASK_ACK, START_STREAM, STREAM, CANCEL_TASK, QOS_UPDATE),
    an ``order`` (COMPOSE) or a ``task`` object (TASK_REDIRECT).  All
    three map onto the same ``task:<id>`` trace, which is how spans
    recorded on different nodes — and across the UDP hop — correlate.
    """
    task_id = payload.get("task_id")
    if isinstance(task_id, str) and task_id:
        # Every message of a task re-derives the same string; memoize
        # (bounded by the number of distinct tasks in the process).
        trace = _task_traces.get(task_id)
        if trace is None:
            trace = _task_traces[task_id] = f"task:{task_id}"
        return trace
    order = payload.get("order")
    if order is not None:
        tid = getattr(order, "task_id", None)
        if tid:
            return f"task:{tid}"
    task = payload.get("task")
    if task is not None:
        tid = getattr(task, "task_id", None)
        if tid:
            return f"task:{tid}"
    return None


@dataclass(slots=True)
class Message:
    """A point-to-point overlay message.

    Attributes
    ----------
    kind:
        Protocol message type (e.g. ``"task_request"``, ``"load_update"``).
    src, dst:
        Node identifiers.
    payload:
        Arbitrary content; by convention a dict of plain values.
    size:
        Wire size in bytes (drives transmission delay and bandwidth
        accounting).
    msg_id:
        Unique per sender, drawn by the sender from its run's
        :class:`~repro.sim.ids.Ids` (0: never sent).
    reply_to:
        For responses: the ``msg_id`` of the request being answered.
    sent_at:
        Stamped by the network at send time (simulation seconds).
    trace_id:
        Causal-correlation id for telemetry: task-scoped messages carry
        ``task:<task_id>``, replies inherit the request's id, everything
        else gets a fresh ``m<N>`` at send time (see
        :func:`trace_id_for_payload`).  Travels on the wire so spans
        correlate across the UDP hop.
    """

    kind: str
    src: str
    dst: str
    payload: Dict[str, Any] = field(default_factory=dict)
    size: float = 512.0
    msg_id: int = 0
    reply_to: Optional[int] = None
    sent_at: float = 0.0
    trace_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"message size must be positive, got {self.size}")

    def ensure_trace_id(self, ids: "Ids") -> str:
        """Assign (if still unset) and return this message's trace id.

        Called by every transport at the send chokepoint: payload-derived
        task correlation wins, otherwise the message starts a trace of
        its own, ``m<N>`` from the sender's *ids*.
        """
        if self.trace_id is None:
            self.trace_id = (
                trace_id_for_payload(self.payload) or f"m{next(ids.trace)}"
            )
        return self.trace_id

    def __repr__(self) -> str:
        return (
            f"Message({self.kind}, {self.src}->{self.dst}, id={self.msg_id}"
            + (f", reply_to={self.reply_to}" if self.reply_to else "")
            + ")"
        )
