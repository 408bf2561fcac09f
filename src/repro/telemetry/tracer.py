"""Causal spans and events — the trace side of the telemetry layer.

A :class:`Span` is a timed interval of work (a task's whole lifetime, one
service hop on a CPU, one message's flight); a :class:`TraceEvent` is an
instantaneous occurrence (an RM election, a gossip round, a profiler
update).  Causality is carried two ways:

* ``trace_id`` groups everything belonging to one logical activity —
  task traces use ``task:<task_id>``, so spans recorded by different
  nodes (and across the UDP hop, where the id travels on the wire in
  :class:`~repro.net.message.Message`) land in the same trace;
* ``parent_id`` links a span to its enclosing span when both live in
  the same process (e.g. a service hop under its task span).

Two tracer implementations share one API: :class:`TelemetryTracer`
records everything; :class:`NoopTracer` (the process-wide default) does
nothing.  Instrumented hot paths guard every call with a single
``enabled`` check, so disabled-telemetry overhead is a branch and an
attribute read — see ``tests/test_telemetry.py`` for the bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.telemetry.clock import ClockSource

# -- span kinds --------------------------------------------------------------
#: Whole task lifecycle: submit -> admission -> ... -> done/miss/reject.
TASK = "task"
#: One service-hop execution on a peer's CPU.
SERVICE = "service"
#: One protocol message's flight (send -> deliver/ack, or -> dropped).
MESSAGE = "message"
#: Control-plane work (election, failover, sync, gossip).
CONTROL = "control"


@dataclass
class Span:
    """One timed interval of traced work."""

    span_id: int
    trace_id: Optional[str]
    parent_id: Optional[int]
    name: str
    kind: str
    node: str
    start: float
    end: Optional[float] = None
    status: str = "open"
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> Optional[float]:
        """Span length, or ``None`` while still open."""
        if self.end is None:
            return None
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for the JSONL exporter."""
        return {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "node": self.node,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Span":
        return cls(
            span_id=d["span_id"], trace_id=d.get("trace_id"),
            parent_id=d.get("parent_id"), name=d["name"], kind=d["kind"],
            node=d.get("node", ""), start=d["start"], end=d.get("end"),
            status=d.get("status", "ok"), attrs=dict(d.get("attrs", {})),
        )


@dataclass
class TraceEvent:
    """One instantaneous traced occurrence."""

    time: float
    name: str
    node: str
    trace_id: Optional[str] = None
    span_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "name": self.name,
            "node": self.node,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "TraceEvent":
        return cls(
            time=d["time"], name=d["name"], node=d.get("node", ""),
            trace_id=d.get("trace_id"), span_id=d.get("span_id"),
            attrs=dict(d.get("attrs", {})),
        )


class TelemetryTracer:
    """Records spans and events, stamping times from a clock source.

    In-flight spans can be registered under a string *key* so the code
    that closes a span need not hold the object the opener created —
    e.g. the RM opens ``task:<id>`` at submission and closes it by key
    when the completion report arrives.
    """

    enabled = True

    def __init__(self, clock: ClockSource) -> None:
        self.clock = clock
        #: Finished spans, in completion order.
        self.spans: List[Span] = []
        #: Events, in emission order.
        self.events: List[TraceEvent] = []
        self._open: Dict[str, Span] = {}
        self._ids = itertools.count(1)
        # Stream taps (e.g. the flight recorder): fn(kind, record) called
        # on every finished span and every event.
        self._listeners: List[Any] = []

    # -- stream listeners --------------------------------------------------
    def add_listener(self, fn) -> None:
        """Register *fn(kind, record)* for finished spans and events."""
        if fn not in self._listeners:
            self._listeners.append(fn)

    def remove_listener(self, fn) -> None:
        if fn in self._listeners:
            self._listeners.remove(fn)

    # -- spans -------------------------------------------------------------
    def start_span(
        self,
        name: str,
        kind: str,
        node: str = "",
        trace_id: Optional[str] = None,
        parent_id: Optional[int] = None,
        key: Optional[str] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span now; register it under *key* if given."""
        span = Span(
            span_id=next(self._ids), trace_id=trace_id,
            parent_id=parent_id, name=name, kind=kind, node=node,
            start=self.clock.now(), attrs=attrs,
        )
        if key is not None:
            self._open[key] = span
        return span

    def end_span(self, span: Span, status: str = "ok", **attrs: Any) -> Span:
        """Close *span* now with a final status."""
        span.end = self.clock.now()
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        self.spans.append(span)
        if self._listeners:
            for fn in self._listeners:
                fn("span", span)
        return span

    def end_span_key(
        self, key: str, status: str = "ok", **attrs: Any
    ) -> Optional[Span]:
        """Close the span registered under *key* (``None`` if unknown)."""
        span = self._open.pop(key, None)
        if span is None:
            return None
        return self.end_span(span, status=status, **attrs)

    def open_span(self, key: str) -> Optional[Span]:
        """The still-open span registered under *key*, if any."""
        return self._open.get(key)

    def finish_open(self, status: str = "unfinished") -> int:
        """Close every still-open keyed span (export-time cleanup)."""
        n = 0
        for key in list(self._open):
            self.end_span_key(key, status=status)
            n += 1
        return n

    # -- events ------------------------------------------------------------
    def event(
        self,
        name: str,
        node: str = "",
        trace_id: Optional[str] = None,
        span_id: Optional[int] = None,
        **attrs: Any,
    ) -> TraceEvent:
        """Emit one instantaneous event."""
        ev = TraceEvent(
            time=self.clock.now(), name=name, node=node,
            trace_id=trace_id, span_id=span_id, attrs=attrs,
        )
        self.events.append(ev)
        if self._listeners:
            for fn in self._listeners:
                fn("event", ev)
        return ev

    # -- queries -----------------------------------------------------------
    def spans_of_kind(self, kind: str) -> List[Span]:
        return [s for s in self.spans if s.kind == kind]

    def trace(self, trace_id: str) -> List[Span]:
        """All finished spans of one trace, in start order."""
        return sorted(
            (s for s in self.spans if s.trace_id == trace_id),
            key=lambda s: (s.start, s.span_id),
        )

    def clear(self) -> None:
        self.spans.clear()
        self.events.clear()
        self._open.clear()

    def __len__(self) -> int:
        return len(self.spans) + len(self.events)


class NoopTracer:
    """The disabled tracer: every method is a do-nothing stub.

    Call sites normally never reach these methods (they check
    ``enabled`` first); the stubs exist so un-guarded calls are still
    harmless.
    """

    enabled = False

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.events: List[TraceEvent] = []

    def start_span(self, name, kind, **kwargs) -> Span:  # noqa: D102
        return _NOOP_SPAN

    def end_span(self, span, status="ok", **attrs) -> Span:  # noqa: D102
        return _NOOP_SPAN

    def end_span_key(self, key, status="ok", **attrs):  # noqa: D102
        return None

    def open_span(self, key):  # noqa: D102
        return None

    def finish_open(self, status="unfinished") -> int:  # noqa: D102
        return 0

    def event(self, name, **kwargs) -> None:  # noqa: D102
        return None

    def add_listener(self, fn) -> None:  # noqa: D102
        return None

    def remove_listener(self, fn) -> None:  # noqa: D102
        return None

    def clear(self) -> None:  # noqa: D102
        return None

    def __len__(self) -> int:
        return 0


#: Shared placeholder returned by every NoopTracer span call.
_NOOP_SPAN = Span(
    span_id=0, trace_id=None, parent_id=None, name="noop", kind=CONTROL,
    node="", start=0.0, end=0.0, status="noop",
)
