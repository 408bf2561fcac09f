"""The benchmark's own tracer: spans around calls into each layer.

Nothing under ``src/`` is edited.  :meth:`SpanTracer.installed` swaps
the public entry points listed in :data:`ENTRY_POINTS` for
``perf_counter`` shims for the length of one traced repetition and puts
the originals back afterwards.  A span is ``(name, start, end, parent,
task id)``; a layer's *self* time is its span's duration minus the part
its child spans cover.  Spans stay in memory until the repetition ends.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
from time import perf_counter
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

#: span name -> places the callable is bound: ``(module, class or None,
#: attribute)``.  A module function is listed once per module that
#: imported it by name, because that binding is what callers resolve.
ENTRY_POINTS: Dict[str, List[Tuple[str, Optional[str], str]]] = {
    "sim.step": [
        # run() inlines step() for speed, so the simulator enters the
        # kernel through run and the live clock pump through step.
        ("repro.sim.core", "Environment", "run"),
        ("repro.sim.core", "Environment", "step"),
    ],
    "net.send": [("repro.net.network", "Network", "send")],
    "core.allocate": [("repro.core.allocation", "Allocator", "allocate")],
    "core.control.admit": [
        ("repro.core.control.admission", "AdmissionController", "admit"),
    ],
    "core.control.place": [
        ("repro.core.control.placement", "PlacementEngine", "place"),
    ],
    "core.control.pick_redirect_target": [
        ("repro.core.control.admission", "AdmissionController",
         "pick_redirect_target"),
    ],
    "core.control.repair_task": [
        ("repro.core.control.repair", "RepairCoordinator", "repair_task"),
    ],
    "graphs.paths": [
        ("repro.graphs.search", "PathSearch", "paths"),
        # The allocator drives the Fig-3 BFS generator directly.
        ("repro.core.allocation", None, "iter_paths"),
    ],
    "scheduling.submit": [
        ("repro.scheduling.processor", "Processor", "submit"),
    ],
    "monitoring.current_report": [
        ("repro.monitoring.profiler", "Profiler", "current_report"),
    ],
    "gossip.publish": [("repro.gossip.agent", "GossipAgent", "publish")],
    "summaries.rebuild": [
        ("repro.summaries.domain_summary", "DomainSummary", "rebuild"),
    ],
    "overlay.join": [("repro.overlay.network", "OverlayNetwork", "join")],
    "overlay.fail_peer": [
        ("repro.overlay.network", "OverlayNetwork", "fail_peer"),
    ],
    "workloads.build_scenario": [
        ("benchmarks.e2e.sim", None, "build_scenario"),
    ],
    "runtime.codec.encode_message": [
        ("repro.runtime.transport", None, "encode_message"),
    ],
    "runtime.codec.decode_frame": [
        ("repro.runtime.transport", None, "decode_frame"),
    ],
    "runtime.transport.send": [
        ("repro.runtime.transport", "UdpTransport", "send"),
    ],
    "runtime.transport.datagram_received": [
        ("repro.runtime.transport", "UdpTransport", "datagram_received"),
    ],
    "runtime.node.submit_task": [
        ("repro.runtime.node", "LiveNode", "submit_task"),
    ],
    "runtime.cluster.start": [
        ("repro.runtime.cluster", "LiveCluster", "start"),
    ],
}

#: Entry points that are coroutine functions.  A coroutine is suspended
#: while other callbacks run, so its span takes no children and its
#: duration is wall time, suspensions included; it is reported as
#: ``<entry>.wall_ms_per_task``, not ``self_ms``.
ASYNC_ENTRIES = frozenset({"runtime.cluster.start"})

#: Entry points that belong to set-up: counted over the whole
#: repetition.  Every other span counts only if it started inside the
#: measured window, so per-task figures are not inflated by warm-up.
SETUP_ENTRIES = frozenset({
    "workloads.build_scenario", "overlay.join", "runtime.cluster.start",
})


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root
    child_s: float  # time covered by direct child spans
    task_id: Optional[str]
    #: ``len()`` of the result when it is ``bytes`` (codec frames).
    out_bytes: int

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s


def _task_id_of(args: Tuple[Any, ...]) -> Optional[str]:
    """The task a call is about, when one of its arguments says so."""
    for arg in args[:3]:
        task_id = getattr(arg, "task_id", None)
        if task_id is None:
            payload = getattr(arg, "payload", None)
            if isinstance(payload, dict):
                task_id = payload.get("task_id")
        if isinstance(task_id, str):
            return task_id
    return None


class SpanTracer:
    """Keeps the span stack and the finished spans of one repetition."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        #: Open spans, innermost last: ``[span index, child seconds]``.
        self._stack: List[List[Any]] = []

    # -- recording ---------------------------------------------------------
    def wrap(self, name: str, fn: Any) -> Any:
        """A shim that records one span per call of *fn*."""
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(name, fn)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        spans, stack = self.spans, self._stack

        def shim(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            out_bytes = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if type(result) is bytes:
                    out_bytes = len(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = Span(
                    name, start, end, parent, frame[1],
                    _task_id_of(args), out_bytes,
                )

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        return shim

    def _wrap_async(self, name: str, fn: Any) -> Any:
        # Cannot sit on the span stack (see ASYNC_ENTRIES): records its
        # interval and its parent, takes no children.
        spans, stack = self.spans, self._stack

        async def shim(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            start = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                spans[index] = Span(
                    name, start, perf_counter(), parent, 0.0,
                    _task_id_of(args), 0,
                )

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        return shim

    def _wrap_generator(self, name: str, fn: Any) -> Any:
        # One span per call, open only while the generator itself runs.
        # The consumer's time between two items is booked as if it were
        # a child, so self time is the generator's own work and the
        # enclosing span is credited with exactly that.
        spans, stack = self.spans, self._stack

        def shim(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            first: Optional[float] = None
            last = busy = 0.0
            try:
                while True:
                    stack.append(frame)
                    resumed = perf_counter()
                    if first is None:
                        first = resumed
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        last = perf_counter()
                        stack.pop()
                        if stack:
                            stack[-1][1] += last - resumed
                        busy += last - resumed
                    yield item
            finally:
                inner.close()
                if first is not None:
                    outside = (last - first) - busy
                    spans[index] = Span(
                        name, first, last, parent, frame[1] + outside,
                        _task_id_of(args), 0,
                    )

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        return shim

    @contextlib.contextmanager
    def installed(self) -> Iterator["SpanTracer"]:
        """Patch every entry point; restore all of them on exit."""
        undo: List[Tuple[Any, str, Any]] = []
        try:
            for name, places in ENTRY_POINTS.items():
                for module_name, class_name, attr in places:
                    owner = importlib.import_module(module_name)
                    if class_name is not None:
                        owner = getattr(owner, class_name)
                    original = owner.__dict__[attr]
                    undo.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------
    def finished(self) -> List[Span]:
        return [s for s in self.spans if s is not None]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                fp.write(json.dumps({
                    "id": index, "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": span.parent, "task": span.task_id,
                }))
                fp.write("\n")


def aggregate(
    spans: List[Span], measured_from: float
) -> Dict[str, Dict[str, float]]:
    """Per entry point: calls, self seconds and result bytes.

    Counts spans that started at or after *measured_from*, plus every
    span of a set-up entry point (see :data:`SETUP_ENTRIES`).
    """
    out = {
        name: {"calls": 0, "self_s": 0.0, "out_bytes": 0}
        for name in ENTRY_POINTS
    }
    for span in spans:
        if span.start < measured_from and span.name not in SETUP_ENTRIES:
            continue
        row = out[span.name]
        row["calls"] += 1
        row["self_s"] += span.self_s
        row["out_bytes"] += span.out_bytes
    return out
