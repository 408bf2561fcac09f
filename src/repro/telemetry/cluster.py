"""Cluster trace stitching: merge per-shard files into one timeline.

Each :class:`~repro.runtime.shard.ShardHost` incarnation writes its own
trace file through its observation session.  Those files share
``trace_id``\\ s (the ``task:<id>`` correlation key rides wire v1 with
every message), but they are *not* directly mergeable:

* span ids are per-process counters, so ids collide across shards and
  ``parent_id`` links would cross-wire;
* each shard's :class:`~repro.telemetry.clock.WallClock` anchors zero
  at its own telemetry activation, so timestamps are offset by the
  difference in process start times.

:func:`merge_traces` fixes both — span ids are re-keyed into one
namespace (parent links remapped per shard), timestamps are shifted
onto the earliest shard's axis using the ``epoch_unix`` each shard
records in its meta line — and then *stitches* cross-shard parentage:
a span that belongs to a task trace but arrived parentless (it was
opened on a different shard than the task span) is linked under the
task span, so every task forms one connected tree rather than
per-shard fragments.

:func:`cross_shard_summary` reports the result: how many task traces
touch more than one shard, and whether each is fully connected.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.telemetry.analyze import task_traces
from repro.telemetry.export import (  # noqa: F401  (re-exported)
    TraceData,
    write_trace_data,
)
from repro.telemetry.tracer import TASK, Span


def _shard_of(span_or_event, default: Optional[str]) -> Optional[str]:
    return span_or_event.attrs.get("shard", default)


def merge_traces(
    parts: List[TraceData], stitch: bool = True
) -> TraceData:
    """Merge per-shard trace files into one cluster-timeline trace.

    Per part: span ids are re-keyed into a shared namespace (parent
    ids remapped with them), timestamps are shifted by the difference
    of the part's ``epoch_unix`` meta to the earliest epoch (parts
    without an epoch stay unshifted), and spans/events/series inherit
    the part's ``shard`` meta as provenance.  With *stitch* (default),
    cross-shard task parentage is linked via :func:`stitch_parents`.
    """
    if not parts:
        return TraceData(meta={"merged_from": 0})
    epochs = [
        p.meta.get("epoch_unix") for p in parts
        if p.meta.get("epoch_unix") is not None
    ]
    epoch0 = min(epochs) if epochs else None
    merged = TraceData()
    merged.meta = {
        "clock": parts[0].clock,
        "merged_from": len(parts),
        "shards": [
            p.meta.get("shard") for p in parts
        ],
        "version": parts[0].meta.get("version", 1),
    }
    if epoch0 is not None:
        merged.meta["epoch_unix"] = epoch0

    next_id = 1
    for part in parts:
        shard = part.meta.get("shard")
        epoch = part.meta.get("epoch_unix")
        shift = (epoch - epoch0) if (
            epoch is not None and epoch0 is not None
        ) else 0.0
        id_map: Dict[int, int] = {}
        for span in part.spans:
            id_map[span.span_id] = next_id
            next_id += 1
        for span in part.spans:
            attrs = dict(span.attrs)
            if shard is not None:
                attrs.setdefault("shard", shard)
            merged.spans.append(Span(
                span_id=id_map[span.span_id],
                trace_id=span.trace_id,
                # A parent recorded on another shard (or trimmed away)
                # has no local mapping; stitch() re-links those below.
                parent_id=id_map.get(span.parent_id)
                if span.parent_id is not None else None,
                name=span.name, kind=span.kind, node=span.node,
                start=span.start + shift,
                end=(span.end + shift) if span.end is not None else None,
                status=span.status, attrs=attrs,
            ))
        for ev in part.events:
            ev2 = type(ev)(
                time=ev.time + shift, name=ev.name, node=ev.node,
                trace_id=ev.trace_id,
                span_id=id_map.get(ev.span_id)
                if ev.span_id is not None else None,
                attrs=dict(ev.attrs),
            )
            if shard is not None:
                ev2.attrs.setdefault("shard", shard)
            merged.events.append(ev2)
        for rec in part.metrics:
            rec = dict(rec)
            if shard is not None:
                rec.setdefault("labels", {})
                if isinstance(rec["labels"], dict):
                    rec["labels"].setdefault("shard", shard)
            merged.metrics.append(rec)
        for rec in part.series:
            rec = dict(rec)
            if shard is not None:
                labels = dict(rec.get("labels") or {})
                labels.setdefault("shard", shard)
                rec["labels"] = labels
            merged.series.append(rec)
        if merged.profile is None and part.profile is not None:
            merged.profile = part.profile
    merged.spans.sort(key=lambda s: (s.start, s.span_id))
    merged.events.sort(key=lambda e: e.time)
    if stitch:
        merged.meta["stitched_spans"] = stitch_parents(merged)
    return merged


def stitch_parents(data: TraceData) -> int:
    """Link parentless task-trace spans under their task span.

    After a merge, a service hop or message span recorded on shard B
    for a task admitted on shard A has ``parent_id=None`` (its parent
    lived in another process).  The shared ``trace_id`` identifies the
    enclosing task span, so re-parent such orphans under it — the span
    tree of every task becomes connected.  Returns the number of spans
    re-linked.
    """
    task_span_by_trace: Dict[str, Span] = {}
    for span in data.spans:
        if span.kind == TASK and span.trace_id:
            task_span_by_trace.setdefault(span.trace_id, span)
    known_ids = {s.span_id for s in data.spans}
    stitched = 0
    for span in data.spans:
        if span.kind == TASK or not span.trace_id:
            continue
        parent = task_span_by_trace.get(span.trace_id)
        if parent is None or parent.span_id == span.span_id:
            continue
        if span.parent_id is None or span.parent_id not in known_ids:
            span.parent_id = parent.span_id
            span.attrs.setdefault("stitched", True)
            stitched += 1
    return stitched


def cross_shard_summary(data: TraceData) -> Dict[str, Any]:
    """Connectivity report over the merged trace's task traces.

    A task is *cross-shard* when its spans carry more than one distinct
    ``shard`` attribute; it is *connected* when it has a task span and
    every other span in the trace parent-links (transitively) into it.
    """
    default_shard = data.meta.get("shard")
    known_ids = {s.span_id for s in data.spans}
    tasks = []
    for trace in task_traces(data):
        spans = trace.critical_path() + trace.messages
        shards = sorted({
            s for s in (
                _shard_of(span, default_shard) for span in spans
            ) if s is not None
        })
        root = trace.task_span
        orphans = 0
        if root is not None:
            for span in spans:
                if span is root:
                    continue
                if span.parent_id is None or span.parent_id not in known_ids:
                    orphans += 1
        connected = root is not None and orphans == 0
        tasks.append({
            "task_id": trace.task_id,
            "shards": shards,
            "cross_shard": len(shards) > 1,
            "connected": connected,
            "orphans": orphans,
            "hops": len(trace.hops),
        })
    return {
        "tasks": len(tasks),
        "cross_shard_tasks": sum(1 for t in tasks if t["cross_shard"]),
        "connected_tasks": sum(1 for t in tasks if t["connected"]),
        "orphan_spans": sum(t["orphans"] for t in tasks),
        "per_task": tasks,
    }
