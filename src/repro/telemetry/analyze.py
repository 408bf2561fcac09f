"""Trace analysis: span trees, per-task critical paths, summaries.

Works on :class:`~repro.telemetry.export.TraceData` (a loaded JSONL
file) — the ``repro-trace`` CLI is a thin printer over these functions,
and tests assert on their return values directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.telemetry.export import TraceData
from repro.telemetry.metrics import bucket_quantile
from repro.telemetry.tracer import MESSAGE, SERVICE, TASK, Span

#: NetworkStats counter names surfaced in the reliability summary.
_RELIABILITY_KEYS = (
    "sent", "delivered", "dropped", "partition_drops", "retransmits",
    "duplicates", "malformed", "acks_sent",
)


@dataclass
class TaskTrace:
    """Everything one task's trace contains."""

    task_id: str
    trace_id: str
    #: The RM-side lifecycle span, if the trace captured it.
    task_span: Optional[Span] = None
    #: Per-hop service execution spans, in start order.
    hops: List[Span] = field(default_factory=list)
    #: Message spans belonging to this trace, in start order.
    messages: List[Span] = field(default_factory=list)

    @property
    def status(self) -> str:
        return self.task_span.status if self.task_span else "?"

    @property
    def duration(self) -> Optional[float]:
        return self.task_span.duration if self.task_span else None

    @property
    def nodes(self) -> List[str]:
        """Distinct nodes touched by this trace, in first-seen order."""
        seen: List[str] = []
        for span in self.critical_path():
            if span.node and span.node not in seen:
                seen.append(span.node)
        for span in self.messages:
            for node in (span.node, span.attrs.get("dst")):
                if node and node not in seen:
                    seen.append(node)
        return seen

    def critical_path(self) -> List[Span]:
        """The task span followed by its service hops, in time order.

        Service chains execute hop by hop, so the ordered hop spans ARE
        the critical path of the session; the enclosing task span heads
        the list when present.
        """
        path: List[Span] = []
        if self.task_span is not None:
            path.append(self.task_span)
        path.extend(self.hops)
        return path


def task_traces(data: TraceData) -> List[TaskTrace]:
    """Group spans into per-task traces (``task:<id>`` trace ids)."""
    by_trace: Dict[str, TaskTrace] = {}
    for span in sorted(data.spans, key=lambda s: (s.start, s.span_id)):
        tid = span.trace_id
        if not tid or not tid.startswith("task:"):
            continue
        trace = by_trace.get(tid)
        if trace is None:
            trace = by_trace[tid] = TaskTrace(
                task_id=tid.split(":", 1)[1], trace_id=tid
            )
        if span.kind == TASK:
            trace.task_span = span
        elif span.kind == SERVICE:
            trace.hops.append(span)
        elif span.kind == MESSAGE:
            trace.messages.append(span)
    return sorted(by_trace.values(), key=lambda t: t.task_id)


def message_kind_counts(data: TraceData) -> Dict[str, int]:
    """Message-span count per protocol kind."""
    counts: Dict[str, int] = {}
    for span in data.spans:
        if span.kind == MESSAGE:
            counts[span.name] = counts.get(span.name, 0) + 1
    return counts


def reliability_summary(data: TraceData) -> Dict[str, float]:
    """Transport counters aggregated over all nodes.

    Reads the ``net_*``/``udp_*`` metric families the instrumented
    transports maintain, falling back to the aggregate the CLI stores
    in the meta line, so both sim and live traces produce one schema.
    """
    out: Dict[str, float] = {k: 0.0 for k in _RELIABILITY_KEYS}
    # Canonical repro_* names plus the pre-rename families, so traces
    # written before the naming normalization still analyze cleanly.
    families = {
        "repro_net_messages_sent_total": "sent",
        "repro_net_messages_delivered_total": "delivered",
        "repro_net_messages_dropped_total": "dropped",
        "repro_udp_retransmits_total": "retransmits",
        "repro_udp_duplicates_total": "duplicates",
        "repro_udp_malformed_total": "malformed",
        "repro_udp_acks_sent_total": "acks_sent",
        "net_messages_sent_total": "sent",
        "net_messages_delivered_total": "delivered",
        "net_messages_dropped_total": "dropped",
        "udp_retransmits_total": "retransmits",
        "udp_duplicates_total": "duplicates",
        "udp_malformed_total": "malformed",
        "udp_acks_sent_total": "acks_sent",
    }
    seen = False
    for rec in data.metrics:
        key = families.get(rec.get("name", ""))
        if key is not None:
            out[key] += rec.get("value", 0.0)
            seen = True
    agg = data.meta.get("aggregate")
    if isinstance(agg, dict):
        # The aggregate is the same ground truth the counters came
        # from; fill any key the metric records didn't cover (e.g.
        # partition_drops, which has no counter family).
        for key in _RELIABILITY_KEYS:
            if key in agg and (not seen or out[key] == 0.0):
                out[key] = float(agg[key])
    return out


def histogram_summaries(data: TraceData) -> Dict[str, Dict[str, float]]:
    """Per-family count/mean/p50/p95/p99 over histogram metric records.

    Label sets within a family are merged by summing their cumulative
    bucket counts per bound, then quantiles are estimated from the
    merged buckets (the same linear interpolation Prometheus uses).
    """
    merged: Dict[str, Dict[str, Any]] = {}
    for rec in data.metrics:
        if "buckets" not in rec:
            continue
        name = rec.get("name", "?")
        fam = merged.setdefault(
            name, {"count": 0, "sum": 0.0, "buckets": {}}
        )
        fam["count"] += rec.get("count", 0)
        fam["sum"] += rec.get("sum", 0.0)
        for bound, n in rec["buckets"]:
            key = "+Inf" if bound == "+Inf" else float(bound)
            fam["buckets"][key] = fam["buckets"].get(key, 0) + n
    out: Dict[str, Dict[str, float]] = {}
    for name in sorted(merged):
        fam = merged[name]
        buckets = [[b, n] for b, n in fam["buckets"].items()]
        count = fam["count"]
        out[name] = {
            "count": count,
            "mean": fam["sum"] / count if count else 0.0,
            "p50": bucket_quantile(buckets, 0.5),
            "p95": bucket_quantile(buckets, 0.95),
            "p99": bucket_quantile(buckets, 0.99),
        }
    return out


def control_event_counts(data: TraceData) -> Dict[str, int]:
    """Event count per event name (elections, gossip rounds, ...)."""
    counts: Dict[str, int] = {}
    for ev in data.events:
        counts[ev.name] = counts.get(ev.name, 0) + 1
    return counts


# -- report rendering --------------------------------------------------------

def format_report(data: TraceData, verbose: bool = False) -> str:
    """The human-readable ``repro-trace`` report."""
    lines: List[str] = []
    traces = task_traces(data)
    lines.append(
        f"trace: clock={data.clock} spans={len(data.spans)} "
        f"events={len(data.events)} tasks={len(traces)}"
    )
    for trace in traces:
        dur = trace.duration
        head = f"task {trace.task_id}: {trace.status}"
        if dur is not None:
            head += f" in {dur:.3f}s"
        head += f"  hops={len(trace.hops)}"
        if trace.nodes:
            head += f"  nodes={'->'.join(trace.nodes)}"
        lines.append(head)
        path = trace.critical_path()
        if path:
            t0 = path[0].start
            lines.append("  critical path:")
            for span in path:
                dt = span.start - t0
                desc = f"    +{dt:8.3f}s  {span.kind:<7} {span.name}"
                if span.node:
                    desc += f" @ {span.node}"
                if span.duration is not None:
                    desc += f"  ({span.duration:.3f}s)"
                if span.kind == SERVICE:
                    step = span.attrs.get("step_index")
                    if step is not None:
                        desc += f"  step={step}"
                lines.append(desc)
        if verbose and trace.messages:
            lines.append(f"  messages: {len(trace.messages)}")
            for span in trace.messages:
                lines.append(
                    f"    {span.name} {span.node}->"
                    f"{span.attrs.get('dst', '?')} [{span.status}]"
                )
    kinds = message_kind_counts(data)
    if kinds:
        lines.append("message spans by kind:")
        lines.append(
            "  " + " ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
        )
    events = control_event_counts(data)
    if events:
        lines.append("events:")
        lines.append(
            "  " + " ".join(f"{k}={n}" for k, n in sorted(events.items()))
        )
    rel = reliability_summary(data)
    lines.append(
        "reliability: " + " ".join(
            f"{k}={rel[k]:g}" for k in _RELIABILITY_KEYS
        )
    )
    hists = histogram_summaries(data)
    if hists:
        lines.append("latency quantiles:")
        for name, s in hists.items():
            lines.append(
                f"  {name}: n={s['count']} mean={s['mean']:.4f}s "
                f"p50={s['p50']:.4f}s p95={s['p95']:.4f}s "
                f"p99={s['p99']:.4f}s"
            )
    return "\n".join(lines)


def report_dict(data: TraceData) -> Dict[str, Any]:
    """Machine-readable form of the report (``repro-trace --json``)."""
    return {
        "clock": data.clock,
        "n_spans": len(data.spans),
        "n_events": len(data.events),
        "tasks": [
            {
                "task_id": t.task_id,
                "status": t.status,
                "duration": t.duration,
                "hops": len(t.hops),
                "nodes": t.nodes,
                "critical_path": [
                    {
                        "name": s.name,
                        "kind": s.kind,
                        "node": s.node,
                        "start": s.start,
                        "duration": s.duration,
                        "status": s.status,
                    }
                    for s in t.critical_path()
                ],
            }
            for t in task_traces(data)
        ],
        "message_kinds": message_kind_counts(data),
        "events": control_event_counts(data),
        "reliability": reliability_summary(data),
        "histograms": histogram_summaries(data),
    }
