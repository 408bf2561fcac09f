"""JSONL trace files: one self-describing record per line.

Line types::

    {"type": "meta",   "clock": "wall", "version": 1, ...}
    {"type": "span",   "span_id": 3, "trace_id": "task:t1", ...}
    {"type": "event",  "time": 0.2, "name": "rm.elected", ...}
    {"type": "metric", "name": "repro_udp_retransmits_total", ...}
    {"type": "series", "name": "repro_peer_load", "t": [...], "v": [...]}
    {"type": "profile", "runtime": "sim", "top": [...], "budget": {...}}

The format is append-friendly (a crashed run still yields a readable
prefix) and greppable; :func:`read_jsonl` tolerates unknown line types
so future writers stay compatible with old readers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterable, List, Optional, Union

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracer import Span, TraceEvent

#: Trace-file schema version; bump on incompatible record changes.
TRACE_FORMAT_VERSION = 1


@dataclass
class TraceData:
    """An in-memory trace file (what :func:`read_jsonl` returns)."""

    meta: Dict[str, Any] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)
    events: List[TraceEvent] = field(default_factory=list)
    metrics: List[Dict[str, Any]] = field(default_factory=list)
    series: List[Dict[str, Any]] = field(default_factory=list)
    #: The run's profiler summary (``--profile``), or None.
    profile: Optional[Dict[str, Any]] = None

    @property
    def clock(self) -> str:
        return self.meta.get("clock", "?")


def iter_records(
    tracer,
    metrics: Optional[MetricsRegistry] = None,
    meta: Optional[Dict[str, Any]] = None,
    sampler=None,
    profile: Optional[Dict[str, Any]] = None,
) -> Iterable[Dict[str, Any]]:
    """All records of one trace file, meta line first."""
    head: Dict[str, Any] = {
        "type": "meta",
        "version": TRACE_FORMAT_VERSION,
        "clock": getattr(getattr(tracer, "clock", None), "label", "?"),
    }
    if meta:
        head.update(meta)
    yield head
    for span in sorted(tracer.spans, key=lambda s: (s.start, s.span_id)):
        rec = span.as_dict()
        rec["type"] = "span"
        yield rec
    for ev in tracer.events:
        rec = ev.as_dict()
        rec["type"] = "event"
        yield rec
    if metrics is not None:
        for rec in metrics.snapshot():
            rec = dict(rec)
            rec["type"] = "metric"
            yield rec
    if sampler is not None:
        for rec in sampler.records():
            rec = dict(rec)
            rec["type"] = "series"
            yield rec
    if profile is not None:
        rec = dict(profile)
        rec["type"] = "profile"
        yield rec


def write_jsonl(
    dest: Union[str, "os.PathLike[str]", IO[str]],
    tracer,
    metrics: Optional[MetricsRegistry] = None,
    meta: Optional[Dict[str, Any]] = None,
    sampler=None,
    profile: Optional[Dict[str, Any]] = None,
) -> int:
    """Write a trace file; returns the number of records written."""
    records = iter_records(
        tracer, metrics=metrics, meta=meta, sampler=sampler,
        profile=profile,
    )
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8") as fp:
            return write_records(fp, records)
    return write_records(dest, records)


def write_records(fp: IO[str], records: Iterable[Dict[str, Any]]) -> int:
    """The one JSONL line-writer: one compact record per line."""
    n = 0
    for rec in records:
        fp.write(json.dumps(rec, separators=(",", ":"), default=str))
        fp.write("\n")
        n += 1
    return n


def write_trace_data(
    dest: Union[str, "os.PathLike[str]"], data: TraceData
) -> int:
    """Write an in-memory :class:`TraceData` (e.g. a merge result) as a
    JSONL trace file; returns the number of records written.

    The inverse of :func:`read_jsonl` — :func:`write_jsonl` serializes
    a live tracer, not an already-loaded trace.
    """
    def records() -> Iterable[Dict[str, Any]]:
        yield {"type": "meta", **data.meta}
        for span in data.spans:
            yield {"type": "span", **span.as_dict()}
        for ev in data.events:
            yield {"type": "event", **ev.as_dict()}
        for rec in data.metrics:
            yield {"type": "metric", **rec}
        for rec in data.series:
            yield {"type": "series", **rec}
        if data.profile is not None:
            yield {"type": "profile", **data.profile}

    with open(dest, "w", encoding="utf-8") as fp:
        return write_records(fp, records())


def read_jsonl(src: Union[str, "os.PathLike[str]", IO[str]]) -> TraceData:
    """Load a trace file written by :func:`write_jsonl`."""
    if isinstance(src, (str, os.PathLike)):
        with open(src, "r", encoding="utf-8") as fp:
            return _read(fp)
    return _read(src)


def _read(fp: IO[str]) -> TraceData:
    data = TraceData()
    for lineno, line in enumerate(fp, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad trace line {lineno}: {exc}") from exc
        rtype = rec.get("type")
        if rtype == "meta":
            data.meta.update(
                {k: v for k, v in rec.items() if k != "type"}
            )
        elif rtype == "span":
            data.spans.append(Span.from_dict(rec))
        elif rtype == "event":
            data.events.append(TraceEvent.from_dict(rec))
        elif rtype == "metric":
            data.metrics.append(
                {k: v for k, v in rec.items() if k != "type"}
            )
        elif rtype == "series":
            data.series.append(
                {k: v for k, v in rec.items() if k != "type"}
            )
        elif rtype == "profile":
            data.profile = {
                k: v for k, v in rec.items() if k != "type"
            }
        # unknown types: skipped (forward compatibility)
    return data
