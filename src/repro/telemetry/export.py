"""JSONL trace files: one self-describing record per line.

Line types::

    {"type": "meta",   "clock": "wall", "version": 1, ...}
    {"type": "span",   "span_id": 3, "trace_id": "task:t1", ...}
    {"type": "event",  "time": 0.2, "name": "rm.elected", ...}
    {"type": "metric", "name": "repro_udp_retransmits_total", ...}
    {"type": "series", "name": "repro_peer_load", "t": [...], "v": [...]}
    {"type": "profile", "runtime": "sim", "top": [...], "budget": {...}}

A run's file is written as the run goes (:class:`TraceWriter`): the
meta line at open, each span and event as it finishes, then a closing
meta line, metrics, series and profile at close.  So a killed run
leaves a readable prefix: :func:`read_jsonl` merges the meta lines,
skips a torn last line, and tolerates unknown line types so future
writers stay compatible with old readers.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterable, List, Optional, Union

from repro.telemetry.tracer import Span, TraceEvent

#: Trace-file schema version; bump on incompatible record changes.
TRACE_FORMAT_VERSION = 1
#: Wall seconds a :class:`TraceWriter` may hold finished records in its
#: buffer: a killed run loses at most about this much of its stream.
FLUSH_PERIOD = 1.0


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


def _head(tracer, meta: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    clock = getattr(getattr(tracer, "clock", None), "label", "?")
    return {"version": TRACE_FORMAT_VERSION, "clock": clock, **(meta or {})}


def _records(data: TraceData) -> Iterable[Dict[str, Any]]:
    """A trace's records in file order, meta line first."""
    yield {"type": "meta", **data.meta}
    for span in data.spans:
        yield {**span.as_dict(), "type": "span"}
    for ev in data.events:
        yield {**ev.as_dict(), "type": "event"}
    for rec in data.metrics:
        yield {**rec, "type": "metric"}  # over a snapshot's metric kind
    for rec in data.series:
        yield {**rec, "type": "series"}
    if data.profile is not None:
        yield {**data.profile, "type": "profile"}


def _line(rec: Dict[str, Any]) -> str:
    return json.dumps(rec, separators=(",", ":"), default=str) + "\n"


def write_trace_data(
    dest: Union[str, "os.PathLike[str]", IO[str]], data: TraceData
) -> int:
    """Write an in-memory trace (e.g. a merge result) as a JSONL file;
    returns the number of records written.  The inverse of
    :func:`read_jsonl`."""
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="utf-8") as fp:
            return write_trace_data(fp, data)
    n = 0
    for rec in _records(data):
        dest.write(_line(rec))
        n += 1
    return n


class TraceWriter:
    """The trace file of one run, written while the run goes: the meta
    line at once, every span and event as it finishes (the tracer's
    listener hook, the flight recorder's tap), the rest at :meth:`close`.
    Trimming the tracer's history loses nothing, and a killed process
    leaves what it finished more than :data:`FLUSH_PERIOD` before."""

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        tracer,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.tracer = tracer
        # Binary: listeners run on whichever thread finished the record
        # (sampler, profiler), and buffered binary files lock their
        # writes where text wrappers do not.
        self._fp = open(path, "wb")
        self._write({"type": "meta", **_head(tracer, meta)})
        self._fp.flush()
        self._flushed = time.monotonic()
        tracer.add_listener(self._on_record)

    def _write(self, rec: Dict[str, Any]) -> None:
        self._fp.write(_line(rec).encode("ascii"))

    def _on_record(self, kind: str, record) -> None:
        self._write({**record.as_dict(), "type": kind})
        now = time.monotonic()
        if now - self._flushed >= FLUSH_PERIOD:
            self._fp.flush()
            self._flushed = now

    def close(self, tail: TraceData) -> None:
        """Detach, append *tail* (its meta, metrics, series, profile)
        and close the file."""
        self.tracer.remove_listener(self._on_record)
        for rec in _records(tail):
            self._write(rec)
        self._fp.close()


def read_jsonl(src: Union[str, "os.PathLike[str]", IO[str]]) -> TraceData:
    """Load a trace file; a torn last line is skipped."""
    if isinstance(src, (str, os.PathLike)):
        with open(src, "r", encoding="utf-8") as fp:
            return _read(fp)
    return _read(src)


def _read(fp: IO[str]) -> TraceData:
    data = TraceData()
    torn: Optional[ValueError] = None
    for lineno, line in enumerate(fp, 1):
        line = line.strip()
        if not line:
            continue
        if torn is not None:
            raise torn
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            # Fatal unless it is the last line: a run killed mid-write.
            torn = ValueError(f"bad trace line {lineno}: {exc}")
            continue
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
