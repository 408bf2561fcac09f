"""Trace-driven workloads: record, save, load, and replay request logs.

Two uses:

* **Reproducibility across tools** — a generated workload can be frozen
  to a CSV trace and replayed bit-identically (also handy for feeding
  the same request sequence to an external system).
* **Production-trace substitution** — the paper's authors had no public
  trace either; this module defines the interchange format a real
  deployment log would be converted into (DESIGN.md substitution
  table).

Trace format (CSV, header required)::

    time,origin,object,goal,deadline,importance
    1.25,p3,obj2,640x480/MPEG-4@64kbps,22.5,3
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Any, Generator, List, TextIO, Union

from repro.media.formats import MediaFormat
from repro.net.node import RPCError
from repro.overlay.network import OverlayNetwork
from repro.sim.events import Event, Interrupt

_HEADER = ["time", "origin", "object", "goal", "deadline", "importance"]


@dataclass(frozen=True)
class TraceEntry:
    """One user request in a trace."""

    time: float
    origin: str
    object_name: str
    goal: MediaFormat
    deadline: float
    importance: float = 1.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"negative time {self.time}")
        if self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")


def _format_to_str(fmt: MediaFormat) -> str:
    return fmt.label()


def _format_from_str(label: str) -> MediaFormat:
    """Parse ``640x480/MPEG-4@64kbps`` back into a MediaFormat."""
    try:
        res, rest = label.split("/", 1)
        codec, rate = rest.rsplit("@", 1)
        width, height = res.split("x")
        if not rate.endswith("kbps"):
            raise ValueError(label)
        return MediaFormat(
            codec, int(width), int(height), float(rate[:-4])
        )
    except (ValueError, TypeError) as exc:
        raise ValueError(f"unparseable format label {label!r}") from exc


def save_trace(entries: List[TraceEntry], fp: TextIO) -> None:
    """Write a trace as CSV."""
    writer = csv.writer(fp)
    writer.writerow(_HEADER)
    for e in entries:
        # repr-precision floats: a saved trace replays bit-identically.
        writer.writerow([
            repr(e.time), e.origin, e.object_name,
            _format_to_str(e.goal), repr(e.deadline),
            f"{e.importance:g}",
        ])


def load_trace(fp: Union[TextIO, str]) -> List[TraceEntry]:
    """Read a CSV trace (file object or CSV text)."""
    if isinstance(fp, str):
        fp = io.StringIO(fp)
    reader = csv.reader(fp)
    header = next(reader, None)
    if header != _HEADER:
        raise ValueError(
            f"bad trace header {header!r}; expected {_HEADER}"
        )
    entries = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(_HEADER):
            raise ValueError(f"line {lineno}: {len(row)} fields")
        entries.append(TraceEntry(
            time=float(row[0]),
            origin=row[1],
            object_name=row[2],
            goal=_format_from_str(row[3]),
            deadline=float(row[4]),
            importance=float(row[5]),
        ))
    entries.sort(key=lambda e: e.time)
    return entries


class TraceRecorder:
    """Records generated requests so a run can be frozen to a trace.

    Attach to a scenario *before* running::

        rec = TraceRecorder()
        scenario.workload.on_generate = rec.record
    """

    def __init__(self) -> None:
        self.entries: List[TraceEntry] = []

    def record(self, entry: TraceEntry) -> None:
        self.entries.append(entry)

    def dumps(self) -> str:
        buf = io.StringIO()
        save_trace(self.entries, buf)
        return buf.getvalue()


class TraceReplayProcess:
    """Replays a trace against an overlay: the deterministic twin of
    :class:`~repro.workloads.arrivals.TaskArrivalProcess`."""

    def __init__(
        self,
        overlay: OverlayNetwork,
        entries: List[TraceEntry],
    ) -> None:
        self.overlay = overlay
        self.entries = sorted(entries, key=lambda e: e.time)
        self.n_submitted = 0
        self.n_skipped = 0
        self.n_submit_failures = 0
        self._proc = overlay.env.process(self._loop(), name="trace-replay")

    def _loop(self) -> Generator[Event, Any, None]:
        env = self.overlay.env
        base = env.now
        try:
            for entry in self.entries:
                target = base + entry.time
                if target > env.now:
                    yield env.timeout(target - env.now)
                origin = self.overlay.peers.get(entry.origin)
                if origin is None or not origin.alive:
                    self.n_skipped += 1
                    continue
                self.n_submitted += 1
                env.process(
                    self._submit(origin, entry),
                    name=f"trace-submit:{entry.origin}",
                )
        except Interrupt:
            return

    def _submit(self, origin, entry: TraceEntry):
        try:
            yield from origin.submit_task(
                entry.object_name, entry.goal, entry.deadline,
                importance=entry.importance,
            )
        except RPCError:
            self.n_submit_failures += 1

    def stop(self) -> None:
        if self._proc.is_alive:
            self._proc.interrupt("stop")
