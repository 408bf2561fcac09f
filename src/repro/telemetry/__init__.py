"""Unified telemetry: causal tracing + metrics across sim and live runs.

One process-wide :class:`Telemetry` handle bundles the three pillars:

* ``tracer`` — causally-linked spans and events
  (:mod:`repro.telemetry.tracer`),
* ``metrics`` — a counters/gauges/histograms registry
  (:mod:`repro.telemetry.metrics`),
* ``clock`` — the time source stamping both
  (:mod:`repro.telemetry.clock`): sim-time in the simulator,
  wall-clock in the live UDP runtime.

The default handle is a no-op: instrumented hot paths check one flag::

    from repro import telemetry
    ...
    tel = telemetry.current()
    if tel.enabled:
        tel.tracer.event("gossip.round", node=rm_id)

so a run that never activates telemetry pays a module-global read and a
branch per call site (bounded by a test).  A run attaches it — with the
sampler, recorder, profiler and exporters its flags ask for — through one
:class:`~repro.telemetry.observation.Observation`; library code scopes a
bare handle with ``with telemetry.session(tel): ...`` (or
:func:`activate` / :func:`deactivate`).  The ``repro-trace`` CLI
(:mod:`repro.telemetry.cli`) analyses the exported JSONL.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.telemetry import export
from repro.telemetry.clock import ClockSource, NullClock, SimClock, WallClock
from repro.telemetry.flight_recorder import FlightRecorder
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.timeseries import HealthSampler, SeriesRing
from repro.telemetry.tracer import (
    CONTROL,
    MESSAGE,
    SERVICE,
    TASK,
    NoopTracer,
    Span,
    TelemetryTracer,
    TraceEvent,
)

__all__ = [
    "Telemetry", "current", "activate", "deactivate", "session",
    "TelemetryTracer", "NoopTracer", "Span", "TraceEvent",
    "MetricsRegistry", "SimClock", "WallClock",
    "NullClock", "ClockSource", "HealthSampler", "SeriesRing",
    "FlightRecorder", "TASK", "SERVICE", "MESSAGE", "CONTROL", "export",
]


@dataclass
class Telemetry:
    """The process-wide telemetry handle (tracer + metrics + clock)."""

    tracer: object
    metrics: MetricsRegistry
    clock: object
    enabled: bool = True

    @classmethod
    def sim(cls, env) -> "Telemetry":
        """A handle stamping simulation time from *env*."""
        clock = SimClock(env)
        return cls(TelemetryTracer(clock), MetricsRegistry(), clock)

    @classmethod
    def wall(cls) -> "Telemetry":
        """A handle stamping wall-clock seconds since creation."""
        clock = WallClock()
        return cls(TelemetryTracer(clock), MetricsRegistry(), clock)

    @classmethod
    def noop(cls) -> "Telemetry":
        clock = NullClock()
        return cls(NoopTracer(), MetricsRegistry(), clock, enabled=False)


#: The disabled default every un-instrumented run sees.
NOOP: Telemetry = Telemetry.noop()

_active: Telemetry = NOOP


def current() -> Telemetry:
    """The active telemetry handle (the no-op one unless activated)."""
    return _active


def activate(tel: Telemetry) -> Telemetry:
    """Install *tel* as the process-wide handle; returns it."""
    global _active
    _active = tel
    return tel


def deactivate() -> None:
    """Restore the no-op default."""
    activate(NOOP)


@contextmanager
def session(tel: Optional[Telemetry] = None) -> Iterator[Telemetry]:
    """Scoped activation: restores the previous handle on exit."""
    previous = _active
    installed = activate(tel if tel is not None else Telemetry.wall())
    try:
        yield installed
    finally:
        activate(previous)
