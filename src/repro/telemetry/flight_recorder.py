"""Flight recorder: bounded span/event ring + anomaly-triggered dumps.

Crash-time evidence for a system whose interesting failures are
transient: the recorder keeps the last ``capacity`` finished spans and
events in a ring (always-on, bounded memory) and watches the stream for
three anomaly signatures:

* ``rm_failover`` — a ``failover.takeover`` control event (a backup RM
  promoted itself after the primary went silent),
* ``deadline_miss_burst`` — more than ``miss_burst`` ``job.missed``
  events inside ``miss_window`` seconds,
* ``udp_retry_storm`` — more than ``retry_burst`` ``udp.retry`` events
  inside ``retry_window`` seconds.

External detectors can also request dumps through :meth:`trigger` —
the SLO burn-rate monitor (:mod:`repro.profiling.slo`) uses reasons
``slo_burn_fast`` / ``slo_burn_slow``.  Suppressed (cooling-down)
requests are visible via the
``repro_flightrecorder_dump_skipped_total`` counter and the
``repro_flightrecorder_cooldown_active{reason=...}`` gauge.

On a trigger it dumps the last ``window`` seconds of the ring — plus
the current sampler series and a metrics snapshot — to a JSONL bundle
(``flight-NNN-<reason>.jsonl``), then goes quiet for ``cooldown``
seconds per reason so a sustained anomaly yields one bundle, not one
per event.

The recorder taps the stream via the tracer's listener hook, so it only
sees anything when telemetry is enabled; the disabled path stays the
usual no-op guard.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro.telemetry.export import (
    TRACE_FORMAT_VERSION, TraceData, write_trace_data,
)
from repro.telemetry.tracer import Span, TraceEvent

#: Ring capacity (finished spans + events combined).
DEFAULT_CAPACITY = 4096


class FlightRecorder:
    """Always-on bounded recorder with anomaly-triggered JSONL dumps."""

    def __init__(
        self,
        tel,
        out_dir: str = ".",
        window: float = 30.0,
        capacity: int = DEFAULT_CAPACITY,
        miss_burst: int = 8,
        miss_window: float = 10.0,
        retry_burst: int = 20,
        retry_window: float = 5.0,
        cooldown: float = 60.0,
        sampler=None,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.tel = tel
        self.out_dir = out_dir
        self.window = float(window)
        self.miss_burst = int(miss_burst)
        self.miss_window = float(miss_window)
        self.retry_burst = int(retry_burst)
        self.retry_window = float(retry_window)
        self.cooldown = float(cooldown)
        self.sampler = sampler

        self._ring: Deque[Tuple[float, Union[Span, TraceEvent]]] = deque(
            maxlen=capacity
        )
        self._miss_times: Deque[float] = deque(maxlen=self.miss_burst + 1)
        self._retry_times: Deque[float] = deque(maxlen=self.retry_burst + 1)
        #: Cooldown key -> last dump time (key defaults to the reason).
        self._last_dump: Dict[str, float] = {}
        #: Cooldown key -> reason, for the per-reason gauges.
        self._reasons: Dict[str, str] = {}
        #: Paths of bundles written, in order.
        self.dumps: List[str] = []
        #: Called as ``on_dump(reason, path)`` after each bundle is
        #: written.  The sharded runtime uses this to notify the
        #: supervisor so it can correlate dumps across shards.
        self.on_dump: Optional[Any] = None
        self.n_triggers = 0
        #: Per-reason count of dumps suppressed by the cooldown.
        self.skipped: Dict[str, int] = {}
        self._closed = False
        tel.tracer.add_listener(self._on_record)

    # -- stream tap --------------------------------------------------------
    def _on_record(self, kind: str, rec) -> None:
        if self._closed:
            return
        t = (rec.time if kind == "event" else rec.end) or 0.0
        self._ring.append((t, rec))
        if kind != "event":
            return
        name = rec.name
        if name == "failover.takeover":
            self._trigger("rm_failover", t)
        elif name == "job.missed":
            if self._burst(self._miss_times, t,
                           self.miss_burst, self.miss_window):
                self._trigger("deadline_miss_burst", t)
        elif name == "udp.retry":
            if self._burst(self._retry_times, t,
                           self.retry_burst, self.retry_window):
                self._trigger("udp_retry_storm", t)

    @staticmethod
    def _burst(times: Deque[float], t: float, burst: int,
               window: float) -> bool:
        times.append(t)
        while times and times[0] < t - window:
            times.popleft()
        return len(times) > burst

    # -- triggering --------------------------------------------------------
    def _trigger(self, reason: str, now: float) -> None:
        self.trigger(reason, now)

    def trigger(
        self,
        reason: str,
        now: Optional[float] = None,
        key: Optional[str] = None,
    ) -> Optional[str]:
        """Request a dump for *reason*, honouring the per-reason cooldown.

        External anomaly detectors (e.g. the SLO burn-rate monitor) call
        this instead of :meth:`dump` so sustained anomalies coalesce.
        *key* narrows the cooldown domain below the reason (the SLO
        monitor passes ``slo_burn_fast:miss_rate`` so one SLO's dump
        doesn't shadow a different SLO sharing the same reason) —
        bundle naming and metric labels still use *reason* alone.
        Returns the bundle path, or ``None`` when suppressed; suppressed
        requests are counted in ``skipped`` and the
        ``repro_flightrecorder_dump_skipped_total`` counter.
        """
        if now is None:
            now = self.tel.clock.now()
        k = key or reason
        self._reasons[k] = reason
        last = self._last_dump.get(k)
        if last is not None and now - last < self.cooldown:
            self.skipped[reason] = self.skipped.get(reason, 0) + 1
            self.tel.metrics.counter(
                "repro_flightrecorder_dump_skipped_total",
                help="Flight-recorder dumps suppressed by the cooldown.",
                reason=reason,
            ).inc()
            self._cooldown_gauge(reason).set(1.0)
            return None
        self._last_dump[k] = now
        self.n_triggers += 1
        self._cooldown_gauge(reason).set(1.0)
        return self.dump(reason, now)

    def _cooldown_gauge(self, reason: str):
        return self.tel.metrics.gauge(
            "repro_flightrecorder_cooldown_active",
            help="1 while dumps for this reason are in cooldown.",
            reason=reason,
        )

    def refresh_cooldowns(self, now: Optional[float] = None) -> None:
        """Re-evaluate the per-reason cooldown gauges at *now*.

        The gauges are set on trigger; call this periodically (the
        profiling wiring registers it as a sampler probe) so they fall
        back to 0 once a cooldown expires.
        """
        if now is None:
            now = self.tel.clock.now()
        by_reason: Dict[str, float] = {}
        for key, last in self._last_dump.items():
            reason = self._reasons.get(key, key)
            active = 1.0 if now - last < self.cooldown else 0.0
            by_reason[reason] = max(by_reason.get(reason, 0.0), active)
        for reason, active in by_reason.items():
            self._cooldown_gauge(reason).set(active)

    def dump(self, reason: str, now: Optional[float] = None) -> str:
        """Write the windowed bundle; returns the bundle path."""
        if now is None:
            now = self.tel.clock.now()
        cutoff = now - self.window
        path = os.path.join(
            self.out_dir,
            f"flight-{len(self.dumps):03d}-{reason}.jsonl",
        )
        os.makedirs(self.out_dir or ".", exist_ok=True)
        window = [rec for t, rec in self._ring if t >= cutoff]
        write_trace_data(path, TraceData(
            meta={
                "version": TRACE_FORMAT_VERSION,
                "bundle": "flight",
                "reason": reason,
                "time": round(now, 6),
                "window": self.window,
                "clock": self.tel.clock.label,
            },
            spans=[rec for rec in window if isinstance(rec, Span)],
            events=[rec for rec in window if isinstance(rec, TraceEvent)],
            metrics=self.tel.metrics.snapshot(),
            series=self.sampler.records() if self.sampler is not None else [],
        ))
        self.dumps.append(path)
        cb = self.on_dump
        if cb is not None:
            cb(reason, path)
        return path

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Detach from the tracer stream."""
        if self._closed:
            return
        self._closed = True
        self.tel.tracer.remove_listener(self._on_record)

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        return (
            f"<FlightRecorder ring={len(self._ring)} "
            f"dumps={len(self.dumps)}>"
        )
