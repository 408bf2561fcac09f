"""The Profiler: load measurement and periodic propagation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro import telemetry
from repro.common.util import EWMA
from repro.scheduling.processor import Processor
from repro.sim.core import Environment


@dataclass
class ServiceObservation:
    """Running statistics of one service's measured execution times."""

    service_id: str
    count: int = 0
    total_time: float = 0.0
    total_work: float = 0.0

    @property
    def mean_time(self) -> float:
        return self.total_time / self.count if self.count else 0.0

    @property
    def mean_rate(self) -> float:
        """Observed work units per second while executing this service."""
        return self.total_work / self.total_time if self.total_time else 0.0

    def observe(self, exec_time: float, work: float) -> None:
        if exec_time < 0 or work < 0:
            raise ValueError("negative observation")
        self.count += 1
        self.total_time += exec_time
        self.total_work += work


@dataclass(slots=True)
class LoadReport:
    """One intra-domain load update (Profiler -> Resource Manager).

    ``load`` follows the paper's definition (§3.1 item 3): processing
    power × current utilization, i.e. the absolute work rate the peer is
    currently expending.
    """

    peer_id: str
    time: float
    power: float
    utilization: float
    load: float
    bw_used: float
    queue_work: float
    queue_length: int
    services: Dict[str, float] = field(default_factory=dict)
    #: Current count of service dependencies (§3.2 item 5), filled in by
    #: the owning peer just before the report goes on the wire.
    dependencies: int = 0

    def as_payload(self) -> Dict[str, Any]:
        """Serialize for a network message payload."""
        return {
            "peer_id": self.peer_id,
            "time": self.time,
            "power": self.power,
            "utilization": self.utilization,
            "load": self.load,
            "bw_used": self.bw_used,
            "queue_work": self.queue_work,
            "queue_length": self.queue_length,
            "services": dict(self.services),
            "dependencies": self.dependencies,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "LoadReport":
        return cls(**payload)


class Profiler:
    """Samples local load and periodically reports it.

    Parameters
    ----------
    env, processor:
        The peer's environment and CPU.
    report_fn:
        Called with a :class:`LoadReport` every *update_period*; the
        peer wires this to a ``load_update`` message to its RM.  The
        update period is a key experimental knob (E7): too-frequent
        updates cost messages, too-infrequent ones leave the RM with a
        stale view.
    sample_period:
        Utilization sampling interval (EWMA-smoothed).
    alpha:
        EWMA weight for utilization smoothing.
    """

    def __init__(
        self,
        env: Environment,
        processor: Processor,
        report_fn: Optional[Callable[[LoadReport], None]] = None,
        update_period: float = 2.0,
        sample_period: float = 0.5,
        alpha: float = 0.4,
        adaptive: bool = False,
        adaptive_busy_factor: float = 0.5,
        adaptive_idle_factor: float = 2.0,
    ) -> None:
        if update_period <= 0 or sample_period <= 0:
            raise ValueError("periods must be positive")
        if adaptive_busy_factor <= 0 or adaptive_idle_factor <= 0:
            raise ValueError("adaptive factors must be positive")
        self.env = env
        self.processor = processor
        self.report_fn = report_fn
        self.update_period = update_period
        self.sample_period = sample_period
        #: §4.4: "The application QoS requirements determine the
        #: appropriate update frequency."  With ``adaptive=True`` a peer
        #: executing deadline-bearing jobs reports faster
        #: (``update_period x busy_factor``) and an idle peer slower
        #: (``x idle_factor``) — load information is fresh exactly where
        #: QoS decisions depend on it.
        self.adaptive = adaptive
        self.adaptive_busy_factor = adaptive_busy_factor
        self.adaptive_idle_factor = adaptive_idle_factor
        self._util = EWMA(alpha)
        self._last_sample_t = env.now
        self._last_busy = processor.busy_time_now()
        self._bytes_out = 0.0
        self._last_bytes = 0.0
        self._bw_rate = EWMA(alpha)
        self.observations: Dict[str, ServiceObservation] = {}
        # The per-report {service: mean_time} dict is rebuilt only when
        # an observation landed since the last report; reports between
        # observations share the snapshot (nobody mutates it — every
        # serialization path copies).
        self._services_snapshot: Dict[str, float] = {}
        self._services_dirty = False
        self.reports_sent = 0
        self._sampler = env.every(sample_period, self._sample)
        self._reporter = env.every(self.current_period, self._report)

    # -- measurement -----------------------------------------------------------
    @property
    def utilization(self) -> float:
        """Smoothed utilization in [0, 1]."""
        return self._util.get(0.0)

    @property
    def load(self) -> float:
        """The paper's l_i: power × utilization."""
        return self.processor.power * self.utilization

    @property
    def bw_used(self) -> float:
        """Smoothed outgoing bandwidth (bytes/s)."""
        return self._bw_rate.get(0.0)

    def note_bytes_out(self, n: float) -> None:
        """Account bytes the peer sent (wired from the peer's send path)."""
        self._bytes_out += n

    def observe_service(
        self, service_id: str, exec_time: float, work: float
    ) -> None:
        """Record a measured service execution (computation time, §3.2)."""
        obs = self.observations.get(service_id)
        if obs is None:
            obs = self.observations[service_id] = ServiceObservation(service_id)
        obs.observe(exec_time, work)
        self._services_dirty = True

    def current_report(self) -> LoadReport:
        """Snapshot the current measurements."""
        if self._services_dirty:
            self._services_snapshot = {
                sid: obs.mean_time
                for sid, obs in self.observations.items()
            }
            self._services_dirty = False
        return LoadReport(
            peer_id=self.processor.peer_id,
            time=self.env.now,
            power=self.processor.power,
            utilization=self.utilization,
            load=self.load,
            bw_used=self.bw_used,
            queue_work=self.processor.queue_work(),
            queue_length=self.processor.queue_length,
            services=self._services_snapshot,
        )

    # -- periodic work ------------------------------------------------------------
    def _sample(self) -> None:
        busy = self.processor.busy_time_now()
        now = self.env.now
        span = now - self._last_sample_t
        bytes_out = self._bytes_out
        if span > 0:
            u = (busy - self._last_busy) / span
            self._util.update(u if u < 1.0 else 1.0)
            self._bw_rate.update((bytes_out - self._last_bytes) / span)
        self._last_sample_t = now
        self._last_busy = busy
        self._last_bytes = bytes_out

    def current_period(self) -> float:
        """The in-force update period (QoS-adaptive when enabled)."""
        if not self.adaptive:
            return self.update_period
        if self.processor.queue_length > 0:
            return self.update_period * self.adaptive_busy_factor
        return self.update_period * self.adaptive_idle_factor

    def _report(self) -> None:
        if self.report_fn is None:
            return
        report = self.current_report()
        self.report_fn(report)
        self.reports_sent += 1
        tel = telemetry.current()
        if tel.enabled:
            tel.tracer.event(
                "profiler.update", node=report.peer_id,
                utilization=report.utilization,
                load=report.load,
                queue_length=report.queue_length,
            )
            tel.metrics.gauge(
                "repro_profiler_peer_utilization", peer=report.peer_id,
            ).set(report.utilization)
            tel.metrics.counter("repro_profiler_reports_total").inc()

    def stop(self) -> None:
        """Halt sampling and reporting (peer departure)."""
        self._sampler.cancel()
        self._reporter.cancel()
