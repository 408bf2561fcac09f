"""The Profiler's load-report path against the one it replaced.

``Profiler._sample`` folds both averages in place and
``Profiler.current_report`` reads them and the processor directly.  The
reference below is the profiler as it was before, kept verbatim with
the ``EWMA`` it called through: ``update`` per average per tick and
five property or method calls per report.  Random job sets give random
slice starts and ends (and a stop mid-slice or idle), with
``note_bytes_out`` calls, service observations, random sampling and
report periods (QoS-adaptive or not), EWMA weights and read instants.
Every ``LoadReport`` field, both EWMA values and the three read-outs
must be the same to the bit.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable, Dict, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.monitoring.profiler import (
    ADAPTIVE_IDLE_FACTOR,
    LoadReport,
    Profiler,
    ServiceObservation,
)
from repro.scheduling import Job, Processor, make_policy
from repro.sim import Environment


# -- the reference: EWMA and the profiler before the trim, verbatim -------------
class OracleEWMA:
    """Exponentially weighted moving average.

    Used by the Profiler to smooth instantaneous load samples, matching
    the paper's "current processor load" that tolerates measurement noise.

    Parameters
    ----------
    alpha:
        Weight of the newest sample, in ``(0, 1]``. ``alpha=1`` disables
        smoothing.
    initial:
        Starting value; if ``None`` the first update seeds the average.
    """

    __slots__ = ("alpha", "value")

    def __init__(self, alpha: float = 0.3, initial: Optional[float] = None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value: Optional[float] = initial

    def update(self, sample: float) -> float:
        """Fold in one sample and return the new average."""
        if self.value is None:
            self.value = float(sample)
        else:
            self.value += self.alpha * (sample - self.value)
        return self.value

    def get(self, default: float = 0.0) -> float:
        """Current average, or *default* before any sample."""
        return default if self.value is None else self.value



class OracleProfiler:
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
    ) -> None:
        if update_period <= 0 or sample_period <= 0:
            raise ValueError("periods must be positive")
        if adaptive_busy_factor <= 0:
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
        #: (``x ADAPTIVE_IDLE_FACTOR``) — load information is fresh
        #: exactly where QoS decisions depend on it.
        self.adaptive = adaptive
        self.adaptive_busy_factor = adaptive_busy_factor
        self._util = OracleEWMA(alpha)
        self._last_sample_t = env.now
        self._last_busy = processor.busy_time_now()
        self._bytes_out = 0.0
        self._last_bytes = 0.0
        self._bw_rate = OracleEWMA(alpha)
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
        return self.update_period * ADAPTIVE_IDLE_FACTOR

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
        self.report_fn = None  # bound to the peer, which holds us


# -- the differential ---------------------------------------------------------------
END = 12.0
instants = st.floats(min_value=0.0, max_value=END, allow_nan=False)

runs = st.fixed_dictionaries({
    "cpu": st.tuples(
        st.sampled_from(["LLS", "EDF", "FIFO"]),
        st.sampled_from([None, 0.125, 0.1, 0.3]),
        st.sampled_from([1.0, 2.0, 0.5, 1.3]),
    ),
    # (release, work): each job's slices start and end where it lands.
    "jobs": st.lists(
        st.tuples(instants, st.floats(min_value=0.01, max_value=3.0)),
        max_size=10,
    ),
    "stop_cpu": st.one_of(st.none(), instants),
    "bytes": st.lists(
        st.tuples(instants, st.one_of(
            st.integers(0, 10**6),
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        )),
        max_size=8,
    ),
    # (time, service, exec time, work)
    "observations": st.lists(
        st.tuples(instants, st.sampled_from(["T-e1", "T-e2", "T-e3"]),
                  st.floats(min_value=0.0, max_value=5.0),
                  st.floats(min_value=0.0, max_value=5.0)),
        max_size=6,
    ),
    "sample_period": st.sampled_from([0.5, 0.25, 0.3, 1.0, 0.7]),
    "update_period": st.sampled_from([2.0, 0.5, 1.1, 3.0]),
    "alpha": st.one_of(st.sampled_from([0.4, 1.0]),
                       st.floats(min_value=0.01, max_value=1.0)),
    "adaptive": st.booleans(),
    "busy_factor": st.sampled_from([0.5, 0.25, 1.5]),
    "reads": st.lists(instants, max_size=6),
    "stop_profiler": st.one_of(st.none(), instants),
})


def _bits(x: Any) -> Any:
    if isinstance(x, float):
        return struct.pack("<d", x).hex()
    return (type(x).__name__, x)


def _report_bits(report: LoadReport) -> tuple:
    return tuple(
        (f.name, _bits(getattr(report, f.name)))
        if f.name != "services"
        else (f.name, {k: _bits(v) for k, v in report.services.items()})
        for f in dataclasses.fields(report)
    )


def simulate(profiler_cls: Callable, spec: dict) -> list:
    """Run *spec* with a profiler of *profiler_cls*; return every report
    it sent and, at each read instant, a fresh report, both EWMA values
    and the three read-outs."""
    env = Environment()
    policy, quantum, power = spec["cpu"]
    cpu = Processor(env, "p", power, make_policy(policy), quantum)
    out: list = []
    prof = profiler_cls(
        env, cpu, report_fn=lambda r: out.append(("sent", _report_bits(r))),
        update_period=spec["update_period"],
        sample_period=spec["sample_period"], alpha=spec["alpha"],
        adaptive=spec["adaptive"], adaptive_busy_factor=spec["busy_factor"],
    )

    def at(t: float, act: Callable[[], None]) -> None:
        env.timeout(t).callbacks.append(lambda _ev: act())

    def submit(work: float) -> None:
        if not cpu._stopped:
            now = env.now
            cpu.submit(Job(work=work, release=now, abs_deadline=now + 2.0))

    def read() -> None:
        out.append(("read", env.now, _report_bits(prof.current_report()),
                    _bits(prof._util.value), _bits(prof._bw_rate.value),
                    _bits(prof.utilization), _bits(prof.load),
                    _bits(prof.bw_used), prof.current_period()))

    for t, work in spec["jobs"]:
        at(t, lambda w=work: submit(w))
    if spec["stop_cpu"] is not None:
        at(spec["stop_cpu"], cpu.stop)
    for t, n in spec["bytes"]:
        at(t, lambda n=n: prof.note_bytes_out(n))
    for t, sid, exec_time, work in spec["observations"]:
        at(t, lambda s=sid, e=exec_time, w=work: prof.observe_service(s, e, w))
    for t in spec["reads"]:
        at(t, read)
    if spec["stop_profiler"] is not None:
        at(spec["stop_profiler"], prof.stop)
    env.run(until=END)
    read()
    return out


@settings(max_examples=300, deadline=None)
@given(spec=runs)
def test_trimmed_profiler_matches_the_reference(spec):
    assert simulate(Profiler, spec) == simulate(OracleProfiler, spec)


def test_reports_carry_the_averages_a_tick_made():
    """A pinned case the random runs might miss: a busy slice, bytes
    and an observation inside one sample, with a report on the tick."""
    spec = {
        "cpu": ("LLS", 0.125, 1.0), "jobs": [(0.1, 0.3), (0.2, 1.0)],
        "stop_cpu": 1.6, "bytes": [(0.3, 1200), (0.8, 640.5)],
        "observations": [(0.9, "T-e2", 0.4, 0.3)], "sample_period": 0.5,
        "update_period": 1.0, "alpha": 0.4, "adaptive": True,
        "busy_factor": 0.5, "reads": [0.5, 1.0, 1.6, 2.0],
        "stop_profiler": None,
    }
    got = simulate(Profiler, spec)
    assert got == simulate(OracleProfiler, spec)
    reads = [entry for entry in got if entry[0] == "read"]
    assert any(entry[3] != _bits(0.0) for entry in reads)
    assert [entry[0] for entry in got].count("sent") >= 3
