"""One-call wiring of profiler + SLO monitor per runtime.

Every ``--profile`` run (attached through
:class:`~repro.telemetry.observation.Observation`) and the tests all
want the same bundle:

* the right sampling driver for the runtime (event-count for sim,
  timer-thread for live), at the rate it was built with,
* when a :class:`HealthSampler` is attached: a :class:`BurnRateMonitor`
  over the stock SLOs and the flight-recorder cooldown-gauge refresh
  probe,
* the budget check: each observer's self-cost, summed over the wall
  time since attach and compared with the budget (default 2%).

:func:`profile_sim` / :func:`profile_wall` build that bundle and return
a :class:`ProfileSession` that knows how to stop itself, publish
metrics, write the ``.folded`` artifact, and emit the ``profile`` JSONL
record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Optional

from repro.profiling.gc_probe import GCProbe
from repro.profiling.sampler import (
    DEFAULT_PERIOD,
    DEFAULT_STRIDE,
    SimEventProfiler,
    WallStackProfiler,
)
from repro.profiling.slo import BurnRateMonitor

#: Default observability overhead budget: 2% of wall time.
DEFAULT_BUDGET = 0.02


@dataclass
class ProfileSession:
    """Everything ``--profile`` attached to one run."""

    runtime: str  # "sim" | "wall"
    profiler: Any
    #: The bound on the observers' summed self-cost / wall time that
    #: the run is checked against; nothing is retuned to meet it.
    budget: float = DEFAULT_BUDGET
    monitor: Optional[BurnRateMonitor] = None
    folded_path: Optional[str] = None
    #: Cyclic-GC collections and seconds over the session's lifetime.
    gc_probe: GCProbe = field(default_factory=GCProbe)
    _t0: float = field(default_factory=perf_counter, init=False)
    #: The budget block, measured once at :meth:`stop`.
    _measured: Optional[Dict[str, Any]] = field(default=None, init=False)

    # -- lifecycle ----------------------------------------------------------
    def stop(self) -> None:
        """Detach/stop the profiler and the GC probe, and measure the
        budget (leaves aggregates readable)."""
        if self.runtime == "sim":
            self.profiler.detach()
        else:
            self.profiler.stop()
        self.gc_probe.stop()
        self._measured = self.budget_record()

    def write_folded(self, path: str) -> Optional[str]:
        """Write the flamegraph artifact; None when nothing sampled."""
        if self.profiler.agg.n_samples == 0:
            return None
        self.folded_path = self.profiler.agg.write_folded(path)
        return self.folded_path

    # -- the budget check ---------------------------------------------------
    def budget_record(self) -> Dict[str, Any]:
        """The ``budget`` block: each observer's self-cost in seconds,
        their sum over the wall time since attach, and whether that
        ratio is within the budget.  Fixed at :meth:`stop`; before it
        (a live ``/metrics`` scrape) it is measured now.

        The wall profiler's cost includes its modelled GIL-handoff tax
        (``estimated_cost_s``).  The health sampler's leaves out the
        flight-recorder dumps an alert writes: a dump is the alert's
        deliverable, not a cost of observing.
        """
        if self._measured is not None:
            return self._measured
        prof = self.profiler
        seconds = {
            "profiler": prof.estimated_cost_s if self.runtime == "wall"
            else prof.self_time_s,
        }
        monitor = self.monitor
        if monitor is not None:
            seconds["health_sampler"] = (
                monitor.sampler.sample_cost_s - monitor.dump_cost_s
            )
        wall = perf_counter() - self._t0
        ratio = round(sum(seconds.values()) / wall, 6)
        return {
            "target": self.budget,
            "overhead_ratio": ratio,
            "met": ratio <= self.budget,
            "wall_seconds": round(wall, 6),
            "seconds": {k: round(v, 6) for k, v in seconds.items()},
        }

    # -- exports ------------------------------------------------------------
    def publish(self, metrics, top_n: int = 5) -> None:
        self.profiler.agg.publish(metrics, top_n=top_n)
        self.publish_budget(metrics)

    def publish_budget(self, metrics) -> None:
        """The budget check as gauges."""
        block = self.budget_record()
        metrics.gauge(
            "repro_prof_overhead_cumulative",
            help="Observers' summed self-cost / wall time since attach.",
        ).set(block["overhead_ratio"])
        metrics.gauge(
            "repro_prof_budget_target",
            help="Configured observability overhead budget.",
        ).set(block["target"])

    def record(self, top_n: int = 20) -> Dict[str, Any]:
        """The ``profile`` JSONL trace record (sans ``type``)."""
        rec: Dict[str, Any] = {"runtime": self.runtime}
        if self.runtime == "sim":
            rec["stride"] = self.profiler.stride
        else:
            rec["period"] = self.profiler.period
        rec.update(self.profiler.agg.record(top_n=top_n))
        rec["self_seconds"] = round(self.profiler.self_time_s, 6)
        if self.runtime == "wall":
            per = self.profiler.gil_cost_per_sample
            if per is not None:
                rec["gil_per_sample_s"] = round(per, 9)
            rec["gil_seconds"] = round(self.profiler.gil_cost_s, 6)
            rec["estimated_seconds"] = round(
                self.profiler.estimated_cost_s, 6
            )
        rec["budget"] = self.budget_record()
        rec["gc"] = self.gc_probe.record()
        if self.monitor is not None:
            rec["slo"] = self.monitor.record()
        if self.folded_path:
            rec["folded_path"] = self.folded_path
        return rec

    def summary(self) -> Dict[str, Any]:
        """Small console/healthz summary."""
        agg = self.profiler.agg
        out = {
            "runtime": self.runtime,
            "samples": agg.n_samples,
            "unique_stacks": agg.unique_stacks,
            "budget": self.budget_record(),
            "gc": self.gc_probe.record(),
        }
        if self.monitor is not None:
            out["slo_alerts"] = len(self.monitor.alerts)
        return out

    @property
    def alerts(self):
        return self.monitor.alerts if self.monitor is not None else []


def format_budget(block: Dict[str, Any]) -> str:
    """One report phrase from a ``budget`` block, costliest observer
    first: ``overhead 0.71% (budget 2%, met; profiler 0.046 s)``."""
    costs = ", ".join(
        f"{name} {s:.3f} s" for name, s in sorted(
            block["seconds"].items(), key=lambda kv: -kv[1]
        )
    )
    return (
        f"overhead {block['overhead_ratio']:.2%} (budget "
        f"{block['target']:.0%}, {'met' if block['met'] else 'NOT met'}; "
        f"{costs})"
    )


def _profile(
    runtime: str, profiler, tel, sampler, recorder, budget: Optional[float],
) -> ProfileSession:
    """The bundle both runtimes share, around their own *profiler*."""
    budget = DEFAULT_BUDGET if budget is None else float(budget)
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    monitor = None
    if sampler is not None:
        monitor = BurnRateMonitor(sampler, tel=tel, recorder=recorder)
        # Probe order matters: signal probes already registered, then
        # SLO evaluation over this tick's fresh points, then the
        # cooldown-gauge refresh.
        sampler.add_probe(monitor.as_probe())
        if recorder is not None:
            sampler.add_probe(lambda s: recorder.refresh_cooldowns(s.now))
    return ProfileSession(runtime, profiler, budget, monitor)


def profile_sim(
    env,
    tel=None,
    sampler=None,
    recorder=None,
    budget: Optional[float] = None,
    stride: Optional[int] = None,
) -> ProfileSession:
    """Attach the profiling bundle to a simulation environment.

    The profiler hook observes only — with ``--profile`` the event
    trajectory is identical to the same run without it.  *budget* /
    *stride* default to ``DEFAULT_BUDGET`` / ``DEFAULT_STRIDE``.
    """
    stride = DEFAULT_STRIDE if stride is None else stride
    profiler = SimEventProfiler(env, stride=stride)
    profiler.attach()
    return _profile("sim", profiler, tel, sampler, recorder, budget)


def profile_wall(
    tel=None,
    sampler=None,
    recorder=None,
    budget: Optional[float] = None,
    period: Optional[float] = None,
    start: bool = True,
) -> ProfileSession:
    """Attach the profiling bundle to the live (wall-clock) runtime.

    The profiler calibrates its per-wakeup GIL-handoff cost on start,
    and the budget check meters the estimated total cost.  *budget* /
    *period* default to ``DEFAULT_BUDGET`` / ``DEFAULT_PERIOD``.
    """
    period = DEFAULT_PERIOD if period is None else period
    profiler = WallStackProfiler(period=period)
    sess = _profile("wall", profiler, tel, sampler, recorder, budget)
    if start:
        profiler.start()
    return sess
