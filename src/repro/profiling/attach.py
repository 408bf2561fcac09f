"""One-call wiring of profiler + budgeter + SLO monitor per runtime.

Every ``--profile`` run (attached through
:class:`~repro.telemetry.observation.Observation`) and the tests all
want the same bundle:

* the right sampling driver for the runtime (event-count for sim,
  timer-thread for live),
* an :class:`OverheadBudgeter` fed every self-cost source in play and
  actuating the profiler's rate knob,
* when a :class:`HealthSampler` is attached: budgeter decisions as
  series, a :class:`BurnRateMonitor` over the stock SLOs, and the
  flight-recorder cooldown-gauge refresh probe.

:func:`profile_sim` / :func:`profile_wall` build that bundle and return
a :class:`ProfileSession` that knows how to stop itself, publish
metrics, write the ``.folded`` artifact, and emit the ``profile`` JSONL
record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.profiling.budget import (
    DEFAULT_BUDGET,
    Actuator,
    OverheadBudgeter,
)
from repro.profiling.sampler import (
    DEFAULT_PERIOD,
    DEFAULT_STRIDE,
    SimEventProfiler,
    WallStackProfiler,
)
from repro.profiling.slo import (
    DEFAULT_SLOS,
    BurnRateMonitor,
    SLO,
)

#: Actuation ranges: sim stride in events, wall period in seconds.
SIM_STRIDE_RANGE = (16.0, 65536.0)
WALL_PERIOD_RANGE = (0.005, 1.0)


@dataclass
class ProfileSession:
    """Everything ``--profile`` attached to one run."""

    runtime: str  # "sim" | "wall"
    profiler: Any
    budgeter: OverheadBudgeter
    monitor: Optional[BurnRateMonitor] = None
    folded_path: Optional[str] = None

    # -- lifecycle ----------------------------------------------------------
    def stop(self) -> None:
        """Detach/stop the profiler (leaves aggregates readable)."""
        if self.runtime == "sim":
            self.profiler.detach()
        else:
            self.profiler.stop()
        self.budgeter.evaluate()

    def write_folded(self, path: str) -> Optional[str]:
        """Write the flamegraph artifact; None when nothing sampled."""
        if self.profiler.agg.n_samples == 0:
            return None
        self.folded_path = self.profiler.agg.write_folded(path)
        return self.folded_path

    # -- exports ------------------------------------------------------------
    def publish(self, metrics, top_n: int = 5) -> None:
        self.profiler.agg.publish(metrics, top_n=top_n)
        self.budgeter.publish(metrics)

    def record(self, top_n: int = 20) -> Dict[str, Any]:
        """The ``profile`` JSONL trace record (sans ``type``)."""
        rec: Dict[str, Any] = {"runtime": self.runtime}
        if self.runtime == "sim":
            rec["stride"] = self.profiler.stride
        else:
            rec["period"] = self.profiler.period
        rec.update(self.profiler.agg.record(top_n=top_n))
        rec["self_seconds"] = round(self.profiler.self_time_s, 6)
        if hasattr(self.profiler, "estimated_cost_s"):
            per = self.profiler.gil_cost_per_sample
            if per is not None:
                rec["gil_per_sample_s"] = round(per, 9)
            rec["gil_seconds"] = round(self.profiler.gil_cost_s, 6)
            rec["estimated_seconds"] = round(
                self.profiler.estimated_cost_s, 6
            )
        rec["budget"] = self.budgeter.record()
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
            "overhead_ratio": round(self.budgeter.overhead_cumulative, 5),
            "budget": self.budgeter.budget,
            "retunes": self.budgeter.n_backoffs + self.budgeter.n_recovers,
        }
        if self.monitor is not None:
            out["slo_alerts"] = len(self.monitor.alerts)
        return out

    @property
    def alerts(self):
        return self.monitor.alerts if self.monitor is not None else []


def _profile(
    runtime: str, profiler, knob: str, lo: float, hi: float,
    tel, sampler, recorder, budget: Optional[float],
    slos: Tuple[SLO, ...], slo_kwargs: Optional[Dict[str, Any]],
) -> ProfileSession:
    """The bundle both runtimes share, around their own *profiler*."""
    budgeter = OverheadBudgeter(
        budget=DEFAULT_BUDGET if budget is None else budget
    )
    # lo = the configured rate: recovery restores the requested
    # resolution after backoffs but never samples more finely than asked.
    budgeter.add_actuator(Actuator(
        knob,
        profiler.get_rate_setting,
        profiler.set_rate_setting,
        lo=float(lo),
        hi=max(float(lo), hi),
    ))
    # The wall profiler models the GIL-handoff tax each timer wakeup
    # inflicts on application threads; the budgeter must meter that
    # estimated total, not just the measured in-sampler time.  The sim
    # profiler has no such hidden cost and exposes only self_time_s.
    if hasattr(profiler, "estimated_cost_s"):
        budgeter.add_source("profiler", lambda: profiler.estimated_cost_s)
    else:
        budgeter.add_source("profiler", lambda: profiler.self_time_s)
    # Evaluate from the profiler's own sample callback so the budgeter
    # runs even without a sampler (rate-limited by min_interval).
    profiler.on_sample = lambda _p: budgeter.maybe_evaluate()
    monitor = None
    if sampler is not None:
        monitor = BurnRateMonitor(
            sampler, slos=slos, tel=tel, recorder=recorder,
            **(slo_kwargs or {}),
        )
        # The monitor probe runs inside sampler.sample(), so its
        # flight-recorder dump writes land in sample_cost_s; back them
        # out — the dump is the alert's deliverable, not observation
        # overhead.
        budgeter.add_source(
            "health_sampler",
            lambda: sampler.sample_cost_s - monitor.dump_cost_s,
        )
        # Probe order matters: signal probes already registered, then
        # budgeter series, then SLO evaluation over this tick's fresh
        # points, then the cooldown-gauge refresh.
        sampler.add_probe(budgeter.as_probe())
        sampler.add_probe(monitor.as_probe())
        # Second-stage knob: the monitor's full-window rescans dominate
        # its cost, so the budgeter may thin the evaluation cadence
        # once the profiler stride is exhausted.
        budgeter.add_actuator(Actuator(
            "slo_stride",
            monitor.get_rate_setting,
            monitor.set_rate_setting,
            lo=1.0,
            hi=32.0,
        ))
        if recorder is not None:
            sampler.add_probe(lambda s: recorder.refresh_cooldowns(s.now))
    return ProfileSession(
        runtime=runtime, profiler=profiler, budgeter=budgeter,
        monitor=monitor,
    )


def profile_sim(
    env,
    tel=None,
    sampler=None,
    recorder=None,
    budget: Optional[float] = None,
    stride: Optional[int] = None,
    slos: Tuple[SLO, ...] = DEFAULT_SLOS,
    slo_kwargs: Optional[Dict[str, Any]] = None,
) -> ProfileSession:
    """Attach the profiling bundle to a simulation environment.

    The profiler hook observes only and the budgeter never actuates the
    sim sampler's period (that would change the simulated trajectory
    mid-run) — with ``--profile`` the event trajectory is identical to
    the same run without it.  *budget* / *stride* default to
    ``DEFAULT_BUDGET`` / ``DEFAULT_STRIDE``.
    """
    stride = DEFAULT_STRIDE if stride is None else stride
    profiler = SimEventProfiler(env, stride=stride)
    profiler.attach()
    return _profile(
        "sim", profiler, "sim_stride", stride, SIM_STRIDE_RANGE[1],
        tel, sampler, recorder, budget, slos, slo_kwargs,
    )


def profile_wall(
    tel=None,
    sampler=None,
    recorder=None,
    budget: Optional[float] = None,
    period: Optional[float] = None,
    slos: Tuple[SLO, ...] = DEFAULT_SLOS,
    slo_kwargs: Optional[Dict[str, Any]] = None,
    start: bool = True,
    gil_model: bool = True,
) -> ProfileSession:
    """Attach the profiling bundle to the live (wall-clock) runtime.

    With *gil_model* (default), the profiler calibrates its per-wakeup
    GIL-handoff cost on start and the budgeter meters the estimated
    total cost; ``gil_model=False`` zeroes the model (budgeter sees
    measured self-time only, the pre-model behaviour).  *budget* /
    *period* default to ``DEFAULT_BUDGET`` / ``DEFAULT_PERIOD``.
    """
    period = DEFAULT_PERIOD if period is None else period
    profiler = WallStackProfiler(
        period=period,
        gil_cost_per_sample=None if gil_model else 0.0,
    )
    sess = _profile(
        "wall", profiler, "wall_period", period, WALL_PERIOD_RANGE[1],
        tel, sampler, recorder, budget, slos, slo_kwargs,
    )
    if start:
        profiler.start()
    return sess
