"""The two sampling drivers: wall-clock threads and sim event counts.

* :class:`WallStackProfiler` — a daemon timer thread walking
  ``sys._current_frames()`` every ``period`` wall seconds.  Stdlib-only
  continuous profiling for the live runtime: no signals, no
  ``sys.setprofile`` (which would tax every function call), just
  whole-stack snapshots whose cost scales with sample *rate*, not with
  application throughput.
* :class:`SimEventProfiler` — hooks the simulator's dispatch loop via
  :meth:`Environment.set_profile_hook` and samples every ``stride``
  events.  Timer threads would race the virtual clock, so sim sampling
  is event-count triggered; each sample attributes the wall time since
  the previous sample to the sampled dispatch (standard event-boundary
  sampling: hot handlers are hit in proportion to how often they run).

Both expose the same budgeter-facing surface: ``self_time_s`` (their
own measured cost), a retunable rate knob, and an ``on_sample``
callback fired after each sample (the budgeter's evaluation trigger).
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter
from typing import Callable, Optional

from repro.profiling.stacks import (
    DEFAULT_MAX_STACKS,
    StackAggregator,
    describe_dispatch,
    fold_frames,
)

#: Default wall sampling period, seconds (20 Hz).  Each sample is
#: cheap to *take*, but every timer wakeup also forces a GIL handoff
#: the self-cost clock cannot see; 20 Hz keeps that hidden tax a few
#: percent while still collecting hundreds of samples per minute.
DEFAULT_PERIOD = 0.05
#: Default sim sampling stride, events.
DEFAULT_STRIDE = 64

#: Fallback per-wakeup GIL-handoff cost (seconds) when calibration is
#: disabled or yields an implausible value.  Each timer wakeup makes
#: the sampler thread contend for the GIL: the running app thread
#: stalls for roughly one context handoff.  Tens of microseconds is
#: the observed order on CPython 3.10–3.12.
DEFAULT_GIL_HANDOFF_S = 50e-6

#: Calibration results outside this band are discarded as noise.
_GIL_COST_BOUNDS = (1e-6, 2e-3)

#: Process-wide calibration cache (the cost is a property of the
#: interpreter + host, not of any one profiler instance).
_gil_cost_cache: Optional[float] = None


def _busy_loop(deadline: float) -> int:
    """Pure-Python spin until *deadline*; returns iterations done."""
    n = 0
    while perf_counter() < deadline:
        n += 1
    return n


def estimate_gil_handoff_cost(
    phase_s: float = 0.03, wake_period: float = 0.001,
) -> float:
    """Measure the per-wakeup GIL-handoff tax a timer sampler inflicts.

    The profiler's ``self_time_s`` clock sees only the time *inside*
    :meth:`WallStackProfiler.sample_once`; it cannot see the stall each
    wakeup imposes on the application thread that must yield the GIL.
    This one-shot calibration measures that hidden side: a pure-Python
    busy loop runs for *phase_s* seconds alone, then again while a
    thread wakes every *wake_period* seconds to walk
    ``sys._current_frames()`` — the drop in loop throughput divided by
    the number of wakeups is the per-wakeup cost.  Implausible results
    (scheduler noise on a loaded CI box) fall back to
    :data:`DEFAULT_GIL_HANDOFF_S`.  The result is cached process-wide.
    """
    global _gil_cost_cache
    if _gil_cost_cache is not None:
        return _gil_cost_cache

    # Phase A: baseline throughput, no sampler.
    t0 = perf_counter()
    base_iters = _busy_loop(t0 + phase_s)
    base_elapsed = perf_counter() - t0
    rate = base_iters / base_elapsed if base_elapsed > 0 else 0.0

    # Phase B: same loop under a waking sampler thread.
    wakeups = [0]
    stop = threading.Event()

    def _waker() -> None:
        while not stop.wait(wake_period):
            sys._current_frames()
            wakeups[0] += 1

    thread = threading.Thread(target=_waker, daemon=True)
    thread.start()
    t1 = perf_counter()
    loaded_iters = _busy_loop(t1 + phase_s)
    loaded_elapsed = perf_counter() - t1
    stop.set()
    thread.join(timeout=1.0)

    cost = DEFAULT_GIL_HANDOFF_S
    if rate > 0 and wakeups[0] > 0:
        # Seconds of busy-loop progress lost to the sampler's wakeups.
        lost = loaded_elapsed - (loaded_iters / rate)
        per_wakeup = lost / wakeups[0]
        if _GIL_COST_BOUNDS[0] <= per_wakeup <= _GIL_COST_BOUNDS[1]:
            cost = per_wakeup
    _gil_cost_cache = cost
    return cost


class WallStackProfiler:
    """Timer-thread stack sampler over ``sys._current_frames()``."""

    def __init__(
        self,
        period: float = DEFAULT_PERIOD,
        aggregator: Optional[StackAggregator] = None,
        max_stacks: int = DEFAULT_MAX_STACKS,
        gil_cost_per_sample: Optional[float] = None,
        calibrate_gil: bool = True,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        #: Seconds between samples; the budgeter retunes this live.
        self.period = float(period)
        self.agg = aggregator or StackAggregator(max_stacks=max_stacks)
        #: Cumulative wall seconds spent taking samples (self-cost).
        self.self_time_s = 0.0
        self.n_samples = 0
        #: Per-wakeup GIL-handoff cost model.  None means "calibrate on
        #: start()" (or fall back to the default constant if calibration
        #: is disabled); pass 0.0 to turn the model off entirely.
        self.gil_cost_per_sample = gil_cost_per_sample
        self._calibrate_gil = calibrate_gil
        #: Called as ``on_sample(profiler)`` after every sample.
        self.on_sample: Optional[Callable[["WallStackProfiler"], None]] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    @property
    def gil_cost_s(self) -> float:
        """Modeled cumulative GIL-handoff tax across all wakeups."""
        per = self.gil_cost_per_sample
        if per is None:
            per = DEFAULT_GIL_HANDOFF_S
        return self.n_samples * per

    @property
    def estimated_cost_s(self) -> float:
        """Total estimated profiler cost: measured self-time plus the
        modeled GIL-handoff tax.  This — not ``self_time_s`` alone — is
        what the overhead budgeter should meter."""
        return self.self_time_s + self.gil_cost_s

    def start(self) -> None:
        if self._thread is not None:
            return
        if self.gil_cost_per_sample is None:
            self.gil_cost_per_sample = (
                estimate_gil_handoff_cost() if self._calibrate_gil
                else DEFAULT_GIL_HANDOFF_S
            )
        self._stop.clear()

        def _run() -> None:
            while not self._stop.wait(self.period):
                self.sample_once()

        self._thread = threading.Thread(
            target=_run, name="stack-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None

    def sample_once(self) -> None:
        """Snapshot every thread's stack except the profiler's own."""
        t0 = perf_counter()
        own = threading.get_ident()
        period = self.period
        for tid, frame in sys._current_frames().items():
            if tid == own:
                continue
            # Each sample stands for ~period seconds of that thread.
            self.agg.add(fold_frames(frame), seconds=period)
        self.n_samples += 1
        self.self_time_s += perf_counter() - t0
        cb = self.on_sample
        if cb is not None:
            cb(self)

    # -- budgeter knob ------------------------------------------------------
    def get_rate_setting(self) -> float:
        return self.period

    def set_rate_setting(self, period: float) -> None:
        self.period = float(period)

    def __repr__(self) -> str:
        return (
            f"<WallStackProfiler period={self.period} "
            f"samples={self.n_samples}>"
        )


class SimEventProfiler:
    """Event-count-triggered sampler for the simulation kernel.

    Attaching installs a dispatch hook; the kernel's default (unhooked)
    run loop is untouched, and the hook only observes — the event
    trajectory with the profiler attached is identical to without
    (goldens: scalability_1000 stays 190,047 events either way).
    """

    def __init__(
        self,
        env,
        stride: int = DEFAULT_STRIDE,
        aggregator: Optional[StackAggregator] = None,
        max_stacks: int = DEFAULT_MAX_STACKS,
    ) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.env = env
        self._stride_box = [int(stride)]
        self.agg = aggregator or StackAggregator(max_stacks=max_stacks)
        self.self_time_s = 0.0
        self.n_samples = 0
        self.on_sample: Optional[Callable[["SimEventProfiler"], None]] = None
        self._last_t: Optional[float] = None
        self._attached = False

    # -- lifecycle ----------------------------------------------------------
    def attach(self) -> None:
        self.env.set_profile_hook(self._on_dispatch, self._stride_box)
        self._attached = True

    def detach(self) -> None:
        if self._attached:
            self.env.clear_profile_hook()
            self._attached = False

    # -- the hook -----------------------------------------------------------
    def _on_dispatch(self, event, callbacks) -> None:
        now = perf_counter()
        last = self._last_t
        self._last_t = now
        seconds = (now - last) if last is not None else 0.0
        self.agg.add(describe_dispatch(event, callbacks), seconds=seconds)
        self.n_samples += 1
        self.self_time_s += perf_counter() - now
        cb = self.on_sample
        if cb is not None:
            cb(self)

    # -- budgeter knob ------------------------------------------------------
    @property
    def stride(self) -> int:
        return self._stride_box[0]

    @stride.setter
    def stride(self, value: int) -> None:
        self._stride_box[0] = max(1, int(value))

    def get_rate_setting(self) -> float:
        return float(self._stride_box[0])

    def set_rate_setting(self, stride: float) -> None:
        self._stride_box[0] = max(1, int(round(stride)))

    def __repr__(self) -> str:
        return (
            f"<SimEventProfiler stride={self.stride} "
            f"samples={self.n_samples}>"
        )
