"""SLO definitions + multi-window burn-rate alerting over health series.

The SRE burn-rate idiom adapted to sampled series: an SLO says "at
least ``objective`` of samples must be good", where a sample is *bad*
when its value crosses ``threshold``.  The monitor evaluates each SLO
over two trailing windows of HealthSampler samples:

* a **fast** window (minutes-scale, scaled to sim seconds) catching
  sharp regressions with a high burn threshold, and
* a **slow** window (hours-scale equivalent) catching slow bleeds with
  a low threshold,

where ``burn = bad_fraction / (1 - objective)`` — burn 1 means exactly
spending the error budget, burn 10 means burning it 10x too fast.
Families with multiple label sets (per-QoS miss ratios, per-domain
imbalance) alert on their *worst* ring.  Every sampler tick evaluates
every SLO, from running sums per ring (:class:`_WindowCounts`), so a
tick costs a bisect per ring and window, not a rescan of the window.

Alerts are edge-triggered: one ``slo.burn`` trace event +
``repro_slo_alerts_total`` increment per excursion (cleared with 20%
hysteresis), and a flight-recorder dump via reasons ``slo_burn_fast`` /
``slo_burn_slow`` (the recorder's per-reason cooldown coalesces
sustained burns).  ``repro_slo_burn_rate{slo=...,window=...}`` is
re-exported continuously as both a gauge and a sampled series.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Default windows, in clock seconds (sim or wall, per driver).
DEFAULT_FAST_WINDOW = 60.0
DEFAULT_SLOW_WINDOW = 600.0
#: Burn-rate alert thresholds per window.
FAST_BURN = 10.0
SLOW_BURN = 2.0


@dataclass(frozen=True)
class SLO:
    """One objective over a sampled series family."""

    name: str
    series: str
    threshold: float
    objective: float = 0.99
    comparison: str = ">"
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if self.comparison not in (">", "<"):
            raise ValueError(
                f"comparison must be '>' or '<', got {self.comparison!r}"
            )

    def violated(self, value: float) -> bool:
        if self.comparison == ">":
            return value > self.threshold
        return value < self.threshold

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


#: The stock objectives over the standard HealthSampler families.
DEFAULT_SLOS: Tuple[SLO, ...] = (
    SLO(
        "miss_rate", "repro_sched_miss_ratio", 0.10, objective=0.99,
        description="Deadline-miss ratio stays under 10% per QoS class.",
    ),
    SLO(
        "redirect_rate", "repro_rm_redirect_rate", 2.0, objective=0.95,
        description="RM redirect rate stays under 2/s.",
    ),
    SLO(
        "imbalance", "repro_load_imbalance", 3.0, objective=0.95,
        description="Cluster max/mean load imbalance stays under 3x.",
    ),
)


@dataclass
class BurnAlert:
    """One fired burn-rate alert (edge-triggered)."""

    time: float
    slo: str
    window: str
    burn: float
    bad_fraction: float
    samples: int
    dump: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "time": round(self.time, 6),
            "slo": self.slo,
            "window": self.window,
            "burn": round(self.burn, 3),
            "bad_fraction": round(self.bad_fraction, 4),
            "samples": self.samples,
            "dump": self.dump,
        }


class _WindowCounts:
    """One ring's points, folded for one SLO into running sums.

    ``total[i]`` and ``bad[i]`` are the sample and bad counts of the
    ring's first *i* points, so a trailing window costs a bisect on the
    times ``t`` and two subtractions.  New points extend the sums; a
    compaction merges old points, so the monitor starts a fresh fold
    after one (``compactions``).  Once a time goes backwards (a
    caller's ``now``, or a merge's rounding) ``t`` is not sorted, and
    the window edge comes from the ring's own backward scan instead.
    """

    __slots__ = ("compactions", "t", "total", "bad", "ordered")

    def __init__(self, compactions: int) -> None:
        self.compactions = compactions
        self.t: List[float] = []
        self.total = [0]
        self.bad = [0]
        self.ordered = True

    def window(self, ring, slo: SLO, t_min: float) -> Tuple[int, int]:
        """(samples, bad samples) of *ring*'s points with t >= t_min."""
        t, total, bad = self.t, self.total, self.bad
        if len(ring) > len(t):
            worst = 3 if slo.comparison == ">" else 2
            for point in ring.points_from(len(t)):
                if t and point[0] < t[-1]:
                    self.ordered = False
                t.append(point[0])
                n = point[4]
                total.append(total[-1] + n)
                bad.append(bad[-1] + n if slo.violated(point[worst])
                           else bad[-1])
        if self.ordered:
            i = bisect_left(t, t_min)
        else:
            i = len(t) - len(ring.points_since(t_min))
        return total[-1] - total[i], bad[-1] - bad[i]


class BurnRateMonitor:
    """Evaluates SLO burn rates on every HealthSampler tick."""

    def __init__(
        self,
        sampler,
        slos: Tuple[SLO, ...] = DEFAULT_SLOS,
        tel=None,
        recorder=None,
        fast_window: float = DEFAULT_FAST_WINDOW,
        slow_window: float = DEFAULT_SLOW_WINDOW,
        min_samples: int = 5,
        hysteresis: float = 0.8,
        warmup: float = 0.5,
    ) -> None:
        self.sampler = sampler
        self.slos = tuple(slos)
        self.tel = tel
        self.recorder = recorder
        self.windows = (
            ("fast", float(fast_window), FAST_BURN),
            ("slow", float(slow_window), SLOW_BURN),
        )
        self.min_samples = int(min_samples)
        self.hysteresis = float(hysteresis)
        #: A window may alert only once the monitor has watched at
        #: least ``warmup * window`` seconds — a nearly-empty slow
        #: window would otherwise scream on the first bad sample.
        self.warmup = float(warmup)
        #: Cumulative wall seconds spent evaluating (self-cost).
        self.self_time_s = 0.0
        #: Wall seconds spent writing flight-recorder dumps.  Excluded
        #: from self-cost: the dump is the alert's deliverable, not a
        #: cost of observing.
        self.dump_cost_s = 0.0
        self._t_first: Optional[float] = None
        #: All alerts fired, in order.
        self.alerts: List[BurnAlert] = []
        self._active: Dict[Tuple[str, str], bool] = {}
        self._gauges: Dict[Tuple[str, str], Any] = {}
        self._counts: Dict[Tuple[Any, SLO], _WindowCounts] = {}

    # -- evaluation ---------------------------------------------------------
    def as_probe(self) -> Callable[[Any], None]:
        """Register the returned probe *after* the signal probes, so
        each tick evaluates the series points just recorded."""

        def probe(s) -> None:
            t0 = perf_counter()
            d0 = self.dump_cost_s
            self.evaluate(s.now)
            self.self_time_s += (
                perf_counter() - t0 - (self.dump_cost_s - d0)
            )

        return probe

    def evaluate(self, now: float) -> List[BurnAlert]:
        """One evaluation pass; returns alerts fired at this tick."""
        if self._t_first is None:
            self._t_first = now
        watched = now - self._t_first
        fired: List[BurnAlert] = []
        for slo in self.slos:
            rings = self.sampler.series_family(slo.series)
            if not rings:
                continue
            for wname, wlen, wburn in self.windows:
                if watched < self.warmup * wlen:
                    # Still warming up: don't even pay for the scan (a
                    # nearly-empty window couldn't alert anyway).
                    continue
                frac, n = self._worst_bad_fraction(rings, now - wlen, slo)
                burn = frac / slo.error_budget
                self._export_burn(slo, wname, burn)
                alert = self._edge(
                    slo, wname, wburn, burn, frac, n, now
                )
                if alert is not None:
                    fired.append(alert)
        return fired

    def _worst_bad_fraction(
        self, rings, t_min: float, slo: SLO
    ) -> Tuple[float, int]:
        """Max bad-sample fraction across the family's rings, over
        their points with ``t >= t_min``.

        Rolled-up points weigh in with their merged counts; a merged
        point is bad if its *worst* side (max for ">" SLOs, min for
        "<") violates, so downsampling cannot hide an excursion.
        """
        worst_frac = 0.0
        worst_n = 0
        for ring in rings:
            counts = self._counts.get((ring, slo))
            if counts is None or counts.compactions != ring.compactions:
                counts = self._counts[(ring, slo)] = _WindowCounts(
                    ring.compactions
                )
            total, bad = counts.window(ring, slo, t_min)
            if not total:
                continue
            frac = bad / total
            if frac > worst_frac or (frac == worst_frac and total > worst_n):
                worst_frac = frac
                worst_n = total
        return worst_frac, worst_n

    def _export_burn(self, slo: SLO, wname: str, burn: float) -> None:
        self.sampler.observe(
            "repro_slo_burn_rate", burn, slo=slo.name, window=wname
        )
        if self.tel is not None:
            key = (slo.name, wname)
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = self._gauges[key] = self.tel.metrics.gauge(
                    "repro_slo_burn_rate",
                    help="Error-budget burn rate over the trailing window.",
                    slo=slo.name, window=wname,
                )
            gauge.set(round(burn, 4))

    def _edge(
        self,
        slo: SLO,
        wname: str,
        wburn: float,
        burn: float,
        frac: float,
        n: int,
        now: float,
    ) -> Optional[BurnAlert]:
        key = (slo.name, wname)
        active = self._active.get(key, False)
        if not active and burn > wburn and n >= self.min_samples:
            self._active[key] = True
            return self._fire(slo, wname, burn, frac, n, now)
        if active and burn < wburn * self.hysteresis:
            self._active[key] = False
            self._set_active_gauge(slo, wname, 0.0)
        return None

    def _fire(
        self, slo: SLO, wname: str, burn: float,
        frac: float, n: int, now: float,
    ) -> BurnAlert:
        alert = BurnAlert(
            time=now, slo=slo.name, window=wname,
            burn=burn, bad_fraction=frac, samples=n,
        )
        if self.tel is not None:
            self.tel.metrics.counter(
                "repro_slo_alerts_total",
                help="Burn-rate alerts fired (edge-triggered).",
                slo=slo.name, window=wname,
            ).inc()
            self._set_active_gauge(slo, wname, 1.0)
            self.tel.tracer.event(
                "slo.burn",
                slo=slo.name,
                window=wname,
                burn=round(burn, 3),
                bad_fraction=round(frac, 4),
                threshold=slo.threshold,
                objective=slo.objective,
            )
        if self.recorder is not None:
            t0 = perf_counter()
            alert.dump = self.recorder.trigger(
                f"slo_burn_{wname}", now,
                key=f"slo_burn_{wname}:{slo.name}",
            )
            self.dump_cost_s += perf_counter() - t0
        self.alerts.append(alert)
        return alert

    def _set_active_gauge(self, slo: SLO, wname: str, v: float) -> None:
        if self.tel is not None:
            self.tel.metrics.gauge(
                "repro_slo_alert_active",
                help="1 while this SLO window is burning.",
                slo=slo.name, window=wname,
            ).set(v)

    # -- exports ------------------------------------------------------------
    def record(self) -> Dict[str, Any]:
        """JSON-ready summary (embedded in the ``profile`` record)."""
        return {
            "self_seconds": round(self.self_time_s, 6),
            "slos": [
                {
                    "name": slo.name,
                    "series": slo.series,
                    "threshold": slo.threshold,
                    "objective": slo.objective,
                    "comparison": slo.comparison,
                }
                for slo in self.slos
            ],
            "windows": [
                {"name": w, "seconds": s, "burn_threshold": b}
                for w, s, b in self.windows
            ],
            "alerts": [a.as_dict() for a in self.alerts],
        }

    def __repr__(self) -> str:
        return (
            f"<BurnRateMonitor slos={len(self.slos)} "
            f"alerts={len(self.alerts)}>"
        )
