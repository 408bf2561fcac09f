"""Measurement machinery for ``repro-bench``.

A benchmark is a zero-argument callable returning a counters dict::

    {"events": <work units processed>,
     "phases": {"build": 1.2, "run": 8.7},      # seconds, optional
     "metrics": {...}}                           # free-form, optional

The harness runs it ``warmup`` unrecorded times, then ``repeat``
recorded times, and folds the wall-clock samples into a
:class:`BenchRecord`.  Throughput (``events_per_sec``) uses the *best*
(minimum) wall time — the standard convention for noisy machines: the
fastest run is the one least disturbed by the OS.

Peak RSS comes from ``getrusage`` and is a high-water mark for the
whole process, so within one CLI invocation it can only grow from
benchmark to benchmark; compare it across invocations, not across rows.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.telemetry.observation import Observation

#: Bumped whenever the JSON layout changes incompatibly.
SCHEMA_VERSION = 1


def peak_rss_kb() -> int:
    """The process's peak resident set size, in KiB (0 if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover
        usage //= 1024
    return int(usage)


class PhaseTimer:
    """Accumulates named wall-clock phases inside one benchmark run."""

    def __init__(self) -> None:
        self.phases: Dict[str, float] = {}

    def phase(self, name: str) -> "_Phase":
        return _Phase(self, name)


class _Phase:
    def __init__(self, timer: PhaseTimer, name: str) -> None:
        self._timer = timer
        self._name = name

    def __enter__(self) -> "_Phase":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        elapsed = time.perf_counter() - self._t0
        phases = self._timer.phases
        phases[self._name] = phases.get(self._name, 0.0) + elapsed


@dataclass
class BenchRecord:
    """One benchmark's aggregated measurement."""

    name: str
    params: Dict[str, Any]
    warmup: int
    repeat: int
    wall_s: Dict[str, float]
    events: int
    events_per_sec: float
    peak_rss_kb: int
    phases: Dict[str, float] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Hot-path report from the best recorded run (``--profile`` only).
    profile: Optional[Dict[str, Any]] = None
    #: The best run's raw folded stacks (``--profile`` only).  Kept off
    #: the JSON report — it is bulky and line-oriented; the CLI writes
    #: it to a ``.folded`` artifact via ``--profile-folded`` instead.
    folded: Optional[str] = field(default=None, compare=False)

    def as_dict(self) -> Dict[str, Any]:
        out = {
            "name": self.name,
            "params": self.params,
            "warmup": self.warmup,
            "repeat": self.repeat,
            "wall_s": self.wall_s,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "peak_rss_kb": self.peak_rss_kb,
            "phases": self.phases,
            "metrics": self.metrics,
        }
        if self.profile is not None:
            out["profile"] = self.profile
        return out


def run_benchmark(
    name: str,
    fn: Callable[[], Dict[str, Any]],
    params: Optional[Dict[str, Any]] = None,
    warmup: int = 1,
    repeat: int = 3,
    profile: bool = False,
    profile_period: Optional[float] = None,
) -> BenchRecord:
    """Measure *fn* with warmup/repeat discipline.

    With ``profile=True``, each recorded run executes under the
    wall-clock sampling profiler and the best run's hot-path report
    lands in :attr:`BenchRecord.profile`.  The profiler thread adds a
    little overhead, so a profiled run's timings are not comparable
    with an unprofiled one's.  *profile_period* overrides
    the sampling period — quick rungs finish in well under a second,
    so capturing stacks from them needs a faster clock than the 20 Hz
    default.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    for _ in range(warmup):
        fn()
    walls: List[float] = []
    best: Optional[Dict[str, Any]] = None
    best_profile: Optional[Dict[str, Any]] = None
    best_folded: Optional[str] = None
    for _ in range(repeat):
        obs = Observation.wall(profile=profile, rate=profile_period).start()
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            obs.close()
        wall = time.perf_counter() - t0
        walls.append(wall)
        if wall == min(walls):
            best = out
            sess = obs.session
            if sess is not None:
                best_profile = sess.record(top_n=10)
                best_folded = (
                    sess.profiler.agg.to_folded()
                    if sess.profiler.agg.n_samples else None
                )
    assert best is not None
    events = int(best.get("events", 0))
    best_wall = min(walls)
    return BenchRecord(
        name=name,
        params=dict(params or {}),
        warmup=warmup,
        repeat=repeat,
        wall_s={
            "mean": statistics.fmean(walls),
            "min": best_wall,
            "max": max(walls),
            "stdev": statistics.stdev(walls) if len(walls) > 1 else 0.0,
        },
        events=events,
        events_per_sec=(events / best_wall) if best_wall > 0 else 0.0,
        peak_rss_kb=peak_rss_kb(),
        phases=dict(best.get("phases", {})),
        metrics=dict(best.get("metrics", {})),
        profile=best_profile,
        folded=best_folded,
    )


def report_document(
    records: List[BenchRecord], mode: str, bench_id: str
) -> Dict[str, Any]:
    """The schema-versioned JSON document a bench run emits."""
    return {
        "schema_version": SCHEMA_VERSION,
        "bench_id": bench_id,
        "created_unix": int(time.time()),
        "mode": mode,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "results": [r.as_dict() for r in records],
    }


def write_report(path: str, doc: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2, sort_keys=False)
        fp.write("\n")
