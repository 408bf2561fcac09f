"""Run one workload and turn its repetitions into named metrics."""

from __future__ import annotations

import cProfile
import gc
import os
import statistics
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.benchmarking.harness import peak_rss_kb

from benchmarks.e2e import live, sim
from benchmarks.e2e.checks import agreement_problems
from benchmarks.e2e.layers import LAYERS, fold_profile, shares
from benchmarks.e2e.repetition import Repetition
from benchmarks.e2e.stats import quantile
from benchmarks.e2e.tracing import (
    ASYNC_ENTRIES, ENTRY_POINTS, SpanTracer, aggregate,
)

#: Back-to-back repetitions of the identical body in one run.
REPETITIONS = 3
#: The traced run's three repetitions (plain, spans, profile) are this
#: fraction of the untraced size: cProfile alone slows the body ~2.5x.
TRACE_SCALE = 0.5
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

Workload = Union[sim.SimWorkload, live.LiveWorkload]

#: name -> (workload, why it exists).  Names are final.
WORKLOADS: Dict[str, Tuple[Workload, str]] = {
    "sim_wide": (
        sim.SimWorkload(
            n_peers=2500, max_peers=16, rate_per_peer=0.03,
            warmup=15.0, duration=7.3,
        ),
        "2500 peers in ~149 small domains: event kernel, net, load "
        "reports and cross-domain redirects dominate; RM path search "
        "is small",
    ),
    "sim_dense": (
        sim.SimWorkload(
            n_peers=256, max_peers=64, rate_per_peer=0.08,
            warmup=20.0, duration=86.0,
        ),
        "256 peers in 4 large domains at high load: core allocate/"
        "estimate/info-base and graphs BFS dominate, kernel is small",
    ),
    "sim_churn": (
        sim.SimWorkload(
            n_peers=600, max_peers=16, rate_per_peer=0.02,
            warmup=25.0, duration=81.0, churn=(40.0, 10.0),
        ),
        "600 peers living 40 s on average: overlay, summaries and "
        "info base are written (join, leave, failover, repair), not "
        "only read",
    ),
    "live_closed": (
        live.LiveWorkload(open_loop=False, rate=280.0),
        "2 closed-loop clients over loopback UDP: codec, transport and "
        "clock pump do most of the work; the simulator never runs them",
    ),
    "live_lossy": (
        live.LiveWorkload(open_loop=True, rate=50.0),
        "open loop at 50 tasks/s with 5 % outbound loss: the "
        "transport's ack, backoff and dedup path, which live_closed "
        "never takes",
    ),
}

END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "sim_events_per_s": "1/s",
    "cpu_ms_per_task": "ms",
    "task_latency_p50_ms": "ms",
    "task_latency_p90_ms": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}

COUNTER_UNITS: Dict[str, str] = {
    "sim.events_per_task": "count",
    "sim.build_s": "s",
    "sim.warmup_s": "s",
    "net.messages_per_task": "count",
    "net.bytes_per_task": "bytes",
    "core.control.admit_ratio": "ratio",
    "core.control.redirects_per_task": "count",
    "core.control.reject_share": "ratio",
    "core.control.repairs_per_task": "count",
    "scheduling.miss_share": "ratio",
    "overlay.departures": "count",
    "overlay.rejoins": "count",
    "runtime.transport.datagrams_per_task": "count",
    "runtime.transport.wire_bytes_per_task": "bytes",
    "runtime.transport.retransmit_share": "ratio",
    "runtime.transport.duplicate_share": "ratio",
    "bench.lateness_p90_ms": "ms",
    "bench.trace_overhead_ratio": "ratio",
    "bench.host_speed": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = dict(COUNTER_UNITS)
    for entry in ENTRY_POINTS:
        units[f"{entry}.calls_per_task"] = "count"
        units[f"{entry}.{_span_time(entry)}_ms_per_task"] = "ms"
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "ratio"
        units[f"{layer}.calls_per_task"] = "count"
    return units


def _span_time(entry: str) -> str:
    """A coroutine's span covers its suspensions too, so what it
    reports is wall time, not self time."""
    return "wall" if entry in ASYNC_ENTRIES else "self"


def _repetition(
    workload: Workload, seed: int, window_s: float,
    measure: bool = True, profile: Optional[cProfile.Profile] = None,
) -> Repetition:
    gc.collect()
    if isinstance(workload, sim.SimWorkload):
        return sim.run_repetition(workload, seed, window_s, profile)
    return live.run_repetition(workload, seed, window_s, measure, profile)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Result:
    """What one invocation prints."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.detail: Dict[str, Any] = {
            "workload": workload, "seed": seed, "seconds": seconds,
        }
        self.metrics: Dict[str, float] = {}
        self.problems: List[str] = []
        self.attempted = 0

    def count(self, reps: List[Repetition]) -> None:
        for rep in reps:
            self.attempted += rep.attempted
            self.problems += rep.problems
        self.detail["repetitions"] = [
            {
                "setup_s": rep.setup_s, "wall_s": rep.wall_s,
                "raw_wall_s": rep.raw_wall_s, "host_speed": rep.host_speed,
                "attempted": rep.attempted, "terminal": rep.terminal,
                "ok": rep.ok, "failed": rep.failed,
                "latency_samples": len(rep.latencies_s),
            }
            for rep in reps
        ]

    def final_line(self, units: Dict[str, str]) -> Dict[str, Any]:
        """The contract's result line.

        Its ``failed`` counts failed output checks (a task lost or
        terminal twice, repetitions that disagree), so it is 0 on a
        correct run.  Tasks the system under test rejected, finished
        late or left stranded are its *outcomes*: they count against
        ``ok_share``, and the detail line gives attempted / ok / failed
        per repetition.
        """
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": len(self.problems),
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }


def run_untraced(
    name: str, seed: int, seconds: float, repetitions: int = REPETITIONS
) -> Result:
    """The end-to-end metrics: the median of *repetitions* identical
    bodies, each timed at the reference machine speed.

    ``live_lossy`` is bound by its timers, not the CPU, so it measures
    one window of the whole length and only repeats the set-up.
    """
    workload, _ = WORKLOADS[name]
    result = Result(name, seed, seconds)
    is_sim = isinstance(workload, sim.SimWorkload)
    if is_sim or not workload.open_loop:
        measured = setups = [
            _repetition(workload, seed, seconds / REPETITIONS)
            for _ in range(repetitions)
        ]
    else:
        setups = [
            _repetition(workload, seed, seconds, measure=False)
            for _ in range(repetitions - 1)
        ]
        measured = [_repetition(workload, seed, seconds)]
        setups = setups + measured
    result.count(measured)
    if is_sim:
        # One seed, one trajectory: the repetitions must agree exactly.
        result.problems += agreement_problems(
            [rep.fingerprint for rep in measured]
        )
    elif not workload.open_loop:
        lost = sum(rep.failed for rep in measured)
        if lost:
            result.problems.append(
                f"{lost} tasks lost on a loss-free closed loop"
            )

    result.metrics = end_to_end_metrics(measured, setups)
    result.detail["counts"] = measured[-1].counts
    return result


def end_to_end_metrics(
    measured: List[Repetition], setups: List[Repetition]
) -> Dict[str, float]:
    """Each timed metric is the median over the repetitions of that
    metric computed per repetition; ``ok_share`` pools their counts."""

    def middle(value: Callable[[Repetition], float]) -> float:
        return statistics.median(value(rep) for rep in measured)

    return {
        "setup_s": statistics.median(rep.setup_s for rep in setups),
        "tasks_per_s": middle(lambda r: r.terminal / r.wall_s),
        "sim_events_per_s": middle(lambda r: r.events / r.wall_s),
        "cpu_ms_per_task": middle(lambda r: 1e3 * r.cpu_s / r.attempted),
        "task_latency_p50_ms": middle(
            lambda r: 1e3 * quantile(r.latencies_s, 0.5)
        ),
        "task_latency_p90_ms": middle(
            lambda r: 1e3 * quantile(r.latencies_s, 0.9)
        ),
        "ok_share": (
            sum(rep.ok for rep in measured)
            / sum(rep.attempted for rep in measured)
        ),
        "peak_rss_mb": peak_rss_kb() / 1024.0,
    }


def run_traced(name: str, seed: int, seconds: float) -> Result:
    """The per-layer metrics: a plain, a span-traced and a profiled
    repetition of the same (smaller) body."""
    workload, _ = WORKLOADS[name]
    result = Result(name, seed, seconds)
    window_s = TRACE_SCALE * seconds / REPETITIONS
    plain = _repetition(workload, seed, window_s)
    tracer = SpanTracer()
    with tracer.installed():
        traced = _repetition(workload, seed, window_s)
    profile = cProfile.Profile()
    profiled = _repetition(workload, seed, window_s, profile=profile)
    result.count([plain, traced, profiled])

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{name}.jsonl")
    tracer.write_jsonl(trace_path)
    result.detail["trace_file"] = os.path.relpath(trace_path)
    result.detail["spans"] = len(tracer.spans)

    c, n = plain.counts, plain.attempted
    spans = aggregate(tracer.finished(), traced.measured_from)
    metrics = {
        "sim.events_per_task": c["events"] / n,
        "sim.build_s": plain.build_s,
        "sim.warmup_s": plain.warmup_s,
        "net.messages_per_task": c["messages"] / n,
        "net.bytes_per_task": c["bytes"] / n,
        "core.control.admit_ratio": c["admitted"] / n,
        "core.control.redirects_per_task": c["redirected"] / n,
        "core.control.reject_share": c["rejected"] / n,
        "core.control.repairs_per_task": c["repaired"] / n,
        "scheduling.miss_share": _ratio(c["missed"], c["completed"]),
        "overlay.departures": c["departures"],
        "overlay.rejoins": c["rejoins"],
        "runtime.transport.datagrams_per_task": c["datagrams"] / n,
        "runtime.transport.wire_bytes_per_task": (
            spans["runtime.codec.encode_message"]["out_bytes"]
            / traced.attempted
        ),
        "runtime.transport.retransmit_share": _ratio(
            c["retransmits"], c["messages"]
        ),
        "runtime.transport.duplicate_share": _ratio(
            c["duplicates"], c["delivered"] + c["duplicates"]
        ),
        "bench.lateness_p90_ms": (
            1e3 * quantile(plain.lateness_s, 0.9) if plain.lateness_s else 0.0
        ),
        "bench.trace_overhead_ratio": traced.wall_s / plain.wall_s,
        "bench.host_speed": plain.host_speed,
    }
    for entry, row in spans.items():
        metrics[f"{entry}.calls_per_task"] = row["calls"] / traced.attempted
        # Spans are timed raw; the repetition's mean speed brings them
        # to the reference machine speed like every other host time.
        metrics[f"{entry}.{_span_time(entry)}_ms_per_task"] = (
            1e3 * row["self_s"] * traced.host_speed / traced.attempted
        )
    if isinstance(workload, sim.SimWorkload):
        # Environment.run inlines step() and is entered once per slice,
        # so its span count says nothing about the program; the
        # kernel's own count of processed events is the number of steps.
        metrics["sim.step.calls_per_task"] = (
            traced.counts["events"] / traced.attempted
        )
    totals = fold_profile(profile.getstats())
    for layer, share in shares(totals).items():
        metrics[f"{layer}.self_share"] = share
        metrics[f"{layer}.calls_per_task"] = (
            totals[layer]["calls"] / profiled.attempted
        )
    result.metrics = metrics
    result.detail["counts"] = c
    result.detail["profile_overhead_ratio"] = profiled.wall_s / plain.wall_s
    return result
