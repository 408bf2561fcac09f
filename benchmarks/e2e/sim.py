"""Adapter for the ``sim_*`` workloads: ``build_scenario`` + ``Scenario.run``.

The population (peers, objects, service placement) is the pinned
``repro-bench`` ladder population, built from :data:`POPULATION_SEED`;
the benchmark's ``--seed`` drives what the users do — when tasks
arrive, at which peer, for which object and goal, with what deadline
and importance.  The program under test only ever sees those generated
inputs.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.manager import RMConfig
from repro.overlay import ChurnConfig
from repro.tasks.task import TaskOutcome
from repro.workloads import (
    PopulationConfig,
    ScenarioConfig,
    TaskArrivalProcess,
    WorkloadConfig,
    build_scenario,
)

from benchmarks.e2e.checks import conservation_problems
from benchmarks.e2e.repetition import (
    COUNT_KEYS, REFERENCE_WINDOW_S, Repetition,
)
from benchmarks.e2e.speed import SLICE_S, Interval, SpeedMeter
from benchmarks.e2e.stats import quantile

#: The seed ``repro-bench`` pins for its scalability ladder.
POPULATION_SEED = 7
#: Simulated seconds after arrivals stop (``Scenario.run``'s default).
DRAIN = 30.0
#: If tasks are still open after the drain, run on in steps of this
#: many simulated seconds (inside the measured window), at most this
#: many times, before calling a task lost.  Under churn a task admitted at the very end of the
#: window can be repaired more than once before it finishes or fails.
DRAIN_SLICE = 10.0
MAX_EXTRA_SLICES = 12


@dataclass(frozen=True)
class SimWorkload:
    n_peers: int
    max_peers: int  # RMConfig.max_peers: domain size
    rate_per_peer: float  # tasks per simulated second per peer
    warmup: float  # simulated seconds before the window opens
    #: Simulated seconds of arrivals that, with the drain, take about
    #: REFERENCE_WINDOW_S host seconds on the 2-core sandbox.
    duration: float
    churn: Optional[Tuple[float, float]] = None  # (lifetime, offtime)

    def config(self) -> ScenarioConfig:
        n = self.n_peers
        return ScenarioConfig(
            seed=POPULATION_SEED,
            population=PopulationConfig(
                n_peers=n, n_objects=max(6, n // 2), replication=3,
            ),
            workload=WorkloadConfig(rate=self.rate_per_peer * n),
            rm=RMConfig(max_peers=self.max_peers),
            churn=(
                ChurnConfig(
                    mean_lifetime=self.churn[0], mean_offtime=self.churn[1],
                ) if self.churn else None
            ),
        )


class SeededArrivals(TaskArrivalProcess):
    """Poisson arrivals conditioned on their count.

    Given that a Poisson process puts *k* arrivals in a window, their
    times are *k* independent uniform draws, sorted.  Drawing them that
    way with ``k = rate x length`` keeps the burstiness of the ladder's
    arrival process while every seed submits the same number of tasks,
    so per-task and per-second figures do not inherit the +-3 % count
    noise of a free-running Poisson stream.
    """

    def __init__(
        self, overlay: Any, catalog: Any, objects: Any,
        config: Optional[WorkloadConfig] = None, rng: Any = None,
        *, seed: int, windows: List[Tuple[float, float]],
    ) -> None:
        # *rng* is the scenario's own arrival stream; the benchmark
        # replaces it so that --seed alone decides the users' choices.
        times_seq, picks_seq = np.random.SeedSequence(seed).spawn(2)
        super().__init__(
            overlay, catalog, objects, config=config,
            rng=np.random.default_rng(picks_seq),
        )
        times_rng = np.random.default_rng(times_seq)
        schedule: List[float] = []
        for start, length in windows:
            count = round(self.config.rate * length)
            schedule.extend(
                start + np.sort(times_rng.uniform(0.0, length, count))
            )
        self._schedule = iter(schedule)

    def _next_gap(self, now: float) -> float:
        return max(0.0, next(self._schedule, math.inf) - now)


@contextlib.contextmanager
def _kernel_in_slices(
    env: Any, slice_sim_s: float, meter: SpeedMeter, spent: Interval,
    profile: Any = None,
) -> Iterator[None]:
    """While active, every ``env.run(until=...)`` — those ``Scenario.run``
    makes included — enters the kernel in slices of *slice_sim_s*
    simulated seconds with a calibration burst between them, and adds
    the slices' host time to *spent*.

    The events processed and their order are those of one uncut call;
    *profile* is on only while the kernel runs.
    """
    run = env.run

    def run_sliced(until: float) -> None:
        while env.now < until:
            with meter.slice(spent, profile):
                run(until=min(until, env.now + slice_sim_s))

    env.run = run_sliced  # shadows the method on this instance only
    try:
        yield
    finally:
        del env.run


def run_repetition(
    workload: SimWorkload, seed: int, window_s: float, profile: Any = None
) -> Repetition:
    """Build, warm up, then measure ``Scenario.run(duration, DRAIN)``
    sized to *window_s* host seconds.

    *profile*, when given, is a ``cProfile.Profile`` switched on for
    the measured window only.
    """
    duration = workload.duration * window_s / REFERENCE_WINDOW_S
    slice_sim_s = (duration + DRAIN) * SLICE_S / window_s
    arrivals = functools.partial(
        SeededArrivals, seed=seed,
        windows=[(0.0, workload.warmup), (workload.warmup, duration)],
    )
    meter = SpeedMeter()
    t0 = perf_counter()
    scenario = build_scenario(workload.config(), workload_cls=arrivals)
    build_s = (perf_counter() - t0) * meter.factor()
    env, metrics, net = scenario.env, scenario.metrics, scenario.network.stats
    warmup = Interval()
    with _kernel_in_slices(env, slice_sim_s, meter, warmup):
        env.run(until=workload.warmup)
    measured_from = perf_counter()

    def totals() -> Tuple[float, ...]:
        churn = scenario.churn
        return (
            env.n_processed, net.sent, net.bytes_sent,
            scenario.workload.n_submit_failures,
            churn.departures if churn else 0, churn.rejoins if churn else 0,
        )

    first_event = len(metrics.events)
    before = totals()

    def window_tasks() -> List[Any]:
        return [
            metrics.tasks[task_id]
            for _, task_id, event in metrics.events[first_event:]
            if event == "submitted"
        ]

    window = Interval()
    with _kernel_in_slices(env, slice_sim_s, meter, window, profile):
        scenario.run(duration, drain=DRAIN)
        for _ in range(MAX_EXTRA_SLICES):
            if all(t.outcome is not None for t in window_tasks()):
                break
            env.run(until=env.now + DRAIN_SLICE)

    events, messages, net_bytes, lost_submits, departures, rejoins = (
        after - start for after, start in zip(totals(), before)
    )
    tasks = window_tasks()
    outcomes = Counter(t.outcome for t in tasks)
    done = [
        t.response_time for t in tasks
        if t.outcome in (TaskOutcome.MET_DEADLINE, TaskOutcome.MISSED_DEADLINE)
    ]
    window_events = Counter(ev for _, _, ev in metrics.events[first_event:])
    # Conservation is checked over the whole run: after the drain
    # nothing may be in flight, whichever window it was submitted in.
    submitted = [tid for _, tid, ev in metrics.events if ev == "submitted"]
    problems = conservation_problems(metrics.events, submitted)
    seen, generated = len(submitted), scenario.workload.n_generated
    if not seen <= generated <= seen + scenario.workload.n_submit_failures:
        problems.append(
            f"{generated} tasks generated but {seen} reached an RM and "
            f"{scenario.workload.n_submit_failures} submissions were lost"
        )
    counts = {
        **dict.fromkeys(COUNT_KEYS, 0),  # no datagrams in the simulator
        "events": events,
        "messages": messages,
        "bytes": net_bytes,
        "admitted": window_events["admitted"],
        "redirected": window_events["redirected"],
        "rejected": outcomes[TaskOutcome.REJECTED],
        "repaired": window_events["repaired"],
        "completed": len(done),
        "missed": outcomes[TaskOutcome.MISSED_DEADLINE],
        "failed": outcomes[TaskOutcome.FAILED],
        "lost_submits": lost_submits,
        "departures": departures,
        "rejoins": rejoins,
        "domains": scenario.overlay.n_domains,
    }
    return Repetition(
        build_s=build_s,
        warmup_s=warmup.wall_s,
        measured_from=measured_from,
        wall_s=window.wall_s,
        cpu_s=window.cpu_s,
        raw_wall_s=window.raw_wall_s,
        host_speed=meter.mean_factor(),
        attempted=len(tasks) + lost_submits,
        terminal=sum(1 for t in tasks if t.outcome is not None),
        ok=outcomes[TaskOutcome.MET_DEADLINE],
        events=events,
        latencies_s=done,
        counts=counts,
        fingerprint=(
            events, messages, len(tasks), lost_submits,
            tuple(sorted((o.value, n) for o, n in outcomes.items() if o)),
            quantile(done, 0.5), quantile(done, 0.9),
        ),
        problems=problems,
    )
