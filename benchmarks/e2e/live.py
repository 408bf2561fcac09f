"""Adapter for the ``live_*`` workloads: a ``LiveCluster`` on loopback UDP.

The domain is "fig1x4": each Figure-1 peer P1..P4 replicated four times
(16 peers hosting the eight transcoding edges, the ``movie`` source on
the P1 replicas) plus the well-provisioned RM candidate ``M0``.  The
media object lasts 0.05 s, so execution sleeps are sub-millisecond and
the closed loop is bound by CPU — codec, transport, clock pump and RM —
not by timers.  Traffic crosses the host's loopback interface, never a
link.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import random
import zlib
from collections import Counter
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional, Set

from repro.net.node import RPCError
from repro.runtime import LiveCluster, LiveClusterConfig, NodeSpec
from repro.runtime.cluster import fig1_specs

from benchmarks.e2e.checks import TERMINAL_EVENTS, conservation_problems
from benchmarks.e2e.repetition import COUNT_KEYS, Repetition
from benchmarks.e2e.speed import Interval, SpeedMeter

REPLICAS = "abcd"
OBJECT_DURATION_S = 0.05
WARMUP_TASKS = 300
#: Closed loop: one client coroutine per core of the 2-core sandbox.
CLIENTS = 2
#: A closed-loop task not completed this long after submission is lost.
CLOSED_TIMEOUT_S = 5.0
#: Closed loop: tasks between two calibration bursts (~0.1 s of work).
SLICE_TASKS = 40
#: Open loop: how long after it was due a task may complete before it
#: counts as failed, and how often the idle loop calibrates.
OPEN_LIMIT_S = 2.0
CALIBRATE_EVERY_S = 0.1
#: Open loop: a task this long in flight is waiting on a timer — a
#: retransmission backoff, or for ever if it is stranded — so a
#: calibration burst no longer delays it by anything that shows.
WAITING_AFTER_S = 0.1
#: Share of outbound datagrams the loss shim drops, whatever their kind.
LOSS_RATE = 0.05


@dataclass(frozen=True)
class LiveWorkload:
    open_loop: bool
    #: Tasks per second of measured window.  The open loop offers
    #: exactly this rate; for the closed loop it only sizes the fixed
    #: task count (the sandbox sustains 300-400 tasks/s).
    rate: float


def fig1x4_specs(cfg: LiveClusterConfig) -> List[NodeSpec]:
    """The Figure-1 domain with every peer replicated four times."""
    candidate, *peers = fig1_specs(cfg)
    specs = [candidate]
    for spec in peers:
        for r in REPLICAS:
            specs.append(NodeSpec(
                node_id=spec.node_id + r,
                power=spec.power,
                bandwidth=spec.bandwidth,
                uptime=spec.uptime,
                objects=list(spec.objects),
                service_edges=[
                    dict(edge, edge_id=edge["edge_id"] + r)
                    for edge in spec.service_edges
                ],
                profiler_update_period=spec.profiler_update_period,
            ))
    return specs


class LossShim:
    """A ``drop_fn`` whose decisions do not depend on interleaving.

    Whether the *n*-th datagram of kind *k* from *src* to *dst* is lost
    is ``crc32(seed|src|dst|k|n)``, not the next draw of a shared RNG,
    so the same logical messages are lost however the event loop
    happened to order unrelated sends.
    """

    THRESHOLD = int(LOSS_RATE * 2 ** 32)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.armed = False
        self.drops: Counter = Counter()
        self._seen: Counter = Counter()

    def __call__(self, msg: Any, attempt: int) -> bool:
        if not self.armed:
            return False
        key = (msg.src, msg.dst, msg.kind)
        n = self._seen[key]
        self._seen[key] = n + 1
        token = f"{self.seed}|{msg.src}|{msg.dst}|{msg.kind}|{n}"
        lost = zlib.crc32(token.encode()) < self.THRESHOLD
        if lost:
            self.drops[msg.kind] += 1
        return lost


class _Ledger:
    """What the load generator saw, task by task."""

    def __init__(self) -> None:
        self.latencies_s: List[float] = []
        self.lateness_s: List[float] = []
        self.acked: List[str] = []
        self.timed_out: Set[str] = set()
        self.refused = 0  # submit raised, timed out, or was not accepted
        self.attempted = 0
        #: Submission time of every task still in flight.
        self.in_flight: Dict[int, float] = {}

    def busy(self) -> bool:
        """Is any task in flight that is not just waiting on a timer?"""
        now = perf_counter()
        return any(
            now - sent < WAITING_AFTER_S for sent in self.in_flight.values()
        )


async def _one_task(
    cluster: LiveCluster, origin: str, ledger: _Ledger,
    due: Optional[float], limit_s: float,
) -> None:
    """Submit at *origin* and await ``completed``.

    Latency runs from *due* when the task was scheduled (open loop) and
    from just before the submit call otherwise.
    """
    ledger.attempted += 1
    number = ledger.attempted
    ledger.in_flight[number] = sent = perf_counter()
    start = sent if due is None else due
    if due is not None:
        ledger.lateness_s.append(sent - due)
    try:
        try:
            ack = await cluster.submit(origin, timeout=limit_s)
        except (RPCError, asyncio.TimeoutError):
            ledger.refused += 1
            return
        if ack.get("disposition") != "accepted":
            ledger.refused += 1
            return
        task_id = ack["task_id"]
        ledger.acked.append(task_id)
        remaining = start + limit_s - perf_counter()
        try:
            await cluster.wait_task_event(
                task_id, "completed", timeout=max(remaining, 0.001)
            )
        except asyncio.TimeoutError:
            ledger.timed_out.add(task_id)
            return
        ledger.latencies_s.append(perf_counter() - start)
    finally:
        del ledger.in_flight[number]


async def _closed_loop(
    cluster: LiveCluster, origins: List[str], ledger: _Ledger,
    meter: SpeedMeter, spent: Interval, profile: Any = None,
) -> None:
    """Run *origins* through CLIENTS clients, SLICE_TASKS at a time.

    Between slices nothing is in flight, so the calibration burst
    delays no task; the slice's host time and its tasks' latencies are
    scaled by the machine speed measured around it.
    """
    async def client(mine: List[str]) -> None:
        for origin in mine:
            await _one_task(cluster, origin, ledger, None, CLOSED_TIMEOUT_S)

    for k in range(0, len(origins), SLICE_TASKS):
        chunk = origins[k:k + SLICE_TASKS]
        first = len(ledger.latencies_s)
        with meter.slice(spent, profile):
            await asyncio.gather(*(
                client(chunk[i::CLIENTS]) for i in range(CLIENTS)
            ))
        ledger.latencies_s[first:] = [
            latency * spent.last_scale
            for latency in ledger.latencies_s[first:]
        ]


async def _open_loop(
    cluster: LiveCluster, origins: List[str], ledger: _Ledger, rate: float,
    meter: SpeedMeter, spent: Interval, profile: Any = None,
) -> None:
    """Submit on schedule whatever the system does.

    The window's wall time is set by the schedule and a good part of
    the latency tail by the retransmission timers, not by the CPU, so
    neither is scaled.  CPU time is, by the mean speed of the bursts
    taken during the window; bursts run only while no task is busy
    (see WAITING_AFTER_S), so they delay none that is.
    """
    async def calibrate() -> None:
        while True:
            await asyncio.sleep(CALIBRATE_EVERY_S)
            while ledger.busy():
                await asyncio.sleep(0.002)
            if profile is not None:
                profile.disable()
            meter.factor()
            if profile is not None:
                profile.enable()

    # The burst just before the window counts towards its mean speed.
    last_before = len(meter.samples) - 1
    if profile is not None:
        profile.enable()
    cpu0, begin = process_time(), perf_counter()
    calibrator = asyncio.ensure_future(calibrate())
    in_flight = []
    for i, origin in enumerate(origins):
        due = begin + i / rate
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        in_flight.append(asyncio.ensure_future(
            _one_task(cluster, origin, ledger, due, OPEN_LIMIT_S)
        ))
    await asyncio.gather(*in_flight)
    dt, dcpu = perf_counter() - begin, process_time() - cpu0
    if profile is not None:
        profile.disable()
    calibrator.cancel()  # lands on one of its sleeps, never mid-burst
    with contextlib.suppress(asyncio.CancelledError):
        await calibrator
    in_window = meter.samples[last_before + 1:]
    spent.wall_s += dt
    spent.raw_wall_s += dt
    spent.cpu_s += meter.mean_factor(last_before) * (
        dcpu - sum(a + m for _, a, m in in_window)
    )


def _origins(cluster: LiveCluster, rng: random.Random, n: int) -> List[str]:
    # P1 replicas hold the source object; queries come from the others.
    candidates = sorted(
        node_id for node_id in cluster.nodes
        if node_id[:2] in ("P2", "P3", "P4")
    )
    return [rng.choice(candidates) for _ in range(n)]


def _kernel_events(cluster: LiveCluster) -> int:
    return sum(node.env.n_processed for node in cluster.nodes.values())


async def _repetition(
    workload: LiveWorkload, seed: int, window_s: float,
    measure: bool, profile: Any,
) -> Repetition:
    shim = LossShim(seed) if workload.open_loop else None
    cfg = LiveClusterConfig(
        object_duration_s=OBJECT_DURATION_S,
        transport_kwargs={"drop_fn": shim} if shim else {},
    )
    rng = random.Random(seed)
    meter = SpeedMeter()
    t0 = perf_counter()
    cluster = LiveCluster(cfg, specs=fig1x4_specs(cfg))
    try:
        await cluster.start()
        build_s = (perf_counter() - t0) * meter.factor()
        warm, warmup = _Ledger(), Interval()
        await _closed_loop(
            cluster, _origins(cluster, rng, WARMUP_TASKS), warm, meter, warmup
        )
        if len(warm.latencies_s) != WARMUP_TASKS:
            raise RuntimeError(
                f"warm-up completed {len(warm.latencies_s)} of "
                f"{WARMUP_TASKS} tasks"
            )
        rep = Repetition(
            build_s=build_s, warmup_s=warmup.wall_s,
            measured_from=perf_counter(),
            wall_s=0.0, cpu_s=0.0, raw_wall_s=0.0, host_speed=0.0,
            attempted=0, terminal=0, ok=0,
            events=0, latencies_s=[],
        )
        if not measure:
            rep.host_speed = meter.mean_factor()
            return rep

        origins = _origins(cluster, rng, round(workload.rate * window_s))
        ledger, window = _Ledger(), Interval()
        first_event = len(cluster.task_events)
        events0, net0 = _kernel_events(cluster), cluster.aggregate_summary()
        if shim is not None:
            shim.armed = True
            await _open_loop(
                cluster, origins, ledger, workload.rate, meter, window,
                profile,
            )
            shim.armed = False
        else:
            await _closed_loop(
                cluster, origins, ledger, meter, window, profile
            )
        net1 = cluster.aggregate_summary()
        rep.events = _kernel_events(cluster) - events0
        task_events = cluster.task_events[first_event:]
    finally:
        await cluster.stop()

    rep.wall_s, rep.cpu_s = window.wall_s, window.cpu_s
    rep.raw_wall_s = window.raw_wall_s
    rep.host_speed = meter.mean_factor()

    def delta(key: str) -> float:
        return net1[key] - net0[key]

    rep.attempted = ledger.attempted
    rep.terminal = rep.ok = len(ledger.latencies_s)
    rep.latencies_s = ledger.latencies_s
    rep.problems = conservation_problems(
        task_events, ledger.acked, excused=ledger.timed_out
    )
    events = Counter(event for _, _, event in task_events)
    rep.lateness_s = ledger.lateness_s
    rep.counts = {
        **dict.fromkeys(COUNT_KEYS, 0),  # no misses or churn to count
        "events": rep.events,
        "messages": delta("sent"),
        "bytes": delta("bytes_sent"),
        "datagrams": (
            delta("sent") + delta("retransmits") + delta("acks_sent")
        ),
        "delivered": delta("delivered"),
        "retransmits": delta("retransmits"),
        "duplicates": delta("duplicates"),
        "admitted": events["admitted"],
        "redirected": events["redirected"],
        "rejected": events["rejected"],
        "repaired": events["repaired"],
        "completed": events["completed"],
        "failed": events["failed"],
        "refused": ledger.refused,
        "timed_out": len(ledger.timed_out),
        "terminal_events": sum(events[e] for e in TERMINAL_EVENTS),
        "drops": dict(shim.drops) if shim else {},
    }
    return rep


def run_repetition(
    workload: LiveWorkload, seed: int, window_s: float,
    measure: bool = True, profile: Any = None,
) -> Repetition:
    """One fresh cluster: start, warm up, and (if *measure*) a window
    sized to *window_s* host seconds.

    ``measure=False`` times a set-up alone; ``live_lossy`` uses it to
    take ``setup_s`` from three set-ups though it measures one window.
    """
    # A retry storm is the behaviour under test, not something to log.
    logging.disable(logging.CRITICAL)
    try:
        return asyncio.run(
            _repetition(workload, seed, window_s, measure, profile)
        )
    finally:
        logging.disable(logging.NOTSET)

