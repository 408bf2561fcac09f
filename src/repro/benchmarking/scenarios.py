"""The micro benchmarks behind ``repro-bench``.

Each one isolates a hot path — the event kernel, network send, mailbox
traffic, the periodic plane and the RM's allocation search; for the
live runtime, a loopback UDP round trip and the clock pump — so that a
change seen end to end (``python3 -m benchmarks.e2e``, the judge) can
be attributed to a layer.  The simulated micros are deterministic:
fixed seeds, no wall-clock dependence inside the simulated world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass
class BenchSpec:
    """One registered benchmark: how to build it and how to scale it."""

    name: str
    make: Callable[..., Callable[[], Dict[str, Any]]]
    params: Dict[str, Any] = field(default_factory=dict)
    #: Parameter overrides applied in ``--quick`` mode (CI smoke).
    quick_params: Dict[str, Any] = field(default_factory=dict)

    def effective_params(self, quick: bool = False) -> Dict[str, Any]:
        params = dict(self.params)
        if quick:
            params.update(self.quick_params)
        return params


def _micro_kernel(n_timeouts: int) -> Callable:
    """Raw event-kernel throughput: one process draining timeouts."""

    def fn() -> Dict[str, Any]:
        from repro.sim import Environment

        env = Environment()

        def ticker():
            for _ in range(n_timeouts):
                yield env.timeout(1.0)

        env.process(ticker())
        env.run()
        return {"events": env.n_processed, "metrics": {}}

    return fn


def _micro_net_send(n_messages: int) -> Callable:
    """Fabric send/deliver path between two nodes (FIFO, stats, mailbox)."""

    def fn() -> Dict[str, Any]:
        from repro.net import ConstantLatency, NetNode, Network
        from repro.sim import Environment

        env = Environment()
        net = Network(env, ConstantLatency(0.001), bandwidth=1e9)
        a = NetNode(env, net, "a")
        b = NetNode(env, net, "b")
        got = []
        b.on("m", lambda msg: got.append(1))
        for i in range(n_messages):
            a.send("m", "b", {"i": i})
        env.run()
        assert len(got) == n_messages
        return {
            "events": env.n_processed,
            "metrics": {"delivered": net.stats.delivered},
        }

    return fn


def _micro_mailbox(n_items: int) -> Callable:
    """Store put/get ping-pong (the mailbox primitive under every node)."""

    def fn() -> Dict[str, Any]:
        from repro.sim import Environment
        from repro.sim.resources import Store

        env = Environment()
        store = Store(env)
        taken = []

        def producer():
            for i in range(n_items):
                store.put(i)
                yield env.timeout(0.0)

        def consumer():
            for _ in range(n_items):
                item = yield store.get()
                taken.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert len(taken) == n_items
        return {"events": env.n_processed, "metrics": {}}

    return fn


def _micro_periodic_timers(n_peers: int, sim_seconds: float) -> Callable:
    """The periodic plane alone: per peer, a 0.5 s sampler and a 2 s
    reporter ``Timer`` (the Profiler's two periods) with EWMA-sized
    bodies, run for *sim_seconds*.  ``events_per_sec`` counts the timers'
    start events too; ``ticks`` is the body calls alone."""

    def fn() -> Dict[str, Any]:
        from repro.sim import Environment

        env = Environment()
        ticks = [0]
        for _ in range(n_peers):
            state = [0.0, 0.0]

            def sample(state=state) -> None:
                state[0] += 0.4 * (env.now - state[0])
                ticks[0] += 1

            def report(state=state) -> None:
                state[1] = state[0]
                ticks[0] += 1

            env.every(0.5, sample)
            env.every(2.0, report)
        env.run(until=sim_seconds)
        return {"events": env.n_processed, "metrics": {"ticks": ticks[0]}}

    return fn


def _micro_udp_roundtrip(n_messages: int, window: int = 64) -> Callable:
    """Two ``UdpTransport``s on loopback: *n_messages* sent and acked.

    The work unit is messages, so ``events_per_sec`` reads msgs/s
    (encode, sendto, decode, ack, timer arm + cancel — per message).
    Sent *window* at a time so the socket buffer never overflows.
    """

    def fn() -> Dict[str, Any]:
        import asyncio

        from repro.net.message import Message
        from repro.runtime.transport import PeerDirectory, UdpTransport

        async def main() -> Dict[str, Any]:
            directory = PeerDirectory()
            got: List[Message] = []
            a = UdpTransport("a", directory, lambda msg: None)
            b = UdpTransport("b", directory, got.append)
            await a.start()
            await b.start()
            try:
                for base in range(0, n_messages, window):
                    for i in range(base, min(base + window, n_messages)):
                        a.send(Message(kind="stream", src="a", dst="b",
                                       payload={"seq": i}, size=64.0,
                                       msg_id=next(a.ids.msg)))
                    await a.flush(timeout=10.0)
            finally:
                await a.aclose()
                await b.aclose()
            assert len(got) == n_messages and a.stats.dropped == 0
            return {
                "events": n_messages,
                "metrics": {"retransmits": a.retransmits,
                            "acks": b.acks_sent},
            }

        return asyncio.run(main())

    return fn


def _micro_pump_tick(n_timeouts: int) -> Callable:
    """One ``SimClockPump`` draining *n_timeouts* already-due timeouts
    (``micro_event_kernel`` seen through the live runtime's pump)."""

    def fn() -> Dict[str, Any]:
        import asyncio

        from repro.runtime.node import SimClockPump
        from repro.sim import Environment

        async def main() -> Dict[str, Any]:
            env = Environment()

            def ticker():
                for _ in range(n_timeouts):
                    yield env.timeout(0.0)

            pump = SimClockPump(env)
            done = pump.run_process(ticker())
            running = asyncio.ensure_future(pump.run())
            await done
            pump.stop()
            await running
            return {"events": env.n_processed, "metrics": {}}

        return asyncio.run(main())

    return fn


def _micro_allocate(n_allocations: int, warmup: float = 20.0) -> Callable:
    """``Allocator.allocate`` (Fig-3 search + estimate + fairness) on
    the largest domain — 64 peers — of the ``sim_dense`` population of
    ``benchmarks/e2e``, frozen after *warmup* simulated seconds of its
    load.  The work unit is allocations, feasible or not, so
    ``events_per_sec`` reads allocations/s.  The domain is built here,
    outside the timed ``fn``.
    """
    from repro.common.errors import NoFeasibleAllocation
    from repro.core.manager import RMConfig
    from repro.tasks.qos import QoSRequirements
    from repro.tasks.task import ApplicationTask
    from repro.workloads import (
        PopulationConfig,
        ScenarioConfig,
        WorkloadConfig,
        build_scenario,
    )

    scenario = build_scenario(ScenarioConfig(
        seed=7,
        population=PopulationConfig(
            n_peers=256, n_objects=128, replication=3,
        ),
        workload=WorkloadConfig(rate=0.08 * 256),
        rm=RMConfig(max_peers=64),
    ))
    scenario.env.run(until=warmup)
    now = scenario.env.now
    rm = max(scenario.overlay.rms(), key=lambda r: r.info.n_peers)
    info = rm.info
    peer_ids = list(info.peers)
    requests = []
    # One request per (object held in the domain, reachable goal), as
    # admission would place it: least-loaded holder as the source.
    for obj in rm.object_catalog.values():
        holders = info.peers_with_object(obj.name)
        if not holders:
            continue
        source = min(holders, key=lambda pid: info.effective_load(pid, now))
        deadline = scenario.workload.nominal_deadline(obj)
        for goal in scenario.catalog.reachable_from(obj.fmt, max_hops=3):
            n = len(requests)
            task = ApplicationTask(
                name=obj.name, qos=QoSRequirements(deadline=deadline),
                initial_state=obj.fmt, goal_state=goal,
                origin_peer=peer_ids[n % len(peer_ids)],
                task_id=f"micro{n}", submitted_at=now,
            )
            requests.append((task, dict(
                v_init=obj.fmt, v_sol=goal, source_peer=source,
                sink_peer=task.origin_peer, in_bytes=obj.size_bytes,
                now=now,
                work_scale=obj.duration_s / rm.rm_config.canonical_duration,
            )))

    def fn() -> Dict[str, Any]:
        allocate = rm.allocator.allocate
        net = rm.network
        placed = examined = 0
        for i in range(n_allocations):
            task, kwargs = requests[i % len(requests)]
            try:
                examined += allocate(info, net, task, **kwargs).n_examined
                placed += 1
            except NoFeasibleAllocation:
                pass
        return {
            "events": n_allocations,
            "metrics": {
                "domain_peers": len(peer_ids),
                "requests": len(requests),
                "placed": placed,
                "paths_examined": examined,
            },
        }

    return fn


#: The registry, in execution order.
BENCHES: List[BenchSpec] = [
    BenchSpec(
        name="micro_event_kernel", make=_micro_kernel,
        params={"n_timeouts": 200_000},
        quick_params={"n_timeouts": 50_000},
    ),
    BenchSpec(
        name="micro_net_send", make=_micro_net_send,
        params={"n_messages": 30_000},
        quick_params={"n_messages": 8_000},
    ),
    BenchSpec(
        name="micro_mailbox", make=_micro_mailbox,
        params={"n_items": 50_000},
        quick_params={"n_items": 15_000},
    ),
    BenchSpec(
        name="micro_periodic_timers", make=_micro_periodic_timers,
        params={"n_peers": 2500, "sim_seconds": 20.0},
        quick_params={"sim_seconds": 5.0},
    ),
    # Live-layer micros: loopback timing.
    BenchSpec(
        name="micro_udp_roundtrip", make=_micro_udp_roundtrip,
        params={"n_messages": 20_000},
        quick_params={"n_messages": 4_000},
    ),
    BenchSpec(
        name="micro_pump_tick", make=_micro_pump_tick,
        params={"n_timeouts": 200_000},
        quick_params={"n_timeouts": 50_000},
    ),
    BenchSpec(
        name="micro_allocate", make=_micro_allocate,
        params={"n_allocations": 8_000},
        quick_params={"n_allocations": 2_000},
    ),
]


def select(only: Optional[List[str]] = None) -> List[BenchSpec]:
    """The benchmarks a run should execute, in registry order."""
    if not only:
        return list(BENCHES)
    known = {s.name for s in BENCHES}
    unknown = [n for n in only if n not in known]
    if unknown:
        raise KeyError(
            f"unknown benchmark(s): {', '.join(unknown)} (see --list)"
        )
    wanted = set(only)
    return [s for s in BENCHES if s.name in wanted]
