"""The LLS processor on callbacks against the process it replaced.

``Processor`` runs as a callback state machine: a slice end and a wake
are events carrying a wait number, and the race between them runs in
place when nothing orders first.  The reference below is the processor
as it was before, kept verbatim: a generator process racing a
``Timeout`` against a wake ``Event`` through an ``AnyOf`` every slice.
Random job sets for LLS, EDF, SJF and non-preemptive FIFO (several
quanta and powers, releases on a grid that collides with slice ends)
are submitted and cancelled from processes, timers and plain callbacks,
one or two processors are stopped mid-slice, idle or right after a
kick, and the runs are driven through ``run(until=...)`` slices or
``step()``, with and without a profile hook.  Every job's times,
preemptions and remaining-work bits, the accounting, the order jobs
leave the CPU, the event count, the seq counter and the hook's call
count must be the same.
"""

from __future__ import annotations

import math
import struct
from typing import Any, Generator, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.scheduling import Job, Processor, make_policy
from repro.scheduling.policies import SchedulingPolicy
from repro.scheduling.processor import _EPS, _resolve, qos_class
from repro.sim import Environment
from repro.sim.events import Event, Interrupt


# -- the reference: the processor as a generator process, verbatim -------------
class OracleProcessor:
    """A single peer's CPU.

    Parameters
    ----------
    env:
        Simulation environment.
    peer_id:
        Owning peer (for traces).
    power:
        Work units per second (heterogeneous across peers).
    policy:
        Scheduling policy instance.
    quantum:
        Re-evaluation period for time-varying policies; ``None`` derives
        a default (only used when the policy declares
        ``time_varying=True``).
    """

    def __init__(
        self,
        env: Environment,
        peer_id: str,
        power: float,
        policy: SchedulingPolicy,
        quantum: Optional[float] = None,
    ) -> None:
        if power <= 0:
            raise ValueError(f"power must be positive, got {power}")
        if quantum is not None and quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.env = env
        self.peer_id = peer_id
        self.power = float(power)
        self.policy = policy
        self.quantum = quantum if quantum is not None else 0.1

        self.ready: List[Job] = []
        self.running: Optional[Job] = None
        self._slice_started: Optional[float] = None
        self._wake: Optional[Event] = None
        self._stopped = False

        # accounting
        self.busy_time = 0.0
        self.n_completed = 0
        self.n_missed = 0
        self.n_cancelled = 0
        # Per-QoS-class tallies for the health sampler's miss-ratio
        # series.  Plain dict bumps: always on, trajectory-neutral.
        self.completed_by_class: dict = {}
        self.missed_by_class: dict = {}

        self._proc = env.process(self._run(), name=f"cpu:{peer_id}")

    # -- public API ------------------------------------------------------------
    def submit(self, job: Job) -> Event:
        """Queue *job*; returns an event fired when the job leaves the CPU.

        The event *succeeds with the job* both on completion and on
        cancellation — check ``job.cancelled`` (cancellation must not
        crash sessions that already gave up waiting, so it is a value,
        not an exception).
        """
        if self._stopped:
            raise RuntimeError(f"processor {self.peer_id} is stopped")
        job.done = Event(self.env)
        self.ready.append(job)
        tel = telemetry.current()
        if tel.enabled:
            tel.metrics.gauge(
                "repro_sched_queue_depth", peer=self.peer_id
            ).set(self.queue_length)
        self._kick()
        return job.done

    def cancel(self, job: Job, reason: str = "") -> None:
        """Withdraw a queued or running job."""
        if job.cancelled or job.completed_at is not None:
            return
        job.cancelled = True
        self.n_cancelled += 1
        if job in self.ready:
            self.ready.remove(job)
            _resolve(job)
        elif job is self.running:
            # The run loop observes the flag at the next preemption point;
            # force one now.
            self._kick()

    def stop(self) -> None:
        """Halt the processor permanently (peer departure)."""
        if self._stopped:
            return
        self._stopped = True
        running = self.running
        for job in list(self.ready):
            self.cancel(job)
        if running is not None:
            self.cancel(running)
        if self._proc.is_alive:
            self._proc.interrupt("stop")
        # The interrupt may beat the preemption wake-up, in which case the
        # run loop never observes the cancelled running job: resolve its
        # completion event here so no session waits forever.
        if running is not None:
            _resolve(running)

    # -- load inspection ---------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Jobs waiting or running."""
        return len(self.ready) + (1 if self.running is not None else 0)

    def queue_work(self) -> float:
        """Remaining work across all queued and running jobs."""
        total = sum(j.remaining for j in self.ready)
        job, start = self.running, self._slice_started
        if job is not None:
            # Less what the slice in progress has done of it.
            done = 0.0 if start is None else (self.env.now - start) * self.power
            total += max(0.0, job.remaining - done)
        return total

    def busy_time_now(self) -> float:
        """Cumulative busy time including the in-progress slice."""
        if self.running is not None and self._slice_started is not None:
            return self.busy_time + (self.env.now - self._slice_started)
        return self.busy_time

    # -- internals ------------------------------------------------------------
    def _kick(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def _select(self) -> Job:
        now = self.env.now
        return min(
            self.ready, key=lambda j: self.policy.key(j, now, self.power)
        )

    def _run(self) -> Generator[Event, Any, None]:
        env = self.env
        # power/policy/quantum are set only in __init__ — hoist them
        # (and the derived flags) out of the dispatch loop.
        power = self.power
        ready = self.ready
        timeout_at = env.timeout
        preempt_allowed = self.policy.preemptive
        slice_capped = preempt_allowed and self.policy.time_varying
        quantum = self.quantum
        try:
            while True:
                if not ready:
                    self._wake = Event(env)
                    yield self._wake
                    self._wake = None
                    continue

                job = self._select()
                ready.remove(job)
                self.running = job
                if job.started_at is None:
                    job.started_at = env.now
                    tel = telemetry.current()
                    if tel.enabled and math.isfinite(job.abs_deadline):
                        # Slack the job still has when it first reaches the
                        # CPU — the quantity LLS schedules on.
                        tel.metrics.histogram(
                            "repro_sched_dispatch_laxity_seconds"
                        ).observe(job.laxity(env.now, power))
                else:
                    job.preemptions += 1

                slice_len = job.remaining / power
                if slice_capped and quantum < slice_len:
                    slice_len = quantum

                self._slice_started = env.now
                self._wake = Event(env) if preempt_allowed else None
                timeout = timeout_at(slice_len)
                if self._wake is not None:
                    yield timeout | self._wake
                else:
                    yield timeout
                elapsed = env.now - self._slice_started
                self._slice_started = None
                self._wake = None
                self.busy_time += elapsed
                job.remaining = max(0.0, job.remaining - elapsed * power)
                self.running = None

                if job.cancelled:
                    _resolve(job)
                    continue
                if job.remaining <= _EPS * max(1.0, job.work):
                    job.remaining = 0.0
                    job.completed_at = env.now
                    self.n_completed += 1
                    cls = qos_class(job.importance)
                    self.completed_by_class[cls] = (
                        self.completed_by_class.get(cls, 0) + 1
                    )
                    if not job.met_deadline:
                        self.n_missed += 1
                        self.missed_by_class[cls] = (
                            self.missed_by_class.get(cls, 0) + 1
                        )
                    tel = telemetry.current()
                    if tel.enabled:
                        tel.metrics.counter(
                            "repro_sched_jobs_completed_total", qos=cls
                        ).inc()
                        if not job.met_deadline:
                            tel.metrics.counter(
                                "repro_sched_jobs_missed_total", qos=cls
                            ).inc()
                            # Flight-recorder trigger: miss bursts.
                            tel.tracer.event(
                                "job.missed", node=self.peer_id,
                                task=job.task_id, qos=cls,
                            )
                        tel.metrics.gauge(
                            "repro_sched_queue_depth", peer=self.peer_id
                        ).set(self.queue_length)
                    _resolve(job)
                else:
                    # Preempted (arrival or quantum expiry): back to ready.
                    self.ready.append(job)
        except Interrupt:
            return

    def __repr__(self) -> str:
        return (
            f"<Processor {self.peer_id} power={self.power:g} "
            f"policy={self.policy.name} q={self.queue_length}>"
        )


# -- random runs ---------------------------------------------------------------
#: Multiples of 1/8 collide with the ends of slices of 1/8-multiple work
#: and quanta; 0.1 and 0.3 put an action on an instant of its own.
TIMES = [0.0, 0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0, 0.1, 0.3]
END = 4.0
WHO = ["call", "process", "timer"]

cpus = st.lists(
    st.tuples(
        st.sampled_from(["LLS", "LLS", "EDF", "SJF", "FIFO"]),
        st.sampled_from([None, 0.125, 0.25, 0.1]),
        st.sampled_from([1.0, 2.0, 0.5]),
    ),
    min_size=1, max_size=2,
)

runs = st.fixed_dictionaries({
    "cpus": cpus,
    # (cpu, release, work, deadline slack, who submits, resubmit when done)
    "jobs": st.lists(
        st.tuples(
            st.integers(0, 1), st.sampled_from(TIMES),
            st.sampled_from([0.125, 0.25, 0.375, 0.1, 0.3]),
            st.sampled_from([0.0, 0.125, 0.5, 2.0, math.inf]),
            st.sampled_from(WHO), st.booleans(),
        ),
        min_size=1, max_size=12,
    ),
    # (job index, time, who cancels)
    "cancels": st.lists(
        st.tuples(st.integers(0, 11), st.sampled_from(TIMES + [0.0625, 0.2]),
                  st.sampled_from(WHO)),
        max_size=4,
    ),
    # (cpu, time, who stops, submit a job first in the same callback)
    "stops": st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from(TIMES + [0.2, 0.625]),
                  st.sampled_from(WHO), st.booleans()),
        max_size=2,
    ),
    "stride": st.sampled_from([None, 1, 7]),
})

drivers = st.one_of(
    st.tuples(
        st.just("run"),
        st.lists(st.sampled_from([0.0, 0.125, 0.2, 0.25, 0.5, 1.0, 2.0]),
                 max_size=4).map(sorted),
    ),
    st.tuples(st.just("step"), st.just([])),
)


def _bits(x: Optional[float]) -> str:
    return "-" if x is None else struct.pack("<d", x).hex()


def simulate(cpu_cls, spec: dict, driver) -> tuple:
    """Run *spec* on processors of *cpu_cls*; return what left each CPU
    and when, every job's and CPU's final state, and the event count,
    seq and hook calls after every driver call."""
    env = Environment()
    hooked = [0]
    if spec["stride"] is not None:
        env.set_profile_hook(
            lambda _ev, _cbs: hooked.__setitem__(0, hooked[0] + 1),
            spec["stride"])
    procs = [cpu_cls(env, f"p{i}", power, make_policy(policy), quantum)
             for i, (policy, quantum, power) in enumerate(spec["cpus"])]
    jobs: List[tuple] = []  # (job, its processor) in submit order
    log: list = []

    def at(t: float, who: str, act) -> None:
        """Do *act* at *t*, from a plain callback, a process or a timer."""
        if who == "call":
            if t == 0.0:
                act()  # before any processor has started
            else:
                env.timeout(t).callbacks.append(lambda _ev: act())
        elif who == "process":
            def proc() -> Generator[Event, Any, None]:
                yield env.timeout(t)
                act()

            env.process(proc())
        else:
            def body() -> None:
                timer.cancel()
                act()

            timer = env.every(t, body)

    def submit(k: int, c: int, work: float, slack: float, again: bool) -> None:
        cpu = procs[c % len(procs)]
        if cpu._stopped:
            log.append((env.now, "refused", k))
            return
        now = env.now
        job = Job(work=work, release=now, abs_deadline=now + slack,
                  job_id=100 + k)
        jobs.append((job, cpu))

        def left(_ev: Event) -> None:
            log.append((env.now, "left", k, job.cancelled))
            if again and not job.cancelled:
                submit(k + 1000, c, work, slack, False)

        cpu.submit(job).callbacks.append(left)

    def cancel(k: int) -> None:
        if k < len(jobs):
            job, cpu = jobs[k]
            cpu.cancel(job)

    def stop(c: int, kick_first: bool) -> None:
        cpu = procs[c % len(procs)]
        if kick_first and not cpu._stopped:
            submit(2000 + c, c, 0.125, 1.0, False)
        log.append((env.now, "stop", c))
        cpu.stop()

    for k, (c, t, work, slack, who, again) in enumerate(spec["jobs"]):
        at(t, who, lambda k=k, c=c, w=work, s=slack, a=again:
           submit(k, c, w, s, a))
    for k, t, who in spec["cancels"]:
        at(t, who, lambda k=k: cancel(k))
    for c, t, who, kick_first in spec["stops"]:
        at(t, who, lambda c=c, f=kick_first: stop(c, f))

    counts = []
    mode, ends = driver
    if mode == "run":
        for until in [*ends, END]:
            env.run(until=until)
            counts.append((until, env.n_processed, env._seq, hooked[0],
                           len(log)))
    else:
        while env.peek() <= END:
            env.step()
    env.run(until=END + 10.0)  # what the stops left behind still fires
    counts.append((env.n_processed, env._seq, hooked[0], len(log)))
    stopped_at: dict = {}
    for entry in log:
        if entry[1] == "stop":
            stopped_at.setdefault(entry[2] % len(procs), entry[0])
    state = [
        (job.job_id, _bits(job.started_at), _bits(job.completed_at),
         job.preemptions, _bits(job.remaining), job.cancelled)
        for job, _ in jobs
    ] + [_cpu_state(cpu, stopped_at.get(i)) for i, cpu in enumerate(procs)]
    return log, state, counts


def _cpu_state(cpu, stopped_at: Optional[float]) -> tuple:
    """A CPU's final accounting.  The oracle keeps the slice it was
    stopped in running for good, so its busy time grows with the clock
    and never books that slice; the processor books it at the stop and
    clears it.  Such an oracle CPU is read as if it had done the same."""
    busy, busy_now = cpu.busy_time, cpu.busy_time_now()
    work, length = cpu.queue_work(), cpu.queue_length
    if cpu._stopped and cpu.running is not None:
        busy = busy_now = busy + (stopped_at - cpu._slice_started)
        work, length = 0, len(cpu.ready)
    return (_bits(busy), _bits(busy_now), _bits(work), length,
            cpu.n_completed, cpu.n_missed, cpu.n_cancelled,
            cpu.completed_by_class, cpu.missed_by_class)


@settings(max_examples=400, deadline=None)
@given(spec=runs, driver=drivers)
def test_callback_processor_matches_the_process(spec, driver):
    expected = simulate(OracleProcessor, spec, driver)
    got = simulate(Processor, spec, driver)
    assert got[0] == expected[0]
    assert got[1] == expected[1]
    assert got[2] == expected[2]


def _spec(cpus, jobs, cancels=(), stops=(), stride=None) -> dict:
    return {"cpus": list(cpus), "jobs": list(jobs), "cancels": list(cancels),
            "stops": list(stops), "stride": stride}


#: The orders the old loop produced that a state machine could miss.
TRAPS = {
    # The process's timeout at 0.125 orders after the slice end but
    # before the race, so the race goes through the heap and the
    # submit's kick lands before the resume: a counted, stale wake.
    "kick between the race and its resume": _spec(
        [("LLS", 0.125, 1.0)],
        [(0, 0.0, 0.375, 2.0, "call", False),
         (0, 0.125, 0.125, 2.0, "process", False)],
    ),
    # Stopped mid-slice: the slice end still fires and counts the race.
    "a stopped processor still counts the race": _spec(
        [("LLS", 0.125, 1.0)], [(0, 0.0, 0.375, 2.0, "call", False)],
        stops=[(0, 0.0625, "call", False)], stride=1,
    ),
    # The stop's cancel of the running job kicks, then its interrupt
    # (URGENT) beats the wake; the wake then wins the race, dead.
    "stop right after a kick": _spec(
        [("EDF", None, 1.0)], [(0, 0.0, 0.375, 2.0, "call", False)],
        stops=[(0, 0.125, "timer", True)],
    ),
    "a non-preemptive slice ends without a race": _spec(
        [("FIFO", None, 1.0), ("FIFO", 0.125, 2.0)],
        [(0, 0.0, 0.375, 2.0, "call", True),
         (1, 0.125, 0.25, 0.0, "timer", False),
         (0, 0.125, 0.25, 0.5, "process", False)],
        cancels=[(0, 0.25, "call")], stops=[(1, 0.3, "call", False)],
    ),
}


@pytest.mark.parametrize("name", sorted(TRAPS))
@pytest.mark.parametrize("mode", ["run", "step"])
def test_trap(name, mode):
    driver = ("run", [0.125, 0.2]) if mode == "run" else ("step", [])
    spec = TRAPS[name]
    assert simulate(Processor, spec, driver) == simulate(
        OracleProcessor, spec, driver)


def test_a_paced_lls_job_keeps_one_heap_entry():
    """The case the differential test would pass without the in-place
    race: one ``step()`` runs a slice end with its race, and the heap
    never holds more than the next slice end."""
    env = Environment()
    cpu = Processor(env, "p", 1.0, make_policy("LLS"), quantum=0.125)
    job = Job(work=0.5, release=0.0, abs_deadline=1.0)
    cpu.submit(job)
    heap, counted = [], []
    while env._queue:
        env.step()
        heap.append(len(env._queue))
        counted.append(env.n_processed)
    assert job.completed_at == 0.5 and job.preemptions == 3
    # The start, four slices (an end and a race each), the job's done.
    assert heap == [1, 1, 1, 1, 1, 0]
    assert counted == [1, 3, 5, 7, 9, 10]
    assert env._seq == 10
