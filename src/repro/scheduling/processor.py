"""The processor model: a preemptive CPU executing jobs under a policy.

A processor with *power* ``P`` executes ``P`` work units per simulated
second.  It is work-conserving: whenever the ready set is non-empty the
policy's minimum-key job runs.  Preemption points are job arrival, job
completion, cancellation, and — for time-varying policies such as LLS —
the expiry of a re-evaluation *quantum*.

Accounting maintained for the Profiler:

* cumulative ``busy_time`` (integrates utilization),
* ``queue_work`` (remaining work across ready jobs),
* completed / deadline-missed / cancelled job counts, overall and per
  QoS class.
"""

from __future__ import annotations

import math
from typing import Any, Generator, List, Optional

from repro import telemetry
from repro.scheduling.job import Job
from repro.scheduling.policies import SchedulingPolicy
from repro.sim.core import Environment
from repro.sim.events import Event, Interrupt

#: Remaining-work epsilon below which a job counts as complete.
_EPS = 1e-9


def qos_class(importance: float) -> str:
    """Bucket a job's importance weight into a QoS class label."""
    if importance >= 2.0:
        return "high"
    if importance >= 1.0:
        return "normal"
    return "low"


def _resolve(job: Job) -> None:
    """Succeed *job*'s done event with the job, once, and drop it from
    the job: the event holds the job, so keeping both is a cycle."""
    done = job.done
    if done is not None:
        job.done = None
        done.succeed(job)


class Processor:
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
