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
from typing import List, Optional

from repro import telemetry
from repro.scheduling.job import Job
from repro.scheduling.policies import SchedulingPolicy
from repro.sim.core import Environment
from repro.sim.events import URGENT, Event, Initialize

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


class _Due(Event):
    """A processor's kernel event: per wait (a slice, or idle) a slice
    end and a wake (when a kick finds one armed), each carrying the
    wait's number, and for a preemptible slice the race between them;
    or one of ``stop``'s two URGENT events.  Its callbacks are a
    class-wide tuple: the processor never refers to it, so no cycle."""

    __slots__ = ("cpu", "wait")

    def __init__(self, env: Environment, callbacks: tuple, cpu, wait=-1):
        self.env = env
        self.callbacks = callbacks
        self._value = None
        self._ok = True
        self._scheduled = False
        self.cpu = cpu
        self.wait = wait


def _ended(event: _Due) -> None:
    """A slice end or a wake: the first of the two ends the wait."""
    cpu = event.cpu
    if event.wait != cpu._wait:
        return
    cpu._wait += 1
    if cpu._preemptive and (cpu.running is not None or cpu._stopped_slice):
        # The race of a preemptible slice's end and wake: one more event.
        if not cpu.env.claim_next(_Due, _RACED, cpu):
            cpu.env.schedule(_Due(cpu.env, _RACED, cpu))
            return
    if not cpu._stopped:
        cpu._resume()


def _raced(event: _Due) -> None:
    if not event.cpu._stopped:
        event.cpu._resume()


def _interrupted(event: _Due) -> None:
    """``stop``'s interrupt delivery: the run loop's own end follows."""
    event.env.schedule(_Due(event.env, (), None), priority=URGENT)


_ENDED, _RACED, _STOP = (_ended,), (_raced,), (_interrupted,)


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

    It runs on callbacks, with the kernel events of a process looping
    on ``yield timeout | wake`` (see :class:`_Due`).
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
        #: The wait in progress; its slice end or wake bumps it.
        self._wait = 0
        #: The wait a kick wakes (None: no wake armed).
        self._armed: Optional[int] = None
        self._stopped = False
        #: Stopped mid-slice: that slice's end still races its wake.
        self._stopped_slice = False
        self._preemptive = policy.preemptive
        self._cap = (self.quantum if self._preemptive and policy.time_varying
                     else math.inf)  # the longest slice

        # accounting
        self.busy_time = 0.0
        self.n_completed = 0
        self.n_missed = 0
        self.n_cancelled = 0
        # Per-QoS-class tallies for the health sampler's miss-ratio
        # series.  Plain dict bumps: always on, trajectory-neutral.
        self.completed_by_class: dict = {}
        self.missed_by_class: dict = {}

        Initialize(env, lambda _event: self._next())

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
            # The flag is observed at the slice's end: force one now.
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
        self.env.schedule(_Due(self.env, _STOP, self), priority=URGENT)
        # The interrupt beats the wake, so resolve the running job here,
        # and account the partial slice: nothing resumes to do it.
        if running is not None:
            self.busy_time += self.env.now - self._slice_started
            self.running = self._slice_started = None
            self._stopped_slice = True
            _resolve(running)

    # -- load inspection ---------------------------------------------------------
    @property
    def queue_length(self) -> int:
        """Jobs waiting or running."""
        return len(self.ready) + (1 if self.running is not None else 0)

    def queue_work(self) -> float:
        """Remaining work across all queued and running jobs."""
        total = sum(j.remaining for j in self.ready) if self.ready else 0
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
        if self._armed is not None:
            self.env.schedule(_Due(self.env, _ENDED, self, self._armed))
            self._armed = None

    def _next(self) -> None:
        """Start the next wait: a slice of the policy's pick, or idle."""
        ready = self.ready
        if not ready:
            self._armed = self._wait
            return
        now, power, key = self.env._now, self.power, self.policy.key
        job = min(ready, key=lambda j: key(j, now, power))
        ready.remove(job)
        self.running = job
        if job.started_at is None:
            job.started_at = now
            tel = telemetry.current()
            if tel.enabled and math.isfinite(job.abs_deadline):
                # Slack the job still has when it first reaches the
                # CPU — the quantity LLS schedules on.
                tel.metrics.histogram(
                    "repro_sched_dispatch_laxity_seconds"
                ).observe(job.laxity(now, power))
        else:
            job.preemptions += 1
        slice_len = min(job.remaining / power, self._cap)
        self._slice_started = now
        self.env.schedule(_Due(self.env, _ENDED, self, self._wait), slice_len)
        if self._preemptive:
            self._armed = self._wait

    def _resume(self) -> None:
        """Account the slice that ended, if any, and start the next wait."""
        self._armed = None
        job = self.running
        if job is not None:
            now = self.env._now
            elapsed = now - self._slice_started
            self._slice_started = None
            self.busy_time += elapsed
            job.remaining = max(0.0, job.remaining - elapsed * self.power)
            self.running = None
            if job.cancelled:
                _resolve(job)
            elif job.remaining <= _EPS * max(1.0, job.work):
                job.remaining = 0.0
                job.completed_at = now
                self.n_completed += 1
                cls = qos_class(job.importance)
                tally = self.completed_by_class
                tally[cls] = tally.get(cls, 0) + 1
                if not job.met_deadline:
                    self.n_missed += 1
                    tally = self.missed_by_class
                    tally[cls] = tally.get(cls, 0) + 1
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
        self._next()

    def __repr__(self) -> str:
        return (
            f"<Processor {self.peer_id} power={self.power:g} "
            f"policy={self.policy.name} q={self.queue_length}>"
        )
