"""Event primitives for the simulation kernel.

An :class:`Event` goes through three states:

``pending``
    created but not yet triggered; callbacks may be attached.
``triggered``
    a value (or an exception) has been set and the event has been placed
    on the environment's queue; it will fire at its scheduled time.
``processed``
    the environment has popped the event and run its callbacks.

:class:`Process` is itself an event: it fires when the wrapped generator
terminates, carrying the generator's return value (so one process can
``yield`` another to join on it).
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.core import Environment

#: Scheduling priorities. Lower fires first at equal times.
URGENT = 0
NORMAL = 1

_PENDING = object()


class Interrupt(Exception):
    """Raised inside a process that has been :meth:`Process.interrupt`-ed.

    The interrupting party may attach an arbitrary cause, which the
    interrupted process reads as ``args[0]`` to decide how to react
    (e.g. a peer failure notification aborting an in-flight service
    invocation).
    """


class Event:
    """A one-shot occurrence in simulated time.

    Parameters
    ----------
    env:
        The environment this event belongs to.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks run (in attach order) when the event is processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._scheduled: bool = False

    # -- state inspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or exception has been set."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is not yet triggered."""
        if self._value is _PENDING:
            raise RuntimeError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Set the event's value and schedule it at the current time."""
        # Environment.schedule inlined (both guards kept): succeed runs
        # once for nearly every kernel event, so the property dispatch
        # and extra call frame are measurable at scale.
        if self._value is not _PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if self._scheduled:
            raise RuntimeError(f"{self!r} is already scheduled")
        self._ok = True
        self._value = value
        self._scheduled = True
        env = self.env
        _heappush(env._queue, (env._now, NORMAL, env._seq, self))
        env._seq += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Set an exception outcome and schedule the event."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger_from(self, other: "Event") -> None:
        """Copy the outcome of an already-triggered *other* event."""
        if other._value is _PENDING:
            raise RuntimeError(f"{other!r} has not been triggered")
        self._ok = other._ok
        self._value = other._value
        self.env.schedule(self)

    # -- composition -----------------------------------------------------
    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed *delay* of simulated time."""

    __slots__ = ("delay",)

    def __init__(
        self, env: "Environment", delay: float, value: Any = None
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Flattened Event.__init__ + Environment.schedule: timeouts are
        # the most-allocated event type by far (every process loop tick
        # makes one), and a fresh timeout can never be already-scheduled,
        # so the schedule() guard is dead weight here.  Mirror any
        # change to the scheduling invariants in both places.
        self.env = env
        self.callbacks = []
        self.delay = delay = float(delay)
        self._ok = True
        self._value = value
        self._scheduled = True
        _heappush(env._queue, (env._now + delay, NORMAL, env._seq, self))
        env._seq += 1

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Urgent start event: runs *callback* at the current time, ahead of
    every NORMAL event (starts a :class:`Process` or a node's mailbox
    dispatch)."""

    __slots__ = ()

    def __init__(
        self, env: "Environment", callback: Callable[["Event"], None]
    ) -> None:
        super().__init__(env)
        self.callbacks.append(callback)
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Timer(Event):
    """Runs ``body()`` every *delay* units of simulated time until cancelled.

    The process-free form of ``while True: yield env.timeout(d); body()``
    with the same kernel events: one URGENT start event at creation
    (the loop's :class:`Initialize`), then one NORMAL event per tick at
    ``now + delay``.  The next tick is armed after the body returns, so
    whatever the body schedules keeps the loop's sequence order.
    *delay* is a number or a zero-argument callable; a callable is
    re-read before every tick (adaptive periods).

    Ticks due at the same instant share one heap entry.  A tick that is
    armed for exactly the due time of the most recently pushed pending
    tick (``env._tick_head``) takes its seq and joins that head's
    follower list instead of the heap.  The head runs its followers
    after its own tick, in seq order, and pushes the rest back under
    the next follower the moment the heap top orders first (an URGENT
    event a body scheduled, a same-time event with a lower seq) or a
    body raises.  Every tick is still one processed event in its
    ``(time, priority, seq)`` place: a lone tick is a head with no
    followers, and a tick costs no Process, generator, Timeout or
    callbacks list: every tick carries the class-wide ``_TICK`` tuple,
    so a timer holds no reference to itself.  :meth:`cancel` works from
    anywhere, the body included, and drops the body and the period
    callable (a departed peer's timers keep nothing of it alive); a
    tick that is already armed still counts as an event when it comes
    due, without running the body.  An exception from the body
    propagates out of ``run``/``step`` and stops the timer.
    """

    __slots__ = ("body", "delay", "cancelled", "_delay_fn", "_due",
                 "_followers")

    def __init__(
        self,
        env: "Environment",
        delay: "float | Callable[[], float]",
        body: Callable[[], Any],
    ) -> None:
        super().__init__(env)
        self.body = body
        self.cancelled = False
        if callable(delay):
            self._delay_fn = delay
            self.delay = 0.0  # resolved when the first tick is armed
        else:
            self._delay_fn = None
            self.delay = _check_delay(delay)
        self._followers: "list[tuple[int, Timer]] | tuple[()]" = ()
        self.callbacks.append(self._arm)
        self._value = None
        env.schedule(self, priority=URGENT)

    def cancel(self) -> None:
        """Stop ticking; idempotent."""
        self.cancelled = True
        self.body = self._delay_fn = None

    def _tick(self) -> None:
        env = self.env
        if env._tick_head is self:
            env._tick_head = None
        batch, self._followers = self._followers, ()
        n = len(batch)
        i = 0  # followers run, each one processed event
        try:
            if not self.cancelled:
                self.body()
                if not self.cancelled:
                    self._arm()
            queue = env._queue
            t = env._now
            hook = env._profile_hook
            while i < n:
                seq, timer = batch[i]
                if queue and queue[0][0] <= t and queue[0] < (t, NORMAL, seq):
                    break
                i += 1
                if not timer.cancelled:
                    timer.body()
                    head = env._tick_head  # _arm joining it, inline:
                    if (not timer.cancelled and timer._delay_fn is None
                            and head is not None and head._followers
                            and head._due == t + timer.delay):
                        head._followers.append((env._seq, timer))
                        env._seq += 1
                    else:
                        timer._arm()
                if hook is not None:
                    env._profiled(timer, _TICK)
        finally:
            env.n_processed += i
            if i < n:
                seq, timer = batch[i]
                timer._followers = batch[i + 1:]
                timer.callbacks = _TICK
                _heappush(env._queue, (env._now, NORMAL, seq, timer))

    def _arm(self, _event: Optional[Event] = None) -> None:
        if self.cancelled:
            return
        if self._delay_fn is not None:
            self.delay = _check_delay(self._delay_fn())
        env = self.env
        due = env._now + self.delay
        head = env._tick_head
        if head is not None and head._due == due:
            if head._followers:
                head._followers.append((env._seq, self))
            else:
                head._followers = [(env._seq, self)]
        else:
            self._due = due
            self.callbacks = _TICK
            env._tick_head = self
            _heappush(env._queue, (due, NORMAL, env._seq, self))
        env._seq += 1

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else f"every {self.delay}"
        return f"<Timer {getattr(self.body, '__qualname__', '?')} {state}>"


#: Every armed tick's callbacks: called with the popped timer itself.
_TICK = (Timer._tick,)


def _check_delay(delay: float) -> float:
    delay = float(delay)
    if delay < 0:
        raise ValueError(f"negative delay {delay}")
    return delay


class _InterruptDelivery(Event):
    """Internal urgent event delivering an :class:`Interrupt` to a process."""

    __slots__ = ()

    def __init__(
        self, env: "Environment", process: "Process", cause: Any
    ) -> None:
        super().__init__(env)
        self.callbacks.append(process._deliver_interrupt)
        self._ok = False
        self._value = Interrupt(cause)
        env.schedule(self, priority=URGENT)


class Process(Event):
    """A simulation process wrapping a generator.

    The process fires (as an event) when the generator returns; the
    ``StopIteration`` value becomes the event value.  Exceptions escaping
    the generator fail the process event; if nobody is waiting on the
    process, the exception propagates out of :meth:`Environment.run` so
    bugs are never silently swallowed.
    """

    __slots__ = ("generator", "_target", "name", "_send", "_throw")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self.generator = generator
        # Bound once: _step runs for every resume of every process, and
        # the send/throw attribute lookups add up at scale.
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on.
        self._target: Optional[Event] = None
        Initialize(env, self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process raises ``RuntimeError``.  A process
        cannot interrupt itself (that would just be ``raise``).
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process cannot interrupt itself")
        _InterruptDelivery(self.env, self, cause)

    # -- kernel plumbing ---------------------------------------------------
    def _deliver_interrupt(self, event: Event) -> None:
        if not self.is_alive:  # terminated between scheduling and delivery
            return
        # Detach from the event we were waiting on so we are not resumed
        # twice; if it already fired its callback list is gone and the
        # interrupt is delivered in place of the value.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        self._step(event)

    def _resume(self, event: Event) -> None:
        self._target = None
        self._step(event)

    def _step(self, event: Event) -> None:
        """Advance the generator with the outcome of *event*."""
        env = self.env
        prev, env.active_process = env.active_process, self
        try:
            if event._ok:
                result = self._send(event._value)
            else:
                result = self._throw(event._value)
        except StopIteration as stop:
            env.active_process = prev
            self._ok = True
            self._value = stop.value
            env.schedule(self, priority=URGENT)
            return
        except BaseException as exc:
            env.active_process = prev
            self._ok = False
            self._value = exc
            env.schedule(self, priority=URGENT)
            return
        env.active_process = prev

        if not isinstance(result, Event):
            # Deliver a TypeError inside the generator; it may catch it
            # and terminate (StopIteration) or re-raise.
            relay = Event(env)
            relay.callbacks.append(self._resume)
            relay._ok = False
            relay._value = TypeError(
                f"process yielded a non-event: {result!r}"
            )
            env.schedule(relay, priority=URGENT)
            self._target = relay
            return
        if result.callbacks is None:  # i.e. result.processed, inlined
            # The yielded event already fired: resume immediately (next
            # kernel step) with its stored outcome.
            relay = Event(env)
            relay.callbacks.append(self._resume)
            relay.trigger_from(result)
            self._target = relay
        else:
            result.callbacks.append(self._resume)
            self._target = result

    def __repr__(self) -> str:
        return f"<Process {self.name} {'alive' if self.is_alive else 'dead'}>"


class AnyOf(Event):
    """Fires once, when its first component event fires: it succeeds
    with that winning event as its value, or fails with its exception.

    ``a | b`` builds one: an RPC races its reply against a deadline.
    Each component holds one bound ``_fire`` and the race holds no
    component, so the loser (dropped, or still on the heap) closes no
    reference cycle.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        events = list(events)
        if any(ev.env is not env for ev in events):
            raise ValueError("cannot mix events from different environments")
        fire = self._fire
        for ev in events:
            if ev.callbacks is None:  # already processed
                fire(ev)
            else:
                ev.callbacks.append(fire)

    def _fire(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        if event._ok:
            self.succeed(event)
        else:
            self.fail(event._value)
