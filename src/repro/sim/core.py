"""The simulation environment: clock, event queue, and run loop."""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional, Union

from repro.sim.events import (
    NORMAL,
    Event,
    Process,
    Timeout,
    Timer,
)
from repro.sim.ids import Ids


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at ``until``."""


# Heap entries are plain tuples (time, priority, seq, event): tuple
# comparison runs in C and the unique seq guarantees the event object is
# never compared.  (Profiling showed a dedicated __lt__ class cost ~10%
# of large runs.)


class Environment:
    """A discrete-event simulation environment.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default ``0.0``).
    ids:
        The run's id source (default: a fresh :class:`Ids` from 1).

    Notes
    -----
    The environment is single-threaded and deterministic: events scheduled
    at the same time fire in (priority, insertion) order.
    """

    def __init__(
        self, initial_time: float = 0.0, ids: Optional[Ids] = None
    ) -> None:
        self._now = float(initial_time)
        self.ids = ids if ids is not None else Ids()
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        # The most recently pushed pending Timer tick, which a tick armed
        # for the same instant joins instead of the heap (see Timer).
        self._tick_head: Optional[Timer] = None
        #: Events processed so far (the benchmark harness's work unit).
        self.n_processed = 0
        #: The process currently being stepped (None outside process code).
        self.active_process: Optional[Process] = None
        # Profiling hook (repro.profiling.SimEventProfiler): called with
        # (event, callbacks) after every stride-th dispatch.  None on the
        # default path, which keeps the plain run loop below untouched.
        self._profile_hook = None
        self._profile_stride = 1
        self._profile_i = 0

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing after *delay* time units."""
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new process running *generator*."""
        return Process(self, generator, name=name)

    def every(
        self,
        delay: Union[float, Callable[[], float]],
        body: Callable[[], Any],
    ) -> Timer:
        """Run ``body()`` every *delay* from now on (see :class:`Timer`)."""
        return Timer(self, delay, body)

    # -- scheduling ----------------------------------------------------------
    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = NORMAL
    ) -> None:
        """Place a triggered *event* on the queue ``delay`` from now."""
        if event._scheduled:
            raise RuntimeError(f"{event!r} is already scheduled")
        event._scheduled = True
        heapq.heappush(
            self._queue,
            (self._now + delay, priority, self._seq, event),
        )
        self._seq += 1

    def claim_next(self, kind: type, callbacks: tuple, value: Any = None) -> bool:
        """True if an event at ``(now, NORMAL)`` with the next seq would
        run next (nothing on the heap orders first): then its seq is
        claimed, it counts as processed and a profile hook is fed
        ``kind(self, callbacks, value)``, and the caller runs it in place.
        """
        queue, seq = self._queue, self._seq
        if queue and queue[0] < (self._now, NORMAL, seq):
            return False
        self._seq = seq + 1
        self.n_processed += 1
        if self._profile_hook is not None:
            self._profiled(kind(self, callbacks, value), callbacks)
        return True

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event.

        Raises
        ------
        IndexError
            If the queue is empty.
        """
        time, _priority, _seq, event = heapq.heappop(self._queue)
        self._now = time
        self.n_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks:
            # A failed event nobody waited for: surface the error rather
            # than silently dropping it.
            raise event._value
        if self._profile_hook is not None:
            self._profiled(event, callbacks)

    # -- profiling ----------------------------------------------------------
    def _profiled(self, event: Event, callbacks) -> None:
        """Count one dispatched event toward the hook's stride."""
        self._profile_i += 1
        if self._profile_i >= self._profile_stride:
            self._profile_i = 0
            self._profile_hook(event, callbacks)

    def set_profile_hook(self, hook, stride: int = 1) -> None:
        """Install a sampling hook on the event dispatch loop.

        *hook* is called as ``hook(event, callbacks)`` after every
        *stride*-th event has been dispatched (a coalesced Timer tick
        and an event run in place by :meth:`claim_next` included); the
        count carries across :meth:`run` calls.  The hook observes
        only: it must not schedule events or mutate simulation state, so
        the event trajectory is identical with or without it.  The
        unhooked run loop is untouched — :meth:`run` selects a separate
        loop variant when a hook is installed.  ``set_profile_hook(None)``
        removes it.
        """
        self._profile_hook = hook
        self._profile_stride = stride
        self._profile_i = 0

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until no events remain.
            a number
                run until the clock reaches that time (the clock is set to
                exactly ``until`` on return, even if no event fires then).
            an :class:`Event`
                run until that event has been processed; return its value
                (re-raising its exception on failure).
        """
        stop_at: Optional[float] = None
        until_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            until_event = until
            if until_event.processed:
                if not until_event._ok:
                    raise until_event._value
                return until_event._value
            until_event.callbacks.append(self._stop_callback)
        else:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(
                    f"until={stop_at} is in the past (now={self._now})"
                )

        # The hot loop below is step() inlined: one event costs one
        # heappop plus its callbacks, with the queue and heappop held in
        # locals (the loop runs a few hundred thousand times per second
        # of large scenarios, so method/property dispatch per event is
        # measurable).  Keep any semantic change mirrored in step().
        # Timer followers and claim_next count themselves in
        # n_processed, so the loop adds its own count on the way out.
        queue = self._queue
        pop = heapq.heappop
        n = 0
        try:
            if self._profile_hook is not None:
                # Hooked variant: identical dispatch semantics plus the
                # stride count and the sampling call.  Kept separate so
                # the default loops below stay byte-identical (the
                # trajectory goldens time the unhooked path).
                limit = float("inf") if stop_at is None else stop_at
                while queue and queue[0][0] <= limit:
                    entry = pop(queue)
                    self._now = entry[0]
                    n += 1
                    event = entry[3]
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not callbacks:
                        raise event._value
                    self._profiled(event, callbacks)
            elif stop_at is None:
                while queue:
                    entry = pop(queue)
                    self._now = entry[0]
                    n += 1
                    event = entry[3]
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not callbacks:
                        raise event._value
            else:
                while queue and queue[0][0] <= stop_at:
                    entry = pop(queue)
                    self._now = entry[0]
                    n += 1
                    event = entry[3]
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not callbacks:
                        raise event._value
        except StopSimulation:
            pass
        finally:
            self.n_processed += n
            if until_event is not None and until_event.callbacks is not None:
                try:
                    until_event.callbacks.remove(self._stop_callback)
                except ValueError:
                    pass

        if stop_at is not None:
            self._now = max(self._now, stop_at)
        if until_event is not None:
            if not until_event.processed:
                raise RuntimeError(
                    "run() ended before the 'until' event fired "
                    "(simulation starved)"
                )
            if not until_event._ok:
                raise until_event._value
            return until_event._value
        return None

    def _stop_callback(self, event: Event) -> None:
        raise StopSimulation()

    def __repr__(self) -> str:
        return f"<Environment now={self._now} queued={len(self._queue)}>"
