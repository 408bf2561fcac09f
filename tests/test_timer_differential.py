"""Coalesced timer ticks against one heap entry per tick.

``Timer`` ticks due at the same instant share one heap entry: the head
runs its followers and pushes the rest back when something orders
first.  The reference below is the timer as it was before coalescing,
kept verbatim: every tick is its own heap entry.  Random timer sets
(colliding and unique phases, fixed and callable periods) whose bodies
cancel timers, start timers, schedule URGENT and NORMAL work at ``now``
and raise are run both ways, through ``run(until=...)`` slices and
through ``step()``.  What ran, in which order at which time, and the
event count must be the same.
"""

from __future__ import annotations

import itertools
from heapq import heappush as _heappush
from typing import Any, Callable, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.sim.events import NORMAL, URGENT, Event, Initialize, Timer, _check_delay


class OracleTimer(Event):
    """Runs ``body()`` every *delay* units of simulated time until cancelled.

    The process-free form of ``while True: yield env.timeout(d); body()``
    with the same kernel events: one URGENT start event at creation
    (the loop's :class:`Initialize`), then one NORMAL event per tick at
    ``now + delay``.  The next tick is pushed after the body returns, so
    whatever the body schedules keeps the loop's sequence order.
    *delay* is a number or a zero-argument callable; a callable is
    re-read before every tick (adaptive periods).

    The timer is itself the event on the heap and is re-armed in place:
    a tick allocates no Process, generator, Timeout or callbacks list.
    :meth:`cancel` works from anywhere, the body included; a tick that
    is already pushed still pops, as an empty event.  An exception from
    the body propagates out of ``run``/``step`` and stops the timer.
    """

    __slots__ = ("body", "delay", "cancelled", "_delay_fn", "_ticks")

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
        self._ticks = [self._tick]
        self.callbacks.append(self._arm)
        self._value = None
        env.schedule(self, priority=URGENT)

    def cancel(self) -> None:
        """Stop ticking; idempotent."""
        self.cancelled = True
        if self.callbacks is not None:  # the pending tick pops empty
            self.callbacks = []

    def _tick(self, _event: Event) -> None:
        self.body()
        if not self.cancelled:
            self._arm()

    def _arm(self, _event: Optional[Event] = None) -> None:
        if self._delay_fn is not None:
            self.delay = _check_delay(self._delay_fn())
        env = self.env
        self.callbacks = self._ticks
        _heappush(env._queue, (env._now + self.delay, NORMAL, env._seq, self))
        env._seq += 1


PERIODS = [0.25, 0.5, 1.0, 2.0]
#: Offsets on the periods' grid collide; 0.1 and 0.3 put a timer on
#: instants of its own.
OFFSETS = [0.0, 0.0, 0.25, 0.5, 1.0, 0.1, 0.3]
END = 6.0


class Boom(Exception):
    pass


actions = st.one_of(
    st.just(("cancel_self",)),
    st.tuples(st.just("cancel"), st.integers(0, 39)),
    st.just(("urgent",)),
    st.just(("normal",)),
    st.tuples(st.just("later"), st.sampled_from(PERIODS)),
    st.tuples(st.just("start"), st.sampled_from(PERIODS)),
    st.just(("start_cancelled",)),
    st.just(("raise",)),
)

timer_specs = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from(PERIODS),
            st.lists(st.sampled_from(PERIODS), min_size=1, max_size=3),
        ),
        st.sampled_from(OFFSETS),
        st.dictionaries(st.integers(0, 8), actions, max_size=3),
    ),
    min_size=1, max_size=40,
)

drivers = st.one_of(
    st.tuples(
        st.just("run"),
        st.lists(st.sampled_from([0.25, 0.5, 0.6, 1.0, 2.0, 2.75, 4.0]),
                 max_size=4).map(sorted),
    ),
    st.tuples(st.just("step"), st.just([])),
)


def simulate(make_timer, specs, driver) -> tuple[list, list]:
    """Run *specs* with timers from *make_timer*; return the dispatch
    log and ``n_processed`` after every driver call."""
    env = Environment()
    log: list[tuple[float, str]] = []
    timers: list[Any] = []

    def note(label: str) -> Callable[[Event], None]:
        return lambda _ev: log.append((env.now, label))

    def start(k: int, period, script: dict) -> None:
        if isinstance(period, list):
            cycle = itertools.cycle(period)
            delay = lambda: next(cycle)  # noqa: E731
        else:
            delay = period
        count = itertools.count()

        def body() -> None:
            n = next(count)
            log.append((env.now, f"tick{k}.{n}"))
            action = script.get(n)
            if action is None:
                return
            op = action[0]
            if op == "cancel_self":
                timers[k].cancel()
            elif op == "cancel":
                other = timers[action[1] % len(timers)]
                if other is not None:  # None: not started yet
                    other.cancel()
            elif op == "urgent":
                Initialize(env, note(f"urgent{k}.{n}"))
            elif op == "normal":
                env.timeout(0.0).callbacks.append(note(f"normal{k}.{n}"))
            elif op == "later":
                env.timeout(action[1]).callbacks.append(note(f"later{k}.{n}"))
            elif op == "start":
                start(len(timers), action[1], {})
            elif op == "start_cancelled":
                start(len(timers), 0.5, {})
                timers[-1].cancel()
            elif op == "raise":
                raise Boom(k, n)

        if k == len(timers):
            timers.append(None)
        timers[k] = make_timer(env, delay, body)

    for k, (period, offset, script) in enumerate(specs):
        if offset == 0.0:
            start(k, period, script)
        else:
            timers.append(None)
            env.timeout(offset).callbacks.append(
                lambda _ev, k=k, period=period, script=script:
                start(k, period, script)
            )

    counts = []
    mode, ends = driver
    if mode == "run":
        for until in [*ends, END]:
            while True:
                try:
                    env.run(until=until)
                    break
                except Boom:
                    counts.append(("raised", env.now, env.n_processed))
            counts.append((until, env.n_processed))
    else:
        while env.peek() <= END:
            try:
                env.step()
            except Boom:
                pass
        counts.append((END, env.n_processed))
    return log, counts


@settings(max_examples=300, deadline=None)
@given(specs=timer_specs, driver=drivers)
def test_coalesced_ticks_match_one_entry_per_tick(specs, driver):
    expected = simulate(OracleTimer, specs, driver)
    got = simulate(Timer, specs, driver)
    assert got[0] == expected[0]
    assert got[1] == expected[1]


def test_same_instant_ticks_share_one_heap_entry():
    """The case the differential test would pass without coalescing:
    50 timers on one phase hold one heap entry between ticks."""
    env = Environment()
    ticks = []
    for _ in range(50):
        env.every(0.5, lambda: ticks.append(env.now))
    env.run(until=0.0)
    assert len(env._queue) == 1
    env.run(until=2.0)
    assert len(env._queue) == 1
    assert len(ticks) == 200
    assert env.n_processed == 50 + 200
