"""Discrete-event simulation kernel.

A self-contained, deterministic discrete-event simulator in the style of
SimPy: simulation *processes* are Python generators that ``yield`` events
(timeouts, other processes, store gets, ...) and are resumed by the
:class:`~repro.sim.core.Environment` when those events fire.

The kernel is the substrate on which the entire peer-to-peer middleware
reproduction runs.  Work that waits on events (schedulers, arrivals,
churn, RPCs) is a process; work that recurs on a period (profiler
sampling and reports, RM monitoring, gossip rounds) is a
:class:`~repro.sim.events.Timer` callback, with the same events and
order as the equivalent ``while True: yield env.timeout(d)`` process.

Determinism: for a fixed seed and identical call order, runs are exactly
reproducible.  The event queue orders by ``(time, priority, sequence)``
where the sequence number breaks ties in insertion order.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def proc(env):
...     yield env.timeout(3)
...     log.append(env.now)
>>> _ = env.process(proc(env))
>>> env.run()
>>> log
[3.0]
"""

from repro.sim.core import Environment, StopSimulation
from repro.sim.events import (
    AnyOf,
    Event,
    Interrupt,
    Process,
    Timeout,
    Timer,
)
from repro.sim.resources import Store
from repro.sim.rng import RandomStreams

__all__ = [
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "StopSimulation",
    "Store",
    "Timeout",
    "Timer",
]
