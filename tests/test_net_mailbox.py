"""A node's mailbox: messages taken at their delivery event.

A node takes a message inline, at its delivery event, when a get waits
and nothing on the heap orders before the put it would schedule; any
other arrival is a put and a get on the heap.  The reference below is
the mailbox as it was before, kept verbatim: a ``Store`` under every
node, so every message is a delivery, a put and a get on the heap.
Random node sets on a constant fabric (arrivals collide and take the
scheduled path) and on a jittered one, whose handlers send and reply,
shut their node down, schedule URGENT and NORMAL work at ``now``, start
timers and raise, run both ways through ``run(until=...)`` slices and
through ``step()``.  What was dispatched, at which time and in which
order, the event count and the seq counter must be the same.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import ConstantLatency, LatencyModel, NetNode, Network
from repro.net.node import RPCError
from repro.profiling.stacks import describe_dispatch
from repro.sim import Environment
from repro.sim.events import Event, Initialize


# -- the reference: the Store mailbox, verbatim --------------------------------
class StorePut(Event):
    """Insertion of *item* into a :class:`Store`; fires at once."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item


class StoreGet(Event):
    """Pending retrieval from a :class:`Store`; fires with the item."""

    __slots__ = ()


class Store:
    """An unbounded FIFO buffer with blocking get.

    Items and waiting getters are never both present: a put hands its
    item to the oldest waiting getter, and a get takes the oldest
    buffered item or waits.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.items: list[Any] = []
        self._getters: list[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert *item*; the returned event has already fired."""
        ev = StorePut(self, item)
        self.items.append(item)
        ev.succeed()
        if self._getters:
            self._getters.pop(0).succeed(self.items.pop(0))
        return ev

    def get(self) -> StoreGet:
        """Take the oldest item, or wait for the next put."""
        ev = StoreGet(self.env)
        if self.items:
            ev.succeed(self.items.pop(0))
        else:
            self._getters.append(ev)
        return ev


class OracleNode(NetNode):
    """``NetNode`` with its mailbox as it was: a ``Store``, and dispatch
    from a callback on the outstanding get."""

    def __init__(self, env: Environment, network: Network, node_id: str) -> None:
        self.env = env
        self.network = network
        self.node_id = node_id
        self.mailbox = Store(env)
        self._handlers = {}
        self._pending = {}
        #: The outstanding mailbox get (None before the start event and
        #: after shutdown).
        self._inbox: Optional[StoreGet] = None
        self._listening = True
        Initialize(env, self._listen)
        network.register(self)

    def _arrive(self, msg) -> None:
        self.mailbox.put(msg)

    # Mailbox dispatch is a callback on the outstanding get: each message
    # is handled when its get fires, and the next get is issued after the
    # handler returns — the events and order of a dispatcher process
    # looping on ``yield mailbox.get()``, without the process.
    def _listen(self, _event: Optional[Event] = None) -> None:
        if self._listening:
            self._inbox = self.mailbox.get()
            self._inbox.callbacks.append(self._on_mail)

    def _on_mail(self, get: Event) -> None:
        self._dispatch(get.value)
        self._listen()

    def shutdown(self) -> None:
        """Stop dispatching (node leaves the system).

        The pending get is detached, not withdrawn: it still takes the
        next message put into the mailbox, which is then dropped.
        """
        self._listening = False
        inbox, self._inbox = self._inbox, None
        if inbox is not None and inbox.callbacks is not None:
            inbox.callbacks.remove(self._on_mail)
        for waiter in self._pending.values():
            if not waiter.triggered:
                waiter.fail(RPCError(f"{self.node_id} shut down"))
        self._pending.clear()


# -- random runs ---------------------------------------------------------------
class CycleLatency(LatencyModel):
    """Delays drawn in turn from a fixed list (a jittered fabric)."""

    def __init__(self, delays: list[float]) -> None:
        self._next = itertools.cycle(delays).__next__

    def sample(self, src: str, dst: str) -> float:
        return self._next()


class Boom(Exception):
    pass


END = 3.0

actions = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 5)),
    st.tuples(st.just("burst"), st.integers(0, 5), st.integers(2, 4)),
    st.just(("reply",)),
    st.just(("shutdown",)),
    st.just(("urgent",)),
    st.just(("normal",)),
    st.tuples(st.just("timer"), st.sampled_from([0.01, 0.02, 0.5])),
    st.just(("raise",)),
)

runs = st.fixed_dictionaries({
    "n": st.integers(2, 6),
    "fabric": st.one_of(
        st.just(None),
        st.lists(st.sampled_from([0.0, 0.005, 0.01, 0.02]),
                 min_size=1, max_size=5),
    ),
    # (send time, src, dst): several sends at one instant collide.
    "sends": st.lists(
        st.tuples(st.sampled_from([0.0, 0.0, 0.01, 0.02, 0.5]),
                  st.integers(0, 5), st.integers(0, 5)),
        min_size=1, max_size=12,
    ),
    # Per node: dispatch index -> what the handler does then.
    "scripts": st.lists(
        st.dictionaries(st.integers(0, 6), actions, max_size=4),
        min_size=6, max_size=6,
    ),
})

drivers = st.one_of(
    st.tuples(
        st.just("run"),
        st.lists(st.sampled_from([0.0, 0.01, 0.015, 0.02, 0.5, 1.0]),
                 max_size=4).map(sorted),
    ),
    st.tuples(st.just("step"), st.just([])),
)


def simulate(node_cls, spec: dict, driver) -> tuple[list, list]:
    """Run *spec* with nodes of *node_cls*; return the dispatch log and
    ``(n_processed, seq)`` after every driver call."""
    env = Environment()
    latency = (ConstantLatency(0.01) if spec["fabric"] is None
               else CycleLatency(spec["fabric"]))
    net = Network(env, latency, bandwidth=1e9)
    n = spec["n"]
    nodes = [node_cls(env, net, f"n{i}") for i in range(n)]
    log: list[tuple] = []

    def note(label: str) -> Callable[[Event], None]:
        return lambda _ev: log.append((env.now, label))

    def handler_for(i: int) -> Callable:
        node, script, count = nodes[i], spec["scripts"][i], itertools.count()

        def handler(msg) -> None:
            k = next(count)
            log.append((env.now, node.node_id, msg.msg_id))
            action = script.get(k)
            if action is None:
                return
            op = action[0]
            if op == "send":
                node.send("m", f"n{action[1] % n}")
            elif op == "burst":
                for _ in range(action[2]):
                    node.send("m", f"n{action[1] % n}")
            elif op == "reply":
                node.reply(msg, "m")
            elif op == "shutdown":
                node.shutdown()
            elif op == "urgent":
                Initialize(env, note(f"urgent{i}.{k}"))
            elif op == "normal":
                env.timeout(0.0).callbacks.append(note(f"normal{i}.{k}"))
            elif op == "timer":
                ticks = itertools.count()

                def body() -> None:
                    t = next(ticks)
                    log.append((env.now, f"tick{i}.{k}.{t}"))
                    node.send("m", f"n{(i + t + 1) % n}")
                    if t == 2:
                        timer.cancel()

                timer = env.every(action[1], body)
            elif op == "raise":
                raise Boom(i, k)

        return handler

    for i, node in enumerate(nodes):
        node.on("m", handler_for(i))
    for t, src, dst in spec["sends"]:
        a, b = nodes[src % n], f"n{dst % n}"
        if t == 0.0:
            a.send("m", b)
        else:
            env.timeout(t).callbacks.append(
                lambda _ev, a=a, b=b: a.send("m", b))

    counts = []
    mode, ends = driver
    if mode == "run":
        for until in [*ends, END]:
            while True:
                try:
                    env.run(until=until)
                    break
                except Boom:
                    counts.append(("raised", env.now, env.n_processed,
                                   env._seq))
            counts.append((until, env.n_processed, env._seq, len(log)))
    else:
        while env.peek() <= END:
            try:
                env.step()
            except Boom:
                pass
        counts.append((END, env.n_processed, env._seq, len(log)))
    return log, counts


@settings(max_examples=300, deadline=None)
@given(spec=runs, driver=drivers)
def test_inline_hand_off_matches_the_store_mailbox(spec, driver):
    expected = simulate(OracleNode, spec, driver)
    got = simulate(NetNode, spec, driver)
    assert got[0] == expected[0]
    assert got[1] == expected[1]


def test_a_lone_delivery_is_one_heap_entry():
    """The case the differential test would pass without the hand-off:
    in a paced stream one ``step()`` runs a delivery with its put and
    get, and the heap never holds more than the next delivery."""
    env = Environment()
    net = Network(env, ConstantLatency(0.01), bandwidth=1e9)
    a, b = NetNode(env, net, "a"), NetNode(env, net, "b")
    got = []

    def on_m(msg) -> None:
        got.append(msg.msg_id)
        if len(got) < 50:
            a.send("m", "b")

    b.on("m", on_m)
    a.send("m", "b")
    heap = []  # its length after each step
    while env._queue:
        env.step()
        heap.append(len(env._queue))
    assert len(got) == 50
    # Two starts, then one step per message, which leaves only the
    # delivery its handler sent.
    assert heap == [2, 1] + [1] * 49 + [0]
    assert env.n_processed == env._seq == 2 + 3 * 50


# -- per-pair FIFO at the handler boundary -------------------------------------
class TestMailbox:
    def test_message_put_before_the_start_event_is_dispatched(self):
        env = Environment()
        net = Network(env, ConstantLatency(0.01))
        node = NetNode(env, net, "a")
        got = []
        node.on("m", lambda msg: got.append((env.now, msg.payload["i"])))
        node.post(msg_to(env, "a", 0))  # before the node's get is issued
        env.run()
        assert got == [(0.0, 0)]
        # start, put, get
        assert env.n_processed == 3

    def test_handler_runs_at_the_delivery_time(self):
        env = Environment()
        net = Network(env, ConstantLatency(3.0), bandwidth=512.0)
        a, b = NetNode(env, net, "a"), NetNode(env, net, "b")
        got = []
        b.on("m", lambda msg: got.append(env.now))
        a.send("m", "b", size=512.0)  # 3 s latency + 1 s on the wire
        env.run()
        assert got == [4.0]

    def test_mailbox_holds_what_no_get_takes(self):
        env = Environment()
        net = Network(env, ConstantLatency(0.01))
        node = NetNode(env, net, "a")
        node.on("m", lambda msg: pytest.fail("a shut node dispatched"))
        node.shutdown()  # before its start event: no get is ever issued
        node.post(msg_to(env, "a", 0))
        node.post(msg_to(env, "a", 1))
        env.run()
        assert [m.payload["i"] for m in node.mailbox] == [0, 1]
        assert env.n_processed == 1 + 2  # start, two puts

    @given(st.lists(st.tuples(st.integers(0, 3),
                              st.sampled_from([0.0, 0.1, 0.25, 1.0]),
                              st.sampled_from([0.0, 0.005, 0.01, 0.3])),
                    min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_each_pair_is_dispatched_in_send_order(self, sends):
        """Four senders, one receiver, random send gaps and jittered
        delays: whatever the interleaving, each sender's messages reach
        the handler in the order they were sent."""
        env = Environment()
        delays = [d for _, _, d in sends]
        net = Network(env, CycleLatency(delays), bandwidth=1e9)
        dst = NetNode(env, net, "dst")
        srcs = [NetNode(env, net, f"s{i}") for i in range(4)]
        got: dict[str, list[int]] = {}
        dst.on("m", lambda msg: got.setdefault(msg.src, []).append(
            msg.payload["i"]))
        sent: dict[str, list[int]] = {}

        def producer():
            for i, (src, gap, _) in enumerate(sends):
                yield env.timeout(gap)
                srcs[src].send("m", "dst", {"i": i})
                sent.setdefault(srcs[src].node_id, []).append(i)

        env.process(producer())
        env.run()
        assert got == sent


def msg_to(env: Environment, dst: str, i: int):
    from repro.net import Message

    return Message(kind="m", src="x", dst=dst, payload={"i": i},
                   msg_id=next(env.ids.msg))


# -- the profile hook ----------------------------------------------------------
@pytest.mark.parametrize("stride", [1, 7])
def test_profile_hook_counts_messages_taken_inline(stride):
    """A message-only run (a paced stream, taken inline, then a burst,
    taken through the heap): the hook fires once per stride events."""
    env = Environment()
    net = Network(env, ConstantLatency(0.01), bandwidth=1e9)
    a, b = NetNode(env, net, "a"), NetNode(env, net, "b")
    labels = []
    env.set_profile_hook(
        lambda ev, cbs: labels.append(describe_dispatch(ev, cbs)), stride)
    got = []

    def on_m(msg) -> None:
        got.append(msg.msg_id)
        if len(got) < 40:
            a.send("m", "b")
        elif len(got) == 40:
            for _ in range(20):
                a.send("m", "b")

    b.on("m", on_m)
    a.send("m", "b")
    env.run()
    assert len(got) == 60
    assert env.n_processed == 2 + 3 * 60
    assert len(labels) == env.n_processed // stride
    if stride == 1:
        assert labels.count("sim.dispatch;_Mail;(no-callbacks)") == 60
        assert labels.count("sim.dispatch;_Mail;NetNode._on_mail") == 60
