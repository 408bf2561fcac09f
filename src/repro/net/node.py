"""Overlay node endpoint: mailbox, handler dispatch, RPC."""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.net.message import Message, trace_id_for_payload
from repro.net.network import Network
from repro.sim.core import Environment
from repro.sim.events import Event, Initialize

#: A handler takes the incoming message; it may return a generator to be
#: run as a new process, or ``None`` for fire-and-forget handling.
Handler = Callable[[Message], Optional[Generator[Event, Any, Any]]]


class RPCError(Exception):
    """Base class for request/response failures."""


class RPCTimeout(RPCError):
    """No reply arrived within the allotted time."""

    def __init__(self, msg: Message, timeout: float) -> None:
        super().__init__(f"no reply to {msg} within {timeout}s")
        self.request = msg
        self.timeout = timeout


class _Mail(Event):
    """A mailbox event at ``now``: the put of a message (no callbacks),
    or the get that takes it (fires with the message)."""

    __slots__ = ()

    def __init__(self, env: Environment, callbacks: tuple, value: Any) -> None:
        self.env = env
        self.callbacks = callbacks
        self._value = value
        self._ok = True
        self._scheduled = False


class NetNode:
    """A protocol endpoint attached to a :class:`Network`.

    Subclasses (peers, resource managers) register message handlers with
    :meth:`on`; each incoming message goes to its handler, spawning a
    new simulation process when the handler is a generator function.
    Replies to outstanding :meth:`rpc` calls are matched by correlation
    id before handler dispatch.
    """

    def __init__(self, env: Environment, network: Network, node_id: str) -> None:
        self.env = env
        self.network = network
        self.node_id = node_id
        #: Messages put while no get waits, oldest first.
        self.mailbox: List[Message] = []
        self._handlers: Dict[str, Handler] = {}
        self._pending: Dict[int, Event] = {}
        #: A get waits for the next message (never with a non-empty
        #: mailbox); after shutdown it is detached and dispatches nothing.
        self._waiting = False
        self._listening = True
        Initialize(env, self._listen)
        network.register(self)

    # -- wiring ---------------------------------------------------------------
    def on(self, kind: str, handler: Handler, replace: bool = False) -> None:
        """Register *handler* for messages of *kind* (one per kind).

        Pass ``replace=True`` to intentionally swap an existing handler
        (e.g. a re-designated backup re-wiring its sync handler);
        accidental double registration stays an error.
        """
        if kind in self._handlers and not replace:
            raise ValueError(f"{self.node_id}: handler for {kind!r} already set")
        self._handlers[kind] = handler

    # The mailbox keeps the events and order of a dispatcher process
    # looping on ``yield get()`` over a FIFO buffer: each message is one
    # put event and one get event at the time it is put, and the next
    # get is issued after the handler returns.
    def post(self, msg: Message) -> None:
        """Put *msg* into the mailbox: schedule the put at ``now`` and,
        when a get waits, the get that takes it right after."""
        self.env.schedule(_Mail(self.env, (), None))
        self.mailbox.append(msg)
        if self._waiting:
            self._take()

    def _take(self) -> None:
        """The waiting get takes the oldest message: schedule it at ``now``."""
        self._waiting = False
        msg = self.mailbox.pop(0)
        self.env.schedule(_Mail(self.env, (self._on_mail,), msg))

    def _arrive(self, msg: Message) -> None:
        """Take *msg* at its delivery event: when a get waits and the
        put :meth:`post` would schedule runs next, the put and the get
        run here, each still counted with its seq."""
        env = self.env
        if not self._waiting or not env.claim_next(_Mail, (), None):
            self.post(msg)
            return
        self._waiting = False
        env.claim_next(_Mail, _GET, msg)  # nothing was pushed since the put
        if self._listening:
            self._dispatch(msg)
            self._listen()

    def _listen(self, _event: Optional[Event] = None) -> None:
        if self._listening:
            self._waiting = True
            if self.mailbox:
                self._take()

    def _on_mail(self, get: Event) -> None:
        if self._listening:
            self._dispatch(get._value)
            self._listen()

    def _dispatch(self, msg: Message) -> None:
        # Correlated replies resolve the waiting RPC instead of (or in
        # addition to) a handler.
        if msg.reply_to is not None:
            waiter = self._pending.pop(msg.reply_to, None)
            if waiter is not None:
                if not waiter.triggered:
                    waiter.succeed(msg)
                return
        handler = self._handlers.get(msg.kind)
        if handler is None:
            return  # unknown kinds are dropped, datagram-style
        result = handler(msg)
        # Only generators become processes; handlers may return any
        # other value (e.g. the Message from a reply) harmlessly.
        if inspect.isgenerator(result):
            self.env.process(result, name=f"{self.node_id}:{msg.kind}")

    def shutdown(self) -> None:
        """Stop dispatching (node leaves the system).

        The pending get is detached, not withdrawn: it still takes the
        next message put into the mailbox, which is then dropped.  The
        handlers go too: they are bound to the node, and a node that
        left would otherwise stay in a reference cycle with them.
        """
        self._listening = False
        self._handlers.clear()
        for waiter in self._pending.values():
            if not waiter.triggered:
                waiter.fail(RPCError(f"{self.node_id} shut down"))
        self._pending.clear()

    # -- messaging ---------------------------------------------------------------
    def send(
        self,
        kind: str,
        dst: str,
        payload: Optional[Dict[str, Any]] = None,
        size: float = 512.0,
        reply_to: Optional[int] = None,
        trace_id: Optional[str] = None,
    ) -> Message:
        """Fire-and-forget send; returns the sent message.

        When *trace_id* is omitted and telemetry is enabled, the network
        derives one at send time (task-scoped payloads join their
        ``task:<id>`` trace, anything else starts a fresh trace).
        """
        msg = Message(
            kind=kind,
            src=self.node_id,
            dst=dst,
            payload=payload or {},
            size=size,
            msg_id=next(self.env.ids.msg),
            reply_to=reply_to,
            trace_id=trace_id,
        )
        self.network.send(msg)
        return msg

    def reply(
        self,
        to: Message,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        size: float = 512.0,
    ) -> Message:
        """Answer an incoming request message.

        The reply joins the request's trace unless its own payload is
        task-scoped (then the task trace wins, keeping task messages in
        one causal chain even when the request was not).
        """
        trace_id = to.trace_id
        if payload:
            trace_id = trace_id_for_payload(payload) or trace_id
        return self.send(
            kind, to.src, payload, size=size, reply_to=to.msg_id,
            trace_id=trace_id,
        )

    def rpc(
        self,
        kind: str,
        dst: str,
        payload: Optional[Dict[str, Any]] = None,
        timeout: float = 5.0,
        size: float = 512.0,
    ) -> Generator[Event, Any, Message]:
        """Request/response as a sub-generator: ``reply = yield from rpc(...)``.

        Raises
        ------
        RPCTimeout
            If no correlated reply arrives within *timeout* seconds —
            the caller's cue that the destination has failed or departed.
        """
        msg = self.send(kind, dst, payload, size=size)
        waiter = Event(self.env)
        self._pending[msg.msg_id] = waiter
        deadline = self.env.timeout(timeout)
        first = yield waiter | deadline
        if first is waiter:
            return waiter.value
        self._pending.pop(msg.msg_id, None)
        raise RPCTimeout(msg, timeout)

    def __repr__(self) -> str:
        return f"<NetNode {self.node_id}>"


_GET = (NetNode._on_mail,)  # a get run in place, as the profile hook sees it
