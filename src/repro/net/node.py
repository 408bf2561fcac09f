"""Overlay node endpoint: mailbox, handler dispatch, RPC."""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Generator, Optional

from repro.net.message import Message, trace_id_for_payload
from repro.net.network import Network
from repro.sim.core import Environment
from repro.sim.events import Event, Initialize
from repro.sim.resources import Store, StoreGet

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


class NetNode:
    """A protocol endpoint attached to a :class:`Network`.

    Subclasses (peers, resource managers) register message handlers with
    :meth:`on`; a callback on the mailbox's get delivers each incoming
    message to its handler, spawning a new simulation process when the
    handler is a generator function.  Replies to outstanding :meth:`rpc`
    calls are matched by correlation id before handler dispatch.
    """

    def __init__(self, env: Environment, network: Network, node_id: str) -> None:
        self.env = env
        self.network = network
        self.node_id = node_id
        self.mailbox = Store(env)
        self._handlers: Dict[str, Handler] = {}
        self._pending: Dict[int, Event] = {}
        #: The outstanding mailbox get (None before the start event and
        #: after shutdown).
        self._inbox: Optional[StoreGet] = None
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
        outcome = yield waiter | deadline
        if waiter in outcome:
            return outcome[waiter]
        self._pending.pop(msg.msg_id, None)
        raise RPCTimeout(msg, timeout)

    def __repr__(self) -> str:
        return f"<NetNode {self.node_id}>"
