"""The live message fabric under the protocol endpoints.

:class:`~repro.net.node.NetNode` (and therefore every peer and RM)
touches its fabric only through ``register``/``unregister``, ``send``,
``nudge``, reachability (``is_up``/``set_down``) and the
planning estimate ``expected_delay``.  In the simulator that fabric is
the discrete-event :class:`~repro.net.network.Network`; in the live
runtime it is :class:`UdpTransport`, an asyncio ``DatagramProtocol``
speaking the :mod:`repro.runtime.codec` wire format over real localhost
sockets, with per-message acks, exponential-backoff retries paced by
measured round trips, nudged resends, and duplicate suppression keyed
on ``(src, msg_id)``.  The protocol layer runs unchanged over either.
"""

from __future__ import annotations

import asyncio
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Set, Tuple

from repro import telemetry
from repro.net.message import Message
from repro.net.network import NetworkStats
from repro.runtime.codec import (
    FRAME_ACK,
    FRAME_MSG,
    WireFormatError,
    decode_frame,
    encode_ack,
    encode_message,
    encode_nudge,
)
from repro.sim.ids import Ids
from repro.telemetry.logs import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import NetNode


class PeerDirectory:
    """node id -> UDP address book (the live runtime's name service).

    The roster agent fills it as peers register; join
    acknowledgements carry the RM's and the agent's address so every
    node can populate its own copy (one process may share a single
    instance).
    """

    def __init__(self) -> None:
        self._addrs: Dict[str, Tuple[str, int]] = {}

    def add(self, node_id: str, host: str, port: int) -> None:
        self._addrs[node_id] = (host, int(port))

    def remove(self, node_id: str) -> None:
        self._addrs.pop(node_id, None)

    def address(self, node_id: str) -> Optional[Tuple[str, int]]:
        return self._addrs.get(node_id)

    def known(self) -> list[str]:
        return list(self._addrs)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._addrs

    def __len__(self) -> int:
        return len(self._addrs)


#: Called with (message, attempt) before each datagram send; returning
#: True swallows that transmission (packet-loss injection for tests).
DropFn = Callable[[Message, int], bool]


#: Lowest RTO: above loopback ack round trips' p99 and a live loop's stalls (docs/performance.md).
RTO_FLOOR = 0.010
#: How many ``(src, msg_id)`` keys the duplicate filter remembers.
DEDUP_CAPACITY = 8192
#: Socket receive buffer asked for at bind (bytes).
RCVBUF = 1 << 20


@dataclass(slots=True)
class RttEstimate:
    """One destination's RFC 6298 retransmission timer: plain arithmetic, no clock, no I/O."""

    ceiling: float
    srtt: float = 0.0
    rttvar: float = 0.0
    rto: float = 0.0  # until the first sample

    def sample(self, r: float) -> None:
        """Fold in round trip *r* of a message sent exactly once."""
        if self.rto:
            self.rttvar += (abs(self.srtt - r) - self.rttvar) / 4
            self.srtt += (r - self.srtt) / 8
        else:
            self.srtt, self.rttvar = r, r / 2
        rto = self.srtt + 4 * self.rttvar  # clamped with no min/max: runs per ack
        self.rto = RTO_FLOOR if rto < RTO_FLOOR else rto if rto < self.ceiling else self.ceiling

    def back_off(self) -> None:
        """A retransmission to this destination: double the timer."""
        self.rto = min(2 * self.rto, self.ceiling)


@dataclass(slots=True)
class _PendingSend:
    """One unacknowledged message: its frame, its *next* attempt's
    number and ack wait, its last attempt, first send time and timer."""

    msg: Message
    frame: bytes
    timeout: float
    last: int
    sent_at: float
    attempt: int = 0
    handle: Optional[asyncio.TimerHandle] = None
    nudged: bool = False  # resent on a nudge since its timer last fired


class UdpTransport(asyncio.DatagramProtocol):
    """One node's live UDP endpoint.

    Reliability: every data frame is acknowledged by the receiving
    transport; the sender retries with exponential backoff until the
    ack arrives or the retry budget is exhausted (then the message is
    *dropped*, mirroring the simulator's datagram semantics — protocol
    layers recover through their own timeouts).  Receivers ack every
    copy (an earlier ack may itself have been lost) but deliver a
    given ``(src, msg_id)`` only once, and only if addressed here.
    First waits come from :class:`RttEstimate` (docs/runtime.md).

    Parameters
    ----------
    node_id:
        The endpoint this socket serves.
    directory:
        Address book used to resolve destinations.
    on_message:
        Callback invoked (on the event loop) with each delivered
        :class:`Message`.
    host, port:
        Bind address; port 0 picks a free port (see :attr:`port` after
        :meth:`start`).
    ack_timeout, backoff, max_retries:
        First ack wait with no round-trip sample (and every estimate's
        ceiling), backoff factor, and retries after a send at that wait.
    est_latency, est_bandwidth:
        Constants behind :meth:`expected_delay` (allocator cost model).
    drop_fn:
        Optional outbound packet-loss shim for tests.
    ids:
        The owning process life's id source, which names the traces
        this endpoint starts (default: a fresh :meth:`Ids.incarnation`).
    """

    def __init__(
        self,
        node_id: str,
        directory: PeerDirectory,
        on_message: Callable[[Message], None],
        host: str = "127.0.0.1",
        port: int = 0,
        ack_timeout: float = 0.05,
        backoff: float = 2.0,
        max_retries: int = 6,
        est_latency: float = 0.001,
        est_bandwidth: float = 1.25e7,
        drop_fn: Optional[DropFn] = None,
        ids: Optional[Ids] = None,
    ) -> None:
        if ack_timeout <= 0 or backoff < 1.0 or max_retries < 0:
            raise ValueError("bad reliability parameters")
        self.node_id = node_id
        self.directory = directory
        self.on_message = on_message
        self.host = host
        self.port = port
        self.ack_timeout = ack_timeout
        self.backoff = backoff
        self.max_retries = max_retries
        self.est_latency = est_latency
        self.est_bandwidth = est_bandwidth
        self.drop_fn = drop_fn
        self.ids = ids if ids is not None else Ids.incarnation()
        self.stats = NetworkStats()
        self._node: Optional["NetNode"] = None
        self._down: Set[str] = set()
        self._seen: OrderedDict[Tuple[str, int], None] = OrderedDict()
        self._pending_acks: Dict[Tuple[str, int], _PendingSend] = {}
        self._rtt: Dict[str, RttEstimate] = {}
        self.nudges_sent = 0
        #: What a :meth:`flush` awaits: resolved when the above empties.
        self._drained: Optional["asyncio.Future[None]"] = None
        self._sock: Optional[asyncio.DatagramTransport] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False
        self.log = get_logger("runtime.transport", node_id)

    # -- reliability counters (live in the shared NetworkStats so sim and
    # live summaries share one schema; kept as properties for callers
    # that read them off the transport directly) ---------------------------
    @property
    def retransmits(self) -> int:
        return self.stats.retransmits

    @property
    def duplicates(self) -> int:
        return self.stats.duplicates

    @property
    def malformed(self) -> int:
        return self.stats.malformed

    @property
    def acks_sent(self) -> int:
        return self.stats.acks_sent

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "UdpTransport":
        """Bind the socket and publish this endpoint in the directory."""
        self._loop = asyncio.get_running_loop()
        sock, _ = await self._loop.create_datagram_endpoint(
            lambda: self, local_addr=(self.host, self.port)
        )
        self._sock = sock
        raw = sock.get_extra_info("socket")
        if raw is not None:
            import socket as _socket
            try:
                # Best effort: the kernel clamps to rmem_max.  A mass
                # join aims hundreds of datagrams at one registrar
                # socket faster than its event loop drains them; the
                # default buffer overflows long before the retry budget.
                raw.setsockopt(
                    _socket.SOL_SOCKET, _socket.SO_RCVBUF, RCVBUF
                )
            except OSError:
                pass
        self.host, self.port = sock.get_extra_info("sockname")[:2]
        self.directory.add(self.node_id, self.host, self.port)
        return self

    def close(self) -> None:
        """Close the socket and disarm every ack timer (their messages
        count as dropped); nothing of the transport stays on the loop."""
        if self._closed:
            return
        self._closed = True
        self._abandon_pending()
        if self._sock is not None:
            self._sock.close()

    async def aclose(self) -> None:
        """:meth:`close` for callers on the loop (kept awaitable: node
        and host teardown ``await`` it)."""
        self.close()

    async def flush(self, timeout: float = 1.0) -> None:
        """Wait for in-flight reliable sends (graceful departure).

        Sends still pending when *timeout* expires are abandoned — a
        straggler mid-backoff must not outlive the departure that
        called this (their messages count as dropped, datagram-style).
        """
        if not self._pending_acks:
            return
        loop = asyncio.get_running_loop()
        if self._drained is None:
            self._drained = loop.create_future()
        deadline = loop.call_later(timeout, self._abandon_pending)
        try:
            # Shielded: a cancelled flusher must not cancel the future
            # the next settled record will resolve.
            await asyncio.shield(self._drained)
        finally:
            deadline.cancel()

    # -- fabric surface (the one Network offers the simulator) ------------
    def register(self, node: "NetNode") -> None:
        if self._node is not None:
            raise ValueError(
                f"transport {self.node_id} already hosts {self._node.node_id}"
            )
        if node.node_id != self.node_id:
            raise ValueError(
                f"endpoint {self.node_id} cannot host node {node.node_id}"
            )
        self._node = node

    def unregister(self, node_id: str) -> None:
        if self._node is not None and self._node.node_id == node_id:
            self._node = None
        self._down.discard(node_id)

    def is_up(self, node_id: str) -> bool:
        if node_id in self._down:
            return False
        return node_id == self.node_id or node_id in self.directory

    def set_down(self, node_id: str) -> None:
        self._down.add(node_id)

    def expected_delay(self, src: str, dst: str, size: float = 512.0) -> float:
        return self.est_latency + size / self.est_bandwidth

    def send(self, msg: Message) -> None:
        """Transmit *msg* reliably (fire-and-forget API)."""
        msg.ensure_trace_id(self.ids)
        self.stats.note_send(msg)
        tel = telemetry.current()
        if tel.enabled:
            tel.tracer.start_span(
                msg.kind, kind=telemetry.MESSAGE, node=msg.src,
                trace_id=msg.trace_id, key=f"msg:{msg.msg_id}",
                dst=msg.dst, msg_id=msg.msg_id, size=msg.size,
            )
            tel.metrics.counter("repro_net_messages_sent_total").inc()
            tel.metrics.counter(
                "repro_net_message_bytes_total", kind=msg.kind
            ).inc(msg.size)
        if self._closed or not self.is_up(msg.src):
            self._note_dropped(msg)
            return
        if msg.dst == self.node_id:
            # Loopback: no socket hop and no ack, so the span ends at
            # delivery.
            if tel.enabled:
                tel.tracer.end_span_key(f"msg:{msg.msg_id}", status="ok")
            self._note_delivered(msg)
            self.on_message(msg)
            return
        if msg.dst not in self.directory:
            self._note_dropped(msg)
            return
        assert self._loop is not None, "transport not started"
        try:
            frame = encode_message(msg)
        except WireFormatError as exc:
            # The caller is a protocol handler mid-dispatch: an
            # unencodable payload is that message's loss, not its crash.
            self.log.warning("unencodable %s dropped: %s", msg.kind, exc)
            self._note_dropped(msg)
            return
        key = (msg.dst, msg.msg_id)
        est = self._rtt.get(msg.dst)
        first, last = self.ack_timeout, self.max_retries
        if est is not None and self.backoff > 1.0:
            first = est.rto
            last += math.ceil(math.log(self.ack_timeout / first, self.backoff))
        pending = self._pending_acks[key] = _PendingSend(
            msg, frame, first, last, self._loop.time()
        )
        self._attempt(key, pending)

    def nudge(self, src: str, dst: str) -> None:
        """Send *dst* one ``nudge`` frame: *src* (this node) saw a message
        overtake its order, so *dst* should resend what is pending now."""
        addr = self.directory.address(dst)
        if dst == src or addr is None or self._sock is None or self._closed:
            return
        self._sock.sendto(encode_nudge(src), addr)
        self.nudges_sent += 1

    def _nudged(self, node_id: str) -> None:
        """Resend every message pending to *node_id* once, before its own
        timer fires: a retransmission that Karn's rule leaves untimed and
        that does not back the timer off."""
        addr = self.directory.address(node_id)
        if addr is None or self._sock is None:
            return
        tel = telemetry.current()
        for (dst, _), pending in self._pending_acks.items():
            if dst != node_id or pending.nudged:
                continue
            pending.nudged = True
            self.stats.retransmits += 1
            if tel.enabled:
                tel.metrics.counter("repro_udp_retransmits_total").inc()
            if not (self.drop_fn and self.drop_fn(pending.msg, pending.attempt)):
                self._sock.sendto(pending.frame, addr)

    def summary(self) -> Dict[str, Any]:
        """Traffic counters, comparable between sim and live runs."""
        return self.stats.summary()

    def _note_dropped(self, msg: Message) -> None:
        self.stats.dropped += 1
        tel = telemetry.current()
        if tel.enabled:
            tel.tracer.end_span_key(f"msg:{msg.msg_id}", status="dropped")
            tel.metrics.counter("repro_net_messages_dropped_total").inc()

    def _note_delivered(self, msg: Message) -> None:
        self.stats.delivered += 1
        tel = telemetry.current()
        if tel.enabled:
            tel.metrics.counter("repro_net_messages_delivered_total").inc()

    # -- reliability -------------------------------------------------------
    def _attempt(self, key: Tuple[str, int], pending: _PendingSend) -> None:
        """Transmit once more and arm the ack timer; as that timer's
        callback, out of retries, count the message dropped instead."""
        msg, attempt = pending.msg, pending.attempt
        pending.nudged = False
        addr = (
            self.directory.address(msg.dst)
            if attempt <= pending.last else None
        )
        if addr is None:
            self._settle(key)
            self._note_dropped(msg)
            return
        if attempt > 0:
            self.stats.retransmits += 1
            if (est := self._rtt.get(msg.dst)) is not None:
                est.back_off()
            tel = telemetry.current()
            if tel.enabled:
                tel.metrics.counter("repro_udp_retransmits_total").inc()
                # Flight-recorder trigger: retry storms.
                tel.tracer.event(
                    "udp.retry", node=self.node_id,
                    dst=msg.dst, attempt=attempt,
                )
        lost = self.drop_fn is not None and self.drop_fn(msg, attempt)
        if not lost and self._sock is not None:
            self._sock.sendto(pending.frame, addr)
        pending.handle = self._loop.call_later(
            pending.timeout, self._expired, key, pending
        )
        pending.attempt += 1
        pending.timeout *= self.backoff

    def _expired(self, key: Tuple[str, int], pending: _PendingSend) -> None:
        """Out of wait: retransmit once the loop has had as long again as it ran late,
        so an ack queued behind a busy loop is read first."""
        late = self._loop.time() - pending.handle.when()
        pending.handle = self._loop.call_later(late, self._attempt, key, pending)

    def _settle(self, key: Tuple[str, int], acked: bool = False) -> None:
        """Forget *key* (acked or given up) and disarm its timer.  An ack
        ends the message's span, which only the sender holds, and the
        ack of a message sent once times its round trip (Karn's rule)."""
        pending = self._pending_acks.pop(key, None)
        if pending is None:
            return
        if pending.handle is not None:
            pending.handle.cancel()
        if self._drained is not None and not self._pending_acks:
            self._drained.set_result(None)
            self._drained = None
        if not acked:
            return
        tel = telemetry.current()
        if tel.enabled:
            tel.tracer.end_span_key(f"msg:{key[1]}", status="ok")
        if pending.attempt != 1 or pending.nudged:
            return
        rtt = self._loop.time() - pending.sent_at
        if (est := self._rtt.get(key[0])) is None:
            est = self._rtt[key[0]] = RttEstimate(self.ack_timeout)
        est.sample(rtt)
        if tel.enabled:
            tel.metrics.histogram("repro_udp_rtt_seconds").observe(rtt)

    def _abandon_pending(self) -> None:
        """Give up on every unacknowledged message, now."""
        for key, pending in list(self._pending_acks.items()):
            self._settle(key)
            self._note_dropped(pending.msg)

    # -- DatagramProtocol --------------------------------------------------
    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        tel = telemetry.current()
        try:
            frame = decode_frame(data)
            if frame["t"] == FRAME_MSG and frame["msg"].dst != self.node_id:
                # A reused port: not ours to deliver, nor ours to ack.
                raise WireFormatError("addressed to another node")
        except WireFormatError:
            self.stats.malformed += 1
            if tel.enabled:
                tel.metrics.counter("repro_udp_malformed_total").inc()
            return
        if frame["t"] == FRAME_ACK:
            self._settle((frame["src"], frame["id"]), acked=True)
            return
        if frame["t"] != FRAME_MSG:
            self._nudged(frame["src"])
            return
        msg: Message = frame["msg"]
        # Ack every copy: the previous ack may have been the lost packet.
        if self._sock is not None and not self._closed:
            self._sock.sendto(encode_ack(self.node_id, msg.msg_id), addr)
            self.stats.acks_sent += 1
            if tel.enabled:
                tel.metrics.counter("repro_udp_acks_sent_total").inc()
        if self.node_id in self._down or self._closed:
            return  # locally "crashed": receive nothing
        key = (msg.src, msg.msg_id)
        if key in self._seen:
            self.stats.duplicates += 1
            if tel.enabled:
                tel.metrics.counter("repro_udp_duplicates_total").inc()
            return
        self._seen[key] = None
        if len(self._seen) > DEDUP_CAPACITY:
            self._seen.popitem(last=False)
        # Learn the sender's address from the wire: a respawned process
        # keeps its node ids but binds fresh ports, and replies routed
        # through a stale directory entry would go to the dead socket.
        if self.directory.address(msg.src) != addr:
            self.directory.add(msg.src, addr[0], addr[1])
        self._note_delivered(msg)
        self.on_message(msg)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        pass  # ICMP errors: treat like loss; retries cover it

    def __repr__(self) -> str:
        return (
            f"<UdpTransport {self.node_id} {self.host}:{self.port} "
            f"sent={self.stats.sent} delivered={self.stats.delivered}>"
        )
