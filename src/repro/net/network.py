"""The network fabric: registration, delivery, failure injection."""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Set, Tuple

from repro import telemetry
from repro.common.errors import UnknownPeer
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import Message
from repro.sim.core import Environment
from repro.sim.events import NORMAL, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import NetNode


@dataclass
class NetworkStats:
    """Aggregate traffic counters (per run)."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    #: Drops attributed to an active network partition (a subset of
    #: ``dropped``); scripted partition scenarios gate on this.
    partition_drops: int = 0
    bytes_sent: float = 0.0
    by_kind: Dict[str, int] = field(default_factory=dict)
    #: Messages addressed to each node (hot-spot analysis, e.g. how much
    #: traffic a centralized manager terminates).
    by_dst: Dict[str, int] = field(default_factory=dict)
    #: Reliability counters.  Only the UDP transport moves them (the
    #: simulated fabric has no retransmission), but they live here so
    #: every transport reports one summary schema.
    retransmits: int = 0
    duplicates: int = 0
    malformed: int = 0
    acks_sent: int = 0

    def note_send(self, msg: Message) -> None:
        self.sent += 1
        self.bytes_sent += msg.size
        self.by_kind[msg.kind] = self.by_kind.get(msg.kind, 0) + 1
        self.by_dst[msg.dst] = self.by_dst.get(msg.dst, 0) + 1

    def hottest_destination(self) -> tuple[str, int]:
        """(node, count) of the most-addressed node (("", 0) if none)."""
        if not self.by_dst:
            return ("", 0)
        node = max(self.by_dst, key=self.by_dst.get)
        return (node, self.by_dst[node])

    def summary(self) -> Dict[str, Any]:
        """Counters as a plain dict, identical in shape for every
        transport (simulated fabric and live UDP), so sim and live runs
        report comparable traffic stats."""
        hot, hot_n = self.hottest_destination()
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "partition_drops": self.partition_drops,
            "bytes_sent": self.bytes_sent,
            "by_kind": dict(self.by_kind),
            "hottest_dst": hot,
            "hottest_dst_count": hot_n,
            "retransmits": self.retransmits,
            "duplicates": self.duplicates,
            "malformed": self.malformed,
            "acks_sent": self.acks_sent,
        }


class _Delivery(Event):
    """The scheduled arrival of one in-flight message.

    A dedicated subclass carrying the message avoids a per-send closure
    and lets the constructor skip the generic-event ceremony (a fresh
    delivery can never be already-scheduled); every delivery shares its
    network's one callbacks tuple.
    """

    __slots__ = ("msg",)

    def __init__(self, network: "Network", msg: Message) -> None:
        self.env = network.env
        self.callbacks = network._on_arrival
        self._value = None
        self._ok = True
        self._scheduled = False
        self.msg = msg


class Network:
    """Point-to-point message fabric between registered nodes.

    Delivery delay for a message is ``latency.sample(src, dst) +
    size / bandwidth``; delivery on each ordered (src, dst) pair is FIFO
    (a later send never overtakes an earlier one), which the protocol
    layers rely on.

    Failure injection: :meth:`set_down` makes a node unreachable — all
    traffic from or to it is counted as dropped.  Node-process shutdown
    is handled by higher layers (overlay churn); the network only models
    reachability.
    """

    def __init__(
        self,
        env: Environment,
        latency: Optional[LatencyModel] = None,
        bandwidth: float = 1.25e6,
        loss_rate: float = 0.0,
        loss_rng: Optional[Any] = None,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.env = env
        self.latency = latency if latency is not None else ConstantLatency(0.01)
        #: Link bandwidth in bytes/second (default 10 Mbit/s).
        self.bandwidth = float(bandwidth)
        #: Per-message loss probability (wide-area unreliability; the
        #: protocol layers tolerate loss through timeouts, liveness
        #: detection and repair — never through retransmission magic).
        self.loss_rate = float(loss_rate)
        self._loss_rng = loss_rng
        self.stats = NetworkStats()
        self._nodes: Dict[str, "NetNode"] = {}
        self._down: Set[str] = set()
        #: Active partition: node id -> group index (None = connected).
        #: Nodes absent from the map form one implicit residual group.
        self._partition: Optional[Dict[str, int]] = None
        #: Last scheduled arrival per (src, dst), for FIFO ordering.
        self._last_arrival: Dict[Tuple[str, str], float] = {}
        #: Each node's keys in ``_last_arrival``, as src or dst.
        self._pairs_of: Dict[str, Set[Tuple[str, str]]] = {}
        # Bound once: every delivery event carries this tuple, and
        # re-binding the method per message shows up at scale.
        self._on_arrival = (self._handle_arrival,)

    # -- registration ------------------------------------------------------
    def register(self, node: "NetNode") -> None:
        """Attach *node* to the fabric (id must be unique)."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node

    def unregister(self, node_id: str) -> None:
        """Permanently remove a node (departed peer).

        The FIFO floors involving the node are pruned too: without this
        the per-``(src, dst)`` arrival map grows without bound under
        churn, and a later peer reusing the id would inherit a stale
        floor delaying its first messages far into the future.
        """
        self._nodes.pop(node_id, None)
        self._down.discard(node_id)
        for key in self._pairs_of.pop(node_id, ()):
            del self._last_arrival[key]
            for end in key:
                self._pairs_of.get(end, set()).discard(key)

    def node(self, node_id: str) -> "NetNode":
        """Look up a registered node."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownPeer(node_id) from None

    @property
    def node_ids(self) -> list[str]:
        """Ids of all registered nodes."""
        return list(self._nodes)

    # -- failure injection ---------------------------------------------------
    def set_down(self, node_id: str) -> None:
        """Make a node unreachable (crash / disconnect)."""
        if node_id not in self._nodes:
            raise UnknownPeer(node_id)
        self._down.add(node_id)

    def is_up(self, node_id: str) -> bool:
        """True if the node is registered and not failed."""
        return node_id in self._nodes and node_id not in self._down

    # -- partitions ----------------------------------------------------------
    def set_partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split the fabric into isolated *groups* of node ids.

        While a partition is active, a message whose src and dst fall in
        different groups is dropped at send time and attributed to the
        ``partition_drops`` counter.  Nodes not named in any group form
        one implicit residual group (they can reach each other but no
        listed group).  Calling again replaces the partition wholesale;
        :meth:`heal_partition` removes it.
        """
        mapping: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for node_id in group:
                mapping[node_id] = index
        self._partition = mapping or None

    def heal_partition(self) -> None:
        """Remove any active partition; delivery resumes immediately."""
        self._partition = None

    # -- transmission ---------------------------------------------------------
    def send(self, msg: Message) -> None:
        """Transmit *msg*; delivery is asynchronous.

        Messages from or to unreachable/unknown nodes are silently
        dropped (and counted), mirroring datagram semantics: peers learn
        about failures through timeouts, exactly as the paper's RM does
        when it "senses the withdrawn connection".
        """
        msg.sent_at = self.env.now
        self.stats.note_send(msg)
        tel = telemetry.current()
        if tel.enabled:
            # Trace ids exist for telemetry only: with it off, the
            # simulated path assigns none (the UDP transport always
            # does, because the wire frame carries the id).
            msg.ensure_trace_id(self.env.ids)
            tel.tracer.start_span(
                msg.kind, kind=telemetry.MESSAGE, node=msg.src,
                trace_id=msg.trace_id, key=f"msg:{msg.msg_id}",
                dst=msg.dst, msg_id=msg.msg_id, size=msg.size,
            )
            tel.metrics.counter("repro_net_messages_sent_total").inc()
            tel.metrics.counter(
                "repro_net_message_bytes_total", kind=msg.kind
            ).inc(msg.size)
        src, dst = msg.src, msg.dst
        nodes, down = self._nodes, self._down
        if (src not in nodes or dst not in nodes
                or src in down or dst in down):
            self._drop(msg)
            return
        part = self._partition
        if part is not None and part.get(src, -1) != part.get(dst, -1):
            self.stats.partition_drops += 1
            self._drop(msg)
            return
        if self.loss_rate > 0.0:
            if self._loss_rng is None:
                # No stream was plumbed in: derive from the ambient
                # scenario seed when one is installed, else OS entropy
                # (a fixed fallback seed here would silently give every
                # run the same loss pattern regardless of the scenario
                # seed; ``build_scenario`` passes ``loss_rng``).
                from repro.sim.rng import fallback_rng

                self._loss_rng = fallback_rng("loss")
            if self._loss_rng.random() < self.loss_rate:
                self._drop(msg)
                return
        env = self.env
        now = env._now
        delay = self.latency.sample(src, dst) + msg.size / self.bandwidth
        key = (src, dst)
        arrival = now + delay
        floor = self._last_arrival.get(key)
        if floor is None:
            for end in key:
                self._pairs_of.setdefault(end, set()).add(key)
        elif floor > arrival:
            arrival = floor
        self._last_arrival[key] = arrival
        # Environment.schedule inlined (one delivery per message): a
        # fresh _Delivery can never be already-scheduled.  The schedule
        # time is written as now + (arrival - now), not plain arrival,
        # to keep the float bits identical to the delay-based API.
        ev = _Delivery(self, msg)
        ev._scheduled = True
        _heappush(env._queue, (now + (arrival - now), NORMAL, env._seq, ev))
        env._seq += 1

    def nudge(self, src: str, dst: str) -> None:
        """*src* asks *dst* to resend what it has pending to *src*: the
        simulated fabric never retransmits, so there is nothing to hurry."""

    def _drop(self, msg: Message) -> None:
        self.stats.dropped += 1
        tel = telemetry.current()
        if tel.enabled:
            tel.tracer.end_span_key(f"msg:{msg.msg_id}", status="dropped")
            tel.metrics.counter("repro_net_messages_dropped_total").inc()

    def _handle_arrival(self, ev: "Event") -> None:
        self._deliver(ev.msg)

    def _deliver(self, msg: Message) -> None:
        # The destination may have failed while the message was in flight.
        if not self.is_up(msg.dst):
            self._drop(msg)
            return
        self.stats.delivered += 1
        tel = telemetry.current()
        if tel.enabled:
            # A message sent before telemetry was enabled gets its id
            # here, so a reply to it still joins the request's trace.
            msg.ensure_trace_id(self.env.ids)
            tel.tracer.end_span_key(f"msg:{msg.msg_id}", status="ok")
            tel.metrics.counter("repro_net_messages_delivered_total").inc()
        self._nodes[msg.dst]._arrive(msg)

    def expected_delay(self, src: str, dst: str, size: float = 512.0) -> float:
        """Planning estimate of one-way delay (used by the RM's cost model)."""
        return self.latency.expected(src, dst) + size / self.bandwidth
