"""Overlay network substrate.

Models the communication layer under the middleware: named nodes with
mailboxes, point-to-point messages with sampled latency and
bandwidth-dependent transmission delay, in-order per-link delivery,
request/response (RPC) plumbing with timeouts, and failure injection
(nodes going down drop traffic).

This is the "wide-area environment with unpredictable latencies" of the
paper's introduction, as a simulation substrate.
"""

from repro.net.connections import ConnectionManager
from repro.net.latency import (
    ConstantLatency,
    DomainAwareLatency,
    LatencyModel,
)
from repro.net.message import Message
from repro.net.network import Network, NetworkStats
from repro.net.node import NetNode, RPCError, RPCTimeout

__all__ = [
    "ConnectionManager",
    "ConstantLatency",
    "DomainAwareLatency",
    "LatencyModel",
    "Message",
    "NetNode",
    "Network",
    "NetworkStats",
    "RPCError",
    "RPCTimeout",
]
