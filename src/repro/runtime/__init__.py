"""Live asyncio/UDP runtime for the middleware protocol.

The simulator (:mod:`repro.sim` + :mod:`repro.net`) and this package run
the *same* protocol objects (:class:`~repro.core.peer.Peer`,
:class:`~repro.core.manager.ResourceManager`) — the runtime swaps the
fabric underneath them:

:mod:`repro.runtime.codec`
    Versioned JSON wire format for :class:`~repro.net.message.Message`.
:mod:`repro.runtime.transport`
    The :class:`Transport` abstraction with a simulated
    (:class:`SimTransport`) and a live UDP (:class:`UdpTransport`)
    implementation (acks, retries, duplicate suppression).
:mod:`repro.runtime.node`
    :class:`LiveNode`: one protocol endpoint whose event kernel is
    pumped in wall-clock time on an asyncio loop.
:mod:`repro.runtime.roster`
    The decentralized membership replica (ring-ordered, versioned,
    gossip-merged).
:mod:`repro.runtime.agent`
    :class:`RosterAgent`: the one membership endpoint — answers joins,
    gossips the roster, runs the §4.1 RM qualification election.  One
    per shard process; a single-process domain hosts exactly one.
:mod:`repro.runtime.cluster`
    :class:`LiveCluster`: an in-process N-peers-plus-RM harness (one
    agent, one loop) for tests and demos.
:mod:`repro.runtime.shard`
    :class:`ShardHost`: a child process pumping its bucket of
    :class:`LiveNode` s, reporting over the supervisor's control pipe.
:mod:`repro.runtime.supervisor`
    :class:`ClusterSupervisor`: spawns/respawns shards, relays task
    events, aggregates ``/metrics``, orchestrates drains.
:mod:`repro.runtime.soak`
    The ``repro-live-soak`` scenario: sustained load plus fault
    injection against the sharded cluster (see ``docs/runtime.md``).
"""

from repro.runtime.codec import (
    WIRE_VERSION,
    WireFormatError,
    decode_frame,
    encode_ack,
    encode_message,
)
from repro.runtime.transport import (
    PeerDirectory,
    SimTransport,
    Transport,
    UdpTransport,
)
from repro.runtime.node import LiveNode, NodeSpec, SimClockPump
from repro.runtime.cluster import LiveCluster, LiveClusterConfig
from repro.runtime.roster import Roster, RosterEntry, ring_position
from repro.runtime.agent import RosterAgent
from repro.runtime.shard import ShardConfig, ShardHost
from repro.runtime.supervisor import (
    ClusterSupervisor,
    TaskLedger,
    merge_prometheus,
    partition_specs,
)
from repro.runtime.soak import SoakConfig, run_soak

__all__ = [
    "WIRE_VERSION",
    "WireFormatError",
    "decode_frame",
    "encode_ack",
    "encode_message",
    "PeerDirectory",
    "SimTransport",
    "Transport",
    "UdpTransport",
    "LiveNode",
    "NodeSpec",
    "SimClockPump",
    "LiveCluster",
    "LiveClusterConfig",
    "Roster",
    "RosterEntry",
    "ring_position",
    "RosterAgent",
    "ShardConfig",
    "ShardHost",
    "ClusterSupervisor",
    "TaskLedger",
    "merge_prometheus",
    "partition_specs",
    "SoakConfig",
    "run_soak",
]
