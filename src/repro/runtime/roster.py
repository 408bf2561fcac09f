"""Decentralized cluster roster: ring-ordered, versioned, gossip-merged.

The sharded live runtime has no single registration point.  Every
:class:`~repro.runtime.agent.RosterAgent` (one per shard process) holds
a :class:`Roster` replica and converges it with its peers through
deltas broadcast on membership changes plus periodic anti-entropy pages
piggybacked on the existing ``gossip_summaries`` message kind — the
Distributed-Slicing idiom of roster/ordering maintenance without a
leader.

Entries are versioned per member: whichever agent performs a membership
change (join, leave, re-join after a crash) bumps the entry's version,
and replicas merge by last-writer-wins on ``(version, status)`` with
departures winning ties — so a tombstone is never resurrected by a
stale ``up`` copy, while a genuine re-join (version bumped above the
tombstone) always lands.

Members are ordered on a hash ring (:func:`ring_position`, the
Socket-Project DHT idiom): id assignment is stable across processes and
restarts, and the election coordinator is simply the ring-lowest live
agent — any replica computes the same one without a message exchange.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Width of the identifier ring (32-bit, Socket-Project style).
RING_BITS = 32
RING_SIZE = 1 << RING_BITS

STATUS_UP = "up"
STATUS_LEFT = "left"

KIND_NODE = "node"
KIND_AGENT = "agent"


def ring_position(member_id: str) -> int:
    """Stable ring coordinate of *member_id* (sha1, PYTHONHASHSEED-free)."""
    digest = hashlib.sha1(member_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % RING_SIZE


@dataclass
class RosterEntry:
    """One member of the cluster roster (a node or a shard agent)."""

    member_id: str
    host: str
    port: int
    kind: str = KIND_NODE
    shard: Optional[str] = None
    power: float = 0.0
    bandwidth: float = 0.0
    uptime: float = 1.0
    version: int = 1
    status: str = STATUS_UP
    ring: int = field(default=-1)

    def __post_init__(self) -> None:
        if self.ring < 0:
            self.ring = ring_position(self.member_id)

    @property
    def up(self) -> bool:
        return self.status == STATUS_UP

    def to_wire(self) -> Dict[str, Any]:
        """Compact dict for gossip payloads (addresses + capabilities —
        hosted objects/edges never ride the roster, only join forwards)."""
        return {
            "id": self.member_id, "host": self.host, "port": self.port,
            "kind": self.kind, "shard": self.shard,
            "power": self.power, "bandwidth": self.bandwidth,
            "uptime": self.uptime,
            "version": self.version, "status": self.status,
        }

    @classmethod
    def from_wire(cls, doc: Dict[str, Any]) -> "RosterEntry":
        return cls(
            member_id=doc["id"], host=doc["host"], port=int(doc["port"]),
            kind=doc.get("kind", KIND_NODE), shard=doc.get("shard"),
            power=float(doc.get("power", 0.0)),
            bandwidth=float(doc.get("bandwidth", 0.0)),
            uptime=float(doc.get("uptime", 1.0)),
            version=int(doc.get("version", 1)),
            status=doc.get("status", STATUS_UP),
        )


class Roster:
    """A replica of the cluster membership map.

    Mutations come from two sources: local membership operations
    (:meth:`upsert`, :meth:`tombstone` — these bump versions) and remote
    gossip (:meth:`merge` — pure LWW, never bumps).
    """

    def __init__(self) -> None:
        self._entries: Dict[str, RosterEntry] = {}

    # -- read side ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, member_id: str) -> bool:
        return member_id in self._entries

    def get(self, member_id: str) -> Optional[RosterEntry]:
        return self._entries.get(member_id)

    def entries(self) -> List[RosterEntry]:
        return list(self._entries.values())

    def members(self, kind: str) -> List[RosterEntry]:
        """Live members of *kind*, in ring order."""
        out = [e for e in self._entries.values() if e.kind == kind and e.up]
        out.sort(key=lambda e: (e.ring, e.member_id))
        return out

    def nodes_up(self) -> List[RosterEntry]:
        return self.members(kind=KIND_NODE)

    def agents_up(self) -> List[RosterEntry]:
        return self.members(kind=KIND_AGENT)

    def coordinator(self) -> Optional[str]:
        """Ring-lowest live agent: the deterministic election runner."""
        agents = self.agents_up()
        return agents[0].member_id if agents else None

    # -- write side --------------------------------------------------------
    def upsert(self, entry: RosterEntry) -> RosterEntry:
        """Local membership op: (re-)announce *entry*, bumping its
        version above whatever this replica has seen (including a
        tombstone, so re-joins win)."""
        prev = self._entries.get(entry.member_id)
        if prev is not None:
            entry.version = max(entry.version, prev.version + 1)
        entry.status = STATUS_UP
        self._entries[entry.member_id] = entry
        return entry

    def tombstone(self, member_id: str) -> Optional[RosterEntry]:
        """Local membership op: mark a departure (rebuild-on-leave)."""
        entry = self._entries.get(member_id)
        if entry is None or entry.status == STATUS_LEFT:
            return None
        entry.version += 1
        entry.status = STATUS_LEFT
        return entry

    def merge_one(self, incoming: RosterEntry) -> bool:
        """LWW merge of one gossiped entry; True if it was applied."""
        current = self._entries.get(incoming.member_id)
        if current is None:
            self._entries[incoming.member_id] = incoming
            return True
        if incoming.version > current.version:
            self._entries[incoming.member_id] = incoming
            return True
        if (
            incoming.version == current.version
            and incoming.status == STATUS_LEFT
            and current.status == STATUS_UP
        ):
            # Tie-break: a departure at the same version wins, so a
            # tombstone is never shadowed by its own pre-leave copy.
            self._entries[incoming.member_id] = incoming
            return True
        return False

    def merge(self, docs: List[Dict[str, Any]]) -> List[RosterEntry]:
        """Merge a gossip page; returns the entries that changed."""
        changed = []
        for doc in docs:
            entry = RosterEntry.from_wire(doc)
            if self.merge_one(entry):
                changed.append(entry)
        return changed

    # -- gossip paging -----------------------------------------------------
    def page(
        self, cursor: int, limit: int
    ) -> Tuple[List[RosterEntry], Optional[int]]:
        """One anti-entropy page in stable (ring, id) order.

        Returns ``(entries, next_cursor)``; ``next_cursor`` is ``None``
        once the roster is exhausted.  Tombstones are included so
        departures propagate.
        """
        ordered = sorted(
            self._entries.values(), key=lambda e: (e.ring, e.member_id)
        )
        window = ordered[cursor:cursor + limit]
        nxt = cursor + limit if cursor + limit < len(ordered) else None
        return window, nxt

    def rotation(self, cursor: int, limit: int) -> Tuple[List[RosterEntry], int]:
        """A wrapping window for periodic gossip; returns the window and
        the advanced cursor, so successive rounds cycle the roster."""
        ordered = sorted(
            self._entries.values(), key=lambda e: (e.ring, e.member_id)
        )
        if not ordered:
            return [], 0
        cursor %= len(ordered)
        window = ordered[cursor:cursor + limit]
        if len(window) < limit:
            window += ordered[:limit - len(window)]
        return window, (cursor + limit) % len(ordered)

    def counts(self) -> Dict[str, int]:
        """Convergence snapshot: members by kind/status."""
        out = {"nodes_up": 0, "agents_up": 0, "left": 0, "total": 0}
        for e in self._entries.values():
            out["total"] += 1
            if not e.up:
                out["left"] += 1
            elif e.kind == KIND_NODE:
                out["nodes_up"] += 1
            elif e.kind == KIND_AGENT:
                out["agents_up"] += 1
        return out

    def __repr__(self) -> str:
        c = self.counts()
        return (
            f"<Roster nodes={c['nodes_up']} agents={c['agents_up']} "
            f"left={c['left']}>"
        )
