"""Unit tests for the decentralized roster CRDT-ish replica.

The properties the sharded runtime leans on: LWW merge convergence
regardless of gossip order, tombstones that survive stale ``up`` copies
but lose to genuine re-joins, stable ring ordering across replicas and
processes, deterministic coordinator choice, and anti-entropy paging
that covers the whole roster including departures.
"""

from __future__ import annotations

import random

from repro.runtime.roster import (
    KIND_AGENT,
    KIND_NODE,
    RING_SIZE,
    Roster,
    RosterEntry,
    ring_position,
)


def entry(member_id, kind=KIND_NODE, version=1, port=1000, **kw):
    return RosterEntry(
        member_id=member_id, host="127.0.0.1", port=port,
        kind=kind, version=version, **kw,
    )


def test_ring_position_is_stable_and_bounded():
    # sha1-derived: identical across processes, PYTHONHASHSEED-free.
    assert ring_position("P1") == ring_position("P1")
    assert 0 <= ring_position("P1") < RING_SIZE
    assert ring_position("P1") != ring_position("P2")


def test_wire_round_trip():
    e = entry("P1", kind=KIND_AGENT, version=3, shard="s1",
              power=10.0, bandwidth=1.25e6, uptime=0.9)
    back = RosterEntry.from_wire(e.to_wire())
    assert back == e


def test_upsert_bumps_above_anything_seen():
    r = Roster()
    first = r.upsert(entry("P1"))
    assert first.version == 1
    r.tombstone("P1")
    assert r.get("P1").version == 2
    rejoin = r.upsert(entry("P1", port=2000))
    # The re-join outranks the tombstone: it must propagate everywhere.
    assert rejoin.version == 3 and rejoin.up
    assert r.get("P1").port == 2000


def test_merge_lww_and_tombstone_tie_break():
    r = Roster()
    r.merge([entry("P1", version=2).to_wire()])
    # A stale lower-version copy never lands.
    assert not r.merge_one(entry("P1", version=1, port=9))
    assert r.get("P1").port == 1000
    # Same version, departure wins the tie (never resurrect).
    left = entry("P1", version=2)
    left.status = "left"
    assert r.merge_one(left)
    assert not r.get("P1").up
    # ...but an up-copy at the same version does NOT shadow the stone.
    assert not r.merge_one(entry("P1", version=2))
    assert not r.get("P1").up
    # A genuine re-join (higher version) beats the tombstone.
    assert r.merge_one(entry("P1", version=3))
    assert r.get("P1").up


def test_merge_converges_regardless_of_delivery_order():
    """Replicas fed the same updates in different orders agree —
    the property that lets any shard answer a join."""
    updates = []
    for i in range(8):
        mid = f"P{i % 4}"
        e = entry(mid, version=i // 4 + 1, port=1000 + i)
        if i % 3 == 0:
            e.status = "left"
        updates.append(e.to_wire())
    rng = random.Random(7)
    replicas = []
    for _ in range(6):
        order = list(updates)
        rng.shuffle(order)
        r = Roster()
        for doc in order:
            r.merge([doc])
        replicas.append(r)
    snapshots = [
        sorted(
            (e.member_id, e.version, e.status, e.port)
            for e in r.entries()
        )
        for r in replicas
    ]
    assert all(s == snapshots[0] for s in snapshots)


def test_ring_order():
    r = Roster()
    for mid in ("P1", "P2", "P3", "P4"):
        r.upsert(entry(mid))
    ring = [e.member_id for e in r.nodes_up()]
    assert ring == sorted(ring, key=lambda m: (ring_position(m), m))


def test_coordinator_is_ring_lowest_live_agent():
    r = Roster()
    for i in range(3):
        r.upsert(entry(f"roster@s{i}", kind=KIND_AGENT))
    r.upsert(entry("P1"))  # nodes never coordinate
    agents = [e.member_id for e in r.agents_up()]
    assert r.coordinator() == agents[0]
    # The coordinator crashing promotes the next ring position — every
    # replica computes the same answer with no election messages.
    r.tombstone(agents[0])
    assert r.coordinator() == agents[1]
    for a in agents[1:]:
        r.tombstone(a)
    assert r.coordinator() is None


def test_paging_covers_everything_including_tombstones():
    r = Roster()
    for i in range(10):
        r.upsert(entry(f"P{i}"))
    r.tombstone("P3")
    seen = []
    cursor = 0
    while cursor is not None:
        window, cursor = r.page(cursor, limit=3)
        seen.extend(e.member_id for e in window)
    assert sorted(seen) == sorted(f"P{i}" for i in range(10))
    assert "P3" in seen  # departures ride anti-entropy too


def test_rotation_cycles_the_whole_roster():
    r = Roster()
    for i in range(7):
        r.upsert(entry(f"P{i}"))
    seen = set()
    cursor = 0
    for _ in range(4):  # ceil(7/2) rounds would do; extra is harmless
        window, cursor = r.rotation(cursor, limit=2)
        seen.update(e.member_id for e in window)
    assert seen == {f"P{i}" for i in range(7)}


def test_counts_snapshot():
    r = Roster()
    r.upsert(entry("P1"))
    r.upsert(entry("roster@s0", kind=KIND_AGENT))
    r.upsert(entry("P2"))
    r.tombstone("P2")
    assert r.counts() == {
        "nodes_up": 1, "agents_up": 1, "left": 1, "total": 3,
    }
