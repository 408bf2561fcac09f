"""Roster agent: the live runtime's one membership endpoint.

Every live domain forms through a :class:`RosterAgent` — a membership
endpoint on the same reliable UDP transport as the nodes.  Each
:class:`~repro.runtime.shard.ShardHost` process runs one; agents seed
from each other (addresses handed out by the supervisor or any live
agent), converge a replicated :class:`~repro.runtime.roster.Roster`,
and *any* of them can answer a ``join_request``, so there is no single
registration point to lose.  The in-process
:class:`~repro.runtime.cluster.LiveCluster` is the one-agent case of
the same protocol: no seeds, nothing to gossip to, the agent is its own
coordinator.

* **join** — record the member, bump its roster version, broadcast the
  delta to the other agents, and acknowledge with the member's role.
  Before the §4.1 election the ack is deferred; afterwards it is
  immediate and the full capability record is forwarded to the elected
  RM, which admits it into the domain information base.
* **election** — when a replica first sees the expected node population
  and is the ring-lowest live agent (a leaderless, deterministic
  choice), it ranks candidates with the §4.1
  :class:`~repro.overlay.qualification.QualificationPolicy` and
  broadcasts the result.  The agent hosting the winner acks it at
  once; its host calls :meth:`RosterAgent.announce_rm_ready` from the
  node's ``on_role`` callback, and only then do the agents release
  their deferred acks and forward the held records — so no peer ever
  heartbeats into a void.
* **gossip** — roster deltas ride the existing ``gossip_summaries``
  kind (payloads are plain dicts; wire format stays v1), with periodic
  rotating anti-entropy pages for convergence under loss and a
  ``gossip_digest`` pull protocol for crash-respawned agents to rebuild
  their replica before re-registering their nodes under the old ids.
* **leave** — a ``peer_leave`` tombstones the entry and the delta
  propagates (rebuild-on-leave); re-joins bump the version past the
  tombstone.
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry
from repro.core import protocol
from repro.net.message import Message
from repro.overlay.qualification import QualificationPolicy
from repro.runtime.codec import WireFormatError, check_join_record
from repro.runtime.roster import (
    KIND_AGENT,
    KIND_NODE,
    Roster,
    RosterEntry,
)
from repro.runtime.transport import PeerDirectory, UdpTransport
from repro.telemetry.logs import get_logger

#: Agent ids are derived from the shard id; they live in the same
#: directory namespace as node ids.
AGENT_PREFIX = "roster@"


def agent_id_for(shard_id: str) -> str:
    return f"{AGENT_PREFIX}{shard_id}"


class RosterAgent:
    """One shard's membership endpoint (no event kernel — pure asyncio)."""

    def __init__(
        self,
        shard_id: str,
        directory: PeerDirectory,
        domain_id: str = "d0",
        expected_nodes: Optional[int] = None,
        policy: Optional[QualificationPolicy] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        gossip_period: float = 1.0,
        gossip_fanout: int = 2,
        page_size: int = 100,
        rng: Optional[random.Random] = None,
        **transport_kwargs: Any,
    ) -> None:
        self.shard_id = shard_id
        self.node_id = agent_id_for(shard_id)
        self.domain_id = domain_id
        self.expected_nodes = expected_nodes
        self.policy = policy or QualificationPolicy()
        self.directory = directory
        self.gossip_period = gossip_period
        self.gossip_fanout = gossip_fanout
        self.page_size = page_size
        self.rng = rng or random.Random()
        self.transport = UdpTransport(
            self.node_id, directory, self._handle, host=host, port=port,
            **transport_kwargs,
        )
        self.roster = Roster()
        #: pid -> full JOIN_REQUEST payload (capabilities + objects/edges);
        #: kept for RM (re-)introduction, never gossiped.
        self.records: Dict[str, Dict[str, Any]] = {}
        #: pids that joined but whose ack waits for rm_ready.
        self.pending: Dict[str, bool] = {}
        # RM state replica: (epoch, ready) is monotone; epoch bumps on
        # every (re-)announcement of an assumed RM.
        self.rm_id: Optional[str] = None
        self.rm_ready = False
        self.rm_epoch = 0
        self._forwarded_epoch = 0
        self.draining = False
        self._gossip_task: Optional[asyncio.Task] = None
        self._gossip_cursor = 0
        self._pull_future: Optional[asyncio.Future] = None
        self.log = get_logger("runtime.agent", self.node_id)

    # -- lifecycle ---------------------------------------------------------
    async def start(self) -> "RosterAgent":
        await self.transport.start()
        self.roster.upsert(self._self_entry())
        # The shard's nodes address their agent through the shared
        # directory before any gossip has run.
        self.directory.add(
            self.node_id, self.transport.host, self.transport.port
        )
        self._gossip_task = asyncio.get_running_loop().create_task(
            self._gossip_loop(), name=f"gossip:{self.node_id}"
        )
        return self

    def _self_entry(self) -> RosterEntry:
        return RosterEntry(
            member_id=self.node_id, host=self.transport.host,
            port=self.transport.port, kind=KIND_AGENT, shard=self.shard_id,
        )

    async def close(self, graceful: bool = False) -> None:
        if self._gossip_task is not None:
            self._gossip_task.cancel()
            try:
                await self._gossip_task
            except (asyncio.CancelledError, Exception):
                pass
            self._gossip_task = None
        if graceful:
            entry = self.roster.tombstone(self.node_id)
            if entry is not None:
                self._broadcast_entries([entry])
            await self.transport.flush(timeout=1.0)
        await self.transport.aclose()

    # -- seeding -----------------------------------------------------------
    def add_seed_agents(
        self, agents: Dict[str, Tuple[str, int]]
    ) -> None:
        """Learn other agents' addresses (from the supervisor or any
        live agent); they enter the roster as they gossip."""
        for aid, (host, port) in agents.items():
            if aid == self.node_id:
                continue
            self.directory.add(aid, host, port)
            if aid not in self.roster:
                self.roster.merge_one(RosterEntry(
                    member_id=aid, host=host, port=int(port),
                    kind=KIND_AGENT, shard=aid[len(AGENT_PREFIX):],
                ))

    async def pull_roster(
        self, timeout: float = 5.0, per_page_timeout: float = 1.0
    ) -> bool:
        """Anti-entropy pull from any live agent (crash-respawn path).

        Pages through a seed's roster via ``gossip_digest`` requests;
        returns True once a full pass succeeded against some seed.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        seeds = [
            e.member_id for e in self.roster.agents_up()
            if e.member_id != self.node_id
        ]
        self.rng.shuffle(seeds)
        for seed in seeds:
            cursor: Optional[int] = 0
            ok = True
            while cursor is not None and loop.time() < deadline:
                self._pull_future = loop.create_future()
                self._send(protocol.GOSSIP_DIGEST, seed,
                           {"roster_pull": {"cursor": cursor}})
                try:
                    cursor = await asyncio.wait_for(
                        self._pull_future, per_page_timeout
                    )
                except asyncio.TimeoutError:
                    ok = False
                    break
                finally:
                    self._pull_future = None
            if ok and cursor is None:
                # The pulled roster contains the dead incarnation's
                # entry for this agent id; re-announce above it so the
                # new address wins the LWW merge everywhere.
                entry = self.roster.upsert(self._self_entry())
                self._broadcast_entries([entry])
                return True
        return False

    # -- host hooks --------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting joins; existing members keep being served."""
        self.draining = True

    def announce_rm_ready(self) -> None:
        """Called by the host once the local RM node assumed its role
        (every incarnation: a respawned RM announces a new epoch)."""
        state = {
            "rm_id": self.rm_id,
            "ready": True,
            "epoch": self.rm_epoch + 1,
        }
        self._apply_rm_state(state)
        self._broadcast_entries([])

    def tombstone(self, pid: str) -> None:
        """Departure of a member: tombstone it, forget its record (a
        later RM incarnation must not be re-introduced to it), and
        propagate the delta."""
        entry = self.roster.tombstone(pid)
        self.pending.pop(pid, None)
        self.records.pop(pid, None)
        if entry is not None:
            self._broadcast_entries([entry])

    # -- message handling --------------------------------------------------
    def _send(self, kind: str, dst: str, payload: Dict[str, Any]) -> None:
        self.transport.send(Message(
            kind=kind, src=self.node_id, dst=dst, payload=payload,
            size=protocol.size_of(kind),
            msg_id=next(self.transport.ids.msg),
        ))

    def _handle(self, msg: Message) -> None:
        if msg.kind == protocol.JOIN_REQUEST:
            self._handle_join(msg)
        elif msg.kind == protocol.PEER_LEAVE:
            self._handle_leave(msg)
        elif msg.kind == protocol.GOSSIP_SUMMARIES:
            self._handle_gossip(msg)
        elif msg.kind == protocol.GOSSIP_DIGEST:
            self._handle_pull(msg)
        # anything else: dropped, datagram-style

    def _handle_join(self, msg: Message) -> None:
        if self.draining:
            return  # admission stopped; the joiner retries another seed
        rec = msg.payload
        try:
            check_join_record(rec)
        except WireFormatError as exc:
            self.log.warning("dropped join from %s: %s", msg.src, exc)
            return
        pid = rec["peer_id"]
        self.records[pid] = dict(rec)
        self.directory.add(pid, rec["host"], rec["port"])
        entry = self.roster.upsert(RosterEntry(
            member_id=pid, host=rec["host"], port=rec["port"],
            kind=KIND_NODE, shard=rec.get("shard", self.shard_id),
            power=float(rec["power"]), bandwidth=float(rec["bandwidth"]),
            uptime=float(rec["uptime"]),
        ))
        self._broadcast_entries([entry])
        if self.rm_id is None:
            self.pending[pid] = True
            self._maybe_elect()
        elif pid == self.rm_id:
            # The RM (re-)joining — its host announces rm_ready once the
            # role is assumed; re-introduction follows on the new epoch.
            self.pending.pop(pid, None)
            self._ack(pid, role="rm")
        elif not self.rm_ready:
            self.pending[pid] = True
        else:
            self._ack(pid, role="peer")
            self._forward_record(pid)

    def _handle_leave(self, msg: Message) -> None:
        pid = msg.payload.get("peer_id", msg.src)
        self.tombstone(pid)
        self.directory.remove(pid)

    def _handle_gossip(self, msg: Message) -> None:
        payload = msg.payload
        docs = payload.get("roster")
        changed = self.roster.merge(docs) if isinstance(docs, list) else []
        self._sync_directory(changed)
        state = payload.get("rm")
        if isinstance(state, dict):
            self._apply_rm_state(state)
        if changed:
            # The final member may reach the coordinator via gossip
            # rather than a local join — check the election here too
            # (after the sender's RM state: a respawned coordinator
            # pulling the roster must adopt the standing RM, not
            # re-elect one).
            self._maybe_elect()
        pull = payload.get("pull_reply")
        if isinstance(pull, dict) and self._pull_future is not None:
            if not self._pull_future.done():
                self._pull_future.set_result(pull.get("next"))

    def _handle_pull(self, msg: Message) -> None:
        req = msg.payload.get("roster_pull")
        if not isinstance(req, dict):
            return
        cursor = int(req.get("cursor", 0))
        entries, nxt = self.roster.page(cursor, self.page_size)
        self._send(protocol.GOSSIP_SUMMARIES, msg.src, {
            "roster": [e.to_wire() for e in entries],
            "rm": self._rm_state(),
            "pull_reply": {"next": nxt},
        })

    # -- election ----------------------------------------------------------
    def _maybe_elect(self) -> None:
        if self.rm_id is not None or not self.expected_nodes:
            return
        ups = self.roster.nodes_up()
        if len(ups) < self.expected_nodes:
            return
        if self.roster.coordinator() != self.node_id:
            return
        candidates = [
            (e.member_id, e.power, e.bandwidth, e.uptime) for e in ups
        ]
        eligible = self.policy.rank(candidates)
        if eligible:
            rm_id = eligible[0]
        else:
            # Nobody clears the §4.1 minimums: most affluent wins anyway.
            rm_id = max(
                candidates, key=lambda c: (c[1] * c[2] * c[3], c[0])
            )[0]
        self.log.info(
            "elected %s over %d candidates", rm_id, len(candidates)
        )
        tel = telemetry.current()
        if tel.enabled:
            tel.tracer.event(
                "rm.elected", node=self.node_id, rm=rm_id,
                members=len(candidates),
            )
        self._apply_rm_state({"rm_id": rm_id, "ready": False, "epoch": 1})
        self._broadcast_entries([])

    def _rm_state(self) -> Dict[str, Any]:
        return {
            "rm_id": self.rm_id, "ready": self.rm_ready,
            "epoch": self.rm_epoch,
        }

    def _apply_rm_state(self, state: Dict[str, Any]) -> None:
        rm_id = state.get("rm_id")
        if rm_id is None:
            return
        epoch = int(state.get("epoch", 0))
        ready = bool(state.get("ready", False))
        if self.rm_id is not None and (
            (epoch, ready) <= (self.rm_epoch, self.rm_ready)
        ):
            return
        self.rm_id = rm_id
        self.rm_epoch = epoch
        self.rm_ready = ready
        if rm_id in self.pending:
            # This shard hosts the winner: ack it so it assumes the role.
            self.pending.pop(rm_id, None)
            self._ack(rm_id, role="rm")
        if ready and self._forwarded_epoch < epoch:
            self._forwarded_epoch = epoch
            for pid in list(self.pending):
                self.pending.pop(pid, None)
                if pid != rm_id:
                    self._ack(pid, role="peer")
            # (Re-)introduce every record this agent holds — a fresh RM
            # incarnation rebuilds its information base from the shards.
            for pid in list(self.records):
                if pid != rm_id:
                    self._forward_record(pid)

    # -- outbound ----------------------------------------------------------
    def _ack(self, pid: str, role: str) -> None:
        roster_slice: Dict[str, Dict[str, Any]] = {}
        # Address-only entries: the RM and this agent, enough for a
        # node with a per-process directory to reach the control plane.
        # Capability records reach the RM as forwarded JOIN_REQUESTs.
        if self.rm_id is not None:
            rm_entry = self.roster.get(self.rm_id)
            if rm_entry is not None:
                roster_slice[self.rm_id] = {
                    "peer_id": self.rm_id, "host": rm_entry.host,
                    "port": rm_entry.port,
                }
        roster_slice[self.node_id] = {
            "peer_id": self.node_id, "host": self.transport.host,
            "port": self.transport.port,
        }
        self._send(protocol.JOIN_ACK, pid, {
            "role": role,
            "rm_id": self.rm_id,
            "domain_id": self.domain_id,
            "roster": roster_slice,
        })

    def _forward_record(self, pid: str) -> None:
        """Hand a member's full record to the RM for admission."""
        rec = self.records.get(pid)
        if rec is None or self.rm_id is None:
            return
        if self.rm_id not in self.directory:
            return
        self._send(protocol.JOIN_REQUEST, self.rm_id, dict(rec))

    def _other_agents(self) -> List[str]:
        known = {
            e.member_id for e in self.roster.agents_up()
        }
        known.update(
            aid for aid in self.directory.known()
            if aid.startswith(AGENT_PREFIX)
        )
        known.discard(self.node_id)
        return sorted(known)

    def _broadcast_entries(self, entries: List[RosterEntry]) -> None:
        """Push a delta (and always the RM state) to every known agent."""
        payload = {
            "roster": [e.to_wire() for e in entries],
            "rm": self._rm_state(),
        }
        for aid in self._other_agents():
            self._send(protocol.GOSSIP_SUMMARIES, aid, payload)

    def _sync_directory(self, changed: List[RosterEntry]) -> None:
        for entry in changed:
            if entry.up:
                self.directory.add(entry.member_id, entry.host, entry.port)
            else:
                self.directory.remove(entry.member_id)

    async def _gossip_loop(self) -> None:
        """Periodic anti-entropy: a rotating roster page to K agents."""
        while True:
            await asyncio.sleep(self.gossip_period)
            others = self._other_agents()
            if not others:
                continue
            window, self._gossip_cursor = self.roster.rotation(
                self._gossip_cursor, self.page_size
            )
            payload = {
                "roster": [e.to_wire() for e in window],
                "rm": self._rm_state(),
            }
            fanout = min(self.gossip_fanout, len(others))
            for aid in self.rng.sample(others, fanout):
                self._send(protocol.GOSSIP_SUMMARIES, aid, payload)

    def counts(self) -> Dict[str, int]:
        return self.roster.counts()

    def __repr__(self) -> str:
        return (
            f"<RosterAgent {self.node_id} {self.roster!r} "
            f"rm={self.rm_id} ready={self.rm_ready}>"
        )
