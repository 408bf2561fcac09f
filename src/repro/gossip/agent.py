"""Anti-entropy gossip between Resource Managers.

Each RM runs a :class:`GossipAgent`:

* every ``period`` it re-publishes its own :class:`DomainSummary` if the
  domain contents changed (version bump),
* picks ``fanout`` random RM peers and sends them a **digest** (the
  version vector of every summary it holds),
* a digest receiver replies with the summaries it holds that are newer
  than the digest claims (push on demand = pull-style anti-entropy).

The version vector is kept beside the summaries (``versions``, in hold
order), so a digest is a dict copy and a reply compares two vectors of
integers.  Summaries are shared, not copied: a published summary is
never written again (the publisher's load refresh makes a new object),
so a receiver holds exactly what was sent, as over the live runtime's
serialise-at-send wire.

The agent also keeps the RM's ``known_rms`` roster in sync: any RM seen
in a digest becomes a future gossip target.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from repro import telemetry
from repro.core import protocol
from repro.core.manager import ResourceManager
from repro.net.message import Message
from repro.sim.rng import fallback_rng
from repro.summaries.domain_summary import DomainSummary

#: Bloom geometry for published summaries (bits, hashes).
BLOOM_BITS = 2048
BLOOM_HASHES = 5


@dataclass
class GossipConfig:
    """Gossip tunables."""

    period: float = 5.0
    fanout: int = 2

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout}")


class GossipAgent:
    """Drives summary publication and anti-entropy for one RM."""

    def __init__(
        self,
        rm: ResourceManager,
        config: Optional[GossipConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.rm = rm
        self.config = config or GossipConfig()
        # Fallback: a per-agent stream from the ambient scenario seed
        # when one is installed (see repro.sim.rng), else OS entropy
        # (the overlay plumbs an explicit per-agent stream derived from
        # the run seed).
        self.rng = (
            rng if rng is not None
            else fallback_rng(f"gossip:{rm.node_id}")
        )
        #: All summaries this agent holds, by rm id (own included).
        self.summaries: Dict[str, DomainSummary] = {}
        #: Their versions (the digest) and other RMs' domains, in order.
        self.versions: Dict[str, int] = {}
        self._domains: Dict[str, str] = {}
        self._last_published: Optional[tuple] = None
        self.rounds = 0
        self.n_foreign = 0  # received summaries items that were not one

        rm.on(protocol.GOSSIP_DIGEST, self._handle_digest)
        rm.on(protocol.GOSSIP_SUMMARIES, self._handle_summaries)
        self._timer = rm.env.every(self.config.period, self._round)

    # -- publication -------------------------------------------------------
    def publish(self) -> DomainSummary:
        """(Re)build this domain's summary if its contents changed."""
        rm = self.rm
        mean_util = rm.info.mean_utilization(rm.env.now)
        fingerprint = (rm.info.all_objects(), rm.info.all_services(),
                       rm.info.n_peers)
        current = self.summaries.get(rm.node_id)
        if current is not None and fingerprint == self._last_published:
            # Contents unchanged: only refresh the load figure, in a new
            # object (receivers hold the one sent); §4.4 says summaries
            # change only on join/leave, so no version bump.
            if current.mean_utilization != mean_util:
                current = replace(current, mean_utilization=mean_util)
                self.summaries[rm.node_id] = current
            return current
        base = current or DomainSummary(rm.domain_id, rm.node_id)
        summary = base.rebuild(
            sorted(fingerprint[0]), sorted(fingerprint[1]), rm.info.n_peers,
            mean_util, geometry=(BLOOM_BITS, BLOOM_HASHES),
        )
        self.summaries[rm.node_id] = summary
        self.versions[rm.node_id] = summary.version
        self._last_published = fingerprint
        self._sync_into_rm()
        return summary

    def _sync_into_rm(self) -> None:
        """Expose held summaries to the RM's redirect logic: a no-op
        unless ``known_rms`` lost a held RM (a takeover pops it) or has
        it as "?"; then all are written back in hold order."""
        known = self.rm.known_rms
        if self._domains.items() <= known.items():
            return
        for rm_id, summary in self.summaries.items():
            if rm_id == self.rm.node_id:
                continue
            self.rm.info.remote_summaries[rm_id] = summary
            # Overwrite, don't setdefault: the summary carries the
            # authoritative domain id, not the "?" placeholder.
            known[rm_id] = summary.domain_id

    # -- digests --------------------------------------------------------------
    def digest(self) -> Dict[str, int]:
        """Version vector of all held summaries."""
        return dict(self.versions)

    # The live roster pages share both kinds: a missing field is empty.
    def _handle_digest(self, msg: Message) -> None:
        their: Dict[str, int] = msg.payload.get("digest", {})
        rm = self.rm
        # Learn about RMs we did not know.
        if not their.keys() - rm.known_rms.keys() <= {rm.node_id}:
            for rm_id in their:
                if rm_id != rm.node_id:
                    rm.known_rms.setdefault(rm_id, "?")
        get, held = their.get, self.summaries
        fresher = [
            held[rm_id] for rm_id, version in self.versions.items()
            if version > get(rm_id, -1)
        ]
        if fresher:
            rm.reply(
                msg, protocol.GOSSIP_SUMMARIES,
                {"summaries": fresher},
                size=protocol.size_of(protocol.GOSSIP_SUMMARIES),
            )

    def _handle_summaries(self, msg: Message) -> None:
        now = self.rm.env.now
        for summary in msg.payload.get("summaries", ()):
            if not isinstance(summary, DomainSummary):
                self.n_foreign += 1
                continue
            rm_id = summary.rm_id
            if summary.newer_than(self.summaries.get(rm_id)):
                # Stored as sent: no summary is written once published.
                self.summaries[rm_id] = summary
                self.versions[rm_id] = summary.version
                # Stamp the receipt so redirect staleness bounds can
                # distrust load reports that stopped refreshing.
                if rm_id != self.rm.node_id:
                    self._domains[rm_id] = summary.domain_id
                    self.rm.info.note_summary(rm_id, summary, now)
        self._sync_into_rm()

    # -- the round --------------------------------------------------------------
    def _round(self) -> None:
        rm = self.rm
        if not rm.active:
            return
        self.publish()
        targets = [rid for rid in rm.known_rms if rid != rm.node_id]
        if not targets:
            return
        k = min(self.config.fanout, len(targets))
        chosen = self.rng.choice(len(targets), size=k, replace=False)
        # One digest per round, shared across the fanout — receivers
        # only read it, and the live runtime serializes per hop anyway.
        payload = {"digest": self.digest()}
        size = protocol.size_of(protocol.GOSSIP_DIGEST)
        for idx in chosen:
            rm.send(
                protocol.GOSSIP_DIGEST, targets[int(idx)], payload, size=size,
            )
        self.rounds += 1
        tel = telemetry.current()
        if tel.enabled:
            tel.tracer.event(
                "gossip.round", node=rm.node_id, fanout=k, round=self.rounds,
            )
            tel.metrics.counter("repro_gossip_rounds_total").inc()

    def stop(self) -> None:
        self._timer.cancel()
