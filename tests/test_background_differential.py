"""The background plane against the scans it replaced.

Four parts of the periodic control plane now pay once per change: the
gossip agent keeps a version vector beside its summaries and shares
them instead of cloning, the Bloom filter memoises a name's probe
positions, an idle profiler sample returns early, and the overlay's join
walk skips domains it has seen full.  Each reference below is the code
as it was before, kept verbatim (the gossip methods with the summary
``clone`` they called, and their in-place load refresh forced past the
now frozen summary), and each differential drives both with the
same random inputs and compares every output, including dict order:
``known_rms`` order feeds the gossip target draw and the redirect
tie-break.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from typing import Any, Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import protocol
from repro.core.info_base import DomainInfoBase
from repro.core.manager import RMConfig
from repro.gossip.agent import BLOOM_BITS, BLOOM_HASHES, GossipAgent
from repro.monitoring.profiler import Profiler
from repro.net import ConstantLatency, Message, Network
from repro.overlay import OverlayNetwork, PeerSpec
from repro.sim import Environment, RandomStreams
from repro.summaries import BloomFilter, DomainSummary


# -- gossip: the agent's methods before the version vector, verbatim ------------
class OracleAgent:
    """The receiver half of the old :class:`GossipAgent`: full rescans
    for the digest reply and the RM sync, a clone per stored summary,
    and an in-place load refresh."""

    def __init__(self, rm: "FakeRM") -> None:
        self.rm = rm
        self.summaries: Dict[str, DomainSummary] = {}
        self._last_published: Optional[tuple] = None
        self.n_foreign = 0

    def publish(self) -> DomainSummary:
        """(Re)build this domain's summary if its contents changed."""
        rm = self.rm
        objects = sorted(rm.info.all_objects())
        services = sorted(rm.info.all_services())
        mean_util = rm.info.mean_utilization(rm.env.now)
        fingerprint = (tuple(objects), tuple(services), rm.info.n_peers)
        current = self.summaries.get(rm.node_id)
        if current is not None and fingerprint == self._last_published:
            # Contents unchanged: only refresh the load figure in place
            # (load drifts constantly; §4.4 says summaries change only
            # on join/leave, so no version bump).
            # (DomainSummary is frozen now: the old write, forced.)
            object.__setattr__(current, "mean_utilization", mean_util)
            return current
        base = current or DomainSummary(rm.domain_id, rm.node_id)
        summary = base.rebuild(
            objects, services, rm.info.n_peers, mean_util,
            geometry=(BLOOM_BITS, BLOOM_HASHES),
        )
        self.summaries[rm.node_id] = summary
        self._last_published = fingerprint
        self._sync_into_rm()
        return summary

    def _sync_into_rm(self) -> None:
        """Expose held summaries to the RM's redirect logic."""
        for rm_id, summary in self.summaries.items():
            if rm_id == self.rm.node_id:
                continue
            self.rm.info.remote_summaries[rm_id] = summary
            # Overwrite, don't setdefault: a digest may have introduced
            # this RM under the "?" placeholder; the summary carries the
            # authoritative domain id and must replace it, otherwise
            # redirect targeting keeps a bogus domain roster forever.
            self.rm.known_rms[rm_id] = summary.domain_id

    def digest(self) -> Dict[str, int]:
        """Version vector of all held summaries."""
        return {rm_id: s.version for rm_id, s in self.summaries.items()}

    def _handle_digest(self, msg: Message) -> None:
        their: Dict[str, int] = msg.payload.get("digest", {})
        # Learn about RMs we did not know.
        for rm_id in their:
            if rm_id != self.rm.node_id:
                self.rm.known_rms.setdefault(rm_id, "?")
        fresher = [
            s for rm_id, s in self.summaries.items()
            if s.version > their.get(rm_id, -1)
        ]
        if fresher:
            self.rm.reply(
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
            held = self.summaries.get(summary.rm_id)
            if summary.newer_than(held):
                # Copy on receipt: the simulated fabric delivers payload
                # objects by reference, so without the copy the
                # publisher's in-place load refresh would time-travel to
                # remote RMs without a gossip round — diverging from the
                # live UDP runtime, which serializes every hop.
                summary = dataclasses.replace(summary)  # the old clone()
                self.summaries[summary.rm_id] = summary
                # Stamp the receipt so redirect staleness bounds can
                # distrust load reports that stopped refreshing.
                if summary.rm_id != self.rm.node_id:
                    self.rm.info.note_summary(summary.rm_id, summary, now)
        self._sync_into_rm()


class FakeInfo:
    """The slice of :class:`DomainInfoBase` the agent reads and writes."""

    note_summary = DomainInfoBase.note_summary

    def __init__(self) -> None:
        self.remote_summaries: Dict[str, Any] = {}
        self.summary_received_at: Dict[str, float] = {}
        self.objects = {"o0"}
        self.services = {"s0"}
        self.n_peers = 1
        self.util = 0.0

    def all_objects(self) -> set:
        return set(self.objects)

    def all_services(self) -> set:
        return set(self.services)

    def mean_utilization(self, now: float) -> float:
        return self.util


class FakeRM:
    node_id = "me"
    domain_id = "d0"
    active = True

    def __init__(self) -> None:
        self.env = Environment()
        self.info = FakeInfo()
        self.known_rms: Dict[str, str] = {}
        self.replies: List[list] = []

    def on(self, kind: str, handler: Any) -> None:
        pass

    def reply(self, msg: Message, kind: str, payload: dict, size: float) -> None:
        self.replies.append([_fields(s) for s in payload["summaries"]])


def _fields(summary: DomainSummary) -> tuple:
    return (summary.rm_id, summary.domain_id, summary.version,
            struct.pack("<d", summary.mean_utilization).hex(),
            summary.n_peers, summary.objects.bits.tobytes())


def _view(agent: Any) -> tuple:
    rm = agent.rm
    return (
        [(k, _fields(s)) for k, s in agent.summaries.items()],
        list(agent.digest().items()),
        list(rm.known_rms.items()),
        [(k, _fields(s)) for k, s in rm.info.remote_summaries.items()],
        list(rm.info.summary_received_at.items()),
        rm.replies, agent.n_foreign,
    )


IDS = ["me", "r1", "r2", "r3", "r4", "r5", "r6"]
versions = st.integers(0, 4)
ops = st.lists(st.one_of(
    st.tuples(st.just("digest"), st.dictionaries(st.sampled_from(IDS), versions)),
    st.tuples(st.just("summaries"), st.lists(st.one_of(
        st.tuples(st.sampled_from(IDS), st.sampled_from(["d1", "d2", "d9"]),
                  versions, st.floats(0.0, 2.0)),
        st.just("foreign"),
    ), max_size=5)),
    # A takeover elsewhere: the old RM is popped, its successor added.
    st.tuples(st.just("takeover"), st.sampled_from(IDS[1:]),
              st.sampled_from(["n1", "n2", "r4"])),
    st.tuples(st.just("introduce"), st.sampled_from(IDS[1:] + ["n1"]),
              st.sampled_from(["d1", "d3"])),
    st.tuples(st.just("publish"), st.booleans(),
              st.sampled_from([0.0, 0.25, 0.5])),
), max_size=25)


def _apply(agent: Any, op: tuple, step: int) -> None:
    rm = agent.rm
    rm.env._now = float(step)
    kind = op[0]
    if kind == "digest":
        agent._handle_digest(Message(
            kind=protocol.GOSSIP_DIGEST, src="rX", dst="me",
            payload={"digest": dict(op[1])},
        ))
    elif kind == "summaries":
        items = [
            7 if item == "foreign" else DomainSummary(
                domain_id=item[1], rm_id=item[0], version=item[2],
                mean_utilization=item[3],
            )
            for item in op[1]
        ]
        agent._handle_summaries(Message(
            kind=protocol.GOSSIP_SUMMARIES, src="rX", dst="me",
            payload={"summaries": items},
        ))
    elif kind == "takeover":
        rm.known_rms.pop(op[1], None)
        rm.known_rms[op[2]] = "dT"
    elif kind == "introduce":
        rm.known_rms[op[1]] = op[2]
    else:
        if op[1]:
            rm.info.objects.add(f"o{step}")
            rm.info.n_peers += 1
        rm.info.util = op[2]
        agent.publish()


@settings(max_examples=400, deadline=None)
@given(script=ops)
def test_gossip_receiver_matches_the_rescans(script):
    new = GossipAgent(FakeRM())
    old = OracleAgent(FakeRM())
    for agent in (new, old):
        agent.rm.known_rms.update({"r1": "d1", "r2": "d2"})
        agent.publish()
    assert _view(new) == _view(old)
    for step, op in enumerate(script, start=1):
        _apply(new, op, step)
        _apply(old, op, step)
        assert _view(new) == _view(old), op


def test_takeover_pop_then_receipt_reappends_in_hold_order():
    """A pinned case: the popped RM comes back after its successor, and
    before the RM first heard of in the same receipt, the way the full
    resync put it back."""
    new = GossipAgent(FakeRM())
    old = OracleAgent(FakeRM())
    script = [
        ("summaries", [("r1", "d1", 1, 0.5), ("r2", "d2", 1, 0.1)]),
        ("takeover", "r1", "n1"),
        ("summaries", [("r3", "d3", 1, 0.0)]),
    ]
    for step, op in enumerate(script, start=1):
        for agent in (new, old):
            _apply(agent, op, step)
    assert _view(new) == _view(old)
    assert list(new.rm.known_rms) == ["r2", "n1", "r1", "r3"]


def test_published_summary_is_never_written():
    """A receiver holds what was sent: the publisher's load refresh
    makes a new object and leaves the sent one as it was."""
    agent = GossipAgent(FakeRM())
    sent = agent.publish()
    agent.rm.info.util = 0.75
    refreshed = agent.publish()
    assert refreshed is not sent and refreshed.version == sent.version
    assert sent.mean_utilization == 0.0 and refreshed.mean_utilization == 0.75
    assert agent.publish() is refreshed  # unchanged load: same object


# -- Bloom probe positions: the SHA-256 reference, verbatim ------------------
def reference_positions(item: str, n_bits: int, n_hashes: int) -> list:
    digest = hashlib.sha256(item.encode("utf-8")).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:16], "big") | 1  # odd: full-period step
    return [(h1 + i * h2) % n_bits for i in range(n_hashes)]


def reference_contains(bloom: BloomFilter, item: str) -> bool:
    digest = hashlib.sha256(item.encode("utf-8")).digest()
    h1 = int.from_bytes(digest[:8], "big")
    h2 = int.from_bytes(digest[8:16], "big") | 1
    bits = bloom.bits
    n_bits = bloom.n_bits
    for i in range(bloom.n_hashes):
        if not bits[(h1 + i * h2) % n_bits]:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(
    added=st.lists(st.text(max_size=12), max_size=20),
    probes=st.lists(st.text(max_size=12), max_size=20),
    n_bits=st.integers(1, 5000), n_hashes=st.integers(1, 12),
)
def test_bloom_positions_match_sha256(added, probes, n_bits, n_hashes):
    bloom = BloomFilter(n_bits, n_hashes)
    expected = [False] * bloom.n_bits
    for item in added:
        positions = reference_positions(item, bloom.n_bits, bloom.n_hashes)
        assert list(bloom._positions(item, bloom.n_bits, bloom.n_hashes)) \
            == positions
        for pos in positions:
            expected[pos] = True
        bloom.add(item)
    assert bloom.bits.tolist() == expected
    assert bloom.n_items == len(added)
    for item in added + probes:
        assert (item in bloom) == reference_contains(bloom, item)


# -- the idle profiler sample: the EWMA arithmetic, verbatim ---------------------
def reference_sample(self: Any) -> None:
    busy = self.processor.busy_time_now()
    now = self.env.now
    span = now - self._last_sample_t
    bytes_out = self._bytes_out
    if span > 0:  # EWMA.update, inline for both averages
        u = (busy - self._last_busy) / span
        u = u if u < 1.0 else 1.0
        bw = (bytes_out - self._last_bytes) / span
        ewma, v = self._util, self._util.value
        ewma.value = float(u) if v is None else v + ewma.alpha * (u - v)
        ewma, v = self._bw_rate, self._bw_rate.value
        ewma.value = float(bw) if v is None else v + ewma.alpha * (bw - v)
    self._last_sample_t = now
    self._last_busy = busy
    self._last_bytes = bytes_out


class FakeCPU:
    peer_id = "p"
    power = 1.0

    def __init__(self, busy: float) -> None:
        self.busy = busy

    def busy_time_now(self) -> float:
        return self.busy


def _bits(x: Any) -> Any:
    return struct.pack("<d", x).hex() if isinstance(x, float) else x


# Busy time and bytes never fall, so an average of their rates is never
# -0.0: a zero reads +0.0 here as it does in a run.
averages = st.one_of(st.none(), st.just(0.0),
                     st.floats(0.0, 2.0, exclude_min=True), st.floats(-1.0, 1e6))
amounts = st.one_of(st.just(0.0), st.just(3.5), st.floats(0.0, 1e4))


@settings(max_examples=500, deadline=None)
@given(
    util=averages, bw=averages, last_busy=amounts, busy_delta=amounts,
    last_bytes=amounts, bytes_delta=amounts,
    last_t=st.floats(0.0, 10.0), span=st.sampled_from([0.0, 0.5, 0.25, 3.0]),
    alpha=st.sampled_from([0.4, 1.0, 0.05]),
    same=st.tuples(st.booleans(), st.booleans()),
)
def test_idle_sample_matches_the_ewma_arithmetic(
    util, bw, last_busy, busy_delta, last_bytes, bytes_delta, last_t, span,
    alpha, same,
):
    states = []
    for sample in (Profiler._sample, reference_sample):
        env = Environment()
        prof = Profiler(env, FakeCPU(0.0), alpha=alpha)
        prof._util.value, prof._bw_rate.value = util, bw
        prof._last_sample_t, prof._last_busy = last_t, last_busy
        prof._last_bytes = last_bytes
        prof._bytes_out = last_bytes + (0.0 if same[1] else bytes_delta)
        prof.processor.busy = last_busy + (0.0 if same[0] else busy_delta)
        env._now = last_t + span
        sample(prof)
        states.append(tuple(_bits(x) for x in (
            prof._util.value, prof._bw_rate.value, prof._last_sample_t,
            prof._last_busy, prof._last_bytes, prof._bytes_out,
        )))
    assert states[0] == states[1]


# -- the join walk: the probe of every domain, verbatim ----------------------------
class OracleOverlay(OverlayNetwork):
    def join(self, spec, prefer_domain=None):
        if spec.peer_id in self.peers:
            raise ValueError(f"peer {spec.peer_id} already joined")
        if not self.domains:
            if self._qualifies(spec):
                self.create_domain(spec)
                self.stats["promotions"] += 1
                self.stats["joins"] += 1
                return self.peers[spec.peer_id]
            self.stats["join_rejects"] += 1
            return None

        # Contact the preferred (or first) RM; walk redirects.
        order = self._rm_contact_order(prefer_domain)
        for domain in order:
            decision = domain.rm.consider_join(
                spec.power, spec.bandwidth, spec.uptime
            )
            if decision == "accept":
                node = self._build_member(domain, spec)
                self.stats["joins"] += 1
                return node
            self.stats["join_redirects"] += 1
        # Every domain is full: promote if qualified (new domain), else
        # the join fails.
        if self._qualifies(spec):
            self.create_domain(spec)
            self.stats["promotions"] += 1
            self.stats["joins"] += 1
            return self.peers[spec.peer_id]
        self.stats["join_rejects"] += 1
        return None

    def _rm_contact_order(self, prefer_domain):
        order = list(self.domains.values())
        if prefer_domain is not None and prefer_domain in self.domains:
            order.sort(key=lambda d: d.domain_id != prefer_domain)
        return order


def _overlay(cls: type) -> OverlayNetwork:
    env = Environment()
    net = Network(env, ConstantLatency(0.005), bandwidth=1e7)
    return cls(env, net, rm_config=RMConfig(max_peers=3),
               enable_gossip=False, streams=RandomStreams(0))


# (power, uptime, preferred domain index): low uptime never leads.
joins = st.tuples(st.just("join"), st.sampled_from([10.0, 0.5]),
                  st.sampled_from([0.9, 0.1]),
                  st.one_of(st.none(), st.integers(0, 5)))
join_ops = st.lists(st.one_of(
    joins, joins, joins,
    st.tuples(st.just("fail"), st.integers(0, 40)),
    # The RM's own verdict on a member, then a newcomer.
    st.tuples(st.just("drop"), st.integers(0, 40)),
    st.tuples(st.just("run"), st.sampled_from([0.5, 4.0, 12.0])),
), min_size=8, max_size=60)


def _apply_join(overlay: OverlayNetwork, op: tuple, n: int) -> Any:
    kind = op[0]
    if kind == "join":
        ids = list(overlay.domains)
        prefer = ids[op[3] % len(ids)] if ids and op[3] is not None else None
        node = overlay.join(
            PeerSpec(f"p{n}", power=op[1], bandwidth=2e6, uptime=op[2]),
            prefer_domain=prefer,
        )
        return None if node is None else overlay.domain_of[node.node_id]
    members = sorted(overlay.peers)
    if kind == "run":
        overlay.env.run(until=overlay.env.now + op[1])
    elif kind == "fail":
        if members:
            overlay.fail_peer(members[op[1] % len(members)])
    else:  # a member of a full domain: the walk has closed that one
        held = [
            (domain.rm, pid) for domain in overlay.domains.values()
            if domain.rm.is_full for pid in sorted(domain.rm.info.peers)
            if pid != domain.rm.node_id
        ]
        if held:
            rm, pid = held[op[1] % len(held)]
            rm._peer_down(pid, graceful=False)
        # A newcomer right after: the one place a stale walk goes wrong.
        return _apply_join(overlay, ("join", 0.5, 0.1, None), n + 1000)
    return None


def _compare_joins(script: list) -> None:
    new, old = _overlay(OverlayNetwork), _overlay(OracleOverlay)
    for n, op in enumerate(script):
        assert _apply_join(new, op, n) == _apply_join(old, op, n), op
        assert new.stats == old.stats
        assert new.domain_of == old.domain_of
        assert [d.rm.node_id for d in new.domains.values()] == [
            d.rm.node_id for d in old.domains.values()
        ]


@settings(max_examples=200, deadline=None)
@given(script=join_ops)
def test_join_walk_matches_probing_every_domain(script):
    _compare_joins(script)


def test_join_walk_reopens_a_domain_whose_roster_shrank():
    """A pinned case: d0 and d1 fill, a d0 member is dropped by its RM,
    and the next newcomer lands in d0 again, not in the open d2."""
    join = ("join", 10.0, 0.9, None)
    _compare_joins([join] * 7 + [("drop", 1), join])
