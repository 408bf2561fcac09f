"""Inter-domain redirection (§4.5) with hand-built domains.

Two domains: the requested object lives only in domain B.  A query
submitted in domain A must be redirected — and with gossiped Bloom
summaries the redirect is *targeted* at B rather than blind.
"""

from repro.core import Peer, PeerConfig, ResourceManager
from repro.core.info_base import PeerRecord
from repro.core.manager import RMConfig
from repro.gossip import GossipAgent, GossipConfig
from repro.media import MediaFormat, MediaObject
from repro.net import ConstantLatency, Network
from repro.sim import Environment
from repro.tasks.task import TaskOutcome

SRC = MediaFormat("MPEG-2", 640, 480, 256.0)
DST = MediaFormat("MPEG-4", 640, 480, 64.0)


class TwoDomains:
    """Domain A (rmA + a1): no object. Domain B (rmB + b1): has it."""

    def __init__(self, max_redirects=3, with_gossip=True):
        self.env = Environment()
        self.net = Network(self.env, ConstantLatency(0.01), bandwidth=1e7)
        self.events = []
        cfg = RMConfig(max_redirects=max_redirects)
        self.rmA = ResourceManager(
            self.env, self.net, "rmA", "dA", rm_config=cfg,
            on_task_event=lambda t, e: self.events.append((t.task_id, e)),
        )
        self.rmB = ResourceManager(
            self.env, self.net, "rmB", "dB", rm_config=cfg,
            on_task_event=lambda t, e: self.events.append((t.task_id, e)),
        )
        self.rmA.known_rms["rmB"] = "dB"
        self.rmB.known_rms["rmA"] = "dA"

        self.a1 = Peer(self.env, self.net, "a1", PeerConfig(power=10.0),
                       rm_id="rmA")
        self.rmA.admit_peer(PeerRecord(peer_id="a1", power=10.0,
                                       bandwidth=1e7))
        self.b1 = Peer(self.env, self.net, "b1", PeerConfig(power=10.0),
                       rm_id="rmB")
        self.rmB.admit_peer(PeerRecord(peer_id="b1", power=10.0,
                                       bandwidth=1e7))

        self.movie = MediaObject("movie", SRC, duration_s=30.0)
        self.b1.store_object(self.movie)
        self.rmB.object_catalog["movie"] = self.movie
        self.rmB.info.peer("b1").objects.add("movie")
        self.rmB.info.register_service_instance(
            SRC, DST, "tc", "b1", work=10.0, out_bytes=2.4e5, edge_id="e1",
        )

        if with_gossip:
            self.gA = GossipAgent(self.rmA, GossipConfig(period=1.0))
            self.gB = GossipAgent(self.rmB, GossipConfig(period=1.0))

    def submit_in_a(self, deadline=60.0):
        acks = []

        def client():
            reply = yield from self.a1.submit_task(
                "movie", DST, deadline
            )
            acks.append(reply.payload)

        self.env.process(client())
        return acks


class TestTargetedRedirect:
    def test_redirect_lands_in_owning_domain(self):
        sys = TwoDomains()
        sys.env.run(until=10.0)  # let gossip converge
        assert "rmB" in sys.rmA.info.remote_summaries
        acks = sys.submit_in_a()
        sys.env.run(until=60.0)
        assert acks[0]["disposition"] == "redirected"
        task = next(iter(sys.rmB.tasks.values()))
        assert task.outcome is TaskOutcome.MET_DEADLINE
        assert task.admitted_domain == "dB"
        assert sys.rmA.stats["redirected_out"] == 1
        assert sys.rmB.stats["redirected_in"] == 1

    def test_sink_is_original_origin_across_domains(self):
        sys = TwoDomains()
        sys.env.run(until=10.0)
        sys.submit_in_a()
        sys.env.run(until=60.0)
        task = next(iter(sys.rmB.tasks.values()))
        assert task.origin_peer == "a1"
        # The final stream crossed the domain boundary back to a1.
        session_done = [e for _t, e in sys.events if e == "completed"]
        assert session_done

    def test_redirect_without_summary_uses_fallback(self):
        sys = TwoDomains(with_gossip=False)
        acks = sys.submit_in_a()
        sys.env.run(until=60.0)
        # rmA knows rmB exists (bootstrap roster) but has no summary:
        # the blind fallback still forwards rather than rejecting.
        assert acks[0]["disposition"] == "redirected"
        task = next(iter(sys.rmB.tasks.values()))
        assert task.outcome is TaskOutcome.MET_DEADLINE

    def test_no_other_domain_rejects(self):
        sys = TwoDomains()
        sys.rmA.known_rms.clear()
        acks = sys.submit_in_a()
        sys.env.run(until=10.0)
        assert acks[0]["disposition"] == "rejected"

    def test_max_redirects_bounds_forwarding(self):
        """A task nobody can serve dies after max_redirects hops."""
        sys = TwoDomains(max_redirects=2)
        # Remove the object everywhere: both RMs will keep forwarding.
        sys.rmB.object_catalog.clear()
        sys.rmB.info.peer("b1").objects.clear()
        sys.env.run(until=5.0)
        sys.submit_in_a()
        sys.env.run(until=60.0)
        total_out = (
            sys.rmA.stats["redirected_out"]
            + sys.rmB.stats["redirected_out"]
        )
        assert total_out <= 2
        rejected = [e for _t, e in sys.events if e == "rejected"]
        assert rejected

    def test_redirected_task_deadline_keeps_running(self):
        """The redirect consumes budget: the target sees less slack."""
        sys = TwoDomains()
        sys.env.run(until=10.0)
        sys.submit_in_a(deadline=60.0)
        sys.env.run(until=60.0)
        task = next(iter(sys.rmB.tasks.values()))
        # Submitted at rmA's receive time, not rmB's.
        assert task.submitted_at < 11.0
        assert task.redirects == 1
