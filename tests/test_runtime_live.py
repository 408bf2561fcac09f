"""End-to-end: a live domain over localhost UDP completes a media task.

The acceptance scenario for the live runtime: a
:class:`~repro.runtime.cluster.LiveCluster` of one roster agent, one
elected RM and four peers — real sockets, wall-clock event kernels —
admits and completes a Figure-1 transcoding task through the full
``TASK_REQUEST -> TASK_ACK -> COMPOSE -> START_STREAM -> STREAM ->
STEP_DONE -> TASK_DONE`` chain, using the *same* protocol handler code
paths as the simulator (asserted by handler-identity below — there is
no second dispatch table).
"""

from __future__ import annotations

import asyncio
import copy

import pytest

from repro.core import protocol
from repro.core.manager import ResourceManager, RMConfig
from repro.core.peer import Peer
from repro.net.message import Message
from repro.net.network import ConstantLatency, Network
from repro.runtime.cluster import (
    LiveCluster,
    LiveClusterConfig,
    fig1_specs,
)
from repro.runtime.node import LiveNode, NodeSpec
from repro.runtime.transport import UdpTransport
from repro.sim.core import Environment

pytestmark = pytest.mark.integration


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(scope="module")
def live_run():
    """One shared live run: boot, stream a task, late-join, leave."""
    async def main():
        out = {}
        config = LiveClusterConfig(object_duration_s=3.0)
        async with LiveCluster(config) as cluster:
            rm = cluster.rm_node
            out["rm_id"] = rm.node_id
            out["peer_ids"] = sorted(n.node_id for n in cluster.peers())
            out["rm_handlers"] = dict(rm.node._handlers)
            out["peer_handlers"] = {
                n.node_id: dict(n.node._handlers) for n in cluster.peers()
            }
            out["rm_obj"] = rm.node
            out["peer_objs"] = {n.node_id: n.node for n in cluster.peers()}

            ack = await cluster.submit("P4", deadline=20.0, timeout=15.0)
            out["ack"] = ack
            await cluster.wait_task_event(
                ack["task_id"], "completed", timeout=15.0
            )
            task = cluster.task(ack["task_id"])
            out["task_state"] = task.state.name
            out["allocation"] = list(task.allocation)
            out["events"] = [
                ev for _, tid, ev in cluster.task_events
                if tid == ack["task_id"]
            ]

            # Late join through the agent -> RM forwarding path.
            await cluster.add_peer(NodeSpec(node_id="P9", power=8.0))
            await asyncio.wait_for(rm.admitted(5), 5.0)
            out["p9_admitted"] = rm.node.info.has_peer("P9")
            out["p9_roster"] = cluster.agent.roster.get("P9").up
            out["members_joined"] = (
                sorted(rm.node.info.peers),
                sorted(e.member_id for e in cluster.agent.roster.nodes_up()),
            )

            # Graceful departure prunes both views via PEER_LEAVE.
            await cluster.remove_peer("P9")
            for _ in range(100):
                if not rm.node.info.has_peer("P9"):
                    break
                await asyncio.sleep(0.02)
            out["p9_after_leave"] = rm.node.info.has_peer("P9")
            out["p9_roster_after_leave"] = cluster.agent.roster.get("P9").up
            out["p9_record_held"] = "P9" in cluster.agent.records
            out["members_left"] = (
                sorted(rm.node.info.peers),
                sorted(e.member_id for e in cluster.agent.roster.nodes_up()),
            )

            # Idle past one profiler period so at least one wall-clock
            # LOAD_UPDATE heartbeat crosses the wire.
            await asyncio.sleep(config.profiler_update_period + 0.3)
            out["aggregate"] = cluster.aggregate_summary()
            out["summaries"] = cluster.summaries()
        return out
    return run(main())


def test_election_yields_one_rm_and_four_peers(live_run):
    # M0 is provisioned to win the §4.1 qualification ranking.
    assert live_run["rm_id"] == "M0"
    assert live_run["peer_ids"] == ["P1", "P2", "P3", "P4"]
    assert isinstance(live_run["rm_obj"], ResourceManager)
    assert all(isinstance(p, Peer) for p in live_run["peer_objs"].values())


def test_task_completes_end_to_end_over_udp(live_run):
    assert live_run["ack"]["disposition"] == "accepted"
    assert live_run["task_state"] == "DONE"
    assert live_run["events"] == ["submitted", "admitted", "completed"]
    # The paper's Figure-1 chain: transcode at P1 then P2/P3.
    services = [s for s, _ in live_run["allocation"]]
    assert services[0] == "T-e1"
    assert len(services) >= 2


def test_full_message_chain_crossed_the_wire(live_run):
    kinds = live_run["aggregate"]["by_kind"]
    for kind in (
        protocol.JOIN_REQUEST, protocol.JOIN_ACK, protocol.TASK_REQUEST,
        protocol.TASK_ACK, protocol.COMPOSE, protocol.START_STREAM,
        protocol.STREAM, protocol.STEP_DONE, protocol.TASK_DONE,
    ):
        assert kinds.get(kind, 0) >= 1, f"no {kind} observed on the wire"
    # Heartbeats flowed on the wall-clock timer path.
    assert kinds.get(protocol.LOAD_UPDATE, 0) >= 1
    # Reliable delivery: nothing dropped on loopback UDP.
    assert live_run["aggregate"]["dropped"] == 0


def test_live_handlers_are_the_simulator_handlers(live_run):
    """No forked protocol logic: the live dispatch tables are the very
    same bound methods a simulator-constructed Peer/RM registers."""
    env = Environment()
    net = Network(env, ConstantLatency(0.01))
    sim_rm = ResourceManager(env, net, "sim_rm", "dsim")
    sim_peer = Peer(env, net, "sim_p", rm_id="sim_rm")

    def table(handlers):
        return {
            kind: getattr(fn, "__func__", fn)
            for kind, fn in handlers.items()
        }

    sim_rm_table = table(sim_rm._handlers)
    live_rm_table = table(live_run["rm_handlers"])
    # Every simulator RM handler appears unchanged in the live RM.
    for kind, fn in sim_rm_table.items():
        assert live_rm_table[kind] is fn, f"forked RM handler for {kind}"
    # The only live-side addition is membership wiring (JOIN_REQUEST
    # forwarded by the roster agent) — not a protocol fork.
    assert set(live_rm_table) - set(sim_rm_table) == {protocol.JOIN_REQUEST}

    sim_peer_table = table(sim_peer._handlers)
    for peer_id, handlers in live_run["peer_handlers"].items():
        live_table = table(handlers)
        assert live_table == {
            kind: fn for kind, fn in sim_peer_table.items()
        }, f"peer {peer_id} dispatch table diverged from the simulator"


def test_membership_churn_over_the_wire(live_run):
    assert live_run["p9_admitted"] is True
    assert live_run["p9_after_leave"] is False


def test_late_join_and_leave_keep_rm_and_agent_in_agreement(live_run):
    """The RM's information base (everyone but itself) and the agent's
    roster hold the same members after a late join and after a leave;
    a departed member's record is not kept for re-introduction."""
    assert live_run["p9_roster"] is True
    info, roster = live_run["members_joined"]
    assert info == ["P1", "P2", "P3", "P4", "P9"]
    assert roster == sorted(info + [live_run["rm_id"]])
    assert live_run["p9_roster_after_leave"] is False
    assert live_run["p9_record_held"] is False
    info, roster = live_run["members_left"]
    assert info == ["P1", "P2", "P3", "P4"]
    assert roster == sorted(info + [live_run["rm_id"]])


def test_agent_summary_rides_with_the_nodes(live_run):
    assert "roster@s0" in live_run["summaries"]
    assert set(live_run["summaries"]) == {
        "roster@s0", "M0", "P1", "P2", "P3", "P4",
    }


def _fig1x4_specs(cfg):
    """M0 plus the four Fig-1 peers replicated x4: 17 nodes."""
    candidate, *peers = fig1_specs(cfg)
    specs = [candidate]
    for spec in peers:
        for r in "abcd":
            specs.append(NodeSpec(
                node_id=spec.node_id + r, power=spec.power,
                bandwidth=spec.bandwidth, uptime=spec.uptime,
                objects=list(spec.objects),
                service_edges=[
                    dict(edge, edge_id=edge["edge_id"] + r)
                    for edge in spec.service_edges
                ],
            ))
    return specs


def test_submit_right_after_start_is_accepted():
    """``start()`` returns only once the RM has admitted every peer —
    the agent acks the peers and forwards their records together, so a
    task submitted at once must still find the whole domain.  No sleep
    between ``start`` and ``submit``; fresh clusters, repeated."""
    async def once():
        cfg = LiveClusterConfig(object_duration_s=0.2)
        async with LiveCluster(cfg, specs=_fig1x4_specs(cfg)) as cluster:
            assert len(cluster.nodes) == 17
            assert cluster.rm_node.node.info.n_peers == 16
            ack = await cluster.submit("P4a", timeout=10.0)
            assert ack["disposition"] == "accepted", ack
            tasks = {t.get_name() for t in asyncio.all_tasks()}
            assert not any(name.startswith("rmwatch:") for name in tasks)

    for _ in range(5):
        run(once())


def test_unqualified_domain_still_elects_the_most_affluent():
    """Nobody clears the §4.1 minimums (power 5, bandwidth 1e6, uptime
    0.7): the domain must still get a leader — the node with the
    largest power x bandwidth x uptime product."""
    async def main():
        specs = [
            NodeSpec(node_id="A", power=1.0, bandwidth=1e5, uptime=0.5),
            NodeSpec(node_id="B", power=4.0, bandwidth=9e5, uptime=0.6),
            NodeSpec(node_id="C", power=2.0, bandwidth=5e5, uptime=0.6),
        ]
        async with LiveCluster(specs=specs) as cluster:
            assert cluster.rm_node.node_id == "B"
            assert sorted(n.node_id for n in cluster.peers()) == ["A", "C"]
            assert sorted(cluster.rm_node.node.info.peers) == ["A", "C"]
    run(main())


def test_per_node_summaries_share_the_stats_shape(live_run):
    for node_id, summary in live_run["summaries"].items():
        assert {"sent", "delivered", "dropped", "by_kind",
                "retransmits", "duplicates", "malformed",
                "acks_sent"} <= set(summary), node_id


def test_restarted_rm_is_reintroduced_to_every_member():
    """Respawn semantics on the single path: an RM that comes back
    under its old id re-assumes the role, its host announces a new
    epoch, and the agent forwards every record it holds again — the
    fresh information base is rebuilt and the domain serves tasks."""
    async def main():
        async with LiveCluster(LiveClusterConfig(object_duration_s=0.2)) as c:
            crashed = c.nodes["M0"]
            epoch = c.agent.rm_epoch
            await crashed.stop()
            reborn = LiveNode(
                crashed.spec, c.directory, c.agent.node_id,
                rm_config=crashed.rm_config,
                on_task_event=c._on_task_event, on_role=c._on_role,
            )
            c.nodes["M0"] = reborn
            await reborn.start()
            await asyncio.wait_for(reborn.admitted(4), 5.0)
            assert reborn.role == "rm"
            assert (c.agent.rm_ready, c.agent.rm_epoch) == (True, epoch + 1)
            assert sorted(reborn.node.info.peers) == ["P1", "P2", "P3", "P4"]
            ack = await c.submit("P4", timeout=10.0)
            assert ack["disposition"] == "accepted", ack
            await c.wait_task_event(ack["task_id"], "completed", timeout=10.0)
    run(main())


#: One forged field per JOIN_REQUEST; the rest of the record is valid.
HOSTILE_JOIN_FIELDS = [
    {"power": "10"},          # the crash: a str in the RM's load arithmetic
    {"power": -5.0},
    {"power": float("nan")},
    {"bandwidth": 0.0},
    {"uptime": float("inf")},
    {"port": 0},
    {"host": 7},
    {"objects": ["movie"]},
    {"edges": [{"src": [1], "dst": [2], "service_id": "T-x",
                "work": 1.0, "out_bytes": 0.0}]},
    {"edges": [{"src": "a", "dst": "b", "service_id": "T-x",
                "work": "48", "out_bytes": 0.0}]},
]


@pytest.mark.parametrize("entry", ["agent", "rm"])
def test_hostile_join_records_are_dropped(entry):
    """Regression: a JOIN_REQUEST record was admitted as given, so one
    ``power`` of ``"10"`` from a raw socket killed the RM's clock pump
    at the next submit.  Both receivers (the agent, and the RM, which a
    sender can address directly) now drop a malformed record; a
    well-formed one from the same socket is still admitted, and the
    domain keeps serving tasks."""
    async def main():
        async with LiveCluster(LiveClusterConfig(object_duration_s=0.2)) as c:
            rm = c.rm_node
            dst = c.agent.node_id if entry == "agent" else rm.node_id
            raw = await UdpTransport("X", c.directory, lambda msg: None).start()

            def join(peer_id, **fields):
                raw.send(Message(
                    kind=protocol.JOIN_REQUEST, src="X", dst=dst,
                    payload={
                        "peer_id": peer_id, "host": raw.host,
                        "port": raw.port, "power": 10.0,
                        "bandwidth": 1.25e6, "uptime": 0.9,
                        "objects": [], "edges": [], **fields,
                    },
                    size=protocol.size_of(protocol.JOIN_REQUEST),
                    msg_id=next(raw.ids.msg),
                ))

            try:
                for i, fields in enumerate(HOSTILE_JOIN_FIELDS):
                    join(f"X{i}", **fields)
                await raw.flush()
                join("Xok")
                await asyncio.wait_for(rm.admitted(5), 5.0)
                assert sorted(rm.node.info.peers) == [
                    "P1", "P2", "P3", "P4", "Xok",
                ]
                assert set(c.agent.records) <= {
                    "M0", "P1", "P2", "P3", "P4", "Xok",
                }
                ack = await c.submit("P4", timeout=10.0)
                assert ack["disposition"] == "accepted", ack
                await c.wait_task_event(
                    ack["task_id"], "completed", timeout=10.0
                )
            finally:
                await raw.aclose()
    run(main())


# -- watcher bookkeeping (no sockets) ---------------------------------------

class _StubTask:
    def __init__(self, task_id):
        self.task_id = task_id
        self.finished_at = 1.0


def test_start_leaves_a_shared_rm_config_untouched():
    """Regression: ``start()`` used to write the cluster config's
    policy/defense knobs into a caller-supplied ``RMConfig`` in place,
    so two clusters sharing one instance configured each other."""
    shared = RMConfig(expected_update_period=0.5,
                      placement_policy="least_loaded")
    before = copy.deepcopy(shared)

    async def main():
        config = LiveClusterConfig(n_peers=1, rm_config=shared)
        async with LiveCluster(config) as cluster:
            assert cluster.rm_node.node.rm_config is shared
    run(main())
    assert shared == before


def test_task_event_watchers_do_not_accumulate():
    """Regression: the cluster used to keep one Event per (task, event)
    forever — a week-long soak's watcher map grew without bound.  Fired
    watchers leave the map immediately; waiters hold their own ref."""
    async def main():
        cluster = LiveCluster(LiveClusterConfig(n_peers=1))
        waiter = asyncio.ensure_future(
            cluster.wait_task_event("t1", "completed", timeout=5.0)
        )
        await asyncio.sleep(0)  # let the waiter register
        assert ("t1", "completed") in cluster._watchers
        cluster._on_task_event(_StubTask("t1"), "completed")
        await waiter
        assert cluster._watchers == {}
        # Events nobody waits for never create watcher entries at all.
        for i in range(50):
            cluster._on_task_event(_StubTask(f"bulk{i}"), "completed")
        assert cluster._watchers == {}
    run(main())


def test_task_event_wait_timeout_removes_watcher():
    """A timed-out wait must not strand its Event in the map."""
    async def main():
        cluster = LiveCluster(LiveClusterConfig(n_peers=1))
        with pytest.raises(asyncio.TimeoutError):
            await cluster.wait_task_event("ghost", "completed", timeout=0.01)
        assert cluster._watchers == {}
    run(main())


def test_fired_event_history_is_bounded():
    """The fired-key LRU stays at capacity under a long event stream;
    recent events remain answerable without a watcher."""
    async def main():
        cluster = LiveCluster(LiveClusterConfig(n_peers=1))
        cap = cluster._fired_capacity
        for i in range(cap + 500):
            cluster._on_task_event(_StubTask(f"t{i}"), "completed")
        assert len(cluster._fired) == cap
        # The newest event answers instantly from the fired set.
        await cluster.wait_task_event(
            f"t{cap + 499}", "completed", timeout=0.01
        )
        # The oldest was evicted: waiting on it now times out.
        with pytest.raises(asyncio.TimeoutError):
            await cluster.wait_task_event("t0", "completed", timeout=0.01)
    run(main())
