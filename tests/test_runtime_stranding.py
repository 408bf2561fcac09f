"""Live regression: a lost first copy of a ``COMPOSE`` strands no task.

The RM sends a session's ``COMPOSE`` orders and then its
``START_STREAM``; the source peer's data then runs down the chain as
``STREAM`` messages.  When the first copy of one peer's ``COMPOSE`` is
lost, the message that needs that order can reach the peer before the
retransmitted copy does: the ``START_STREAM`` at the source (one sender)
or the upstream ``STREAM`` at a later hop (two senders).  A peer that
dropped it left the task hanging until the RM failed it.  A peer now
parks it, nudges the RM once, and the RM's transport resends the order
at once; the task completes and nothing is counted unmatched.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import protocol
from repro.runtime.cluster import LiveCluster, LiveClusterConfig

pytestmark = pytest.mark.integration


class LoseFirstCompose:
    """A ``drop_fn`` losing the first copy of the first ``COMPOSE`` sent
    to the peer that runs chain step *hop* (0: the source)."""

    def __init__(self, hop: int) -> None:
        self.hop = hop
        self.lost = []

    def __call__(self, msg, attempt: int) -> bool:
        if msg.kind != protocol.COMPOSE or self.lost or attempt:
            return False
        order = msg.payload["order"]
        if msg.dst != order.steps[self.hop].peer_id:
            return False
        self.lost.append(msg.dst)
        return True


def run_one_task(hop: int):
    async def main():
        drop = LoseFirstCompose(hop)
        config = LiveClusterConfig(
            object_duration_s=0.05, transport_kwargs={"drop_fn": drop},
        )
        async with LiveCluster(config) as cluster:
            ack = await cluster.submit("P4", deadline=20.0, timeout=5.0)
            assert ack["disposition"] == "accepted"
            try:
                await cluster.wait_task_event(
                    ack["task_id"], "completed", timeout=5.0
                )
            except asyncio.TimeoutError:
                pass
            nodes = cluster.nodes.values()
            return {
                "lost": drop.lost,
                "state": cluster.task(ack["task_id"]).state.name,
                "unmatched": {n.node_id: n.node.unmatched for n in nodes},
                "nudges": sum(n.transport.nudges_sent for n in nodes),
                "aggregate": cluster.aggregate_summary(),
            }
    return asyncio.run(main())


@pytest.mark.parametrize("hop", [0, 1], ids=["start_stream", "stream"])
def test_lost_first_compose_copy_strands_no_task(hop):
    out = run_one_task(hop)
    assert len(out["lost"]) == 1
    assert out["state"] == "DONE"
    assert all(not u for u in out["unmatched"].values()), out["unmatched"]
    assert out["aggregate"]["unmatched"] == 0
    assert out["nudges"] == 1
