#!/usr/bin/env python
"""Live demo: the quickstart story over real localhost UDP sockets.

Same protocol, no simulator network: every node is a process-like
asyncio endpoint with its own UDP socket and wall-clock event kernel.
A roster agent — the same membership endpoint the sharded runtime runs
per process — takes the joins and runs the §4.1 RM qualification
election; the winner (the well-provisioned candidate
``M0``) becomes the Resource Manager and the Figure-1 peers P1..P4
serve the transcoding graph.  A task submitted at P4 travels
``TASK_REQUEST -> TASK_ACK -> COMPOSE -> START_STREAM -> STREAM ->
STEP_DONE -> TASK_DONE`` — each hop a real datagram with ack/retry.

Run:  python examples/live_domain.py
"""

import asyncio

from repro.runtime import LiveCluster, LiveClusterConfig


async def main() -> None:
    config = LiveClusterConfig(n_peers=4, object_duration_s=3.0)
    async with LiveCluster(config) as cluster:
        rm = cluster.rm_node
        print(f"domain up: {rm.node_id} elected RM "
              f"@ {rm.transport.host}:{rm.transport.port}")
        for peer in sorted(cluster.peers(), key=lambda n: n.node_id):
            print(f"  peer {peer.node_id} "
                  f"@ {peer.transport.host}:{peer.transport.port}")

        # A user at P4 asks for the movie in the Figure-1 target format.
        ack = await cluster.submit("P4", name="movie", deadline=20.0)
        print(f"RM answered: {ack}")
        task_id = ack["task_id"]

        # Wait for the TASK_DONE to land (real wall-clock execution).
        await cluster.wait_task_event(task_id, "completed", timeout=15.0)
        task = cluster.task(task_id)
        print(f"allocation: "
              f"{' -> '.join(f'{s}@{p}' for s, p in task.allocation)}")
        print(f"outcome: {task.state.name}")

        agg = cluster.aggregate_summary()
        print(f"datagrams: sent={agg['sent']} delivered={agg['delivered']} "
              f"dropped={agg['dropped']}")
        print("by kind: " + ", ".join(
            f"{kind}={n}" for kind, n in sorted(agg["by_kind"].items())
        ))
        assert task.state.name == "DONE"


if __name__ == "__main__":
    asyncio.run(main())
