"""F2 — Figure 2: the task-assignment walkthrough.

Figure 2 shows the three stages of on-demand task execution: (A) a peer
submits a query to the Resource Manager, (B) the RM assigns the task to
peers (graph composition), (C) transcoded media streaming begins.  This
experiment drives that exact sequence on a live simulated domain and
regenerates the timeline as a table: one row per protocol event with
its simulated timestamp.
"""

from __future__ import annotations

from repro import telemetry
from repro.core import protocol
from repro.core.info_base import PeerRecord
from repro.core.manager import ResourceManager
from repro.core.peer import Peer, PeerConfig
from repro.experiments.base import ExperimentResult
from repro.media.fig1 import build_fig1_graph
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.core import Environment


def run(quick: bool = False) -> ExperimentResult:
    """Drive the Fig-2 sequence and regenerate the event timeline."""
    env = Environment()
    net = Network(env, ConstantLatency(0.010), bandwidth=1.25e6)
    events = []
    rm = ResourceManager(
        env, net, "rm0", "d0",
        on_task_event=lambda t, e: events.append((env.now, e, t)),
    )
    scenario = build_fig1_graph()
    peers = {}
    for pid in scenario.peers:
        peers[pid] = Peer(env, net, pid, PeerConfig(power=10.0),
                          rm_id="rm0")
        rm.admit_peer(PeerRecord(peer_id=pid, power=10.0, bandwidth=1.25e6))
    for edge in scenario.graph.edges():
        rm.info.register_service_instance(
            edge.src, edge.dst, edge.service_id, edge.peer_id,
            edge.work, edge.out_bytes, edge_id=edge.edge_id,
        )
    peers["P1"].store_object(scenario.source_object)
    rm.object_catalog[scenario.source_object.name] = scenario.source_object
    rm.info.peer("P1").objects.add(scenario.source_object.name)

    acks = []

    def client():
        reply = yield from peers["P4"].submit_task(
            "movie", scenario.v_sol, deadline=60.0
        )
        acks.append((env.now, reply.payload))

    env.process(client())
    with telemetry.session(telemetry.Telemetry.sim(env)) as tel:
        env.run(until=60.0)
    messages = tel.tracer.spans_of_kind(telemetry.MESSAGE)

    task = next(iter(rm.tasks.values()))
    result = ExperimentResult(
        experiment_id="f2",
        title="Figure 2: task assignment walkthrough "
              "(A query -> B assignment -> C streaming)",
        headers=["t_sim_s", "stage", "event"],
    )
    result.add_row(task.submitted_at, "A", "query received by RM (task_request)")
    admitted = [t for t, e, _ in events if e == "admitted"]
    result.add_row(
        admitted[0], "B",
        "allocation decided: "
        + " -> ".join(f"{s}@{p}" for s, p in task.allocation)
        + f" (fairness {task.allocation_fairness:.3f})",
    )
    # A message span ends at delivery to ``dst``; a service span runs
    # from CPU submit to the step's completion on its peer.
    for span in messages:
        if span.name == protocol.COMPOSE:
            result.add_row(
                span.end, "B",
                f"graph composition message at {span.attrs['dst']}",
            )
    steps = [
        s for s in tel.tracer.spans_of_kind(telemetry.SERVICE)
        if s.status == "ok"
    ]
    if steps:
        result.add_row(
            min(s.start for s in steps), "C",
            "streaming + transcoding begins",
        )
    for span in steps:
        result.add_row(
            span.end, "C", f"transcoding step finished at {span.node}"
        )
    for span in messages:
        if span.name == protocol.TASK_DONE:
            result.add_row(
                span.start, "C", f"final stream delivered at {span.node}"
            )
    if task.outcome is None or task.outcome.value != "met":
        raise AssertionError(f"walkthrough task did not complete: {task}")
    result.notes.append(
        f"task {task.task_id} met its deadline: response "
        f"{task.response_time:.2f}s vs deadline {task.qos.deadline:.0f}s"
    )
    result.extra["task"] = task
    result.extra["ack"] = acks[0] if acks else None
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
