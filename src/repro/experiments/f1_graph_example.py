"""F1 — Figure 1: the resource graph / service graph example.

Reproduces §4.3's worked example verbatim: an 800x600 MPEG-2 512 Kbps
source, a user requesting 640x480 MPEG-4 64 Kbps, and the resource
graph of Figure 1(A).  The table lists every candidate path the Fig-3
BFS finds (they must be exactly ``{e1,e2}``, ``{e1,e3}``,
``{e1,e4,e5,e8}``), its estimated completion time and post-assignment
fairness under a configurable load profile, and which path the paper's
fairness-max rule picks — from which the service graph of Figure 1(B)
is composed.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.allocation import Allocator
from repro.core.estimate import CompletionTimeEstimator
from repro.core.info_base import DomainInfoBase, PeerRecord
from repro.experiments.base import ExperimentResult
from repro.graphs.search import iter_paths
from repro.graphs.service_graph import ServiceGraph
from repro.media.fig1 import FIG1_CANDIDATE_PATHS, build_fig1_graph
from repro.monitoring.profiler import LoadReport
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.core import Environment
from repro.tasks.qos import QoSRequirements
from repro.tasks.task import ApplicationTask

#: Default load profile: P2 (hosting e2) is moderately busy, so the
#: fairness-max rule prefers e3 at P3 — demonstrating the §4.3 choice
#: between the two short candidates.
DEFAULT_LOADS: Dict[str, float] = {"P1": 2.0, "P2": 5.0, "P3": 1.0, "P4": 1.0}


def build_info(
    loads: Optional[Dict[str, float]] = None, power: float = 10.0
) -> tuple[DomainInfoBase, Network, Environment, object]:
    """Assemble the Fig-1 domain with a given load profile."""
    loads = dict(DEFAULT_LOADS if loads is None else loads)
    scenario = build_fig1_graph()
    env = Environment()
    net = Network(env, ConstantLatency(0.010), bandwidth=1.25e6)
    info = DomainInfoBase("d0", "rm0")
    for pid in scenario.peers:
        rec = PeerRecord(peer_id=pid, power=power, bandwidth=1.25e6)
        info.add_peer(rec)
        rec.last_report = LoadReport(
            peer_id=pid, time=0.0, power=power,
            utilization=loads.get(pid, 0.0) / power,
            load=loads.get(pid, 0.0), bw_used=0.0,
            queue_work=0.0, queue_length=0,
        )
        rec.reported_at = 0.0
    for edge in scenario.graph.edges():
        info.register_service_instance(
            edge.src, edge.dst, edge.service_id, edge.peer_id,
            edge.work, edge.out_bytes, edge_id=edge.edge_id,
        )
    return info, net, env, scenario


def run(quick: bool = False) -> ExperimentResult:
    """Regenerate the Figure-1 example table."""
    info, net, env, scenario = build_info()
    task = ApplicationTask(
        name="movie",
        qos=QoSRequirements(deadline=60.0),
        initial_state=scenario.v_init,
        goal_state=scenario.v_sol,
        origin_peer="P4",
        submitted_at=0.0,
    )
    estimator = CompletionTimeEstimator()
    allocator = Allocator(estimator=estimator, visited_policy="paper")

    result = ExperimentResult(
        experiment_id="f1",
        title="Figure 1: resource graph example "
              "(800x600 MPEG-2@512k -> 640x480 MPEG-4@64k)",
        headers=["path", "hops", "est_time_s", "fairness", "chosen"],
    )

    # Enumerate the raw candidates exactly as the BFS sees them.
    candidates = [
        path for path, _ in iter_paths(
            info.resource_graph, scenario.v_init, scenario.v_sol,
            visited_policy="paper",
        )
    ]
    found = [[e.edge_id for e in path] for path in candidates]
    if found != FIG1_CANDIDATE_PATHS:
        raise AssertionError(
            f"BFS candidates {found} != paper's {FIG1_CANDIDATE_PATHS}"
        )

    alloc = allocator.allocate(
        info, net, task,
        v_init=scenario.v_init, v_sol=scenario.v_sol,
        source_peer="P1", sink_peer="P4",
        in_bytes=scenario.source_object.size_bytes, now=0.0,
    )
    loads = info.load_vector(0.0)
    for path in candidates:
        est = estimator.estimate_path(
            info, net, path, 0.0, "P1", "P4",
            scenario.source_object.size_bytes,
        )
        deltas = estimator.path_load_deltas(path, task.qos.deadline)
        fairness = loads.fairness_with(deltas)
        label = "{" + ",".join(e.edge_id for e in path) + "}"
        chosen = "  <-- RM" if [e.edge_id for e in path] == alloc.edge_ids \
            else ""
        result.add_row(label, len(path), est, fairness, chosen)

    graph = ServiceGraph.from_edges(task.task_id, alloc.path, "P1", "P4")
    result.notes.append(
        "BFS candidates match the paper's {e1,e2}, {e1,e3}, {e1,e4,e5,e8}"
    )
    result.notes.append(
        "service graph (Fig 1B): "
        + " -> ".join(f"{s.service_id}@{s.peer_id}" for s in graph.steps)
    )
    result.extra["allocation"] = alloc
    result.extra["service_graph"] = graph
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
