"""F3 — Figure 3: the allocation algorithm itself.

Figure 3 gives the pseudocode of ALLOCATIONALGORITHM.  This experiment
characterizes our implementation against ground truth on random
resource graphs:

* **agreement / optimality gap** — the paper BFS marks intermediate
  vertices visited, so it can miss the globally fairest path; we
  compare its pick against exhaustive simple-path enumeration;
* **cost scaling** — expansions and candidates examined vs graph size
  (the reason the paper prunes at all).
"""

from __future__ import annotations

import numpy as np

from repro.core.allocation import Allocator
from repro.core.estimate import CompletionTimeEstimator
from repro.core.info_base import DomainInfoBase, PeerRecord
from repro.experiments.base import ExperimentResult
from repro.monitoring.profiler import LoadReport
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.core import Environment
from repro.tasks.qos import QoSRequirements
from repro.tasks.task import ApplicationTask


def random_domain(
    n_states: int,
    n_edges: int,
    n_peers: int,
    rng: np.random.Generator,
    power: float = 10.0,
) -> tuple[DomainInfoBase, Network]:
    """A random layered resource graph over a random load profile."""
    env = Environment()
    net = Network(env, ConstantLatency(0.005), bandwidth=1.25e7)
    info = DomainInfoBase("d0", "rm0")
    for i in range(n_peers):
        rec = PeerRecord(peer_id=f"p{i}", power=power, bandwidth=1.25e7)
        info.add_peer(rec)
        load = float(rng.uniform(0.0, 0.5) * power)
        rec.last_report = LoadReport(
            peer_id=rec.peer_id, time=0.0, power=power,
            utilization=load / power, load=load, bw_used=0.0,
            queue_work=0.0, queue_length=0,
        )
        rec.reported_at = 0.0
    states = [f"s{i}" for i in range(n_states)]
    # Guarantee a backbone path s0 -> s1 -> ... -> s(n-1).
    edges = [(i, i + 1) for i in range(n_states - 1)]
    while len(edges) < n_edges:
        a = int(rng.integers(n_states))
        b = int(rng.integers(n_states))
        if a != b:
            edges.append((a, b))
    for k, (a, b) in enumerate(edges, 1):
        info.register_service_instance(
            states[a], states[b],
            service_id=f"svc{a}-{b}",
            peer_id=f"p{int(rng.integers(n_peers))}",
            work=float(rng.uniform(5.0, 25.0)),
            out_bytes=float(rng.uniform(1e5, 1e6)),
            edge_id=f"e{k}",
        )
    return info, net


def run(quick: bool = False) -> ExperimentResult:
    """Compare paper-BFS allocation against exhaustive enumeration."""
    rng = np.random.default_rng(2005)
    sizes = [(6, 12), (8, 20), (10, 28)] if quick else [
        (6, 12), (8, 20), (10, 28), (12, 40), (16, 56),
    ]
    trials = 10 if quick else 30
    result = ExperimentResult(
        experiment_id="f3",
        title="Figure 3: allocation algorithm vs exhaustive ground truth",
        headers=[
            "states", "edges", "feasible%", "agree%", "fairness_gap",
            "examined_paper", "examined_exh",
        ],
    )
    estimator = CompletionTimeEstimator()
    for n_states, n_edges in sizes:
        paper_alloc = Allocator(estimator=estimator, visited_policy="paper")
        exh_alloc = Allocator(
            estimator=estimator, visited_policy="exhaustive"
        )
        agree = 0
        feasible = 0
        gaps = []
        ex_paper = []
        ex_exh = []
        for trial in range(1, trials + 1):
            info, net = random_domain(n_states, n_edges, 8, rng)
            task = ApplicationTask(
                name="x", qos=QoSRequirements(deadline=120.0),
                initial_state="s0", goal_state=f"s{n_states - 1}",
                origin_peer="p0", submitted_at=0.0, task_id=f"t{trial}",
            )
            kwargs = dict(
                v_init="s0", v_sol=f"s{n_states - 1}",
                source_peer="p0", sink_peer="p0",
                in_bytes=1e6, now=0.0,
            )
            try:
                r_paper = paper_alloc.allocate(info, net, task, **kwargs)
            except Exception:
                r_paper = None
            try:
                r_exh = exh_alloc.allocate(info, net, task, **kwargs)
            except Exception:
                r_exh = None
            if r_paper is None or r_exh is None:
                continue
            feasible += 1
            gaps.append(r_exh.fairness - r_paper.fairness)
            ex_paper.append(r_paper.n_examined)
            ex_exh.append(r_exh.n_examined)
            if abs(r_exh.fairness - r_paper.fairness) < 1e-12:
                agree += 1
        result.add_row(
            n_states, n_edges,
            100.0 * feasible / trials,
            100.0 * agree / max(feasible, 1),
            float(np.mean(gaps)) if gaps else 0.0,
            float(np.mean(ex_paper)) if ex_paper else 0.0,
            float(np.mean(ex_exh)) if ex_exh else 0.0,
        )
    result.notes.append(
        "fairness_gap = exhaustive_best - paper_pick (>= 0 by "
        "construction); the BFS visited-set trades a small gap for "
        "linear search cost"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
