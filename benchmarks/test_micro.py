"""Microbenchmarks for the hot primitives under the experiments.

These are conventional pytest-benchmark measurements (many rounds) for
the pieces whose cost dominates large runs: the event kernel, the
incremental fairness evaluation, path search, and the allocation
algorithm on the Figure-1 graph.
"""

import numpy as np

from repro.benchmarking.scenarios import BENCHES
from repro.core.allocation import Allocator
from repro.core.fairness import LoadVector, jain_fairness
from repro.graphs.search import iter_paths
from repro.sim import Environment
from tests.test_estimate_allocation import make_domain, make_task


def test_event_kernel_throughput(benchmark):
    """Cost of scheduling + processing 10k timeout events."""

    def run():
        env = Environment()

        def ticker():
            for _ in range(10_000):
                yield env.timeout(0.001)

        env.run(env.process(ticker()))
        return env.now

    result = benchmark(run)
    assert result > 0


def test_jain_fairness_vectorized(benchmark):
    loads = np.random.default_rng(0).uniform(0, 10, size=1000)
    result = benchmark(jain_fairness, loads)
    assert 0 < result <= 1


def test_incremental_fairness_what_if(benchmark):
    """The allocator's inner loop: O(k) what-if over a big domain."""
    vec = LoadVector({f"p{i}": float(i % 7) for i in range(1000)})
    deltas = {"p1": 0.5, "p2": 1.0, "p3": 0.25}
    result = benchmark(vec.fairness_with, deltas)
    assert 0 < result <= 1


def test_fig1_path_search(benchmark):
    info, _net, sc = make_domain()

    def search():
        return list(
            iter_paths(info.resource_graph, sc.v_init, sc.v_sol, "paper")
        )

    found = benchmark(search)
    assert [len(path) for path, _state in found] == [2, 2, 4]


def test_fig1_allocation(benchmark):
    info, net, sc = make_domain(loads={"P1": 2.0, "P2": 5.0})
    task = make_task(scenario=sc)
    allocator = Allocator()

    def allocate():
        return allocator.allocate(
            info, net, task, sc.v_init, sc.v_sol,
            "P1", "P4", sc.source_object.size_bytes, 0.0,
        )

    result = benchmark(allocate)
    assert result.n_candidates == 3


def test_dense_domain_allocation(benchmark):
    """``repro-bench``'s ``micro_allocate``: the Fig-3 allocation on the
    64-peer domain of the ``sim_dense`` population."""
    spec = next(s for s in BENCHES if s.name == "micro_allocate")
    out = benchmark(spec.make(n_allocations=200))
    assert out["events"] == 200 and out["metrics"]["domain_peers"] == 64
    assert out["metrics"]["placed"] > 0


def test_batch_fairness_what_if(benchmark):
    """Vectorized candidate evaluation vs the scalar loop."""
    vec = LoadVector({f"p{i}": float(i % 7) for i in range(200)})
    rng = np.random.default_rng(0)
    candidates = [
        {f"p{int(j)}": 0.5 for j in rng.integers(0, 200, size=3)}
        for _ in range(256)
    ]
    batch = benchmark(vec.fairness_with_batch, candidates)
    assert len(batch) == 256
    assert all(0 < f <= 1 for f in batch)
