"""Cross-cutting property-based tests (Hypothesis)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarking.scenarios import allocation_requests
from repro.common.errors import NoFeasibleAllocation
from repro.core.allocation import Allocator, select_max_fairness
from repro.core.control.reputation import (
    PROBATION,
    QUARANTINED,
    SUSPECT,
    TRUSTED,
    ReputationEngine,
)
from repro.core.estimate import CompletionTimeEstimator
from repro.core.info_base import DomainInfoBase, PeerRecord
from repro.graphs import ResourceGraph, iter_paths
from repro.monitoring.profiler import LoadReport
from repro.net.latency import ConstantLatency, DomainAwareLatency
from repro.net.network import Network
from repro.sim.core import Environment
from repro.tasks.qos import QoSRequirements
from repro.tasks.task import ApplicationTask


# ---------------------------------------------------------------- graphs
@st.composite
def random_graph(draw):
    """A random digraph with a designated init/goal pair."""
    n = draw(st.integers(min_value=2, max_value=8))
    n_edges = draw(st.integers(min_value=1, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    g = ResourceGraph()
    for i in range(n):
        g.add_state(i)
    for k in range(n_edges):
        a, b = rng.integers(n, size=2)
        if a == b:
            continue
        g.add_service(
            int(a), int(b), f"svc{k}", f"p{int(rng.integers(4))}",
            work=float(rng.uniform(1, 10)),
            out_bytes=float(rng.uniform(0, 1e5)),
            edge_id=f"e{k}",
        )
    return g, 0, n - 1


class TestSearchProperties:
    @given(random_graph())
    @settings(max_examples=80, deadline=None)
    def test_paths_are_connected_and_start_end_correctly(self, case):
        g, v_init, v_sol = case
        for policy in ("paper", "exhaustive"):
            for path, _ in iter_paths(g, v_init, v_sol, policy,
                                      max_expansions=3000):
                if not path:
                    assert v_init == v_sol
                    continue
                assert path[0].src == v_init
                assert path[-1].dst == v_sol
                for a, b in zip(path, path[1:]):
                    assert a.dst == b.src

    @given(random_graph())
    @settings(max_examples=60, deadline=None)
    def test_paper_paths_subset_of_exhaustive(self, case):
        g, v_init, v_sol = case
        exhaustive = {
            tuple(e.edge_id for e in p)
            for p, _ in iter_paths(g, v_init, v_sol, "exhaustive",
                                   max_expansions=5000)
        }
        for p, _ in iter_paths(g, v_init, v_sol, "paper",
                               max_expansions=5000):
            ids = tuple(e.edge_id for e in p)
            # Paper BFS paths may revisit no vertex except via parallel
            # goal edges, so each is a simple path found by exhaustive.
            assert ids in exhaustive

    @given(random_graph())
    @settings(max_examples=60, deadline=None)
    def test_exhaustive_paths_unique(self, case):
        g, v_init, v_sol = case
        seen = set()
        for p, _ in iter_paths(g, v_init, v_sol, "exhaustive",
                               max_expansions=5000):
            ids = tuple(e.edge_id for e in p)
            assert ids not in seen
            seen.add(ids)


# ---------------------------------------------------------------- estimator
def small_domain(loads):
    env = Environment()
    net = Network(env, ConstantLatency(0.01), bandwidth=1e6)
    info = DomainInfoBase("d", "rm")
    for pid, load in loads.items():
        rec = PeerRecord(peer_id=pid, power=10.0, bandwidth=1e6)
        info.add_peer(rec)
        rec.last_report = LoadReport(
            peer_id=pid, time=0.0, power=10.0, utilization=load / 10.0,
            load=load, bw_used=0.0, queue_work=0.0, queue_length=0,
        )
        rec.reported_at = 0.0
    return info, net


class TestEstimatorProperties:
    @given(
        st.floats(min_value=0.0, max_value=9.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=60)
    def test_service_time_monotone_in_load(self, load, work):
        info, _net = small_domain({"p0": load})
        edge = info.register_service_instance(
            "a", "b", "s", "p0", work, edge_id="e1"
        )
        est = CompletionTimeEstimator()
        base = est.service_time(info, edge, 0.0)
        info2, _ = small_domain({"p0": min(load + 1.0, 9.9)})
        edge2 = info2.register_service_instance(
            "a", "b", "s", "p0", work, edge_id="e1"
        )
        assert est.service_time(info2, edge2, 0.0) >= base

    @given(
        st.floats(min_value=0.5, max_value=4.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=60)
    def test_estimate_scales_superlinearly_never_less_than_work(
        self, scale, work
    ):
        info, net = small_domain({"p0": 0.0})
        edge = info.register_service_instance(
            "a", "b", "s", "p0", work, edge_id="e1"
        )
        est = CompletionTimeEstimator()
        t1 = est.estimate_path(info, net, [edge], 0.0, "p0", "p0", 0.0)
        ts = est.estimate_path(
            info, net, [edge], 0.0, "p0", "p0", 0.0, work_scale=scale
        )
        assert ts == pytest.approx(t1 * scale)


# ---------------------------------------------------------------- allocator
def reference_search(g, v_init, v_sol, policy, ok):
    """The pre-fold search (PR 14): every queued prefix is a list copy
    and every prefix is costed by ``ok(prefix)``, wherever it leads."""
    if not g.has_state(v_init) or not g.has_state(v_sol):
        return
    if v_init == v_sol:
        yield []
    elif policy == "paper":
        queue, visited = [(v_init, [])], set()
        while queue:
            v, seq = queue.pop(0)
            if not ok(seq):
                continue
            if v == v_sol:
                yield seq
            elif v not in visited:
                visited.add(v)
                queue.extend((e.dst, seq + [e]) for e in g.out_edges(v))
    else:
        def dfs(v, seq, on_path):
            for e in g.out_edges(v):
                if e.dst in on_path or not ok(seq + [e]):
                    continue
                if e.dst == v_sol:
                    yield seq + [e]
                else:
                    yield from dfs(e.dst, seq + [e], on_path | {e.dst})

        yield from dfs(v_init, [], {v_init})


def reference_candidates(alloc, info, net, task, **kw):
    """Fig. 3 from the estimator's public path-level methods alone."""
    est, now, scale = alloc.estimator, kw["now"], kw["work_scale"]
    src, in_bytes = kw["source_peer"], kw["in_bytes"]
    view = info.load_vector(now)
    deadline = task.absolute_deadline - now
    if deadline <= 0:
        return "qos"
    budget = deadline * (1.0 - est.safety_margin)
    graph, ends = info.resource_graph, (kw["v_init"], kw["v_sol"])

    def ok(prefix):
        last = prefix[-1].peer_id if prefix else src
        return est.estimate_path(
            info, net, prefix, now, src, last, in_bytes, scale
        ) <= budget

    examined = list(reference_search(graph, *ends, alloc.visited_policy, ok))
    found = []
    for path in examined:
        est_time = est.estimate_path(
            info, net, path, now, src, kw["sink_peer"], in_bytes, scale
        )
        if est_time > budget or est.path_overloads(
            info, path, now, deadline, scale
        ):
            continue
        deltas = est.path_load_deltas(path, deadline, scale)
        post = [0.0] + [
            (view.get(p) + d) / info.peer(p).power for p, d in deltas.items()
        ]
        found.append((
            [e.edge_id for e in path], view.fairness_with(deltas),
            est_time, deltas, max(post),
        ))
    if found:
        return found, len(examined)
    routed = examined or any(
        True for _ in reference_search(
            graph, *ends, alloc.visited_policy, lambda prefix: True
        )
    )
    return "qos" if routed else "no_path"


@st.composite
def allocation_case(draw):
    """A random domain (multigraph with parallel edges and cycles, some
    powerless or unknown hosts, reported + projected load, optionally a
    reputation engine's penalties and a two-domain latency) and request.

    Shapes: ``sparse`` (1-5 peers, random edges), ``dense`` (8-14 peers,
    1-3 parallel edges per state pair, a few hosts serving most edges,
    so prefixes are shared and peers repeat within a path) and
    ``cancelled`` (no load and no work, so every what-if sum of squares
    is 0 and fairness takes the recomputed path)."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    shape = draw(st.sampled_from(["sparse", "sparse", "dense", "cancelled"]))
    rng = np.random.default_rng(seed)
    uniform = lambda lo, hi: float(rng.uniform(lo, hi))
    env = Environment()
    info = DomainInfoBase("d", "rm")
    if draw(st.booleans()):
        latency = ConstantLatency(uniform(0.0, 0.05))
    else:
        # Roster peers are in "d"; the outside endpoints "x0", "x1" are
        # in another domain, or in none.
        latency = DomainAwareLatency(
            lambda node: "d" if node in info.peers else (
                "x" if node == "x0" else None
            ),
            intra=uniform(0.0, 0.02), inter=uniform(0.02, 0.2),
            rng=np.random.default_rng(seed),
        )
    net = Network(env, latency, bandwidth=1e6)
    quiet = shape == "cancelled"
    if not quiet and draw(st.booleans()):
        info.reputation = ReputationEngine()
    now = uniform(0.0, 10.0)
    n_peers = int(rng.integers(8, 15) if shape == "dense"
                  else rng.integers(1, 6))
    for i in range(n_peers):
        power = 0.0 if rng.random() < 0.08 else uniform(1.0, 20.0)
        rec = PeerRecord(peer_id=f"p{i}", power=power, bandwidth=1e6)
        info.add_peer(rec)
        if info.reputation is not None:
            info.reputation.note_join(rec)
            trust = info.reputation._states[rec.peer_id]
            trust.state = str(rng.choice(
                [TRUSTED, SUSPECT, PROBATION, QUARANTINED]
            ))
            trust.score = uniform(0.0, 1.0)
            trust.quarantined_until = now + uniform(-5.0, 5.0)
        if rng.random() < 0.8:
            load = 0.0 if quiet else uniform(0.0, 1.2 * power)
            rec.last_report = LoadReport(
                peer_id=rec.peer_id, time=0.0, power=power,
                utilization=0.0, load=load, bw_used=0.0,
                queue_work=0.0, queue_length=0,
            )
        for k in range(0 if quiet else int(rng.integers(0, 3))):
            info.project_allocation(
                f"old{i}.{k}", {rec.peer_id: uniform(0.0, 2.0)},
                expires_at=uniform(0.0, 20.0),
            )
    graph = info.resource_graph
    n_states = int(rng.integers(2, 6))

    def host():
        # Hosts beyond the roster are peers the RM does not know; in
        # the dense shape three hosts serve most edges.
        if shape == "dense" and rng.random() < 0.7:
            return f"p{int(rng.integers(3))}"
        return f"p{int(rng.integers(n_peers + 1))}"

    def add(a, b, k):
        graph.add_service(
            a, b, f"svc{k}", host(),
            work=0.0 if quiet or rng.random() < 0.1 else uniform(0.0, 6.0),
            out_bytes=uniform(0.0, 1e5) if rng.random() < 0.8 else 0.0,
            edge_id=f"e{k}",
        )

    if shape == "dense":
        k = 0
        for a in range(n_states):
            for b in range(n_states):
                if a != b and rng.random() < 0.6:
                    for _ in range(int(rng.integers(1, 4))):
                        add(a, b, k)
                        k += 1
    else:
        for k in range(int(rng.integers(1, 25))):
            a, b = (int(x) for x in rng.integers(n_states, size=2))
            if a != b:
                add(a, b, k)
    for v in (0, n_states - 1):
        if rng.random() < 0.95:
            graph.add_state(v)
    task = ApplicationTask(
        name="obj", qos=QoSRequirements(deadline=uniform(0.01, 60.0)),
        initial_state=0, goal_state=n_states - 1, origin_peer="p0",
        submitted_at=now - (uniform(0.0, 45.0) if rng.random() < 0.2 else 0.0),
        task_id="t1",
    )
    alloc = Allocator(
        estimator=CompletionTimeEstimator(
            min_free_frac=uniform(0.01, 1.0),
            safety_margin=uniform(0.0, 0.5),
            max_utilization=uniform(0.5, 1.5),
        ),
        visited_policy=draw(st.sampled_from(["paper", "exhaustive"])),
    )
    endpoints = [f"p{i}" for i in range(n_peers)] + ["x0", "x1"]
    request = dict(
        v_init=0 if rng.random() < 0.95 else n_states - 1,
        v_sol=n_states - 1,
        source_peer=str(rng.choice(endpoints)),
        sink_peer=str(rng.choice(endpoints)),
        in_bytes=uniform(0.0, 1e6) if rng.random() < 0.9 else 0.0,
        now=now, work_scale=uniform(0.25, 4.0),
    )
    return alloc, info, net, task, request


class TestAllocatorDifferential:
    @given(allocation_case())
    @settings(max_examples=600, deadline=None)
    def test_allocate_equals_reference_bit_for_bit(self, case):
        """The cost-carrying search changes no float and no order: every
        candidate — not only the winner — equals, with ``==``, what the
        pre-fold search plus ``estimate_path`` / ``path_overloads`` /
        ``path_load_deltas`` produce."""
        alloc, info, net, task, request = case
        expected = reference_candidates(alloc, info, net, task, **request)
        seen = []

        def selector(candidates):
            seen.extend(candidates)
            return select_max_fairness(candidates)

        alloc.selector = selector
        try:
            result = alloc.allocate(info, net, task, **request)
        except NoFeasibleAllocation as exc:
            assert exc.reason == expected
            return
        candidates, n_examined = expected
        assert [
            (c.edge_ids, c.fairness, c.est_time, c.deltas, c.max_post_util)
            for c in seen
        ] == candidates
        assert result.n_candidates == len(candidates)
        assert result.n_examined == n_examined
        best = max(candidates, key=lambda c: c[1])  # first of the ties
        assert (
            result.edge_ids, result.fairness, result.est_time, result.deltas
        ) == best[:4]

    def test_every_micro_allocate_request_equals_reference(self):
        """The dense domain the ``micro_allocate`` bench times (64 peers,
        373 edges): for each of its 534 requests, every candidate equals
        the reference's."""
        rm, requests = allocation_requests(warmup=20.0)
        assert len(requests) == 534
        seen = []

        def selector(candidates):
            seen.extend(candidates)
            return select_max_fairness(candidates)

        alloc = dataclasses.replace(rm.allocator, selector=selector)
        placed = 0
        for task, request in requests:
            expected = reference_candidates(
                alloc, rm.info, rm.network, task, **request
            )
            seen.clear()
            try:
                result = alloc.allocate(rm.info, rm.network, task, **request)
            except NoFeasibleAllocation as exc:
                assert exc.reason == expected
                continue
            candidates, n_examined = expected
            assert [
                (c.edge_ids, c.fairness, c.est_time, c.deltas,
                 c.max_post_util)
                for c in seen
            ] == candidates
            assert result.n_examined == n_examined
            placed += 1
        assert placed == 534


# ---------------------------------------------------------------- kernel
class TestKernelProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=1, max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_timeouts_fire_in_sorted_order(self, delays):
        env = Environment()
        fired = []
        for d in delays:
            ev = env.timeout(d, d)
            ev.callbacks.append(lambda e: fired.append(e.value))
        env.run()
        assert fired == sorted(delays)
        assert env.now == max(delays)
