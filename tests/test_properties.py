"""Cross-cutting property-based tests (Hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import NoFeasibleAllocation
from repro.core.allocation import Allocator, select_max_fairness
from repro.core.estimate import CompletionTimeEstimator
from repro.core.fairness import LoadVector
from repro.core.info_base import DomainInfoBase, PeerRecord
from repro.graphs import ResourceGraph, iter_paths
from repro.monitoring.profiler import LoadReport
from repro.net.latency import ConstantLatency
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
        edge = info.register_service_instance("a", "b", "s", "p0", work)
        est = CompletionTimeEstimator()
        base = est.service_time(info, edge, 0.0)
        info2, _ = small_domain({"p0": min(load + 1.0, 9.9)})
        edge2 = info2.register_service_instance("a", "b", "s", "p0", work)
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
        edge = info.register_service_instance("a", "b", "s", "p0", work)
        est = CompletionTimeEstimator()
        t1 = est.estimate_path(info, net, [edge], 0.0, "p0", "p0", 0.0)
        ts = est.estimate_path(
            info, net, [edge], 0.0, "p0", "p0", 0.0, work_scale=scale
        )
        assert ts == pytest.approx(t1 * scale)

    @given(st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=40)
    def test_tighter_deadline_never_more_feasible(self, deadline):
        info, net = small_domain({"p0": 5.0})
        edge = info.register_service_instance("a", "b", "s", "p0", 20.0)
        est = CompletionTimeEstimator()
        loose = est.feasible(
            info, net, [edge], deadline * 2, 0.0, "p0", "p0", 0.0
        )
        tight = est.feasible(
            info, net, [edge], deadline, 0.0, "p0", "p0", 0.0
        )
        assert loose or not tight


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


def reference_candidates(alloc, info, net, task, loads, **kw):
    """Fig. 3 from the estimator's public path-level methods alone."""
    est, now, scale = alloc.estimator, kw["now"], kw["work_scale"]
    src, in_bytes = kw["source_peer"], kw["in_bytes"]
    view = loads if loads is not None else info.load_vector(now)
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
    powerless or unknown hosts, reported + projected load) and request."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    uniform = lambda lo, hi: float(rng.uniform(lo, hi))
    env = Environment()
    net = Network(env, ConstantLatency(uniform(0.0, 0.05)), bandwidth=1e6)
    info = DomainInfoBase("d", "rm")
    now = uniform(0.0, 10.0)
    n_peers = int(rng.integers(1, 6))
    for i in range(n_peers):
        power = 0.0 if rng.random() < 0.08 else uniform(1.0, 20.0)
        rec = PeerRecord(peer_id=f"p{i}", power=power, bandwidth=1e6)
        info.add_peer(rec)
        if rng.random() < 0.8:
            load = uniform(0.0, 1.2 * power)
            rec.last_report = LoadReport(
                peer_id=rec.peer_id, time=0.0, power=power,
                utilization=0.0, load=load, bw_used=0.0,
                queue_work=0.0, queue_length=0,
            )
        for k in range(int(rng.integers(0, 3))):
            info.project_allocation(
                f"old{i}.{k}", {rec.peer_id: uniform(0.0, 2.0)},
                expires_at=uniform(0.0, 20.0),
            )
    n_states = int(rng.integers(2, 6))
    for k in range(int(rng.integers(1, 25))):
        a, b = (int(x) for x in rng.integers(n_states, size=2))
        if a == b:
            continue
        # Hosts beyond the roster are peers the RM does not know.
        info.resource_graph.add_service(
            a, b, f"svc{k}", f"p{int(rng.integers(n_peers + 1))}",
            work=uniform(0.0, 6.0) if rng.random() < 0.9 else 0.0,
            out_bytes=uniform(0.0, 1e5) if rng.random() < 0.8 else 0.0,
            edge_id=f"e{k}",
        )
    for v in (0, n_states - 1):
        if rng.random() < 0.95:
            info.resource_graph.add_state(v)
    task = ApplicationTask(
        name="obj", qos=QoSRequirements(deadline=uniform(0.01, 60.0)),
        initial_state=0, goal_state=n_states - 1, origin_peer="p0",
        submitted_at=now - (uniform(0.0, 45.0) if rng.random() < 0.2 else 0.0),
    )
    loads = None
    if rng.random() < 0.3:
        loads = LoadVector({
            pid: uniform(0.0, 10.0) for pid in info.peers
            if rng.random() < 0.9
        } or {"p0": 1.0})
    alloc = Allocator(
        estimator=CompletionTimeEstimator(
            min_free_frac=uniform(0.01, 1.0),
            safety_margin=uniform(0.0, 0.5),
            max_utilization=uniform(0.5, 1.5),
        ),
        visited_policy=draw(st.sampled_from(["paper", "exhaustive"])),
    )
    request = dict(
        v_init=0 if rng.random() < 0.95 else n_states - 1,
        v_sol=n_states - 1,
        source_peer=f"p{int(rng.integers(n_peers))}",
        sink_peer=f"p{int(rng.integers(n_peers))}",
        in_bytes=uniform(0.0, 1e6) if rng.random() < 0.9 else 0.0,
        now=now, work_scale=uniform(0.25, 4.0),
    )
    return alloc, info, net, task, loads, request


class TestAllocatorDifferential:
    @given(allocation_case())
    @settings(max_examples=300, deadline=None)
    def test_allocate_equals_reference_bit_for_bit(self, case):
        """The cost-carrying search changes no float and no order: every
        candidate — not only the winner — equals, with ``==``, what the
        pre-fold search plus ``estimate_path`` / ``path_overloads`` /
        ``path_load_deltas`` produce."""
        alloc, info, net, task, loads, request = case
        expected = reference_candidates(
            alloc, info, net, task, loads, **request
        )
        seen = []

        def selector(candidates):
            seen.extend(candidates)
            return select_max_fairness(candidates)

        alloc.selector = selector
        try:
            result = alloc.allocate(info, net, task, loads=loads, **request)
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

    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_fifo_store_preserves_order(self, n, seed):
        from repro.sim import Store

        env = Environment()
        st_ = Store(env)
        rng = np.random.default_rng(seed)
        delays = rng.uniform(0, 5, size=n)
        got = []

        def producer():
            for i, d in enumerate(delays):
                yield env.timeout(float(d))
                yield st_.put(i)

        def consumer():
            for _ in range(n):
                item = yield st_.get()
                got.append(item)

        env.process(producer())
        env.process(consumer())
        env.run()
        assert got == list(range(n))
