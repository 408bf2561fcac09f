"""The task allocation algorithm of Figure 3.

BFS over the resource graph from ``v_init`` to ``v_sol``; prefixes that
cannot meet the requirement set ``q`` are pruned; among complete
candidates that satisfy ``q``, the one maximizing the Jain fairness
index of the post-assignment load distribution wins.

The *selection rule* is pluggable (``selector``) so the baselines of
experiment E1/E2 — random, round-robin, first-feasible, least-loaded —
share the identical search and feasibility machinery and differ
**only** in the choice among feasible candidates, which is precisely
the paper's design choice under test.  Each rule is a
:data:`Selector`; :mod:`repro.core.control.placement` names them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional

import numpy as np

from repro.common.errors import NoFeasibleAllocation
from repro.core.estimate import CompletionTimeEstimator
from repro.core.fairness import LoadVector
from repro.core.info_base import DomainInfoBase
from repro.graphs.resource_graph import ServiceEdge
from repro.graphs.search import Link, iter_hits, iter_paths, path_of
from repro.net.network import Network
from repro.sim.rng import fallback_rng
from repro.tasks.task import ApplicationTask


class Candidate:
    """One feasible allocation candidate.

    ``max_post_util`` (the highest post-assignment utilization among the
    touched peers) is precomputed so fairness-blind baseline selectors
    (greedy least-loaded) can share the identical search machinery.
    ``path`` and ``deltas`` are built on first read, from a search link
    and from ``(prefix deltas, peer, delta)``: usually only the winner's.
    """

    __slots__ = ("_path", "fairness", "est_time", "_deltas", "max_post_util")

    def __init__(self, path: List[ServiceEdge] | Link, fairness: float,
                 est_time: float, deltas: Dict[str, float] | tuple,
                 max_post_util: float = 0.0) -> None:
        self._path, self.fairness, self.est_time = path, fairness, est_time
        self._deltas, self.max_post_util = deltas, max_post_util

    @property
    def path(self) -> List[ServiceEdge]:
        if type(self._path) is not list:
            self._path = path_of(self._path)
        return self._path

    @property
    def deltas(self) -> Dict[str, float]:
        if type(self._deltas) is tuple:
            base, peer_id, delta = self._deltas
            self._deltas = {**base, peer_id: delta}
        return self._deltas

    @property
    def edge_ids(self) -> List[str]:
        return [e.edge_id for e in self.path]

    def peers(self) -> List[str]:
        out: List[str] = []
        for e in self.path:
            if e.peer_id not in out:
                out.append(e.peer_id)
        return out


#: Picks the winning candidate from a non-empty list.
Selector = Callable[[List[Candidate]], Candidate]


def select_max_fairness(candidates: List[Candidate]) -> Candidate:
    """The paper's rule: maximize post-assignment fairness (Fig. 3)."""
    best = candidates[0]
    for cand in candidates[1:]:
        if cand.fairness > best.fairness:
            best = cand
    return best


def select_first(candidates: List[Candidate]) -> Candidate:
    """First feasible path in search order — fairness-blind BFS."""
    return candidates[0]


class RandomSelector:
    """Uniform choice among feasible candidates."""

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        # Fallback: the ambient scenario seed when installed (see
        # repro.sim.rng), else OS entropy; the overlay plumbs an
        # explicit seed-derived rng.
        self.rng = rng if rng is not None else fallback_rng("allocator")

    def __call__(self, candidates: List[Candidate]) -> Candidate:
        return candidates[int(self.rng.integers(len(candidates)))]


class LeastLoadedSelector:
    """Greedy: minimize the max post-assignment utilization.

    The "centralized greedy" reference the paper cites ([17], §4.2) —
    good at avoiding hot spots but blind to distribution shape.
    """

    def __call__(self, candidates: List[Candidate]) -> Candidate:
        return min(candidates, key=lambda c: (c.max_post_util, c.est_time))


class RoundRobinSelector:
    """Rotate load across peers: pick the candidate whose peers have
    been used least recently/often by this selector (the classic
    middleware load-balancing strategy of the related work, [16])."""

    def __init__(self) -> None:
        self._use_counts: Dict[str, int] = {}

    def __call__(self, candidates: List[Candidate]) -> Candidate:
        def burden(cand: Candidate) -> tuple[int, float]:
            return (
                sum(self._use_counts.get(p, 0) for p in cand.peers()),
                cand.est_time,
            )

        winner = min(candidates, key=burden)
        for peer in winner.peers():
            self._use_counts[peer] = self._use_counts.get(peer, 0) + 1
        return winner


@dataclass
class AllocationResult:
    """Outcome of a successful allocation."""

    task_id: str
    path: List[ServiceEdge]
    fairness: float
    est_time: float
    deltas: Dict[str, float]
    n_candidates: int
    n_examined: int

    @property
    def edge_ids(self) -> List[str]:
        return [e.edge_id for e in self.path]

    def allocation_pairs(self) -> List[tuple[str, str]]:
        return [(e.service_id, e.peer_id) for e in self.path]


@dataclass
class Allocator:
    """The Figure-3 allocation algorithm with pluggable selection.

    Parameters
    ----------
    estimator:
        Completion-time estimator (feasibility of ``q``).
    visited_policy:
        ``"paper"`` (Fig-3 BFS) or ``"exhaustive"`` (all simple paths).
    selector:
        Choice rule among feasible candidates; defaults to the paper's
        fairness maximization.
    max_expansions / max_candidates:
        Search budgets.
    """

    estimator: CompletionTimeEstimator = field(
        default_factory=CompletionTimeEstimator
    )
    visited_policy: str = "paper"
    selector: Selector = select_max_fairness
    max_expansions: int = 100_000
    max_candidates: int = 10_000

    def allocate(
        self,
        info: DomainInfoBase,
        net: Network,
        task: ApplicationTask,
        v_init: Hashable,
        v_sol: Hashable,
        source_peer: str,
        sink_peer: str,
        in_bytes: float,
        now: float,
        work_scale: float = 1.0,
    ) -> AllocationResult:
        """Run the allocation for *task*.

        Raises
        ------
        NoFeasibleAllocation
            With ``reason="no_path"`` when the resource graph offers no
            route at all, or ``reason="qos"`` when routes exist but none
            satisfies the requirement set (the admission layer treats
            these differently — a missing service must be *redirected*
            by summary lookup; an overload may be *retried/redirected*
            too but signals domain saturation).
        """
        est = self.estimator
        peers = info.peers
        # One load table per call: it feeds the fairness view, the
        # service-time term and the capacity check.  A peer claiming no
        # power gets no free rate, so its edges prune like a missing
        # peer's ("infinitely overloaded") instead of dividing by zero.
        load_of: Dict[str, float] = {}
        free_rate: Dict[str, float] = {}
        projections = info._projections if info.reputation is None else None
        for peer_id, rec in peers.items():
            if projections is None or projections.get(peer_id):
                load = info.effective_load(peer_id, now)
            else:  # effective_load without projections: the report's
                load = 0.0 if rec.last_report is None else rec.last_report.load
            load_of[peer_id] = load
            power = rec.power
            if power > 0:  # max(power - load, floor), without the call
                free, floor = power - load, power * est.min_free_frac
                free_rate[peer_id] = floor if floor > free else free
        load_view = LoadVector(load_of)
        # The remaining time budget: equals the relative QoS deadline for
        # a fresh submission, shrinks for redirected / repaired tasks.
        deadline = task.absolute_deadline - now
        if deadline <= 0:
            raise NoFeasibleAllocation(task.task_id, reason="qos")
        candidates: List[Candidate] = []
        n_examined = 0
        budget = deadline * (1.0 - est.safety_margin)
        max_utilization = est.max_utilization
        transfer_time = est.transfer_time

        def extend(state: tuple, edge: ServiceEdge) -> Optional[tuple]:
            """One hop of ``estimate_path``, folded along the search:
            ``state`` is ``(elapsed, carried bytes, last peer)`` of the
            prefix, a lower bound on any completion through it."""
            elapsed, carried, prev_peer = state
            peer_id = edge.peer_id
            free = free_rate.get(peer_id)
            if free is None:
                return None
            elapsed += transfer_time(net, prev_peer, peer_id, carried)
            elapsed += edge.work * work_scale / free
            if elapsed > budget:
                return None
            return elapsed, edge.out_bytes * work_scale, peer_id

        def top_post_util(deltas: Dict[str, float]) -> Optional[float]:
            # max_post_util, or None past a cap (path_overloads' test).
            top = 0.0
            for peer_id, delta in deltas.items():
                power = peers[peer_id].power
                load = load_of[peer_id] + delta
                if load > power * max_utilization:
                    return None
                if load / power > top:
                    top = load / power
            return top

        # Hits out of one expanded prefix share its link, so its delta
        # table, top utilization and fairness sums are built once.
        parent: Any = object()
        for link, (elapsed, carried, last_peer) in iter_hits(
            info.resource_graph,
            v_init,
            v_sol,
            visited_policy=self.visited_policy,
            extend=extend,
            state=(0.0, in_bytes, source_peer),
            max_expansions=self.max_expansions,
        ):
            n_examined += 1
            est_time = elapsed + transfer_time(
                net, last_peer, sink_peer, carried
            )
            if est_time > budget:
                continue
            if link is not None and link[-1] is not parent:
                parent = link[-1]
                base = est.path_load_deltas(path_of(parent), deadline, work_scale)
                base_top = top_post_util(base)
                base_s, base_q = load_view.sums_with(base)
            if link is None or last_peer in base:  # not one peer more
                deltas = est.path_load_deltas(path_of(link), deadline, work_scale)
                top = top_post_util(deltas)
                if top is None:
                    continue
                cand = Candidate(link, load_view.fairness_with(deltas),
                                 est_time, deltas, top)
            elif base_top is not None:  # their arithmetic, one step on
                delta = 0.0 + link[0].work * work_scale / deadline
                power, old = peers[last_peer].power, load_of[last_peer]
                load = old + delta
                if load > power * max_utilization:
                    continue
                new = load if load > 0.0 else 0.0  # max(0.0, load)
                # fairness_with's last step (called itself on None or 0.0).
                fairness = load_view.fairness_of_sums(
                    base_s + (new - old), base_q + (new * new - old * old)
                ) or load_view.fairness_with({**base, last_peer: delta})
                cand = Candidate(link, fairness, est_time,
                                 (base, last_peer, delta),
                                 max(load / power, base_top))
            else:
                continue
            candidates.append(cand)
            if len(candidates) >= self.max_candidates:
                break

        if not candidates:
            # Distinguish "no route exists at all" from "routes exist but
            # none meets q": prefix pruning may have hidden every route,
            # so re-probe without the QoS predicate.
            any_path = n_examined > 0 or next(iter_paths(
                info.resource_graph, v_init, v_sol,
                visited_policy=self.visited_policy,
                max_expansions=self.max_expansions,
            ), None) is not None
            raise NoFeasibleAllocation(
                task.task_id, reason="qos" if any_path else "no_path"
            )
        winner = self.selector(candidates)
        return AllocationResult(
            task_id=task.task_id,
            path=winner.path,
            fairness=winner.fairness,
            est_time=winner.est_time,
            deltas=winner.deltas,
            n_candidates=len(candidates),
            n_examined=n_examined,
        )
