"""The task allocation algorithm of Figure 3.

BFS over the resource graph from ``v_init`` to ``v_sol``; prefixes that
cannot meet the requirement set ``q`` are pruned; among complete
candidates that satisfy ``q``, the one maximizing the Jain fairness
index of the post-assignment load distribution wins.

The *selection rule* is pluggable (``selector``) so the baselines of
experiment E1/E2 — random, first-feasible, least-loaded — share the
identical search and feasibility machinery and differ **only** in the
choice among feasible candidates, which is precisely the paper's design
choice under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional

from repro.common.errors import NoFeasibleAllocation
from repro.core.estimate import CompletionTimeEstimator
from repro.core.fairness import LoadVector
from repro.core.info_base import DomainInfoBase
from repro.graphs.resource_graph import ServiceEdge
from repro.graphs.search import iter_paths
from repro.net.network import Network
from repro.tasks.task import ApplicationTask


@dataclass
class Candidate:
    """One feasible allocation candidate.

    ``max_post_util`` (the highest post-assignment utilization among the
    touched peers) is precomputed so fairness-blind baseline selectors
    (greedy least-loaded) can share the identical search machinery.
    """

    path: List[ServiceEdge]
    fairness: float
    est_time: float
    deltas: Dict[str, float]
    max_post_util: float = 0.0

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
        loads: Optional[LoadVector] = None,
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
        min_free_frac = est.min_free_frac
        for peer_id, rec in peers.items():
            load = load_of[peer_id] = info.effective_load(peer_id, now)
            power = rec.power
            if power > 0:
                free_rate[peer_id] = max(power - load, power * min_free_frac)
        load_view = loads if loads is not None else LoadVector(load_of)
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

        for path, (elapsed, carried, last_peer) in iter_paths(
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
            # One delta table for the capacity check (path_overloads'
            # arithmetic), fairness and max_post_util.
            deltas = est.path_load_deltas(path, deadline, work_scale)
            max_post_util = 0.0
            for peer_id, delta in deltas.items():
                power = peers[peer_id].power
                if load_of[peer_id] + delta > power * max_utilization:
                    break
                post = (load_view.get(peer_id) + delta) / power
                if post > max_post_util:
                    max_post_util = post
            else:  # no peer overloaded
                candidates.append(Candidate(
                    path, load_view.fairness_with(deltas), est_time,
                    deltas, max_post_util,
                ))
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
