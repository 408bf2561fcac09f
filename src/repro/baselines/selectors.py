"""Candidate-selection rules implementing the baseline policies."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.allocation import (
    Allocator,
    Candidate,
    Selector,
    select_max_fairness,
)
from repro.core.estimate import CompletionTimeEstimator
from repro.sim.rng import fallback_rng


def select_first(candidates: List[Candidate]) -> Candidate:
    """First feasible path in search order — fairness-blind BFS."""
    return candidates[0]


class RandomSelector:
    """Uniform choice among feasible candidates."""

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        # Fallback: the ambient scenario seed when installed (see
        # repro.sim.rng), else OS entropy; build_scenario plumbs an
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


#: The built-in rules by table name (``fairness`` is the historical
#: scenario-config name for the paper's rule).  The placement registry
#: registers exactly these, so this is the one list of built-in names.
SELECTOR_FACTORIES: Dict[
    str, Callable[[Optional[np.random.Generator]], Selector]
] = {
    "paper": lambda rng: select_max_fairness,
    "fairness": lambda rng: select_max_fairness,
    "first": lambda rng: select_first,
    "random": RandomSelector,
    "least_loaded": lambda rng: LeastLoadedSelector(),
    "round_robin": lambda rng: RoundRobinSelector(),
}


def make_selector(
    name: str, rng: Optional[np.random.Generator] = None
) -> Selector:
    """Build a built-in selector by table name."""
    if name not in SELECTOR_FACTORIES:
        # Deferred: the registry module imports this one.
        from repro.core.control.placement import policy_names

        raise ValueError(
            f"unknown selector {name!r}; known: {policy_names()}"
        )
    return SELECTOR_FACTORIES[name](rng)


def make_allocator(
    policy: str = "fairness",
    rng: Optional[np.random.Generator] = None,
    visited_policy: str = "paper",
    estimator: Optional[CompletionTimeEstimator] = None,
    max_expansions: int = 100_000,
) -> Allocator:
    """An :class:`Allocator` configured for one named policy."""
    return Allocator(
        estimator=estimator or CompletionTimeEstimator(),
        visited_policy=visited_policy,
        selector=make_selector(policy, rng),
        max_expansions=max_expansions,
    )
