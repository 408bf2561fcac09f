r"""The Jain Fairness Index (paper §4.2, equation 1).

.. math::

    \mathcal{F}(\bar l_{P_D}) =
        \frac{(\sum_{p \in P_D} l_p)^2}{|P_D| \cdot \sum_{p \in P_D} l_p^2}

Properties exercised by the property-based tests (and quoted from §4.2):

* range is ``(0, 1]``; 1 iff all loads are equal;
* scale-free: ``F(c * l) == F(l)`` for ``c > 0``;
* with all other loads fixed, F is maximized when a single peer's load
  equals ``l_best = (Σ_q l_q²) / (Σ_q l_q)`` over the *other* peers
  (:func:`optimal_single_load`), and decreases as the load diverges from
  it in either direction.

The allocator needs *what-if* fairness for many candidate assignments
per request, so :class:`LoadVector` maintains the sum and sum-of-squares
incrementally: evaluating a candidate that touches ``k`` peers is
``O(k)`` instead of ``O(|P_D|)``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

import numpy as np


def jain_fairness(loads: Sequence[float] | np.ndarray) -> float:
    """Equation (1): the fairness index of a load distribution.

    An all-zero distribution is perfectly uniform, so it maps to 1.0
    (the 0/0 limit along equal loads).  Negative loads are rejected —
    they have no physical meaning here.
    """
    arr = np.asarray(loads, dtype=float)
    if arr.size == 0:
        raise ValueError("fairness of an empty load distribution")
    if np.any(arr < 0):
        raise ValueError("loads must be non-negative")
    total = float(arr.sum())
    sumsq = float(np.square(arr).sum())
    if sumsq == 0.0:
        return 1.0
    return total * total / (arr.size * sumsq)


def optimal_single_load(other_loads: Sequence[float]) -> float:
    """The ``l_best`` of §4.2: the load of one peer that maximizes the
    fairness index given the loads of all *other* peers.

    Derivation: maximizing ``(S+x)^2 / (n (Q+x^2))`` over ``x`` gives
    ``x = Q/S`` with ``S, Q`` the others' sum and sum of squares.
    """
    arr = np.asarray(other_loads, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one other peer")
    if np.any(arr < 0):
        raise ValueError("loads must be non-negative")
    s = float(arr.sum())
    if s == 0.0:
        return 0.0
    return float(np.square(arr).sum()) / s


#: A what-if sum of squares at or below this fraction of the stored one
#: has lost its low digits to cancellation (a what-if that empties the
#: heaviest peers): ``1.0 + 1e-20 - 1.0`` is 0, not ``1e-20``.
_CANCELLED = 1e-5


class LoadVector:
    """A named load distribution with O(1) incremental what-if fairness."""

    def __init__(self, loads: Mapping[str, float] | None = None) -> None:
        self._loads: Dict[str, float] = {}
        self._sum = 0.0
        self._sumsq = 0.0
        if loads:
            for peer, load in loads.items():
                self.set(peer, load)

    # -- mutation ------------------------------------------------------------
    def set(self, peer: str, load: float) -> None:
        """Set one peer's load."""
        if load < 0:
            raise ValueError(f"negative load {load} for {peer}")
        old = self._loads.get(peer, 0.0)
        self._loads[peer] = load
        self._sum += load - old
        self._sumsq += load * load - old * old

    def add(self, peer: str, delta: float) -> None:
        """Add *delta* to one peer's load (clamped at zero)."""
        self.set(peer, max(0.0, self.get(peer) + delta))

    def remove(self, peer: str) -> None:
        """Drop a peer from the distribution (peer left the domain)."""
        old = self._loads.pop(peer, None)
        if old is not None:
            self._sum -= old
            self._sumsq -= old * old

    # -- queries ------------------------------------------------------------
    def get(self, peer: str, default: float = 0.0) -> float:
        return self._loads.get(peer, default)

    def __contains__(self, peer: str) -> bool:
        return peer in self._loads

    def __len__(self) -> int:
        return len(self._loads)

    def peers(self) -> list[str]:
        return list(self._loads)

    def as_dict(self) -> Dict[str, float]:
        return dict(self._loads)

    def fairness(self) -> float:
        """Current fairness index of the distribution."""
        n = len(self._loads)
        if n == 0:
            raise ValueError("fairness of an empty load distribution")
        if self._sumsq <= 0.0:
            return 1.0
        return (self._sum * self._sum) / (n * self._sumsq)

    def fairness_with_batch(
        self, candidates: Sequence[Mapping[str, float]]
    ) -> np.ndarray:
        """Vectorized what-if fairness for many candidate assignments.

        Semantically identical to calling :meth:`fairness_with` per
        candidate; useful when an exhaustive allocator evaluates
        hundreds of paths at once (vectorize-the-hot-loop, per the
        profiling guides).
        """
        n = len(self._loads)
        if n == 0:
            raise ValueError("fairness of an empty load distribution")
        if not candidates:
            return np.empty(0, dtype=float)
        sums = np.full(len(candidates), self._sum)
        sumsqs = np.full(len(candidates), self._sumsq)
        for i, deltas in enumerate(candidates):
            for peer, delta in deltas.items():
                old = self._loads.get(peer)
                if old is None:
                    continue
                new = max(0.0, old + delta)
                sums[i] += new - old
                sumsqs[i] += new * new - old * old
        out = np.empty(len(candidates), dtype=float)
        cancelled = sumsqs <= self._sumsq * _CANCELLED
        ok = ~cancelled
        out[ok] = (sums[ok] ** 2) / (n * sumsqs[ok])
        for i in np.flatnonzero(cancelled):
            out[i] = self._recomputed_with(candidates[i])
        return out

    def fairness_with(self, deltas: Mapping[str, float]) -> float:
        """Fairness index *if* each peer in *deltas* gained that much load.

        Peers in *deltas* that are not part of the distribution are
        ignored (they belong to another domain).  O(len(deltas)).
        """
        n = len(self._loads)
        if n == 0:
            raise ValueError("fairness of an empty load distribution")
        s, q = self._sum, self._sumsq
        for peer, delta in deltas.items():
            old = self._loads.get(peer)
            if old is None:
                continue
            new = max(0.0, old + delta)
            s += new - old
            q += new * new - old * old
        if q <= self._sumsq * _CANCELLED:
            return self._recomputed_with(deltas)
        return (s * s) / (n * q)

    def _recomputed_with(self, deltas: Mapping[str, float]) -> float:
        """Equation (1) over the stored loads with *deltas* applied —
        the exact answer for when the running sums have cancelled."""
        loads = dict(self._loads)
        for peer, delta in deltas.items():
            old = loads.get(peer)
            if old is not None:
                loads[peer] = max(0.0, old + delta)
        return jain_fairness(list(loads.values()))


def fairness_after_assignment(
    loads: Mapping[str, float] | LoadVector,
    per_peer_delta: Mapping[str, float],
) -> float:
    """Fairness of *loads* after adding *per_peer_delta* (convenience)."""
    vec = loads if isinstance(loads, LoadVector) else LoadVector(loads)
    return vec.fairness_with(per_peer_delta)


def aggregate_path_deltas(
    pairs: Iterable[tuple[str, float]],
) -> Dict[str, float]:
    """Sum per-peer load deltas over (peer, delta) pairs of a path."""
    out: Dict[str, float] = {}
    for peer, delta in pairs:
        out[peer] = out.get(peer, 0.0) + delta
    return out
