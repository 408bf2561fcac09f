"""Latency models for overlay links.

The paper assumes a wide-area environment with *unpredictable* latencies
and peers grouped into domains by topological proximity; the
:class:`DomainAwareLatency` model captures exactly that: fast intra-domain
links, slow inter-domain links, multiplicative jitter on both.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.sim.rng import fallback_rng


class LatencyModel:
    """Base class: maps a (src, dst) pair to a one-way delay sample."""

    def sample(self, src: str, dst: str) -> float:
        """One-way propagation delay in seconds for this transmission."""
        raise NotImplementedError

    def expected(self, src: str, dst: str) -> float:
        """Mean delay for planning purposes (no randomness)."""
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Every link has the same fixed delay (useful in tests)."""

    def __init__(self, delay: float = 0.01) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.delay = float(delay)

    def sample(self, src: str, dst: str) -> float:
        return self.delay

    def expected(self, src: str, dst: str) -> float:
        return self.delay


class DomainAwareLatency(LatencyModel):
    """Intra-domain links are fast; inter-domain links are slow.

    Parameters
    ----------
    domain_of:
        Maps a node id to its domain id. Nodes whose domain is unknown
        (callable returns ``None``) are treated as inter-domain.
    intra, inter:
        Base one-way delays (seconds) within / across domains.
    jitter:
        Multiplicative jitter fraction; each sample is
        ``base * (1 + U(-jitter, +jitter))``.
    """

    def __init__(
        self,
        domain_of: Callable[[str], Optional[str]],
        intra: float = 0.005,
        inter: float = 0.050,
        jitter: float = 0.3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if intra < 0 or inter < 0:
            raise ValueError("latencies must be non-negative")
        if not 0 <= jitter < 1:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.domain_of = domain_of
        self.intra = float(intra)
        self.inter = float(inter)
        self.jitter = float(jitter)
        # Fallback: the ambient scenario seed when installed (see
        # repro.sim.rng), else OS entropy; build_scenario plumbs an
        # explicit seed-derived rng.
        self.rng = rng if rng is not None else fallback_rng("latency")
        # Jitter draws are batched: a numpy Generator produces the exact
        # same value sequence for one size=N call as for N scalar calls,
        # so refilling a buffer preserves trajectories bit-for-bit while
        # amortizing the per-call Generator overhead (sample() runs once
        # per message).  Assumes ``jitter`` is fixed after construction.
        self._jit_buf: list = []
        self._jit_i = 0

    def _base(self, src: str, dst: str) -> float:
        ds, dd = self.domain_of(src), self.domain_of(dst)
        if ds is not None and ds == dd:
            return self.intra
        return self.inter

    def sample(self, src: str, dst: str) -> float:
        ds, dd = self.domain_of(src), self.domain_of(dst)
        base = self.intra if (ds is not None and ds == dd) else self.inter
        jitter = self.jitter
        if jitter == 0.0:
            return base
        i = self._jit_i
        buf = self._jit_buf
        if i >= len(buf):
            buf = self._jit_buf = self.rng.uniform(
                -jitter, jitter, size=1024
            ).tolist()
            i = 0
        self._jit_i = i + 1
        return base * (1.0 + buf[i])

    def expected(self, src: str, dst: str) -> float:
        return self._base(src, dst)
