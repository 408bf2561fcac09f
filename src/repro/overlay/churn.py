"""Peer churn: arrivals, departures, failures (dynamic environments).

"Peers may disconnect from the system either intentionally or due to a
failure" (§4.1).  The churn process gives every registered peer an
exponential lifetime; on expiry the peer departs (gracefully with
probability ``graceful_prob``, else by crash), and after an exponential
off-time a replacement peer with a fresh identity joins, keeping the
population roughly stationary — the standard P2P churn model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

import numpy as np

from repro.overlay.network import OverlayNetwork, PeerSpec
from repro.sim.events import Event, Interrupt
from repro.sim.rng import fallback_rng

@dataclass
class ChurnConfig:
    """Churn tunables."""

    #: Mean peer session lifetime (seconds); exponential.
    mean_lifetime: float = 300.0
    #: Mean downtime before the replacement joins.
    mean_offtime: float = 20.0
    #: Probability a departure is graceful (PEER_LEAVE) vs a crash.
    graceful_prob: float = 0.5
    #: Whether a replacement peer joins after each departure.
    replace: bool = True

    def __post_init__(self) -> None:
        if self.mean_lifetime <= 0:
            raise ValueError("mean_lifetime must be positive")
        if self.mean_offtime < 0:
            raise ValueError("mean_offtime must be non-negative")
        if not 0 <= self.graceful_prob <= 1:
            raise ValueError("graceful_prob must be in [0, 1]")


class ChurnProcess:
    """Drives churn over an overlay's member peers."""

    def __init__(
        self,
        overlay: OverlayNetwork,
        config: Optional[ChurnConfig] = None,
        rng: Optional[np.random.Generator] = None,
        spec_mutator: Optional[Callable[[PeerSpec, str], PeerSpec]] = None,
    ) -> None:
        self.overlay = overlay
        self.config = config or ChurnConfig()
        # Fallback: derives from the ambient scenario seed when one is
        # installed (see repro.sim.rng), else OS entropy.  Pass an rng
        # (build_scenario derives one from the run seed) to pin draws.
        self.rng = rng if rng is not None else fallback_rng("churn")
        #: Optionally rewrites the replacement's spec (new capabilities).
        self.spec_mutator = spec_mutator
        self.departures = 0
        self.crashes = 0
        self.rejoins = 0
        self._watched: set[str] = set()

    def watch_all(self) -> None:
        """Register every current member for churn."""
        for peer_id in list(self.overlay.peers):
            self.watch(peer_id)

    def watch(self, peer_id: str) -> None:
        """Give one peer an exponential lifetime."""
        if peer_id in self._watched:
            return
        # Resource managers are exempted (their failure is the failover
        # experiment's job, not churn's).
        if self._is_rm(peer_id):
            return
        self._watched.add(peer_id)
        self.overlay.env.process(
            self._lifetime(peer_id), name=f"churn:{peer_id}"
        )

    def _is_rm(self, peer_id: str) -> bool:
        domain = self.overlay.domain_for(peer_id)
        if domain is None:
            return False
        if domain.rm.node_id == peer_id:
            return True
        return domain.backup is not None and domain.backup.node_id == peer_id

    def _lifetime(self, peer_id: str) -> Generator[Event, Any, None]:
        env = self.overlay.env
        cfg = self.config
        try:
            yield env.timeout(
                float(self.rng.exponential(cfg.mean_lifetime))
            )
            node = self.overlay.peers.get(peer_id)
            if node is None or not node.alive:
                self._watched.discard(peer_id)
                return
            old_spec = self.overlay.specs.get(peer_id)
            old_domain = self.overlay.domain_of.get(peer_id)
            graceful = bool(self.rng.random() < cfg.graceful_prob)
            if graceful:
                self.overlay.leave_peer(peer_id)
            else:
                self.overlay.fail_peer(peer_id)
                self.crashes += 1
            self.departures += 1
            self._watched.discard(peer_id)
            if not cfg.replace or old_spec is None:
                return
            yield env.timeout(float(self.rng.exponential(cfg.mean_offtime)))
            new_id = f"{peer_id}.r{next(env.ids.rebirth)}"
            new_spec = PeerSpec(
                peer_id=new_id,
                power=old_spec.power,
                bandwidth=old_spec.bandwidth,
                uptime=old_spec.uptime,
                objects=dict(old_spec.objects),
                services=list(old_spec.services),
                scheduling_policy=old_spec.scheduling_policy,
                profiler_update_period=old_spec.profiler_update_period,
            )
            if self.spec_mutator is not None:
                new_spec = self.spec_mutator(new_spec, peer_id)
            joined = self.overlay.join(new_spec, prefer_domain=old_domain)
            if joined is not None:
                self.rejoins += 1
                self.watch(new_id)
        except Interrupt:
            return
