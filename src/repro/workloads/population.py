"""Heterogeneous peer populations.

"The problem is complicated further by the heterogeneity of the peers,
in terms of processing power, network connectivity, and available
software" (§1): powers are lognormal, bandwidths tiered (modem / DSL /
LAN-class), uptimes beta-distributed, and each peer offers only a
random subset of the transcoder pool (its "available software").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.media.objects import MediaObject
from repro.overlay.network import PeerSpec, ServiceInstanceSpec
from repro.workloads.catalog import MediaCatalog

#: Beta(a, b) parameters for uptime scores in [0, 1].
UPTIME_ALPHA = 6.0
UPTIME_BETA = 2.0


@dataclass
class PopulationConfig:
    """Knobs for generating a peer population."""

    n_peers: int = 16
    #: Mean processing power (work units/s); lognormal around this.
    mean_power: float = 10.0
    #: Coefficient of variation of power (0 = homogeneous).
    power_cv: float = 0.4
    #: Bandwidth tiers (bytes/s) and their probabilities.
    bandwidth_tiers: tuple = (2.5e5, 1.25e6, 1.25e7)
    bandwidth_probs: tuple = (0.2, 0.6, 0.2)
    #: Conversion types hosted per peer.
    services_per_peer: int = 6
    #: Distinct media objects in the system.
    n_objects: int = 8
    #: Replicas per object.
    replication: int = 2
    #: Object stream duration (seconds).
    object_duration: float = 60.0
    #: Distribution of per-object stream durations around
    #: ``object_duration``: ``fixed`` (every object identical — the
    #: historic behavior), ``pareto`` or ``lognormal`` (heavy-tailed
    #: task costs: a few elephant streams dominate the work).
    duration_dist: str = "fixed"
    #: Pareto tail index (smaller = heavier tail; must be > 1 so the
    #: mean exists and can be pinned to ``object_duration``).
    duration_pareto_alpha: float = 1.6
    #: Lognormal sigma of the duration multiplier.
    duration_sigma: float = 0.75
    #: Cap on the duration multiplier (keeps one elephant from eating
    #: the whole run).
    duration_cap: float = 12.0
    #: Local scheduling policy for every peer.
    scheduling_policy: str = "LLS"
    #: Profiler update period (the E7 knob).
    update_period: float = 2.0

    def __post_init__(self) -> None:
        if self.n_peers < 1:
            raise ValueError("n_peers must be >= 1")
        if self.mean_power <= 0:
            raise ValueError("mean_power must be positive")
        if self.power_cv < 0:
            raise ValueError("power_cv must be non-negative")
        if len(self.bandwidth_tiers) != len(self.bandwidth_probs):
            raise ValueError("bandwidth tiers/probs length mismatch")
        if abs(sum(self.bandwidth_probs) - 1.0) > 1e-9:
            raise ValueError("bandwidth_probs must sum to 1")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if self.duration_dist not in ("fixed", "pareto", "lognormal"):
            raise ValueError(
                "duration_dist must be 'fixed', 'pareto' or 'lognormal', "
                f"got {self.duration_dist!r}"
            )
        if self.duration_dist == "pareto" and self.duration_pareto_alpha <= 1:
            raise ValueError("duration_pareto_alpha must be > 1")
        if self.duration_sigma < 0:
            raise ValueError("duration_sigma must be non-negative")
        if self.duration_cap <= 0:
            raise ValueError("duration_cap must be positive")


def _sample_powers(
    cfg: PopulationConfig, rng: np.random.Generator
) -> np.ndarray:
    if cfg.power_cv == 0:
        return np.full(cfg.n_peers, cfg.mean_power)
    # Lognormal with the requested mean and CV.
    sigma2 = np.log(1.0 + cfg.power_cv**2)
    mu = np.log(cfg.mean_power) - sigma2 / 2.0
    return rng.lognormal(mean=mu, sigma=np.sqrt(sigma2), size=cfg.n_peers)


def _duration_multiplier(
    cfg: PopulationConfig, rng: np.random.Generator
) -> float:
    """One heavy-tailed multiplier with mean ~1 (capped)."""
    if cfg.duration_dist == "pareto":
        # Lomax + 1 shifted so E[m] = 1 for alpha > 1.
        a = cfg.duration_pareto_alpha
        m = (1.0 + rng.pareto(a)) * (a - 1.0) / a
    else:  # lognormal
        s = cfg.duration_sigma
        m = rng.lognormal(mean=-s * s / 2.0, sigma=s)
    return float(min(m, cfg.duration_cap))


def make_objects(
    catalog: MediaCatalog, cfg: PopulationConfig,
    rng: np.random.Generator,
) -> List[MediaObject]:
    """The media objects stored in the system (high-quality sources).

    With ``duration_dist != "fixed"`` each object's stream duration is a
    heavy-tailed draw around ``object_duration`` — since transcoding
    work scales with duration, this turns the task-cost distribution
    heavy-tailed too (a handful of elephant streams dominate).  The
    ``fixed`` default draws nothing extra, so historic RNG trajectories
    are untouched.
    """
    sources = catalog.source_formats()
    heavy = cfg.duration_dist != "fixed"
    objects = []
    for i in range(cfg.n_objects):
        fmt = sources[int(rng.integers(len(sources)))]
        duration = cfg.object_duration
        if heavy:
            duration *= _duration_multiplier(cfg, rng)
        objects.append(
            MediaObject(name=f"obj{i}", fmt=fmt, duration_s=duration)
        )
    return objects


def generate_specs(
    catalog: MediaCatalog,
    cfg: PopulationConfig,
    rng: np.random.Generator,
    objects: Optional[List[MediaObject]] = None,
    id_prefix: str = "p",
) -> List[PeerSpec]:
    """Generate :class:`PeerSpec` s for one population.

    Every conversion type is guaranteed at least one instance somewhere
    (round-robin seeding) before the remaining slots are sampled
    uniformly, so a small population cannot accidentally make the whole
    catalog unreachable.
    """
    if objects is None:
        objects = make_objects(catalog, cfg, rng)
    powers = _sample_powers(cfg, rng)
    bandwidths = rng.choice(
        cfg.bandwidth_tiers, size=cfg.n_peers, p=cfg.bandwidth_probs
    )
    uptimes = rng.beta(UPTIME_ALPHA, UPTIME_BETA, size=cfg.n_peers)

    conversions = catalog.conversions()
    # Seed coverage: spread every conversion type across the population.
    assignments: List[List[int]] = [[] for _ in range(cfg.n_peers)]
    order = rng.permutation(len(conversions))
    for slot, conv_idx in enumerate(order):
        assignments[slot % cfg.n_peers].append(int(conv_idx))
    for i in range(cfg.n_peers):
        want = cfg.services_per_peer
        have = set(assignments[i])
        while len(assignments[i]) < want:
            pick = int(rng.integers(len(conversions)))
            if pick not in have:
                have.add(pick)
                assignments[i].append(pick)
        assignments[i] = assignments[i][:want] if want < len(
            assignments[i]
        ) else assignments[i]

    # Replicate objects across random peers.  The inverse index
    # (peer -> object indices, ascending) avoids the quadratic
    # peers x objects membership scan when building each spec.
    object_homes: Dict[int, List[int]] = {}
    peer_objects: Dict[int, List[int]] = {}
    for oi in range(len(objects)):
        k = min(cfg.replication, cfg.n_peers)
        homes = list(rng.choice(cfg.n_peers, size=k, replace=False))
        object_homes[oi] = homes
        for home in homes:
            peer_objects.setdefault(int(home), []).append(oi)

    specs: List[PeerSpec] = []
    for i in range(cfg.n_peers):
        services = []
        for conv_idx in assignments[i]:
            src, dst = conversions[conv_idx]
            services.append(
                ServiceInstanceSpec(
                    src_state=src,
                    dst_state=dst,
                    service_id=f"tc:{src.label()}>{dst.label()}",
                    work=catalog.work_of(src, dst),
                    out_bytes=catalog.out_bytes_of(dst),
                )
            )
        own_objects = {
            objects[oi].name: objects[oi]
            for oi in peer_objects.get(i, ())
        }
        specs.append(
            PeerSpec(
                peer_id=f"{id_prefix}{i}",
                power=float(powers[i]),
                bandwidth=float(bandwidths[i]),
                uptime=float(uptimes[i]),
                objects=own_objects,
                services=services,
                scheduling_policy=cfg.scheduling_policy,
                profiler_update_period=cfg.update_period,
            )
        )
    return specs
