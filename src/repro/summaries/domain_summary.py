"""A domain's advertised summary: objects, services, load, version."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.summaries.bloom import BloomFilter


@dataclass(frozen=True)
class DomainSummary:
    """What a Resource Manager advertises to other domains (§3.1).

    ``SumO_k`` and ``SumS_k`` of the paper are the two Bloom filters;
    we additionally carry a mean-utilization figure so redirection can
    prefer lightly loaded domains, and a monotonically increasing
    version for gossip anti-entropy.  Frozen: receivers share the object
    they were sent, so a change is a new summary.
    """

    domain_id: str
    rm_id: str
    version: int = 0
    n_peers: int = 0
    mean_utilization: float = 0.0
    objects: BloomFilter = field(default_factory=lambda: BloomFilter(2048, 5))
    services: BloomFilter = field(default_factory=lambda: BloomFilter(2048, 5))

    def rebuild(
        self,
        objects: Iterable[str],
        services: Iterable[str],
        n_peers: int,
        mean_utilization: float,
        geometry: Optional[tuple[int, int]] = None,
    ) -> "DomainSummary":
        """Produce the next version from fresh domain contents."""
        bits, hashes = geometry or (self.objects.n_bits, self.objects.n_hashes)
        new_obj = BloomFilter(bits, hashes)
        new_obj.update(objects)
        new_srv = BloomFilter(bits, hashes)
        new_srv.update(services)
        return DomainSummary(
            domain_id=self.domain_id,
            rm_id=self.rm_id,
            version=self.version + 1,
            n_peers=n_peers,
            mean_utilization=mean_utilization,
            objects=new_obj,
            services=new_srv,
        )

    def newer_than(self, other: Optional["DomainSummary"]) -> bool:
        """Anti-entropy ordering: is this summary fresher?"""
        return other is None or self.version > other.version

    def __repr__(self) -> str:
        return (
            f"<DomainSummary {self.domain_id} v{self.version} "
            f"peers={self.n_peers} util={self.mean_utilization:.2f}>"
        )
