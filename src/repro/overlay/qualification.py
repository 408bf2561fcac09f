"""RM qualification scoring (§4.1).

"The requirements for becoming a Resource Manager are: i) Sufficient
bandwidth, ii) Sufficient processing power, iii) Sufficient uptime.
According to how affluent a peer is in those resources, it is assigned
a score, that determines its position in the list of peers in the
domain that are eligible for becoming Resource Managers."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

#: Score weights of power, bandwidth and uptime (each normalized by its
#: minimum).
W_POWER = 1.0
W_BANDWIDTH = 1.0
W_UPTIME = 2.0


@dataclass(frozen=True)
class QualificationPolicy:
    """Thresholds and weights for RM eligibility.

    A peer qualifies only if it clears *all three* minimums; its score
    is then a weighted sum of its resources normalized by those
    minimums (so "twice the minimum bandwidth" adds ``W_BANDWIDTH``).
    """

    min_power: float = 5.0
    min_bandwidth: float = 1e6
    min_uptime: float = 0.7

    def qualifies(
        self, power: float, bandwidth: float, uptime: float
    ) -> bool:
        """All three sufficiency requirements hold."""
        return (
            power >= self.min_power
            and bandwidth >= self.min_bandwidth
            and uptime >= self.min_uptime
        )

    def score(self, power: float, bandwidth: float, uptime: float) -> float:
        """Affluence score; higher = earlier in the eligible list."""
        if not self.qualifies(power, bandwidth, uptime):
            return 0.0
        return (
            W_POWER * power / self.min_power
            + W_BANDWIDTH * bandwidth / self.min_bandwidth
            + W_UPTIME * uptime / self.min_uptime
        )

    def rank(
        self, candidates: Iterable[Tuple[str, float, float, float]]
    ) -> List[str]:
        """Order (peer_id, power, bandwidth, uptime) tuples by score.

        Unqualified peers are excluded; ties break by peer id so the
        eligible list is deterministic.
        """
        scored = [
            (self.score(p, b, u), pid)
            for pid, p, b, u in candidates
            if self.qualifies(p, b, u)
        ]
        scored.sort(key=lambda t: (-t[0], t[1]))
        return [pid for _score, pid in scored]
