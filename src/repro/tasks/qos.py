"""QoS requirement sets (the ``q`` of the Fig-3 allocation algorithm)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass(frozen=True)
class QoSRequirements:
    """End-user QoS requirements attached to a task request.

    Attributes
    ----------
    deadline:
        Relative deadline in seconds from task initiation (paper §3.3,
        ``Deadline_t``). Must be positive.
    importance:
        Relative importance of the application (``Importance_t``);
        higher = more important. Used by value-aware local schedulers and
        by reassignment to decide which tasks to move first.
    constraints:
        Free-form additional constraints the request must satisfy — for a
        transcoding task e.g. acceptable codecs/bitrates. Interpreted by
        the workload layer when building ``v_sol`` candidates.
    """

    deadline: float
    importance: float = 1.0
    constraints: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.importance <= 0:
            raise ValueError(
                f"importance must be positive, got {self.importance}"
            )
