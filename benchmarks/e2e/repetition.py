"""What one repetition of a workload's body hands back."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

#: Host seconds of measured window the workload sizes are quoted for.
#: A repetition asked for another length scales its work linearly, so
#: the same ``--seconds`` always means the same inputs.
REFERENCE_WINDOW_S = 6.0

#: Counts every adapter reports, zero where the layer does not run.
COUNT_KEYS = (
    "events", "messages", "bytes", "datagrams", "delivered", "retransmits",
    "duplicates", "admitted", "redirected", "rejected", "repaired",
    "completed", "missed", "departures", "rejoins",
)


@dataclass
class Repetition:
    """Raw measurements of one build + warm-up + measured window.

    Times are host seconds (``perf_counter`` / ``process_time``) at the
    reference machine speed (see :mod:`benchmarks.e2e.speed`), except
    ``raw_wall_s``; ``latencies_s`` are on the workload's own clock
    (simulated for ``sim_*``, host for ``live_*``).
    """

    build_s: float
    warmup_s: float
    #: ``perf_counter`` reading when the measured window opened.
    measured_from: float
    wall_s: float
    cpu_s: float
    #: The window's wall time as the host's clock read it.
    raw_wall_s: float
    #: Mean machine speed while it ran; 1 = the reference.
    host_speed: float
    #: Tasks submitted in the window, refused submissions included.
    attempted: int
    #: Tasks that reached a terminal state (live: completed in time).
    terminal: int
    #: Tasks that met their deadline.
    ok: int
    #: Kernel events processed in the window.
    events: int
    latencies_s: List[float]
    #: Raw counts behind the per-layer counter metrics (the keys of
    #: :data:`COUNT_KEYS`) plus whatever else the detail line should show.
    counts: Dict[str, Any] = field(default_factory=dict)
    #: Open loop only: how late each submission left the generator.
    lateness_s: List[float] = field(default_factory=list)
    #: Must be equal across repetitions of a deterministic body.
    fingerprint: Any = None
    #: Failed output checks; any entry makes the run incorrect.
    problems: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Tasks submitted in the window that did not meet their
        deadline: rejected, failed, missed, refused, timed out, lost."""
        return self.attempted - self.ok

    @property
    def setup_s(self) -> float:
        """Construction plus warm-up: first constructor call until the
        system is ready for the first measured task."""
        return self.build_s + self.warmup_s
