"""The overhead budgeter: keep observability under a fixed cost budget.

Observability must pay for itself.  Every self-measuring component
(profilers, the health sampler) exposes a cumulative self-cost counter
in wall seconds; the budgeter differences those counters over wall time
windows to get the *overhead ratio* — the fraction of real time the
process spends observing itself — and steers it toward a configurable
budget (default 2%) by retuning sampling-rate knobs:

* over budget  -> every actuator backs off (knob × ``BACKOFF``),
* under half the budget -> actuators recover (knob ÷ ``RECOVER``),
  so a quiet system drifts back to full sampling resolution.

Knobs are uniform: *larger setting = cheaper* (a stride of events, a
period in seconds).  Each actuation decision is appended to a bounded
history and — when a :class:`HealthSampler` is attached — recorded as a
series (``repro_prof_overhead_ratio``, ``repro_prof_budget_action``,
``repro_prof_sample_setting{actuator=...}``), so the controller's own
behaviour is auditable after the run.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from typing import Any, Callable, Deque, Dict, List, Optional

#: Default observability overhead budget: 2% of wall time.
DEFAULT_BUDGET = 0.02

#: Actuators back off by multiplying their knob by this factor, and
#: recover by dividing it by the other.
BACKOFF = 2.0
RECOVER = 1.25
#: Recover only below ``budget * SLACK`` (hysteresis band).
SLACK = 0.5
#: Actuation decisions kept in the history, and the newest of them a
#: record embeds.
HISTORY = 256
RECORD_DECISIONS = 32

#: Numeric encoding of actions for the decision series.
ACTION_CODES = {"backoff": -1.0, "hold": 0.0, "recover": 1.0}


class Actuator:
    """One retunable sampling knob; larger settings are cheaper."""

    def __init__(
        self,
        name: str,
        getter: Callable[[], float],
        setter: Callable[[float], None],
        lo: float,
        hi: float,
    ) -> None:
        if lo <= 0 or hi < lo:
            raise ValueError(f"bad actuator range [{lo}, {hi}]")
        self.name = name
        self._get = getter
        self._set = setter
        self.lo = float(lo)
        self.hi = float(hi)

    def get(self) -> float:
        return self._get()

    def cheapen(self) -> bool:
        """Back the knob off; returns True if it moved."""
        cur = self._get()
        new = min(self.hi, cur * BACKOFF)
        if new != cur:
            self._set(new)
            return True
        return False

    def enrich(self) -> bool:
        """Recover sampling resolution; returns True if it moved."""
        cur = self._get()
        new = max(self.lo, cur / RECOVER)
        if new != cur:
            self._set(new)
            return True
        return False

    def __repr__(self) -> str:
        return f"<Actuator {self.name}={self.get()}>"


class OverheadBudgeter:
    """Windowed self-cost controller over registered cost sources."""

    def __init__(
        self,
        budget: float = DEFAULT_BUDGET,
        min_interval: float = 0.1,
    ) -> None:
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self.budget = float(budget)
        #: Minimum wall seconds between evaluations.
        self.min_interval = float(min_interval)
        self._sources: List[tuple] = []  # (name, cumulative-seconds fn)
        self.actuators: List[Actuator] = []
        self._t0 = perf_counter()
        self._last_eval = self._t0
        self._last_cost = 0.0
        #: Latest windowed overhead ratio estimate.
        self.overhead_ratio = 0.0
        #: Whole-run overhead ratio (total cost / total wall).
        self.overhead_cumulative = 0.0
        self.n_evals = 0
        self.n_backoffs = 0
        self.n_recovers = 0
        self.last_action = "hold"
        self.decisions: Deque[Dict[str, Any]] = deque(maxlen=HISTORY)

    # -- wiring -------------------------------------------------------------
    def add_source(self, name: str, fn: Callable[[], float]) -> None:
        """Register a cumulative self-cost counter (wall seconds)."""
        self._sources.append((name, fn))

    def add_actuator(self, actuator: Actuator) -> None:
        self.actuators.append(actuator)

    def total_cost(self) -> float:
        return sum(fn() for _, fn in self._sources)

    # -- evaluation ---------------------------------------------------------
    def maybe_evaluate(self) -> Optional[Dict[str, Any]]:
        """Evaluate if at least ``min_interval`` wall seconds elapsed."""
        if perf_counter() - self._last_eval < self.min_interval:
            return None
        return self.evaluate()

    def evaluate(self) -> Optional[Dict[str, Any]]:
        """Measure the current window and actuate; returns the decision."""
        now = perf_counter()
        elapsed = now - self._last_eval
        if elapsed <= 0.0:
            return None
        cost = self.total_cost()
        window_cost = max(0.0, cost - self._last_cost)
        ratio = window_cost / elapsed
        self._last_eval = now
        self._last_cost = cost
        self.overhead_ratio = ratio
        total_elapsed = now - self._t0
        if total_elapsed > 0:
            self.overhead_cumulative = cost / total_elapsed
        self.n_evals += 1

        # Staged escalation: a mild overshoot moves one knob per
        # evaluation (registration order: cheapest-to-lose resolution
        # first); a severe one (>2x budget) backs everything off at
        # once so short runs still converge.  Recovery is always one
        # knob, in reverse order (last sacrificed, first restored).
        action = "hold"
        if ratio > self.budget:
            severe = ratio > 2.0 * self.budget
            moved = False
            for a in self.actuators:
                if a.cheapen():
                    moved = True
                    if not severe:
                        break
            if moved:
                action = "backoff"
                self.n_backoffs += 1
        elif ratio < self.budget * SLACK:
            for a in reversed(self.actuators):
                if a.enrich():
                    action = "recover"
                    self.n_recovers += 1
                    break
        self.last_action = action

        decision = {
            "t_wall": round(total_elapsed, 6),
            "overhead": round(ratio, 6),
            "action": action,
            "settings": {
                a.name: round(a.get(), 6) for a in self.actuators
            },
        }
        self.decisions.append(decision)
        return decision

    # -- exports ------------------------------------------------------------
    def as_probe(self) -> Callable[[Any], None]:
        """A HealthSampler probe recording the controller as series."""

        def probe(s) -> None:
            self.maybe_evaluate()
            s.observe("repro_prof_overhead_ratio", self.overhead_ratio)
            s.observe(
                "repro_prof_budget_action",
                ACTION_CODES.get(self.last_action, 0.0),
            )
            for a in self.actuators:
                s.observe(
                    "repro_prof_sample_setting", a.get(), actuator=a.name
                )

        return probe

    def publish(self, metrics) -> None:
        """Export the controller state as metrics gauges/counters."""
        metrics.gauge(
            "repro_prof_overhead_ratio",
            help="Windowed observability self-cost / wall time.",
        ).set(round(self.overhead_ratio, 6))
        metrics.gauge(
            "repro_prof_overhead_cumulative",
            help="Whole-run observability self-cost / wall time.",
        ).set(round(self.overhead_cumulative, 6))
        metrics.gauge(
            "repro_prof_budget_target",
            help="Configured observability overhead budget.",
        ).set(self.budget)
        for a in self.actuators:
            metrics.gauge(
                "repro_prof_sample_setting",
                help="Current sampling-rate knob (larger = cheaper).",
                actuator=a.name,
            ).set(round(a.get(), 6))

    def record(self) -> Dict[str, Any]:
        """JSON-ready summary (embedded in the ``profile`` record)."""
        decisions = list(self.decisions)
        return {
            "target": self.budget,
            "overhead_ratio": round(self.overhead_ratio, 6),
            "overhead_cumulative": round(self.overhead_cumulative, 6),
            "evals": self.n_evals,
            "backoffs": self.n_backoffs,
            "recovers": self.n_recovers,
            "settings": {
                a.name: round(a.get(), 6) for a in self.actuators
            },
            "decisions": decisions[-RECORD_DECISIONS:],
        }

    def __repr__(self) -> str:
        return (
            f"<OverheadBudgeter budget={self.budget} "
            f"overhead={self.overhead_cumulative:.4f} "
            f"evals={self.n_evals}>"
        )
