"""Reputation-gated load reports: trust scoring for peer self-reports.

The paper's control loop (§3.1, §4.1) trusts peers twice — claimed
power at join time and Profiler LoadReports continuously — and the
adversarial suite quantified the damage: 25% always-idle liars drive
the deadline-miss rate from 0.034 to 0.239 (liar_peers vs
liar_control).  This module is the defense: a per-peer trust score
maintained from evidence the RM *already has*, with no new protocol
traffic.

Three consistency signals, cheapest first:

* **power mismatch** — the power a peer's reports carry vs the power it
  claimed at join time.  A peer whose paperwork disagrees with itself
  is lying about one of the two (the shipped ``constant`` liars inflate
  the join claim 3x but their Profiler reports true capacity).
* **under-reporting** — reported load vs the RM's own live allocation
  projections.  The RM knows what it assigned; a peer that carries a
  domain-significant share of projected work while reporting itself
  (nearly) idle is hiding load.
* **slow completions** — the work/elapsed rate of STEP_DONE reports vs
  the free capacity the peer's reports imply.  A peer that claims to be
  idle but finishes assigned steps far slower than its claimed free
  power can deliver is overloaded regardless of what it reports.

Scoring is an asymmetric EWMA (penalties bite harder than recoveries),
so duty-cycled ``intermittent`` liars sink even though they tell the
truth half the time.  Timing-sensitive signals (under-reporting, slow
completions) only penalize after ``timing_streak`` *consecutive*
divergences, so a few stale reports during an admission burst cannot
tank an honest peer.

Enforcement is a single hook: :meth:`ReputationEngine.load_penalty` is
added to :meth:`~repro.core.info_base.DomainInfoBase.effective_load`
when the engine is attached.  Distrusted peers simply *appear busier*,
so the completion-time estimator, the capacity prune, fairness ranking,
admission source selection and reassignment all steer around them with
no allocator changes.  Quarantined peers appear loaded beyond any
capacity cap (guaranteed infeasible); quarantine is always timed and
expires into a reduced-capacity probation, so an honest peer caught by
a transient is never permanently exiled.

Everything is gated behind ``RMConfig.enable_defense`` (off by
default): with the engine unattached the hot path costs one attribute
read and the event trajectory is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

from repro import telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.info_base import PeerRecord
    from repro.monitoring.profiler import LoadReport

#: Trust states, in descending order of standing.
TRUSTED = "trusted"
SUSPECT = "suspect"
PROBATION = "probation"
QUARANTINED = "quarantined"


#: EWMA weight of a divergent observation (pull toward 0).
ALPHA_PENALTY = 0.35
#: EWMA weight of a consistent report (pull toward 1).  Asymmetric
#: on purpose: lying half the time must not average out.
ALPHA_RECOVER = 0.10
#: Under-reporting: flagged when reported load is below this
#: fraction of the expected-busy level implied by projections.
#: Deliberately low — the shipped liars report *zero* load, while an
#: honest report legitimately lags the RM's projections.
UNDER_REPORT_FRAC = 0.2
#: ...but under-reporting is only judged when live projections exceed
#: this fraction of the claimed power (tiny assignments prove nothing).
MIN_PROJECTION_FRAC = 0.25
#: Slow completion: flagged when observed work/elapsed rate is
#: below this fraction of the report-implied free power.
SLOW_RATE_FACTOR = 0.3
#: Steps shorter than this are timing noise; skip them.
MIN_STEP_TIME = 0.05
#: Score below which the peer is a suspect (load discounted).
SUSPECT_THRESHOLD = 0.7
#: Score below which the peer is quarantined out of placement.
QUARANTINE_THRESHOLD = 0.4
#: Score a probationer must regain to be trusted again.
RECOVER_THRESHOLD = 0.85
#: Fraction of claimed power a probationer may be offered.
PROBATION_CAPACITY = 0.35
#: Quarantine penalty as a multiple of claimed power — must exceed
#: any utilization cap so every placement on the peer is infeasible.
QUARANTINE_PENALTY = 2.0


@dataclass
class ReputationConfig:
    """Tunables for the report-consistency defense."""

    #: Reports ignored per peer before scoring starts (join transient).
    warmup_reports: int = 2
    #: Reported power may drift from the join claim by this factor
    #: before the mismatch counts as a lie.
    power_tolerance: float = 1.3
    #: Consecutive divergences a timing-sensitive signal needs before it
    #: penalizes (under-reporting, slow completions) — a report caught
    #: stale mid-admission-burst must not tank an honest peer.
    timing_streak: int = 3
    #: Timing signals only apply when the report claims utilization
    #: below this (a peer that admits being busy isn't hiding load).
    idle_claim_util: float = 0.5
    #: First quarantine length (seconds); relapses escalate.
    quarantine_period: float = 30.0
    quarantine_escalation: float = 2.0
    max_quarantine_period: float = 240.0


@dataclass
class TrustState:
    """Per-peer trust bookkeeping."""

    peer_id: str
    #: Power the peer claimed when it joined (the yardstick reports are
    #: checked against).
    claimed_power: float
    score: float = 1.0
    state: str = TRUSTED
    reports_seen: int = 0
    steps_seen: int = 0
    #: Consecutive divergent reports / steps (timing signals need 2).
    report_streak: int = 0
    step_streak: int = 0
    quarantines: int = 0
    quarantined_until: float = 0.0
    #: Divergence counts by signal name.
    signals: Dict[str, int] = field(default_factory=dict)


class ReputationEngine:
    """Trust scores + quarantine state machine for one RM's domain.

    Standalone on purpose: observations carry everything they need
    (the peer's roster record, the RM's projected load), so the engine
    never reaches back into the info base and the
    ``effective_load -> load_penalty`` hook cannot recurse.
    """

    def __init__(self, config: Optional[ReputationConfig] = None) -> None:
        self.config = config or ReputationConfig()
        self._states: Dict[str, TrustState] = {}
        self.quarantines_total = 0

    # -- roster ------------------------------------------------------------
    def note_join(self, record: "PeerRecord") -> None:
        """Snapshot the join claim as the consistency yardstick."""
        self._states[record.peer_id] = TrustState(
            peer_id=record.peer_id, claimed_power=float(record.power),
        )

    def forget(self, peer_id: str) -> None:
        """Drop a departed peer's trust state."""
        self._states.pop(peer_id, None)

    # -- observations ------------------------------------------------------
    def observe_report(
        self,
        report: "LoadReport",
        rec: "PeerRecord",
        projected: float,
        now: float,
    ) -> None:
        """Score one LOAD_UPDATE against the join claim + projections.

        ``projected`` is the RM's own live allocation projection for
        the peer (:meth:`DomainInfoBase.projected_load`) — evidence of
        assigned work that the report cannot argue away.
        """
        cfg = self.config
        st = self._states.get(report.peer_id)
        if st is None:
            st = self._states[report.peer_id] = TrustState(
                peer_id=report.peer_id, claimed_power=float(rec.power),
            )
        st.reports_seen += 1
        self._expire_quarantine(st, now)
        if st.reports_seen <= cfg.warmup_reports:
            return

        claimed = st.claimed_power
        reported_power = float(report.power)
        divergent: Optional[str] = None
        if claimed > 0 and reported_power > 0 and (
            reported_power > claimed * cfg.power_tolerance
            or reported_power * cfg.power_tolerance < claimed
        ):
            divergent = "power_mismatch"
        elif projected > MIN_PROJECTION_FRAC * max(claimed, 1e-9):
            # The RM assigned this peer real work; idle claims are lies.
            expected_busy = min(projected, claimed)
            if report.load < UNDER_REPORT_FRAC * expected_busy:
                divergent = "under_report"

        if divergent is None:
            st.report_streak = 0
            self._apply(st, consistent=True, now=now)
        elif divergent == "power_mismatch":
            # Paperwork self-contradiction: unambiguous, no streak gate.
            st.report_streak += 1
            self._penalize(st, divergent, now)
        else:
            st.report_streak += 1
            if st.report_streak >= cfg.timing_streak:
                # Half weight: timing evidence is circumstantial, and an
                # isolated ding must leave a trusted peer trusted.
                self._penalize(st, divergent, now, weight=0.5)

    def observe_step(
        self,
        peer_id: str,
        rec: "PeerRecord",
        work: float,
        elapsed: float,
        now: float,
    ) -> None:
        """Score a STEP_DONE completion against the claimed free power."""
        cfg = self.config
        st = self._states.get(peer_id)
        if st is None or st.reports_seen <= cfg.warmup_reports:
            return
        if work <= 0.0 or elapsed < MIN_STEP_TIME:
            return
        report = rec.last_report
        if report is None or report.utilization >= cfg.idle_claim_util:
            return  # the peer admits being busy; nothing to catch
        st.steps_seen += 1
        free = max(rec.power - report.load, rec.power * 0.05)
        observed = work / elapsed
        if observed < SLOW_RATE_FACTOR * free:
            st.step_streak += 1
            if st.step_streak >= cfg.timing_streak:
                self._penalize(st, "slow_completion", now, weight=0.5)
        else:
            st.step_streak = 0

    # -- scoring -----------------------------------------------------------
    def _apply(
        self,
        st: TrustState,
        consistent: bool,
        now: float,
        weight: float = 1.0,
    ) -> None:
        if consistent:
            st.score += ALPHA_RECOVER * (1.0 - st.score)
        else:
            st.score -= weight * ALPHA_PENALTY * st.score
        self._transition(st, now)

    def _penalize(
        self, st: TrustState, signal: str, now: float, weight: float = 1.0
    ) -> None:
        st.signals[signal] = st.signals.get(signal, 0) + 1
        tel = telemetry.current()
        if tel.enabled:
            tel.metrics.counter(
                "repro_reputation_divergences_total", signal=signal
            ).inc()
            tel.metrics.gauge(
                "repro_reputation_trust", peer=st.peer_id
            ).set(st.score)
        self._apply(st, consistent=False, now=now, weight=weight)

    def _transition(self, st: TrustState, now: float) -> None:
        if st.state == QUARANTINED:
            self._expire_quarantine(st, now)
            return
        if st.score < QUARANTINE_THRESHOLD:
            self._quarantine(st, now)
        elif st.state == PROBATION:
            if st.score >= RECOVER_THRESHOLD:
                st.state = TRUSTED
        elif st.score < SUSPECT_THRESHOLD:
            st.state = SUSPECT
        elif st.state == SUSPECT and st.score >= RECOVER_THRESHOLD:
            st.state = TRUSTED

    def _quarantine(self, st: TrustState, now: float) -> None:
        cfg = self.config
        period = min(
            cfg.quarantine_period * (
                cfg.quarantine_escalation ** st.quarantines
            ),
            cfg.max_quarantine_period,
        )
        st.state = QUARANTINED
        st.quarantines += 1
        st.quarantined_until = now + period
        self.quarantines_total += 1
        tel = telemetry.current()
        if tel.enabled:
            tel.metrics.counter(
                "repro_reputation_quarantines_total", peer=st.peer_id
            ).inc()
            tel.tracer.event(
                "reputation.quarantine", peer=st.peer_id,
                until=st.quarantined_until, n=st.quarantines,
            )

    def _expire_quarantine(self, st: TrustState, now: float) -> None:
        if st.state == QUARANTINED and now >= st.quarantined_until:
            # Re-entry: reduced capacity, score floored at the threshold
            # so consistent behavior can climb back to trusted.
            st.state = PROBATION
            st.score = max(st.score, QUARANTINE_THRESHOLD)

    # -- enforcement -------------------------------------------------------
    def load_penalty(
        self, peer_id: str, rec: "PeerRecord", now: float
    ) -> float:
        """Phantom load added to the peer's effective load.

        The single enforcement point: called from
        :meth:`DomainInfoBase.effective_load`, so the estimator, the
        capacity prune, fairness ranking and source selection all see
        distrusted peers as busier than they claim.
        """
        st = self._states.get(peer_id)
        if st is None:
            return 0.0
        if st.state == QUARANTINED:
            if now < st.quarantined_until:
                return rec.power * QUARANTINE_PENALTY
            self._expire_quarantine(st, now)
        if st.state == PROBATION:
            return rec.power * (1.0 - PROBATION_CAPACITY)
        if st.state == TRUSTED:
            # No discount while trusted: an honest peer that ate an
            # isolated ding must not perturb placement at all.
            return 0.0
        return rec.power * (1.0 - st.score)

    def is_quarantined(self, peer_id: str, now: float) -> bool:
        st = self._states.get(peer_id)
        if st is None or st.state != QUARANTINED:
            return False
        self._expire_quarantine(st, now)
        return st.state == QUARANTINED

    # -- reporting ---------------------------------------------------------
    def snapshot(self, now: float) -> Dict[str, object]:
        """Point-in-time view for metrics documents and probes."""
        peers = {}
        signals: Dict[str, int] = {}
        for pid, st in sorted(self._states.items()):
            self._expire_quarantine(st, now)
            peers[pid] = {
                "score": round(st.score, 6),
                "state": st.state,
                "quarantines": st.quarantines,
            }
            for sig, n in st.signals.items():
                signals[sig] = signals.get(sig, 0) + n
        return {
            "peers": peers,
            "quarantined": [
                pid for pid, p in peers.items()
                if p["state"] == QUARANTINED
            ],
            "ever_quarantined": [
                pid for pid, p in peers.items() if p["quarantines"] > 0
            ],
            "quarantines_total": self.quarantines_total,
            "signals": signals,
        }

    def __repr__(self) -> str:
        return (
            f"<ReputationEngine peers={len(self._states)} "
            f"quarantines={self.quarantines_total}>"
        )
