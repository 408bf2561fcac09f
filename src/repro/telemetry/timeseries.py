"""Continuous health sampling: bounded ring-buffered time series.

The paper's evaluation (§5) is about *trajectories* — deadline-miss
rate vs. load, balancing across peers, adaptation after churn — but
counters only show the end state.  A :class:`HealthSampler` snapshots
the key signals periodically into :class:`SeriesRing` buffers (bounded,
so an always-on sampler has a hard memory ceiling):

* per-peer load ``l_i`` (the Profiler's power × utilization),
* domain load-imbalance (max/mean) and load stdev,
* per-QoS-class deadline-miss ratio from the LLS processors,
* RM admission / redirect / reject rates,
* gossip summary staleness age (max and mean over held summaries),
* network retry / duplicate / loss rates from ``NetworkStats``.

Two drivers share the same sampler:

* **simulator** — :meth:`HealthSampler.attach_sim` runs a sampler
  Process inside the :class:`~repro.sim.core.Environment`.  This adds
  kernel events, so it is strictly **opt-in** (``repro-run --sample``);
  the default path never schedules it and the trajectory goldens hold.
* **live runtime** — :meth:`HealthSampler.start_wall` runs a daemon
  thread, so the asyncio loop and socket path are untouched.

Probes are plain callables ``probe(sampler)`` that call
:meth:`HealthSampler.observe`; the builders below are duck-typed on the
overlay / live-cluster surfaces so this module imports nothing from the
simulator (same rule as :mod:`repro.telemetry.clock`).
"""

from __future__ import annotations

import math
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Default sampling period, seconds (sim or wall, per driver).
DEFAULT_PERIOD = 1.0
#: Default ring capacity: 12 minutes of 1 Hz samples.
DEFAULT_CAPACITY = 720

_SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def qos_class(importance: float) -> str:
    """Bucket a task/job importance into a QoS class label."""
    if importance >= 2.0:
        return "high"
    if importance >= 1.0:
        return "normal"
    return "low"


class SeriesRing:
    """One bounded time series: (t, value) points under a hard ceiling.

    At most ``capacity`` points are held.  When full, the *oldest half*
    is downsampled pairwise: adjacent points merge into one carrying the
    count-weighted mean time/value plus the running min/max/count.  Long
    soaks keep their full history at progressively coarser resolution
    (recent samples stay raw) instead of forgetting it.
    """

    __slots__ = ("name", "labels", "capacity", "_t", "_v", "_mn", "_mx", "_n")

    def __init__(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.name = name
        self.labels: Dict[str, str] = dict(labels or {})
        self.capacity = int(capacity)
        self._t: List[float] = []
        self._v: List[float] = []
        self._mn: List[float] = []
        self._mx: List[float] = []
        self._n: List[int] = []

    def append(self, t: float, v: float) -> None:
        t = float(t)
        v = float(v)
        if len(self._v) >= self.capacity:
            self._compact()
        self._t.append(t)
        self._v.append(v)
        self._mn.append(v)
        self._mx.append(v)
        self._n.append(1)

    def _compact(self) -> None:
        """Pairwise-merge the oldest half of the ring."""
        ts, vs = self._t, self._v
        mns, mxs, ns = self._mn, self._mx, self._n
        # At least one pair merges, so tiny rings shrink too.
        half = max(2, len(ts) // 2)
        m_t: List[float] = []
        m_v: List[float] = []
        m_mn: List[float] = []
        m_mx: List[float] = []
        m_n: List[int] = []
        i = 0
        while i + 1 < half:
            n = ns[i] + ns[i + 1]
            m_t.append((ts[i] * ns[i] + ts[i + 1] * ns[i + 1]) / n)
            m_v.append((vs[i] * ns[i] + vs[i + 1] * ns[i + 1]) / n)
            m_mn.append(min(mns[i], mns[i + 1]))
            m_mx.append(max(mxs[i], mxs[i + 1]))
            m_n.append(n)
            i += 2
        if i < half:
            # Odd-sized old half: the unpaired point carries over as-is.
            m_t.append(ts[i])
            m_v.append(vs[i])
            m_mn.append(mns[i])
            m_mx.append(mxs[i])
            m_n.append(ns[i])
        self._t = m_t + ts[half:]
        self._v = m_v + vs[half:]
        self._mn = m_mn + mns[half:]
        self._mx = m_mx + mxs[half:]
        self._n = m_n + ns[half:]

    def __len__(self) -> int:
        return len(self._v)

    @property
    def last(self) -> Optional[float]:
        return self._v[-1] if self._v else None

    def times(self) -> List[float]:
        return list(self._t)

    def values(self) -> List[float]:
        return list(self._v)

    def counts(self) -> List[int]:
        """Per-point sample counts (all 1 until a rollup has merged)."""
        return list(self._n)

    def points(self) -> List[Tuple[float, float, float, float, int]]:
        """All points as ``(t, mean, min, max, count)`` tuples."""
        return list(zip(self._t, self._v, self._mn, self._mx, self._n))

    def points_since(
        self, t_min: float
    ) -> List[Tuple[float, float, float, float, int]]:
        """Points with ``t >= t_min`` (newest window), oldest first.

        Scans from the newest point and stops at the window edge, so a
        short trailing window over a long ring stays cheap (the SLO
        monitor calls this every evaluation).
        """
        out: List[Tuple[float, float, float, float, int]] = []
        for point in zip(
            reversed(self._t), reversed(self._v),
            reversed(self._mn), reversed(self._mx), reversed(self._n),
        ):
            if point[0] < t_min:
                break
            out.append(point)
        out.reverse()
        return out

    def quantile(self, q: float) -> float:
        """Count-weighted q-quantile of the stored values.

        Rolled-up points weigh in with their merged sample count, so
        quantiles stay comparable before and after downsampling (up to
        within-pair averaging).
        """
        if not self._v:
            return 0.0
        q = min(1.0, max(0.0, q))
        pairs = sorted(zip(self._v, self._n))
        target = q * sum(self._n)
        running = 0
        for v, n in pairs:
            running += n
            if running >= target:
                return v
        return pairs[-1][0]

    def as_record(self) -> Dict[str, Any]:
        """The JSONL ``series`` record (sans the ``type`` tag)."""
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "t": [round(t, 6) for t in self._t],
            "v": [round(v, 6) for v in self._v],
            "n": list(self._n),
        }

    @classmethod
    def from_record(cls, rec: Dict[str, Any]) -> "SeriesRing":
        """Rebuild a ring from its record.

        The ring arrives exactly at capacity and is restored without
        re-compacting; merged points keep their counts (1 each when the
        record has no ``"n"``), min/max degrade to the stored mean.
        """
        values = rec.get("v", [])
        ring = cls(
            rec.get("name", "?"), rec.get("labels"),
            capacity=max(2, len(values)),
        )
        counts = rec.get("n") or [1] * len(values)
        for t, v, n in zip(rec.get("t", []), values, counts):
            ring._t.append(float(t))
            ring._v.append(float(v))
            ring._mn.append(float(v))
            ring._mx.append(float(v))
            ring._n.append(int(n))
        return ring

    def __repr__(self) -> str:
        return (
            f"<SeriesRing {self.name}{self.labels or ''} n={len(self)}>"
        )


class HealthSampler:
    """Periodically snapshots registered probes into bounded series.

    One sampler serves both drivers; construct it against the active
    :class:`~repro.telemetry.Telemetry` handle so samples share the
    run's clock (sim seconds or wall seconds).
    """

    def __init__(
        self,
        tel,
        period: float = DEFAULT_PERIOD,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.tel = tel
        self.period = float(period)
        self.capacity = int(capacity)
        self._series: Dict[_SeriesKey, SeriesRing] = {}
        self._probes: List[Callable[["HealthSampler"], None]] = []
        self.n_samples = 0
        #: Probe exceptions swallowed (live probes race the event loop).
        self.errors = 0
        #: Cumulative wall seconds spent inside :meth:`sample` — the
        #: sampler's self-cost, read by the overhead budgeter.
        self.sample_cost_s = 0.0
        self._now = 0.0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- configuration -----------------------------------------------------
    def add_probe(self, probe: Callable[["HealthSampler"], None]) -> None:
        self._probes.append(probe)

    # -- sampling ----------------------------------------------------------
    @property
    def now(self) -> float:
        """The timestamp of the sample currently being taken."""
        return self._now

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one point on the named series at the sample time."""
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        ring = self._series.get(key)
        if ring is None:
            ring = self._series[key] = SeriesRing(
                name, dict(key[1]), capacity=self.capacity,
            )
        ring.append(self._now, value)

    def ingest(self, t: float, name: str, value: float, **labels: Any) -> None:
        """Record one externally-timed point (supervisor aggregation).

        Unlike :meth:`observe` — which stamps at the time of the probe
        sweep currently running — this sets the sample time explicitly,
        for callers folding in measurements that arrived over a pipe
        with their own timestamps (cluster health rollup).
        """
        self._now = float(t)
        self.observe(name, value, **labels)

    def sample(self) -> None:
        """Take one snapshot: run every probe at the current clock time."""
        t0 = perf_counter()
        self._now = self.tel.clock.now()
        for probe in self._probes:
            try:
                probe(self)
            except Exception:
                # A probe racing a mutating system (live daemon thread)
                # must not kill the sampler; the error count is visible.
                self.errors += 1
        self.n_samples += 1
        self.sample_cost_s += perf_counter() - t0

    # -- access ------------------------------------------------------------
    def series(self, name: str, **labels: Any) -> Optional[SeriesRing]:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self._series.get(key)

    def series_family(self, name: str) -> List[SeriesRing]:
        """All rings of one family (any label set), label-sorted."""
        return [
            self._series[key]
            for key in sorted(self._series)
            if key[0] == name
        ]

    def all_series(self) -> List[SeriesRing]:
        return [self._series[k] for k in sorted(self._series)]

    def records(self) -> List[Dict[str, Any]]:
        """JSONL-ready ``series`` records (sans ``type``), name-sorted."""
        return [ring.as_record() for ring in self.all_series()]

    # -- simulator driver --------------------------------------------------
    def attach_sim(self, env):
        """Start the sampling Process in *env* (opt-in: adds events).

        Never wired on the default path — a sampler Process changes the
        kernel event count and would break trajectory goldens; callers
        opt in explicitly (``repro-run --sample``, bench ``--sample``).
        """
        def _loop():
            while True:
                self.sample()
                yield env.timeout(self.period)

        return env.process(_loop(), name="health-sampler")

    # -- wall-clock driver -------------------------------------------------
    def start_wall(self) -> None:
        """Start the daemon sampling thread (live runtime)."""
        if self._thread is not None:
            return
        self._stop.clear()

        def _run() -> None:
            while not self._stop.wait(self.period):
                self.sample()

        self._thread = threading.Thread(
            target=_run, name="health-sampler", daemon=True
        )
        self._thread.start()

    def stop_wall(self, final_sample: bool = True) -> None:
        """Stop the daemon thread (and take one last snapshot)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None
        if final_sample:
            self.sample()


# -- delta-rate helper -------------------------------------------------------

class _RateTracker:
    """Turns monotone counters into per-second rates between samples."""

    def __init__(self) -> None:
        self._last_t: Optional[float] = None
        self._last: Dict[str, float] = {}

    def rates(
        self, now: float, totals: Dict[str, float]
    ) -> Dict[str, float]:
        if self._last_t is None or now <= self._last_t:
            self._last_t = now
            self._last = dict(totals)
            return {k: 0.0 for k in totals}
        dt = now - self._last_t
        out = {
            k: max(0.0, (v - self._last.get(k, 0.0)) / dt)
            for k, v in totals.items()
        }
        self._last_t = now
        self._last = dict(totals)
        return out


def _load_stats(loads: List[float]) -> Tuple[float, float, float]:
    """(mean, max/mean imbalance, stdev) of a load vector."""
    if not loads:
        return 0.0, 1.0, 0.0
    mean = sum(loads) / len(loads)
    peak = max(loads)
    imbalance = peak / mean if mean > 0 else 1.0
    var = sum((v - mean) ** 2 for v in loads) / len(loads)
    return mean, imbalance, math.sqrt(var)


# -- probe builders: simulator ----------------------------------------------

def overlay_probes(
    overlay, network, per_peer: bool = True
) -> List[Callable[[HealthSampler], None]]:
    """Probes over a simulated :class:`OverlayNetwork` + fabric.

    Duck-typed: needs ``overlay.peers`` (id -> node with ``.alive``,
    ``.profiler.load``, ``.processor``), ``overlay.domains`` /
    ``overlay.rms()`` and ``network.stats``.  With ``per_peer=False``
    the per-peer ``l_i`` series are skipped (bench reports stay small).
    """
    net_rates = _RateTracker()
    rm_rates = _RateTracker()

    def load_probe(s: HealthSampler) -> None:
        loads: List[float] = []
        by_domain: Dict[str, List[float]] = {}
        domain_of = overlay.domain_of
        for pid, node in overlay.peers.items():
            if not node.alive:
                continue
            load = node.profiler.load
            loads.append(load)
            did = domain_of.get(pid)
            if did is not None:
                by_domain.setdefault(did, []).append(load)
            if per_peer:
                s.observe("repro_peer_load", load, peer=pid)
        mean, imbalance, stdev = _load_stats(loads)
        s.observe("repro_load_mean", mean)
        s.observe("repro_load_imbalance", imbalance)
        s.observe("repro_load_stdev", stdev)
        for did, dloads in sorted(by_domain.items()):
            _, d_imb, d_std = _load_stats(dloads)
            s.observe("repro_domain_load_imbalance", d_imb, domain=did)
            s.observe("repro_domain_load_stdev", d_std, domain=did)

    def miss_probe(s: HealthSampler) -> None:
        finished: Dict[str, int] = {}
        missed: Dict[str, int] = {}
        for node in overlay.peers.values():
            proc = getattr(node, "processor", None)
            if proc is None:
                continue
            for cls, n in proc.completed_by_class.items():
                finished[cls] = finished.get(cls, 0) + n
            for cls, n in proc.missed_by_class.items():
                missed[cls] = missed.get(cls, 0) + n
        for cls in sorted(finished) or ["normal"]:
            done = finished.get(cls, 0)
            ratio = missed.get(cls, 0) / done if done else 0.0
            s.observe("repro_sched_miss_ratio", ratio, qos=cls)

    def rm_probe(s: HealthSampler) -> None:
        totals = {"admitted": 0.0, "rejected": 0.0, "redirected_out": 0.0}
        staleness: List[float] = []
        now = s.now
        for rm in overlay.rms():
            for key in totals:
                totals[key] += rm.stats.get(key, 0)
            info = rm.info
            for rm_id in info.summary_received_at:
                staleness.append(info.summary_age(rm_id, now))
        rates = rm_rates.rates(now, totals)
        s.observe("repro_rm_admission_rate", rates["admitted"])
        s.observe("repro_rm_reject_rate", rates["rejected"])
        s.observe("repro_rm_redirect_rate", rates["redirected_out"])
        s.observe(
            "repro_gossip_staleness_max",
            max(staleness) if staleness else 0.0,
        )
        s.observe(
            "repro_gossip_staleness_mean",
            sum(staleness) / len(staleness) if staleness else 0.0,
        )

    def net_probe(s: HealthSampler) -> None:
        stats = network.stats
        rates = net_rates.rates(s.now, {
            "sent": stats.sent,
            "dropped": stats.dropped,
            "partition_drops": getattr(stats, "partition_drops", 0),
            "retransmits": stats.retransmits,
            "duplicates": stats.duplicates,
        })
        s.observe("repro_net_send_rate", rates["sent"])
        s.observe("repro_net_drop_rate", rates["dropped"])
        s.observe(
            "repro_net_partition_drop_rate", rates["partition_drops"]
        )
        s.observe("repro_net_retry_rate", rates["retransmits"])
        s.observe("repro_net_dup_rate", rates["duplicates"])

    def reputation_probe(s: HealthSampler) -> None:
        # Only emits when some RM runs with the reputation defense
        # (RMConfig.enable_defense) — undefended runs keep their exact
        # series set, so existing golden metrics documents hold.
        scores: List[float] = []
        quarantined = 0
        total = 0
        engines = 0
        for rm in overlay.rms():
            engine = getattr(rm, "reputation", None)
            if engine is None:
                continue
            engines += 1
            snap = engine.snapshot(rm.env.now)
            scores.extend(p["score"] for p in snap["peers"].values())
            quarantined += len(snap["quarantined"])
            total += snap["quarantines_total"]
        if not engines:
            return
        s.observe("repro_reputation_quarantined", quarantined)
        s.observe("repro_reputation_quarantines_total", total)
        s.observe(
            "repro_reputation_min_trust", min(scores) if scores else 1.0
        )
        s.observe(
            "repro_reputation_mean_trust",
            sum(scores) / len(scores) if scores else 1.0,
        )

    return [load_probe, miss_probe, rm_probe, net_probe, reputation_probe]


# -- probe builders: live runtime --------------------------------------------

def live_cluster_probes(cluster) -> List[Callable[[HealthSampler], None]]:
    """Probes over a :class:`~repro.runtime.cluster.LiveCluster`.

    Runs on the sampler's daemon thread while the asyncio loop mutates
    the cluster, so everything here is read-only over plain attributes
    (the sampler swallows the occasional mid-mutation race).
    """
    net_rates = _RateTracker()
    rm_rates = _RateTracker()

    def node_probe(s: HealthSampler) -> None:
        loads: List[float] = []
        finished: Dict[str, int] = {}
        missed: Dict[str, int] = {}
        for live in list(cluster.nodes.values()):
            signal = live.health_signal()
            if signal.get("load") is not None:
                loads.append(signal["load"])
                s.observe(
                    "repro_peer_load", signal["load"], peer=live.node_id
                )
            for cls, n in signal.get("finished_by_class", {}).items():
                finished[cls] = finished.get(cls, 0) + n
            for cls, n in signal.get("missed_by_class", {}).items():
                missed[cls] = missed.get(cls, 0) + n
        mean, imbalance, stdev = _load_stats(loads)
        s.observe("repro_load_mean", mean)
        s.observe("repro_load_imbalance", imbalance)
        s.observe("repro_load_stdev", stdev)
        for cls in sorted(finished) or ["normal"]:
            done = finished.get(cls, 0)
            ratio = missed.get(cls, 0) / done if done else 0.0
            s.observe("repro_sched_miss_ratio", ratio, qos=cls)

    def rm_probe(s: HealthSampler) -> None:
        totals = {"admitted": 0.0, "rejected": 0.0, "redirected_out": 0.0}
        staleness: List[float] = []
        now = s.now
        for live in list(cluster.nodes.values()):
            node = live.node
            stats = getattr(node, "stats", None)
            if stats is None:
                continue
            for key in totals:
                totals[key] += stats.get(key, 0)
            info = getattr(node, "info", None)
            if info is not None:
                sim_now = live.env.now
                for rm_id in info.summary_received_at:
                    staleness.append(info.summary_age(rm_id, sim_now))
        rates = rm_rates.rates(now, totals)
        s.observe("repro_rm_admission_rate", rates["admitted"])
        s.observe("repro_rm_reject_rate", rates["rejected"])
        s.observe("repro_rm_redirect_rate", rates["redirected_out"])
        s.observe(
            "repro_gossip_staleness_max",
            max(staleness) if staleness else 0.0,
        )
        s.observe(
            "repro_gossip_staleness_mean",
            sum(staleness) / len(staleness) if staleness else 0.0,
        )

    def net_probe(s: HealthSampler) -> None:
        agg = cluster.aggregate_summary()
        rates = net_rates.rates(s.now, {
            "sent": agg["sent"],
            "dropped": agg["dropped"],
            "partition_drops": agg.get("partition_drops", 0),
            "retransmits": agg["retransmits"],
            "duplicates": agg["duplicates"],
        })
        s.observe("repro_net_send_rate", rates["sent"])
        s.observe("repro_net_drop_rate", rates["dropped"])
        s.observe(
            "repro_net_partition_drop_rate", rates["partition_drops"]
        )
        s.observe("repro_net_retry_rate", rates["retransmits"])
        s.observe("repro_net_dup_rate", rates["duplicates"])

    return [node_probe, rm_probe, net_probe]
