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
* network retry / duplicate / loss rates from ``NetworkStats``,
* reputation trust and quarantines, when an RM runs the defense.

Two drivers share the same sampler:

* **simulator** — :meth:`HealthSampler.attach_sim` runs a sampler
  Process inside the :class:`~repro.sim.core.Environment`.  This adds
  kernel events, so it is strictly **opt-in** (``repro-run --sample``);
  the default path never schedules it and the trajectory goldens hold.
* **live runtime** — :meth:`HealthSampler.start_wall` runs a daemon
  thread, so the asyncio loop and socket path are untouched.

What a sample is made of lives in one place: :func:`health_reading`
turns peers, RMs and net counters into plain data that sums across
populations (:func:`merge_readings`), and :func:`health_probe` folds a
reading into the families above.  The simulator, the live sampler
thread, the shard heartbeat and the supervisor's cluster rollup all
take the same reading and run the same fold.  Everything is duck-typed
on the overlay / live-cluster surfaces, so this module imports nothing
from the simulator (same rule as :mod:`repro.telemetry.clock`).
"""

from __future__ import annotations

import math
import threading
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Default sampling period, seconds (sim or wall, per driver).
DEFAULT_PERIOD = 1.0
#: Default ring capacity: 12 minutes of 1 Hz samples.
DEFAULT_CAPACITY = 720

_SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


class SeriesRing:
    """One bounded time series: (t, value) points under a hard ceiling.

    At most ``capacity`` points are held.  When full, the *oldest half*
    is downsampled pairwise: adjacent points merge into one carrying the
    count-weighted mean time/value plus the running min/max/count.  Long
    soaks keep their full history at progressively coarser resolution
    (recent samples stay raw) instead of forgetting it.
    ``compactions`` counts those merges: a reader that keeps positions
    into the ring knows from it when they went stale.
    """

    __slots__ = (
        "name", "labels", "capacity", "compactions",
        "_t", "_v", "_mn", "_mx", "_n",
    )

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
        self.compactions = 0
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
        self.compactions += 1

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

    def points_from(
        self, start: int
    ) -> Iterable[Tuple[float, float, float, float, int]]:
        """Points from index *start* on, oldest first, as
        ``(t, value, min, max, count)``."""
        return zip(
            self._t[start:], self._v[start:],
            self._mn[start:], self._mx[start:], self._n[start:],
        )

    def points_since(
        self, t_min: float
    ) -> List[Tuple[float, float, float, float, int]]:
        """Points with ``t >= t_min`` (newest window), oldest first.

        Scans from the newest point and stops at the first point older
        than *t_min*, so it holds the trailing window even if a caller's
        times went backwards.
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
        #: sampler's self-cost, summed in the ``profile`` record.
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

    def observe(self, name: str, value: float, **labels: Any) -> SeriesRing:
        """Record one point on the named series at the sample time, and
        return its ring (a caller may append to it directly after)."""
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        ring = self._series.get(key)
        if ring is None:
            ring = self._series[key] = SeriesRing(
                name, dict(key[1]), capacity=self.capacity,
            )
        ring.append(self._now, value)
        return ring

    def sample(self, now: Optional[float] = None) -> None:
        """Take one snapshot: run every probe at *now* (default: the
        current clock time)."""
        t0 = perf_counter()
        self._now = self.tel.clock.now() if now is None else float(now)
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
        opt in explicitly (``repro-run --sample``, ``repro-live --sample``).
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

    def stop_wall(self) -> None:
        """Stop the daemon thread (and take one last snapshot)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None
        self.sample()


# -- the health reading and its fold -----------------------------------------

#: The cumulative counters a reading carries, each -> its rate family.
_RM_RATES = {
    "admitted": "repro_rm_admission_rate",
    "rejected": "repro_rm_reject_rate",
    "redirected_out": "repro_rm_redirect_rate",
}
_NET_RATES = {
    "sent": "repro_net_send_rate",
    "dropped": "repro_net_drop_rate",
    "partition_drops": "repro_net_partition_drop_rate",
    "retransmits": "repro_net_retry_rate",
    "duplicates": "repro_net_dup_rate",
}


def health_reading(
    peers: Iterable[Tuple[str, Any]],
    rms: Iterable[Any],
    net: Dict[str, Any],
    domain_of: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """What one health sample is made of, as plain data.

    *peers* yields ``(peer_id, node)`` pairs (``.alive``,
    ``.profiler.load``, ``.processor``), *rms* the resource managers
    (``.stats``, ``.info``, ``.env``, ``.reputation``), *net* is a
    ``NetworkStats.summary()``-shaped mapping and *domain_of* maps a
    peer to its domain (None: no per-domain loads).  Every field is a
    number, a list or a mapping of them, so the readings of disjoint
    populations sum (:func:`merge_readings`) and pickle up a pipe.
    """
    loads: Dict[str, float] = {}
    domain_loads: Dict[str, List[float]] = {}
    finished: Dict[str, int] = {}
    missed: Dict[str, int] = {}
    for pid, node in peers:
        if node.alive:
            load = loads[pid] = node.profiler.load
            did = domain_of.get(pid) if domain_of is not None else None
            if did is not None:
                domain_loads.setdefault(did, []).append(load)
        proc = getattr(node, "processor", None)
        if proc is not None:
            for total, tally in ((finished, proc.completed_by_class),
                                 (missed, proc.missed_by_class)):
                for cls, n in tally.items():
                    total[cls] = total.get(cls, 0) + n
    rm_totals = dict.fromkeys(_RM_RATES, 0.0)
    staleness: List[float] = []
    trust: Dict[str, Any] = {}
    for rm in rms:
        now = rm.env.now
        for key in rm_totals:
            rm_totals[key] += rm.stats.get(key, 0)
        info = rm.info
        for rm_id in info.summary_received_at:
            staleness.append(info.summary_age(rm_id, now))
        # Only RMs running the reputation defense (RMConfig.
        # enable_defense) add trust, so undefended runs keep their
        # exact series set.
        engine = getattr(rm, "reputation", None)
        if engine is not None:
            snap = engine.snapshot(now)
            trust = _merged(trust, {
                "scores": [p["score"] for p in snap["peers"].values()],
                "quarantined": len(snap["quarantined"]),
                "quarantines_total": snap["quarantines_total"],
            })
    return {
        "loads": loads,
        "domain_loads": domain_loads,
        "finished": finished,
        "missed": missed,
        "rm": rm_totals,
        "staleness": staleness,
        "trust": trust,
        "net": {key: net.get(key, 0) for key in _NET_RATES},
    }


def merge_readings(readings: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """The reading of the union of disjoint populations: numbers and
    lists add, mappings merge key by key."""
    out = health_reading((), (), {})
    for reading in readings:
        out = _merged(out, reading)
    return out


def _merged(a: Any, b: Any) -> Any:
    if not isinstance(a, dict):
        return a + b
    out = dict(a)
    for key, value in b.items():
        out[key] = _merged(out[key], value) if key in out else value
    return out


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


def load_stats(loads: List[float]) -> Tuple[float, float, float]:
    """(mean, max/mean imbalance, stdev) of a load vector."""
    if not loads:
        return 0.0, 1.0, 0.0
    mean = sum(loads) / len(loads)
    peak = max(loads)
    imbalance = peak / mean if mean > 0 else 1.0
    var = sum((v - mean) ** 2 for v in loads) / len(loads)
    return mean, imbalance, math.sqrt(var)


def health_probe(
    read: Callable[[], Dict[str, Any]],
    per_peer: bool = True,
    **labels: str,
) -> Callable[[HealthSampler], None]:
    """The one probe: folds the reading ``read()`` returns into the
    health families.  *labels* tag every series (the supervisor's
    rollup uses ``scope="cluster"``); ``per_peer=False`` skips the
    per-peer ``l_i`` series (bench reports stay small).  Like its
    rate trackers, a probe serves one sampler: it holds each ring it
    fills, keyed by family and label values."""
    rm_rates = _RateTracker()
    net_rates = _RateTracker()
    rings: Dict[Tuple[str, ...], SeriesRing] = {}

    def probe(s: HealthSampler) -> None:
        r = read()
        now = s.now

        def put(name: str, value: float, **extra: str) -> None:
            key = (name, *extra.values())
            ring = rings.get(key)
            if ring is None:
                rings[key] = s.observe(name, value, **labels, **extra)
            else:
                ring.append(now, value)

        loads = r["loads"]
        if per_peer:
            for pid, load in loads.items():
                put("repro_peer_load", load, peer=pid)
        mean, imbalance, stdev = load_stats(list(loads.values()))
        put("repro_load_mean", mean)
        put("repro_load_imbalance", imbalance)
        put("repro_load_stdev", stdev)
        for did, dloads in sorted(r["domain_loads"].items()):
            _, d_imb, d_std = load_stats(dloads)
            put("repro_domain_load_imbalance", d_imb, domain=did)
            put("repro_domain_load_stdev", d_std, domain=did)
        finished, missed = r["finished"], r["missed"]
        for cls in sorted(finished) or ["normal"]:
            done = finished.get(cls, 0)
            ratio = missed.get(cls, 0) / done if done else 0.0
            put("repro_sched_miss_ratio", ratio, qos=cls)
        for key, rate in rm_rates.rates(s.now, r["rm"]).items():
            put(_RM_RATES[key], rate)
        ages = r["staleness"]
        put("repro_gossip_staleness_max", max(ages) if ages else 0.0)
        put(
            "repro_gossip_staleness_mean",
            sum(ages) / len(ages) if ages else 0.0,
        )
        for key, rate in net_rates.rates(s.now, r["net"]).items():
            put(_NET_RATES[key], rate)
        trust = r["trust"]
        if trust:
            scores = trust["scores"]
            put("repro_reputation_quarantined", trust["quarantined"])
            put(
                "repro_reputation_quarantines_total",
                trust["quarantines_total"],
            )
            put("repro_reputation_min_trust", min(scores) if scores else 1.0)
            put(
                "repro_reputation_mean_trust",
                sum(scores) / len(scores) if scores else 1.0,
            )

    return probe


def overlay_probes(
    overlay, network, per_peer: bool = True
) -> List[Callable[[HealthSampler], None]]:
    """The probe over a simulated :class:`OverlayNetwork` + fabric."""
    return [health_probe(
        lambda: health_reading(
            overlay.peers.items(), overlay.rms(),
            network.stats.summary(), overlay.domain_of,
        ),
        per_peer=per_peer,
    )]


def live_reading(cluster) -> Dict[str, Any]:
    """The reading of a :class:`~repro.runtime.cluster.LiveCluster`.

    The sampler's daemon thread takes it while the asyncio loop mutates
    the cluster, so it only reads plain attributes (the sampler
    swallows the occasional mid-mutation race).
    """
    live = [n for n in list(cluster.nodes.values()) if n.node is not None]
    return health_reading(
        [(n.node_id, n.node) for n in live],
        [n.node for n in live if n.role == "rm"],
        cluster.aggregate_summary(),
    )


def live_cluster_probes(cluster) -> List[Callable[[HealthSampler], None]]:
    """The probe over a live cluster's nodes."""
    return [health_probe(lambda: live_reading(cluster))]
