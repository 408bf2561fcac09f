"""Supervisor-side observability: cluster health rollup + correlated
flight bundles.

The per-shard observability stack (tracer, HealthSampler, SLO burn
monitor, flight recorder) judges everything on one process's partial
view.  This module is the parent-process half of the cluster
observability plane:

* :class:`ClusterHealth` — folds the union of the shards' health
  readings riding the heartbeat pipe into *cluster-wide* series on a
  supervisor-owned :class:`~repro.telemetry.timeseries.HealthSampler`,
  with the same fold every sampler runs (same family names the stock
  SLOs watch, labelled ``scope=cluster``), and runs a
  :class:`~repro.profiling.slo.BurnRateMonitor` over them — so miss
  rate, redirect rate and load imbalance are judged on the merged
  population, not each shard's slice.
* :class:`BundleCoordinator` — turns any one shard's flight-recorder
  dump (or a cluster-level SLO burn) into a *correlated* bundle: it
  fans a snapshot request out to every shard and collects the per-shard
  dumps into one reason-keyed directory with a manifest.  It is
  duck-typed on the recorder's ``trigger(reason, now=None, key=None)``
  surface so the cluster burn monitor can use it as its dump sink.

Both live in the supervisor process and touch shards only through the
control pipe, so shard-side behaviour without ``observe`` enabled is
byte-identical to before.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.profiling.slo import DEFAULT_SLOS, SLO, BurnRateMonitor
from repro.telemetry.logs import get_logger
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.timeseries import (
    HealthSampler,
    health_probe,
    load_stats,
    merge_readings,
)

#: Minimum seconds between cluster-series ticks (heartbeats from N
#: shards would otherwise tick N times per period).
DEFAULT_TICK_INTERVAL = 0.5


class ClusterHealth:
    """Cluster-wide health series + SLO burn over shard heartbeats.

    Each shard's heartbeat carries its
    :func:`~repro.telemetry.timeseries.health_reading` (the same one
    its own sampler folds).  :meth:`ingest` keeps the latest reading
    per shard; :meth:`maybe_tick` (rate-limited) samples the
    supervisor's sampler, whose probes fold the union of those readings
    with the one health fold (``scope=cluster``, no per-peer series),
    record per-shard provenance (``repro_shard_*``) and evaluate the
    burn monitor over the merged series.
    """

    def __init__(
        self,
        tel=None,
        slos: Tuple[SLO, ...] = DEFAULT_SLOS,
        recorder=None,
        tick_interval: float = DEFAULT_TICK_INTERVAL,
    ) -> None:
        # A private (non-activated) wall handle: the supervisor process
        # has no telemetry of its own and must not flip the global
        # enabled flag.
        self.tel = tel or telemetry.Telemetry.wall()
        self.sampler = HealthSampler(self.tel)
        self.monitor = BurnRateMonitor(
            self.sampler, slos=slos, tel=self.tel, recorder=recorder,
        )
        self.sampler.add_probe(health_probe(
            self._union, per_peer=False, scope="cluster",
        ))
        self.sampler.add_probe(self._shard_probe)
        self.sampler.add_probe(self.monitor.as_probe())
        self.tick_interval = float(tick_interval)
        #: shard_id -> (latest reading, in-flight task count).
        self._latest: Dict[str, Tuple[Dict[str, Any], int]] = {}
        self._last_tick: Optional[float] = None
        self.n_ticks = 0

    # -- ingestion -----------------------------------------------------------
    def ingest(
        self, shard_id: str, reading: Dict[str, Any], inflight: int = 0
    ) -> None:
        self._latest[shard_id] = (reading, inflight)

    def maybe_tick(self, now: Optional[float] = None) -> bool:
        if now is None:
            now = self.tel.clock.now()
        if (
            self._last_tick is not None
            and now - self._last_tick < self.tick_interval
        ):
            return False
        self.tick(now)
        return True

    def tick(self, now: Optional[float] = None) -> None:
        """Take one cluster sample of the stored shard readings."""
        if now is None:
            now = self.tel.clock.now()
        self._last_tick = now
        self.n_ticks += 1
        self.sampler.sample(now)

    def _union(self) -> Dict[str, Any]:
        return merge_readings(
            self._latest[sid][0] for sid in sorted(self._latest)
        )

    def _shard_probe(self, s: HealthSampler) -> None:
        for sid in sorted(self._latest):
            reading, inflight = self._latest[sid]
            loads = list(reading["loads"].values())
            mean, imbalance, _ = load_stats(loads)
            s.observe("repro_shard_load_mean", mean, shard=sid)
            s.observe("repro_shard_load_max", max(loads, default=0.0),
                      shard=sid)
            s.observe("repro_shard_imbalance", imbalance, shard=sid)
            s.observe("repro_shard_tasks_inflight", float(inflight),
                      shard=sid)

    # -- exports -------------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """JSONL-ready ``series`` records of every cluster/shard ring."""
        return self.sampler.records()

    def publish(self, metrics: MetricsRegistry) -> None:
        """Set the cluster-rollup gauges of the supervisor's /metrics."""
        for family, name, help_text in _EXPOSED:
            for ring in self.sampler.series_family(family):
                if ring.last is not None:
                    metrics.gauge(name, help=help_text, **ring.labels).set(
                        round(ring.last, 6)
                    )


#: Sampled family -> the /metrics gauge that exposes its latest value.
_EXPOSED = (
    ("repro_load_mean", "repro_cluster_load_mean",
     "Mean peer load over the merged population"),
    ("repro_load_imbalance", "repro_cluster_load_imbalance",
     "Max/mean load imbalance over the merged population"),
    ("repro_sched_miss_ratio", "repro_cluster_miss_ratio",
     "Cluster-wide deadline-miss ratio per QoS class"),
    ("repro_slo_burn_rate", "repro_cluster_slo_burn_rate",
     "Cluster-level error-budget burn rate per SLO window"),
)


class BundleCoordinator:
    """Correlates per-shard flight dumps into one bundle per trigger.

    One anomaly, one artifact: on a trigger — either a shard reporting
    its own flight-recorder dump (:meth:`on_shard_dump`) or a
    cluster-level detector calling :meth:`trigger` — the coordinator
    opens ``<out_dir>/<NNN>-<reason>/``, asks every (other) shard for a
    snapshot via *fanout*, and lands each shard's dump in the bundle as
    ``<shard>.jsonl`` next to a ``manifest.json``.  A per-key cooldown
    coalesces sustained anomalies, mirroring the recorder's own
    semantics (so it can serve as the cluster burn monitor's recorder).
    """

    def __init__(
        self,
        out_dir: str,
        fanout: Callable[[str, int, Optional[str]], None],
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.out_dir = out_dir
        self._fanout = fanout
        self.cooldown = float(cooldown)
        self._clock = clock
        self._last: Dict[str, float] = {}
        #: Bundles begun, in order: {"n", "reason", "source", "dir",
        #: "shards": {sid: filename}}.
        self.bundles: List[Dict[str, Any]] = []
        self.skipped: Dict[str, int] = {}
        self.log = get_logger("runtime.observe")

    # -- triggering ----------------------------------------------------------
    def trigger(
        self,
        reason: str,
        now: Optional[float] = None,
        key: Optional[str] = None,
    ) -> Optional[str]:
        """Supervisor-initiated bundle (duck-typed recorder surface).

        Returns the bundle directory, or None while cooling down.
        """
        return self._begin(reason, source="supervisor", key=key)

    def on_shard_dump(self, shard_id: str, reason: str,
                      path: Optional[str]) -> Optional[str]:
        """A shard's own recorder fired: correlate its peers.

        The triggering shard's dump is adopted into the bundle
        directly; the snapshot fan-out excludes it (a second dump
        milliseconds later would only duplicate the first).
        """
        bundle_dir = self._begin(reason, source=shard_id, exclude=shard_id)
        if bundle_dir is not None and path:
            self._adopt(self.bundles[-1], shard_id, path)
        return bundle_dir

    def _begin(
        self,
        reason: str,
        source: str,
        key: Optional[str] = None,
        exclude: Optional[str] = None,
    ) -> Optional[str]:
        now = self._clock()
        k = key or reason
        last = self._last.get(k)
        if last is not None and now - last < self.cooldown:
            self.skipped[reason] = self.skipped.get(reason, 0) + 1
            return None
        self._last[k] = now
        n = len(self.bundles)
        bundle_dir = os.path.join(self.out_dir, f"{n:03d}-{reason}")
        os.makedirs(bundle_dir, exist_ok=True)
        bundle = {
            "n": n, "reason": reason, "source": source,
            "time_unix": round(time.time(), 3),
            "dir": bundle_dir, "shards": {},
        }
        self.bundles.append(bundle)
        self._write_manifest(bundle)
        self.log.info(
            "correlated bundle %03d (%s, source=%s)", n, reason, source
        )
        self._fanout(reason, n, exclude)
        return bundle_dir

    # -- collection ----------------------------------------------------------
    def on_snapshot_done(
        self,
        shard_id: str,
        reason: str,
        bundle_n: Optional[int],
        path: Optional[str],
    ) -> None:
        if bundle_n is None or not (0 <= bundle_n < len(self.bundles)):
            return
        if path:
            self._adopt(self.bundles[bundle_n], shard_id, path)

    def _adopt(self, bundle: Dict[str, Any], shard_id: str,
               path: str) -> None:
        dest = os.path.join(bundle["dir"], f"{shard_id}.jsonl")
        try:
            shutil.copyfile(path, dest)
        except OSError:
            return
        bundle["shards"][shard_id] = os.path.basename(dest)
        self._write_manifest(bundle)

    def _write_manifest(self, bundle: Dict[str, Any]) -> None:
        manifest = {k: v for k, v in bundle.items() if k != "dir"}
        try:
            with open(
                os.path.join(bundle["dir"], "manifest.json"),
                "w", encoding="utf-8",
            ) as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError:
            pass

    def record(self) -> List[Dict[str, Any]]:
        """JSON-ready summary of the bundles (soak result document)."""
        return [
            {
                "n": b["n"], "reason": b["reason"], "source": b["source"],
                "dir": b["dir"], "shards": sorted(b["shards"]),
            }
            for b in self.bundles
        ]

    def __repr__(self) -> str:
        return f"<BundleCoordinator bundles={len(self.bundles)}>"
