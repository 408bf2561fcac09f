"""One observation session: what ``--trace/--sample/--profile`` attach.

Every entry point that observes a run — ``repro-run`` (plain config and
``--scenario``), ``repro-live``, the scenario builder, the bench harness
and the shard host — builds one :class:`Observation`.  It owns the
:class:`~repro.telemetry.Telemetry` handle, the health sampler and its
probes, the flight recorder, the profiler bundle and the ``/metrics``
server, and :meth:`Observation.close` is the one place their exit order
lives: stop the collectors, publish, write the ``.folded`` and JSONL
artifacts, report once, detach, restore the previous telemetry handle.

With no flag set an ``Observation`` holds nothing and every method is a
no-op, so callers never branch on "is observation on".
"""

from __future__ import annotations

import argparse
import os
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional

from repro import telemetry
from repro.telemetry.flight_recorder import FlightRecorder
from repro.telemetry.timeseries import (
    HealthSampler,
    live_cluster_probes,
    overlay_probes,
)


@dataclass
class Observation:
    """Everything one run's observation flags attached.

    *env* selects the clock: a sim environment, or None for wall time.
    """

    env: Any = None
    #: JSONL trace path (None = telemetry may still be on, unexported).
    trace: Optional[str] = None
    #: Health-series period, in seconds of the run's clock.
    sample: Optional[float] = None
    profile: bool = False
    budget: Optional[float] = None
    #: Profiler stride (sim events) or period (wall seconds).
    rate: Optional[float] = None
    #: ``.folded`` path (None = not written).
    folded: Optional[str] = None
    #: Where flight-recorder bundles land (None = no recorder).
    record_dir: Optional[str] = None
    recorder_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Serve ``/metrics`` + ``/healthz`` here (0 = ephemeral port).
    metrics_port: Optional[int] = None
    host: str = "127.0.0.1"
    #: Extra keys for the trace's meta line; add to it until close().
    meta: Dict[str, Any] = field(default_factory=dict)
    #: Receives the exit report lines (None = silent).
    log: Optional[Callable[[str], None]] = None

    def __post_init__(self) -> None:
        self.tel: Optional[telemetry.Telemetry] = None
        if (
            self.trace or self.sample is not None
            or self.metrics_port is not None
        ):
            self.tel = (
                telemetry.Telemetry.wall() if self.env is None
                else telemetry.Telemetry.sim(self.env)
            )
        self.sampler: Optional[HealthSampler] = None
        self.recorder: Optional[FlightRecorder] = None
        #: The :class:`~repro.profiling.ProfileSession` (profiler +
        #: budgeter + SLO monitor) that ``profile`` attached.
        self.session: Optional[Any] = None
        self.httpd: Optional[Any] = None
        self._aggregate: Optional[Callable[[], Dict[str, Any]]] = None
        self._scope = ExitStack()
        self._stopped = self._closed = False

    @classmethod
    def sim(
        cls, env, overlay, network, *, per_peer: bool = True, **flags: Any
    ) -> "Observation":
        """Attach to a built simulation (nothing is scheduled unless a
        flag asks: the sampler Process adds kernel events).  The flight
        recorder is armed only alongside the sampler."""
        obs = cls(env, **flags)
        if obs.sample is None:
            obs.record_dir = None
        obs._aggregate = network.stats.summary
        return obs.start(
            probes=overlay_probes(overlay, network, per_peer=per_peer)
        )

    @classmethod
    def wall(cls, **flags: Any) -> "Observation":
        """A wall-clock session; :meth:`open` it before the runtime
        boots (so start-up is traced) and :meth:`start` it once up."""
        return cls(None, **flags)

    # -- lifecycle ----------------------------------------------------------
    def open(self) -> "Observation":
        """Install the telemetry handle process-wide, until close()."""
        if self.tel is not None:
            self._scope.enter_context(telemetry.session(self.tel))
        return self

    def start(
        self,
        cluster: Any = None,
        metrics_fn: Optional[Callable[[], str]] = None,
        health_fn: Optional[Callable[[], Dict[str, Any]]] = None,
        probes: Iterable[Callable[[HealthSampler], None]] = (),
    ) -> "Observation":
        """Attach the collectors to the (running) system: the sampler
        over *probes* — a live *cluster*'s by default — then the flight
        recorder, the profiler bundle and the HTTP endpoint."""
        tel = self.tel
        if self.sample is not None:
            self.sampler = HealthSampler(tel, period=self.sample)
            if cluster is not None:
                probes = live_cluster_probes(cluster)
            for probe in probes:
                self.sampler.add_probe(probe)
            if self.env is None:
                self.sampler.start_wall()
            else:
                self.sampler.attach_sim(self.env)
        if tel is not None and self.record_dir is not None:
            self.recorder = FlightRecorder(
                tel, out_dir=self.record_dir, sampler=self.sampler,
                **self.recorder_kwargs,
            )
        if self.profile:
            # Deferred import: profiling is opt-in; the default sim,
            # LiveCluster and shard paths must not even load it (the
            # benchmark's peak_rss_mb bound rests on that).  Its probes
            # go after the signal probes registered above.
            from repro.profiling.attach import profile_sim, profile_wall

            bundle = dict(
                tel=tel, sampler=self.sampler, recorder=self.recorder,
                budget=self.budget,
            )
            self.session = (
                profile_wall(period=self.rate, **bundle)
                if self.env is None
                else profile_sim(self.env, stride=self.rate, **bundle)
            )
        if self.metrics_port is not None:
            from repro.telemetry.httpd import TelemetryHTTPServer

            self.httpd = TelemetryHTTPServer(
                metrics_fn or self.metrics_text, health_fn=health_fn,
                host=self.host, port=self.metrics_port,
            ).start()
        return self

    def metrics_text(self) -> str:
        """Prometheus text of the run's registry, with the live
        profiler/budgeter state folded in on each scrape."""
        if self.session is not None:
            self.session.publish(self.tel.metrics)
        return self.tel.metrics.to_prometheus_text()

    def stop(self) -> None:
        """Stop the collectors while the observed system is still up
        (idempotent); their aggregates stay readable."""
        if self._stopped:
            return
        self._stopped = True
        if self.session is not None:
            self.session.stop()
        if self.sampler is not None and self.env is None:
            self.sampler.stop_wall()

    def close(self) -> None:
        """Tear down and export: runs on success and on failure alike,
        so a failed run still writes what it collected."""
        if self._closed:
            return
        self._closed = True
        tel, prof = self.tel, self.session
        try:
            self.stop()
            if prof is not None:
                if tel is not None:
                    prof.publish(tel.metrics)
                if self.folded:
                    prof.write_folded(self.folded)
            if tel is not None:
                tel.tracer.finish_open()
                if self.trace:
                    self._write_trace()
            if self.log is not None:
                self._report(self.log)
        finally:
            if self.recorder is not None:
                self.recorder.close()
            if self.httpd is not None:
                self.httpd.close()
            self._scope.close()

    def __enter__(self) -> "Observation":
        return self.open()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- export -------------------------------------------------------------
    def _write_trace(self) -> None:
        meta = {"runtime": "live" if self.env is None else "sim", **self.meta}
        if self._aggregate is not None:
            meta["aggregate"] = self._aggregate()
        telemetry.export.write_jsonl(
            self.trace, self.tel.tracer, self.tel.metrics, meta=meta,
            sampler=self.sampler,
            profile=self.session.record() if self.session else None,
        )

    def _report(self, log: Callable[[str], None]) -> None:
        prof = self.session
        if prof is not None:
            info = prof.summary()
            log(
                f"profiler: {info['samples']} samples / "
                f"{info['unique_stacks']} stacks; overhead "
                f"{info['overhead_ratio']:.2%} (budget {info['budget']:.0%}, "
                f"{info['retunes']} retunes)"
                + (f" -> {prof.folded_path}" if prof.folded_path else "")
            )
            for alert in prof.alerts:
                log(
                    f"SLO ALERT: {alert.slo} burning {alert.burn:.1f}x "
                    f"({alert.window} window, t={alert.time:.1f}s)"
                    + (f" -> {alert.dump}" if alert.dump else "")
                )
        if self.recorder is not None:
            for path in self.recorder.dumps:
                log(f"flight-recorder bundle -> {path}")
        if self.trace:
            log(f"telemetry trace -> {self.trace}")


# -- the shared CLI surface ---------------------------------------------------

def add_observation_flags(
    parser: argparse.ArgumentParser, clock: str
) -> None:
    """The run flags ``repro-run`` (``clock="sim"``) and ``repro-live``
    (``clock="wall"``) share: ``--policy``, ``--defense`` and the five
    trace/sample/profile flags."""
    from repro.core.control.placement import policy_names

    sim = clock == "sim"
    period = 1.0 if sim else 0.5
    parser.add_argument(
        "--policy", default=None if sim else "paper",
        choices=policy_names(),
        help="placement policy the RMs run (default: the config's "
        "allocation_policy / rm.placement_policy where there is a config, "
        "else paper)",
    )
    parser.add_argument(
        "--defense", action="store_true",
        help="reputation-gated load reports (rm.enable_defense): the RM "
        "cross-checks each peer's claims against observed evidence, "
        "discounts divergent peers in placement and quarantines chronic "
        "liars (see docs/scenarios.md)",
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="record a telemetry trace (spans/events/metrics) to a JSONL "
        "file; analyse it with repro-trace",
    )
    parser.add_argument(
        "--sample", metavar="PERIOD", nargs="?", const=period, type=float,
        default=None,
        help=f"with --trace: sample health series every PERIOD {clock}-clock "
        f"seconds (default {period}) and attach them to the trace; view "
        "with repro-dash.  On the simulator this also arms the flight "
        "recorder (anomaly bundles land next to the trace file).",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="attach the in-process sampling profiler + overhead "
        "budgeter (and, when health series are sampled, SLO burn-rate "
        "alerting); writes a flame-ready .folded file on exit.  "
        "Observation only: the run's decisions are unchanged.",
    )
    parser.add_argument(
        "--profile-budget", type=float, default=None, metavar="FRAC",
        help="observability overhead budget as a fraction of wall time "
        "(default 0.02); the budgeter backs sampling off above it",
    )
    parser.add_argument(
        "--profile-folded", metavar="FILE", default=None,
        help="where to write the folded stacks (default: profile.folded "
        "next to the trace / metrics output, or ./profile.folded)",
    )


def observation_flags(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> Dict[str, Any]:
    """Validate the parsed flags; returns them as :class:`Observation`
    keyword arguments."""
    if args.sample is not None and not args.trace:
        parser.error("--sample requires --trace")
    if args.profile_budget is not None and not args.profile:
        parser.error("--profile-budget requires --profile")
    if args.profile_folded and not args.profile:
        parser.error("--profile-folded requires --profile")
    folded = None
    if args.profile:
        folded = args.profile_folded or os.path.join(
            os.path.dirname(args.trace) if args.trace else ".",
            "profile.folded",
        )
    return {
        "trace": args.trace, "sample": args.sample,
        "profile": args.profile, "budget": args.profile_budget,
        "folded": folded,
    }
