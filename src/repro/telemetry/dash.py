"""``repro-dash`` — terminal/markdown health report from sampled series.

::

    repro-dash out.jsonl                       # sparkline health report
    repro-dash out.jsonl --markdown            # markdown tables
    repro-dash out.jsonl --json                # machine-readable
    repro-dash out.jsonl --bundle flight-000-rm_failover.jsonl

Loads a trace written with ``--sample`` (``repro-run``/``repro-live``)
and renders one sparkline per health series — the Figures 1–3-style
views (deadline-miss ratio, load imbalance, staleness, net rates)
regenerated from any run.  A flight-recorder bundle adds an anomaly
section: reason, trigger time, and the windowed event counts.

Merged cluster traces (``repro-trace merge`` output, ``--observe``
soaks) additionally render a *cluster* panel: supervisor-aggregated
miss ratio, per-shard imbalance spread, and SLO burn state.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.common.util import sparkline
from repro.telemetry.analyze import (
    _RELIABILITY_KEYS,
    control_event_counts,
    histogram_summaries,
    reliability_summary,
)
from repro.telemetry.export import TraceData, read_jsonl

#: Max label sets rendered per series family before eliding.
_MAX_SERIES_PER_FAMILY = 4


def _fmt_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"


def _families(series: List[Dict[str, Any]]) -> Dict[str, List[Dict]]:
    fams: Dict[str, List[Dict]] = {}
    for rec in series:
        fams.setdefault(rec.get("name", "?"), []).append(rec)
    for recs in fams.values():
        recs.sort(key=lambda r: sorted((r.get("labels") or {}).items()))
    return fams


def _last_value(rec: Dict[str, Any]) -> Optional[float]:
    values = rec.get("v") or []
    return float(values[-1]) if values else None


def cluster_summary(data: TraceData) -> Optional[Dict[str, Any]]:
    """Supervisor-aggregated rollup, present only in merged cluster
    traces (``repro-trace merge`` output / ``--observe`` soaks).

    Returns None when the trace carries no ``scope=cluster`` series and
    no ``repro_shard_*`` per-shard series — single-process traces render
    no cluster panel.
    """
    cluster = [
        r for r in data.series
        if (r.get("labels") or {}).get("scope") == "cluster"
    ]
    shard_recs = [
        r for r in data.series
        if str(r.get("name", "")).startswith("repro_shard_")
        and "shard" in (r.get("labels") or {})
    ]
    if not cluster and not shard_recs:
        return None

    miss: Dict[str, float] = {}
    load_mean = None
    load_imbalance = None
    for rec in cluster:
        last = _last_value(rec)
        if last is None:
            continue
        name = rec.get("name")
        if name == "repro_sched_miss_ratio":
            miss[(rec.get("labels") or {}).get("qos", "?")] = last
        elif name == "repro_load_mean":
            load_mean = last
        elif name == "repro_load_imbalance":
            load_imbalance = last

    shard_imbalance: Dict[str, float] = {}
    shard_inflight: Dict[str, float] = {}
    for rec in shard_recs:
        last = _last_value(rec)
        if last is None:
            continue
        sid = rec["labels"]["shard"]
        if rec.get("name") == "repro_shard_imbalance":
            shard_imbalance[sid] = last
        elif rec.get("name") == "repro_shard_tasks_inflight":
            shard_inflight[sid] = last

    burn: Dict[str, float] = {}
    for rec in data.series:
        if rec.get("name") != "repro_slo_burn_rate":
            continue
        last = _last_value(rec)
        if last is None:
            continue
        labels = rec.get("labels") or {}
        key = f"{labels.get('slo', '?')}/{labels.get('window', '?')}"
        # Several shards may report the same SLO window; the cluster
        # state is the worst of them.
        burn[key] = max(burn.get(key, 0.0), last)

    return {
        "shards": sorted(
            {r["labels"]["shard"] for r in shard_recs}
        ),
        "load_mean": load_mean,
        "load_imbalance": load_imbalance,
        "miss_ratio": miss,
        "shard_imbalance": shard_imbalance,
        "shard_inflight": shard_inflight,
        "slo_burn": burn,
    }


def _series_line(rec: Dict[str, Any], width: int, markdown: bool) -> str:
    values = [float(v) for v in rec.get("v", [])]
    labels = _fmt_labels(rec.get("labels") or {})
    spark = sparkline(values, width=width) if values else "(empty)"
    if values:
        stats = (
            f"n={len(values)} last={values[-1]:.3g} "
            f"min={min(values):.3g} max={max(values):.3g}"
        )
    else:
        stats = "n=0"
    if markdown:
        return f"| `{labels or '—'}` | `{spark}` | {stats} |"
    return f"  {labels or '(all)':<28} {spark}  {stats}"


def render_report(
    data: TraceData,
    bundle: Optional[TraceData] = None,
    markdown: bool = False,
    width: int = 40,
) -> str:
    lines: List[str] = []

    def heading(text: str) -> None:
        if markdown:
            lines.append(f"\n## {text}\n")
        else:
            lines.append(f"\n{text}")

    head = (
        f"clock={data.clock} series={len(data.series)} "
        f"spans={len(data.spans)} events={len(data.events)}"
    )
    if markdown:
        lines.append("# repro health report\n")
        lines.append(head)
    else:
        lines.append(f"repro health report: {head}")

    cluster = cluster_summary(data)
    if cluster is not None:
        heading("cluster")
        parts = []
        if cluster["shards"]:
            parts.append(f"shards={len(cluster['shards'])}")
        if cluster["load_mean"] is not None:
            parts.append(f"load_mean={cluster['load_mean']:.3g}")
        if cluster["load_imbalance"] is not None:
            parts.append(
                f"load_imbalance={cluster['load_imbalance']:.3g}"
            )
        for qos, ratio in sorted(cluster["miss_ratio"].items()):
            parts.append(f"miss_ratio[{qos}]={ratio:.1%}")
        lines.append(" ".join(parts) if parts else "(no samples)")
        if cluster["shard_imbalance"]:
            vals = cluster["shard_imbalance"]
            spread = max(vals.values()) - min(vals.values())
            lines.append(
                "per-shard imbalance: " + " ".join(
                    f"{sid}={v:.2f}" for sid, v in sorted(vals.items())
                ) + f"  (spread {spread:.2f})"
            )
        if cluster["shard_inflight"]:
            lines.append(
                "per-shard inflight: " + " ".join(
                    f"{sid}={v:g}" for sid, v in
                    sorted(cluster["shard_inflight"].items())
                )
            )
        if cluster["slo_burn"]:
            worst = max(cluster["slo_burn"].values())
            lines.append(
                "slo burn: " + " ".join(
                    f"{key}={v:g}x" for key, v in
                    sorted(cluster["slo_burn"].items())
                ) + ("  BURNING" if worst > 1.0 else "  ok")
            )

    fams = _families(data.series)
    if not fams:
        lines.append(
            "\nno sampled series in this trace — rerun with --sample "
            "(repro-run/repro-live) to record health signals."
        )
    for name in sorted(fams):
        recs = fams[name]
        heading(name)
        if markdown:
            lines.append("| labels | trend | stats |")
            lines.append("|---|---|---|")
        for rec in recs[:_MAX_SERIES_PER_FAMILY]:
            lines.append(_series_line(rec, width, markdown))
        if len(recs) > _MAX_SERIES_PER_FAMILY:
            extra = len(recs) - _MAX_SERIES_PER_FAMILY
            lines.append(
                f"| … | (+{extra} more) | |" if markdown
                else f"  (+{extra} more label sets)"
            )

    rep_fams = {
        name: recs for name, recs in fams.items()
        if name.startswith("repro_reputation_")
    }
    if rep_fams:
        heading("reputation defense")

        def _last(name: str) -> Optional[float]:
            recs = rep_fams.get(name)
            if not recs:
                return None
            values = recs[0].get("v") or []
            return float(values[-1]) if values else None

        quarantined = _last("repro_reputation_quarantined")
        total = _last("repro_reputation_quarantines_total")
        min_trust = _last("repro_reputation_min_trust")
        mean_trust = _last("repro_reputation_mean_trust")
        parts = []
        if quarantined is not None:
            parts.append(f"quarantined={quarantined:g}")
        if total is not None:
            parts.append(f"quarantines_total={total:g}")
        if min_trust is not None:
            parts.append(f"min_trust={min_trust:.3f}")
        if mean_trust is not None:
            parts.append(f"mean_trust={mean_trust:.3f}")
        lines.append(" ".join(parts) if parts else "(no samples)")

    rel = reliability_summary(data)
    if any(rel.values()):
        heading("reliability")
        lines.append(
            " ".join(f"{k}={rel[k]:g}" for k in _RELIABILITY_KEYS)
        )
    hists = histogram_summaries(data)
    if hists:
        heading("latency quantiles")
        for name, s in hists.items():
            lines.append(
                f"{name}: n={s['count']} mean={s['mean']:.4f}s "
                f"p50={s['p50']:.4f}s p95={s['p95']:.4f}s "
                f"p99={s['p99']:.4f}s"
            )
    events = control_event_counts(data)
    if events:
        heading("events")
        lines.append(
            " ".join(f"{k}={n}" for k, n in sorted(events.items()))
        )

    if data.profile:
        from repro.profiling.attach import format_budget

        prof = data.profile
        heading("profiler")
        rate = (
            f"stride={prof['stride']}" if "stride" in prof
            else f"period={prof.get('period', '?')}s"
        )
        lines.append(
            f"runtime={prof.get('runtime', '?')} "
            f"samples={prof.get('samples', 0)} "
            f"stacks={prof.get('unique_stacks', 0)} {rate} "
            + format_budget(prof["budget"])
        )
        top = prof.get("top", [])
        if markdown and top:
            lines.append("| share | hot path |")
            lines.append("|---|---|")
        for entry in top[:8]:
            if markdown:
                lines.append(
                    f"| {entry['share']:.1%} | `{entry['stack']}` |"
                )
            else:
                lines.append(f"  {entry['share']:6.1%}  {entry['stack']}")
        slo = prof.get("slo")
        if slo is not None:
            heading("slo burn")
            for s in slo.get("slos", []):
                lines.append(
                    f"  {s['name']}: {s['series']} "
                    f"{s.get('comparison', '>')} {s['threshold']:g} "
                    f"(objective {s['objective']:.0%})"
                )
            alerts = slo.get("alerts", [])
            for a in alerts:
                lines.append(
                    f"  ALERT t={a['time']:g} {a['slo']} "
                    f"({a['window']} window) burn={a['burn']:g}x "
                    f"bad={a['bad_fraction']:.1%}"
                    + (f" -> {a['dump']}" if a.get("dump") else "")
                )
            if not alerts:
                lines.append("  no burn alerts")

    if bundle is not None:
        heading("flight recorder")
        meta = bundle.meta
        lines.append(
            f"reason={meta.get('reason', '?')} "
            f"time={meta.get('time', '?')} "
            f"window={meta.get('window', '?')}s "
            f"clock={meta.get('clock', '?')}"
        )
        counts = control_event_counts(bundle)
        if counts:
            lines.append(
                "window events: " + " ".join(
                    f"{k}={n}" for k, n in sorted(counts.items())
                )
            )
        lines.append(
            f"window spans: {len(bundle.spans)}  "
            f"series: {len(bundle.series)}"
        )
    return "\n".join(lines)


def report_dict(
    data: TraceData, bundle: Optional[TraceData] = None
) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "clock": data.clock,
        "series": data.series,
        "reliability": reliability_summary(data),
        "histograms": histogram_summaries(data),
        "events": control_event_counts(data),
    }
    cluster = cluster_summary(data)
    if cluster is not None:
        doc["cluster"] = cluster
    if data.profile:
        doc["profile"] = data.profile
    if bundle is not None:
        doc["flight"] = {
            "meta": bundle.meta,
            "events": control_event_counts(bundle),
            "n_spans": len(bundle.spans),
            "n_series": len(bundle.series),
        }
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dash",
        description=(
            "Render a terminal/markdown health report (sparklines per "
            "sampled signal) from a telemetry trace produced with "
            "--sample, optionally joined with a flight-recorder bundle."
        ),
    )
    parser.add_argument("trace", help="trace file (JSONL) with series")
    parser.add_argument(
        "--bundle", help="flight-recorder bundle (JSONL) to include",
    )
    parser.add_argument(
        "--markdown", action="store_true",
        help="emit markdown tables instead of plain text",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON report",
    )
    parser.add_argument(
        "--width", type=int, default=40,
        help="sparkline width in characters (default 40)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        data = read_jsonl(args.trace)
        bundle = read_jsonl(args.bundle) if args.bundle else None
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(json.dumps(
                report_dict(data, bundle), indent=2, default=str
            ))
        else:
            print(render_report(
                data, bundle, markdown=args.markdown, width=args.width
            ))
    except BrokenPipeError:  # e.g. ``repro-dash out.jsonl | head``
        sys.stderr.close()
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
