"""``repro-run``: run one scenario from a JSON config file.

::

    repro-run scenario.json --duration 300
    repro-run scenario.json --duration 300 --record-trace run.csv
    repro-run --print-default-config > scenario.json
"""

from __future__ import annotations

import argparse
import os

from repro.common.util import fmt_table, sparkline
from repro.telemetry.observation import (
    Observation,
    add_observation_flags,
    observation_flags,
)
from repro.workloads.configio import config_to_json, load_config
from repro.workloads.scenario import ScenarioConfig, build_scenario
from repro.workloads.trace import TraceRecorder, save_trace


def _override(cfg: ScenarioConfig, args) -> ScenarioConfig:
    """Apply ``--seed/--policy/--defense`` on top of a loaded config."""
    if args.seed is not None:
        cfg.seed = args.seed
    if args.policy is not None:
        cfg.rm.placement_policy = args.policy
    if args.defense:
        cfg.rm.enable_defense = True
    return cfg


def _print_summary(summary, scenario, extra_rows=()) -> None:
    rows = [[k, v if not isinstance(v, float) else f"{v:.3f}"]
            for k, v in summary.row().items()]
    print(fmt_table(["metric", "value"], rows + list(extra_rows)))
    if len(scenario.metrics.fairness_series):
        _, values = scenario.metrics.fairness_series.as_arrays()
        print(f"fairness over time: {sparkline(values, width=60)}")


def _run_scenario(args, flags) -> int:
    """The ``--scenario`` path: run one stress-scenario DSL file."""
    import json

    from repro.scenarios import build_stressed_scenario, load_spec

    spec = load_spec(args.scenario)
    _override(spec.base, args)

    out_dir = (
        os.path.dirname(args.metrics_out) if args.metrics_out else "."
    ) or "."
    if args.profile and not args.profile_folded:
        flags["folded"] = os.path.join(out_dir, f"profile-{spec.name}.folded")
    stressed = build_stressed_scenario(
        spec, out_dir=out_dir, log=print, **flags
    )
    scenario = stressed.scenario
    print(
        f"scenario {spec.name!r}: {scenario.overlay.n_peers} peers / "
        f"{scenario.overlay.n_domains} domains; seed={spec.base.seed}; "
        f"stressors: arrivals={spec.arrivals.shape if spec.arrivals else '-'}"
        f" cost={spec.cost.dist if spec.cost else '-'}"
        f" faults={len(spec.faults)}"
        f" liars={len(stressed.liars)}"
    )
    summary = stressed.run()
    doc = stressed.metrics_document()

    _print_summary(
        summary, scenario, [["partition_drops", doc["partition_drops"]]]
    )
    if stressed.faults is not None:
        for t, kind, detail in stressed.faults.log:
            print(f"  fault t={t:.1f}s {kind}: {detail}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fp:
            json.dump(doc, fp, indent=2)
            fp.write("\n")
        print(f"scenario metrics -> {args.metrics_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description="Run one peer-to-peer middleware scenario.",
        epilog=(
            "To run the same protocol over real localhost UDP sockets "
            "instead of the simulator, see repro-live."
        ),
    )
    parser.add_argument(
        "config", nargs="?", help="scenario config JSON file"
    )
    parser.add_argument(
        "--scenario", metavar="FILE",
        help="run a stress-scenario DSL file (.json/.toml) instead of a "
        "plain config: shaped arrivals, fault scripts, misbehaving "
        "peers, auto-attached health sampling (see docs/scenarios.md); "
        "the spec owns duration, drain and the request trace",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE",
        help="with --scenario: write the schema-versioned per-scenario "
        "metrics JSON here",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="simulated seconds of workload (default 300)",
    )
    parser.add_argument(
        "--drain", type=float, default=None,
        help="extra simulated seconds for in-flight tasks (default 60)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the config seed"
    )
    parser.add_argument(
        "--record-trace", metavar="FILE",
        help="record generated requests to a CSV trace",
    )
    add_observation_flags(parser, clock="sim")
    parser.add_argument(
        "--print-default-config", action="store_true",
        help="emit the default ScenarioConfig as JSON and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    flags = observation_flags(parser, args)

    if args.print_default_config:
        print(config_to_json(ScenarioConfig()))
        return 0
    if args.scenario:
        if args.config:
            parser.error("--scenario replaces the plain config argument")
        for flag in ("duration", "drain", "record_trace"):
            if getattr(args, flag) is not None:
                parser.error(
                    f"--{flag.replace('_', '-')} cannot be combined with "
                    "--scenario (the spec owns it)"
                )
        return _run_scenario(args, flags)
    if args.metrics_out:
        parser.error("--metrics-out requires --scenario")
    if not args.config:
        parser.error("a config file is required (or --print-default-config "
                     "/ --scenario)")

    cfg = _override(load_config(args.config), args)
    scenario = build_scenario(cfg)
    recorder = None
    if args.record_trace:
        recorder = TraceRecorder()
        scenario.workload.on_generate = recorder.record

    print(
        f"overlay: {scenario.overlay.n_peers} peers / "
        f"{scenario.overlay.n_domains} domains; "
        f"policy={cfg.rm.placement_policy}; seed={cfg.seed}"
    )
    with Observation.sim(
        scenario.env, scenario.overlay, scenario.network,
        record_dir=os.path.dirname(args.trace or "") or ".",
        meta={"seed": cfg.seed}, log=print, **flags,
    ):
        summary = scenario.run(
            duration=300.0 if args.duration is None else args.duration,
            drain=60.0 if args.drain is None else args.drain,
        )

    _print_summary(summary, scenario)
    if recorder is not None:
        with open(args.record_trace, "w", encoding="utf-8") as fp:
            save_trace(recorder.entries, fp)
        print(f"trace: {len(recorder.entries)} requests -> "
              f"{args.record_trace}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
