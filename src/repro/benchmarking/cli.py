"""``repro-bench`` — the pinned macro/micro benchmark runner.

Runs the registered macro scenarios and micro benchmarks with
warmup/repeat discipline, prints a throughput table, and writes a
schema-versioned JSON report (``BENCH.json`` unless ``--out`` says
otherwise).  The events/sec figures are for looking at one host, one
sitting — they are not comparable across runs and gate nothing; the
judge for a performance claim is ``python3 -m benchmarks.e2e``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.benchmarking import harness
from repro.benchmarking.scenarios import BENCHES, select


def _format_table(records: List[harness.BenchRecord]) -> str:
    headers = ["benchmark", "events", "best_s", "mean_s", "events/s",
               "peak_rss_mb"]
    rows = [
        [
            r.name,
            f"{r.events:,}",
            f"{r.wall_s['min']:.3f}",
            f"{r.wall_s['mean']:.3f}",
            f"{r.events_per_sec:,.0f}",
            f"{r.peak_rss_kb / 1024:.0f}",
        ]
        for r in records
    ]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    out.append("  ".join("-" * w for w in widths))
    for row in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def _print_hot_paths(
    records: List[harness.BenchRecord], top_n: int = 5
) -> None:
    """The per-benchmark hot-path report (``--profile``)."""
    for r in records:
        prof = r.profile
        if not prof:
            continue
        print(
            f"\n{r.name}: {prof['samples']} samples / "
            f"{prof['unique_stacks']} stacks; profiler overhead "
            f"{prof['budget']['overhead_cumulative']:.2%}"
        )
        for entry in prof.get("top", [])[:top_n]:
            leaf = entry["stack"].rsplit(";", 1)[-1]
            print(f"  {entry['share']:6.1%}  {leaf}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: reduced durations, heavy rungs skipped",
    )
    parser.add_argument(
        "--suite", default="perf", choices=("perf", "adversarial"),
        help="'perf' (default) runs the pinned performance suite; "
        "'adversarial' runs the stress-scenario configs under "
        "--scenario-dir through the scenario DSL",
    )
    parser.add_argument(
        "--scenario-dir", default=None, metavar="DIR",
        help="scenario configs for --suite adversarial "
        "(default benchmarks/scenarios)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_benches",
        help="list registered benchmarks and exit",
    )
    parser.add_argument(
        "--only", default=None,
        help="comma-separated benchmark names to run (default: all)",
    )
    parser.add_argument(
        "--warmup", type=int, default=None,
        help="unrecorded runs per benchmark (default 1; 0 in --quick)",
    )
    parser.add_argument(
        "--repeat", type=int, default=None,
        help="recorded runs per benchmark (default 3; 2 in --quick)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSON report here (default BENCH.json; '-' to skip)",
    )
    parser.add_argument(
        "--bench-id", default="BENCH",
        help="identifier stamped into the report (default BENCH)",
    )
    parser.add_argument(
        "--sample", action="store_true",
        help="attach sampled health series to macro benchmark reports "
        "(the sampler adds kernel events)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run each benchmark under the wall-clock sampling profiler "
        "and attach a per-benchmark hot-path report (the profiler "
        "thread perturbs timing)",
    )
    parser.add_argument(
        "--profile-period", type=float, default=None, metavar="SECONDS",
        help="override the profiler's sampling period (default 0.05 s; "
        "quick rungs finish fast, so smoke runs need a faster clock "
        "to capture stacks); requires --profile",
    )
    parser.add_argument(
        "--profile-folded", default=None, metavar="PATH",
        help="write this run's merged .folded profile (all benchmarks' "
        "best-run stacks summed); requires --profile",
    )
    parser.add_argument(
        "--profile-baseline", default=None, metavar="PATH",
        help="diff this run's merged profile against a baseline .folded "
        "and print the top regressed/improved stacks; requires --profile",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.profile_period is not None and not args.profile:
        parser.error("--profile-period needs --profile")
    if (args.profile_folded or args.profile_baseline) and not args.profile:
        parser.error(
            "--profile-folded/--profile-baseline need --profile samples"
        )

    adversarial = args.suite == "adversarial"
    from repro.scenarios import suite as scenario_suite
    scenario_dir = args.scenario_dir or scenario_suite.DEFAULT_SCENARIO_DIR

    if args.list_benches:
        if adversarial:
            for path in scenario_suite.discover(scenario_dir):
                print(path)
            return 0
        for spec in BENCHES:
            quick = "quick+full" if spec.quick else "full only"
            print(f"{spec.name:22s} [{spec.family}] ({quick}) "
                  f"{spec.params}")
        return 0

    only = (
        [n.strip() for n in args.only.split(",") if n.strip()]
        if args.only else None
    )
    warmup = args.warmup if args.warmup is not None else (
        0 if args.quick else 1
    )
    repeat = args.repeat if args.repeat is not None else (
        2 if args.quick else 3
    )

    if adversarial:
        # Scenario runs are deterministic in the simulated world, so
        # one recorded repeat is enough unless timing is the question.
        if args.warmup is None:
            warmup = 0
        if args.repeat is None:
            repeat = 1
        try:
            records = scenario_suite.run_suite(
                scenario_dir,
                only=only,
                quick=args.quick,
                warmup=warmup,
                repeat=repeat,
                profile=args.profile,
                progress=lambda name: print(
                    f"running scenario {name} "
                    f"(warmup={warmup}, repeat={repeat}) ...", flush=True
                ),
            )
        except (FileNotFoundError, KeyError) as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
    else:
        try:
            specs = select(only=only, quick=args.quick)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        records = []
        for spec in specs:
            params = spec.effective_params(quick=args.quick)
            print(f"running {spec.name} {params} "
                  f"(warmup={warmup}, repeat={repeat}) ...", flush=True)
            record = harness.run_benchmark(
                spec.name, spec.build(quick=args.quick, sample=args.sample),
                params=params, warmup=warmup, repeat=repeat,
                profile=args.profile,
                profile_period=args.profile_period,
            )
            records.append(record)

    print()
    print(_format_table(records))
    if args.profile:
        _print_hot_paths(records)

    if args.profile_folded or args.profile_baseline:
        from repro.profiling.folded import (
            diff_folded,
            format_diff,
            merge_folded,
            parse_folded,
            read_folded,
            write_folded,
        )

        merged = merge_folded(
            parse_folded(r.folded) for r in records
            if getattr(r, "folded", None)
        )
        if args.profile_folded:
            write_folded(args.profile_folded, merged)
            print(f"\nwrote {args.profile_folded}")
        if args.profile_baseline:
            try:
                base = read_folded(args.profile_baseline)
            except OSError as exc:
                print(
                    f"error: cannot read {args.profile_baseline}: {exc}",
                    file=sys.stderr,
                )
                return 2
            print()
            print(format_diff(diff_folded(base, merged)))

    out_path = args.out
    if out_path is None:
        out_path = "BENCH_SCENARIOS.json" if adversarial else "BENCH.json"
    if out_path != "-":
        mode = "quick" if args.quick else "full"
        doc = harness.report_document(records, mode=mode,
                                      bench_id=args.bench_id)
        harness.write_report(out_path, doc)
        print(f"\nwrote {out_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
