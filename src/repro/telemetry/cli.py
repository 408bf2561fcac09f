"""``repro-trace`` — analyse telemetry JSONL traces and profiles.

::

    repro-trace out.jsonl              # per-task critical paths + summaries
    repro-trace out.jsonl --verbose    # also list per-task message spans
    repro-trace out.jsonl --json       # machine-readable report

    # merge per-shard streams into one cluster timeline
    repro-trace merge trace-s0-0.jsonl trace-s1-0.jsonl -o cluster.jsonl

    # which stacks got hot between two runs' .folded profiles
    repro-trace diff-profile base.folded new.folded
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.telemetry.analyze import format_report, report_dict
from repro.telemetry.export import read_jsonl, write_trace_data

_SUBCOMMANDS = ("merge", "diff-profile")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description=(
            "Print per-task critical paths, per-kind message counts, and "
            "retry/loss summaries from a telemetry trace (JSONL) produced "
            "by repro-live --trace or repro-run --trace."
        ),
    )
    parser.add_argument("trace", help="trace file (JSONL)")
    parser.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON report instead of text",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="also list each task's message spans",
    )
    return parser


def build_merge_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace merge",
        description=(
            "Merge per-shard trace streams into one cluster timeline: "
            "span ids re-keyed, timestamps epoch-aligned, cross-shard "
            "task parentage stitched."
        ),
    )
    parser.add_argument("traces", nargs="+", help="per-shard JSONL files")
    parser.add_argument(
        "-o", "--output", default=None,
        help="write the merged trace here (JSONL)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the cross-shard connectivity summary as JSON",
    )
    return parser


def build_diff_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace diff-profile",
        description=(
            "Compare two .folded profiles by sample share and report "
            "the top regressed (grew) and improved (shrank) stacks."
        ),
    )
    parser.add_argument("base", help="baseline .folded profile")
    parser.add_argument("new", help="candidate .folded profile")
    parser.add_argument(
        "--top", type=int, default=10,
        help="stacks to list per direction (default 10)",
    )
    parser.add_argument(
        "--min-delta", type=float, default=None,
        help="ignore share moves smaller than this (default 0.005)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the diff as JSON instead of text",
    )
    return parser


def _main_merge(argv: List[str]) -> int:
    from repro.telemetry.cluster import cross_shard_summary, merge_traces

    args = build_merge_parser().parse_args(argv)
    parts = []
    for path in args.traces:
        try:
            parts.append(read_jsonl(path))
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    merged = merge_traces(parts)
    if args.output:
        write_trace_data(args.output, merged)
    summary = cross_shard_summary(merged)
    if args.json:
        print(json.dumps(summary, indent=2, default=str))
        return 0
    print(
        f"merged {len(parts)} shard stream(s): "
        f"{len(merged.spans)} spans, {len(merged.events)} events, "
        f"{merged.meta.get('stitched_spans', 0)} stitched"
    )
    print(
        f"tasks: {summary['tasks']} total, "
        f"{summary['cross_shard_tasks']} cross-shard, "
        f"{summary['connected_tasks']} connected, "
        f"{summary['orphan_spans']} orphan spans"
    )
    if args.output:
        print(f"wrote {args.output}")
    print()
    print(format_report(merged))
    return 0


def _main_diff(argv: List[str]) -> int:
    from repro.profiling.folded import (
        DEFAULT_MIN_DELTA,
        diff_folded,
        format_diff,
        read_folded,
    )

    args = build_diff_parser().parse_args(argv)
    profiles = []
    for path in (args.base, args.new):
        try:
            profiles.append(read_folded(path))
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    diff = diff_folded(
        profiles[0], profiles[1], top_n=args.top,
        min_delta=(
            DEFAULT_MIN_DELTA if args.min_delta is None
            else args.min_delta
        ),
    )
    if args.json:
        print(json.dumps(diff, indent=2))
    else:
        print(format_diff(diff))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] == "merge":
            return _main_merge(list(argv[1:]))
        if argv and argv[0] == "diff-profile":
            return _main_diff(list(argv[1:]))
        args = build_parser().parse_args(argv)
        try:
            data = read_jsonl(args.trace)
        except OSError as exc:
            print(
                f"error: cannot read {args.trace}: {exc}", file=sys.stderr
            )
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(report_dict(data), indent=2, default=str))
        else:
            print(format_report(data, verbose=args.verbose))
    except BrokenPipeError:  # e.g. ``repro-trace out.jsonl | head``
        sys.stderr.close()  # suppress the interpreter's flush warning
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
