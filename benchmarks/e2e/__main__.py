"""Command line of the end-to-end benchmark.

One workload runs in this process and prints two JSON lines: its
details (per-repetition counts, raw counters, drops per kind), then the
result line the benchmark contract asks for.  ``--all`` and
``--repeat`` start one fresh process per run, so no run inherits
another's heap, caches or peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
#: Per-run length the driver passes as ``--seconds``: three repetitions
#: of ~6 s measured window each.
DEFAULT_SECONDS = 18.0
#: ``--quick``: the whole suite in under 20 s — one short repetition,
#: two workloads at a time — so its numbers are not comparable.
QUICK_SECONDS = 6.6
QUICK_REPETITIONS = 1
QUICK_PARALLEL = 2


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e2e", description=__doc__.split("\n")[0],
    )
    p.add_argument("--workload", action="append", default=[],
                   help="workload name (repeatable)")
    p.add_argument("--all", action="store_true",
                   help="run the five workloads in order")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=None,
                   help=f"measured seconds per run (default "
                        f"{DEFAULT_SECONDS:g}); work scales with it")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1),
                   help="1: the traced run, printing per-layer metrics "
                        "and writing out/trace-<workload>.jsonl")
    p.add_argument("--repeat", type=int, default=None, metavar="N",
                   help="run each workload N times (seeds seed..seed+N-1) "
                        "in fresh processes and report the spread of "
                        "every end-to-end metric against its bound; sim "
                        "workloads run the first seed once more and must "
                        "reproduce its simulated-clock metrics exactly")
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes, every check exercised, output "
                        "stamped comparable=false")
    return p


def _run_here(args: argparse.Namespace, name: str) -> int:
    from benchmarks.e2e import runner

    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    if args.trace:
        result = runner.run_traced(name, args.seed, seconds)
        units = runner.per_layer_units()
    else:
        result = runner.run_untraced(
            name, args.seed, seconds,
            QUICK_REPETITIONS if args.quick else runner.REPETITIONS,
        )
        units = runner.END_TO_END_UNITS
    final = result.final_line(units)
    if args.quick:
        result.detail["comparable"] = final["comparable"] = False
    result.detail["problems"] = result.problems
    print(json.dumps(result.detail))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def _child(args: argparse.Namespace, name: str, seed: int) -> Optional[Dict]:
    """Run one workload in a fresh process; its result line, or None."""
    cmd = [sys.executable, "-m", "benchmarks.e2e", "--workload", name,
           "--seed", str(seed), "--trace", str(args.trace)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if lines:
        print(f"{name} seed={seed} {lines[-1]}", flush=True)
    if proc.returncode != 0 or not lines:
        print(f"{name} seed={seed}: exit {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _bounds() -> Dict[str, Dict[str, Any]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return {m["name"]: m for m in json.load(fp)["end_to_end"]}


def _repeat_report(runs: Dict[str, List[Dict]]) -> int:
    """Print min / median / max, max/min, spread and bound; the number
    of workload x metric pairs whose spread exceeds the bound."""
    from benchmarks.e2e.stats import summarize

    bounds = _bounds()
    over = 0
    print(f"{'workload':12} {'metric':20} {'min':>11} {'median':>11} "
          f"{'max':>11} {'max/min':>8} {'spread':>8} {'bound':>6}")
    for name, results in runs.items():
        for metric, spec in bounds.items():
            s = summarize([r["metrics"][metric]["value"] for r in results])
            flag = ""
            if s["spread"] > spec["bound"]:
                over += 1
                flag = "  OVER"
            print(f"{name:12} {metric:20} {s['min']:11.4f} "
                  f"{s['median']:11.4f} {s['max']:11.4f} "
                  f"{s['max_over_min']:8.3f} {s['spread']:8.4f} "
                  f"{spec['bound']:6.3f}{flag}")
    return over


#: On ``sim_*`` these are on the simulated clock: a fingerprint of the
#: modelled system, which one seed must reproduce bit for bit.
SIMULATED_METRICS = ("task_latency_p50_ms", "task_latency_p90_ms", "ok_share")


def _fingerprint_drift(name: str, seed: int, a: Dict, b: Dict) -> int:
    """How many simulated-clock metrics two runs of one seed disagree on."""
    drift = 0
    for metric in SIMULATED_METRICS:
        x, y = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
        if x != y:
            drift += 1
            print(f"{name} seed={seed}: {metric} {x!r} != {y!r} on the "
                  f"same seed", file=sys.stderr)
    return drift


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.quick and args.trace:
        parser.error("--quick is too small to trace; drop one of the two")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("benchmarks.e2e: src/repro not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from benchmarks.e2e.runner import WORKLOADS

    names = list(WORKLOADS) if args.all else args.workload
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or not names:
        print(f"benchmarks.e2e: choose --workload from {list(WORKLOADS)} "
              f"or --all (got {unknown})", file=sys.stderr)
        return 2
    if len(names) == 1 and args.repeat is None:
        return _run_here(args, names[0])

    report = bool(args.repeat and args.repeat >= 2 and not args.trace)
    jobs = [
        (name, args.seed + i)
        for name in names for i in range(args.repeat or 1)
    ]
    # The bounds are relative and the seeds differ, so "exact" is
    # checked on its own: one more run of each sim workload's first seed.
    reruns = [
        (name, args.seed) for name in names
        if report and name.startswith("sim_")
    ]
    with ThreadPoolExecutor(QUICK_PARALLEL if args.quick else 1) as pool:
        results = list(pool.map(lambda job: _child(args, *job), jobs + reruns))
    failed = sum(1 for r in results if r is None or not r["correct"])
    if failed or not report:
        return 1 if failed else 0
    runs: Dict[str, List[Dict]] = {name: [] for name in names}
    for (name, _), result in zip(jobs, results):
        runs[name].append(result)
    for (name, seed), again in zip(reruns, results[len(jobs):]):
        failed += _fingerprint_drift(name, seed, runs[name][0], again)
    failed += _repeat_report(runs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
