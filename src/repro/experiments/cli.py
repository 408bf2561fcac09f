"""Command-line entry point: run reproduction experiments.

::

    repro-experiments --list
    repro-experiments f1 e1 e5 --quick
    repro-experiments all --quick
"""

from __future__ import annotations

import argparse
import csv
import functools
import importlib
import io
import json
import os
import sys
import time
from typing import Callable, Tuple

from repro.experiments import EXPERIMENTS, FIGURES, SWEEPS
from repro.experiments.base import ExperimentResult


def load(exp_id: str) -> Tuple[str, Callable[..., ExperimentResult]]:
    """An experiment's description and its ``run(quick=False)``."""
    if exp_id in SWEEPS:
        sweep = SWEEPS[exp_id]
        return sweep.measure.__doc__, functools.partial(sweep.run, exp_id)
    module = importlib.import_module(FIGURES[exp_id])
    return module.__doc__, module.run


def result_to_csv(result: ExperimentResult) -> str:
    """Render a result's table as CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(result.headers)
    for row in result.rows:
        writer.writerow(row)
    return buf.getvalue()


def result_to_json(result: ExperimentResult) -> str:
    """Render a result (table + notes) as a JSON document."""
    doc = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "headers": result.headers,
        "rows": [
            [cell if not hasattr(cell, "item") else cell.item()
             for cell in row]
            for row in result.rows
        ],
        "notes": list(result.notes),
    }
    return json.dumps(doc, indent=2, default=str)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation of 'Adaptive Resource Management "
            "in Peer-to-Peer Middleware' (IPPS 2005)."
        ),
    )
    parser.add_argument(
        "experiments", nargs="*",
        help="experiment ids (f1-f3, e1-e13) or 'all'",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small durations / single replication (CI mode)",
    )
    parser.add_argument(
        "--json", metavar="DIR",
        help="also write each result as DIR/<id>.json",
    )
    parser.add_argument(
        "--csv", metavar="DIR",
        help="also write each result table as DIR/<id>.csv",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list or not args.experiments:
        print("available experiments:")
        for exp_id in EXPERIMENTS:
            doc = load(exp_id)[0].strip().splitlines()[0]
            print(f"  {exp_id:4s} {doc}")
        return 0

    wanted = (
        list(EXPERIMENTS)
        if "all" in args.experiments
        else args.experiments
    )
    unknown = [e for e in wanted if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"known: {list(EXPERIMENTS)}", file=sys.stderr)
        return 2

    for exp_id in wanted:
        run = load(exp_id)[1]
        start = time.time()
        result = run(quick=args.quick)
        elapsed = time.time() - start
        print(result.render())
        print(f"  ({elapsed:.1f}s wall)\n")
        if args.json:
            os.makedirs(args.json, exist_ok=True)
            path = os.path.join(args.json, f"{exp_id}.json")
            with open(path, "w", encoding="utf-8") as fp:
                fp.write(result_to_json(result))
        if args.csv:
            os.makedirs(args.csv, exist_ok=True)
            path = os.path.join(args.csv, f"{exp_id}.csv")
            with open(path, "w", encoding="utf-8") as fp:
                fp.write(result_to_csv(result))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
