"""Quantiles and run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence

#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-quantile; refuses a tail it cannot support.

    The choosing-metrics rule: report the highest percentile that has
    at least ten samples beyond it.  Asking for p90 of 60 samples is a
    bug in the workload's sizing, not something to paper over.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile {q} outside (0, 1)")
    n = len(samples)
    beyond = n - math.ceil(q * n)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q * 100:g} of {n} samples leaves {beyond} beyond it "
            f"(need {MIN_TAIL_SAMPLES})"
        )
    return sorted(samples)[math.ceil(q * n) - 1]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median.

    The same arithmetic the acceptance driver applies to ten runs.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def summarize(values: List[float]) -> Dict[str, float]:
    lo, hi = min(values), max(values)
    return {
        "min": lo,
        "median": statistics.median(values),
        "max": hi,
        "max_over_min": hi / lo if lo else math.inf,
        "spread": spread(values) if len(values) >= 2 else 0.0,
    }
