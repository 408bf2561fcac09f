"""Shared identifiers, errors and small utilities."""

from repro.common.errors import (
    AllocationError,
    NoFeasibleAllocation,
    ReproError,
    UnknownPeer,
)
from repro.common.util import EWMA, fmt_table, percentile

__all__ = [
    "AllocationError",
    "EWMA",
    "NoFeasibleAllocation",
    "ReproError",
    "UnknownPeer",
    "fmt_table",
    "percentile",
]
