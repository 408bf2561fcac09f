"""Small shared utilities: smoothing, clamping, tables and sparklines."""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence


class EWMA:
    """Exponentially weighted moving average.

    Used by the Profiler to smooth instantaneous load samples, matching
    the paper's "current processor load" that tolerates measurement noise.

    Parameters
    ----------
    alpha:
        Weight of the newest sample, in ``(0, 1]``. ``alpha=1`` disables
        smoothing.
    initial:
        Starting value; if ``None`` the first update seeds the average.
    """

    __slots__ = ("alpha", "value")

    def __init__(self, alpha: float = 0.3, initial: Optional[float] = None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value: Optional[float] = initial

    def update(self, sample: float) -> float:
        """Fold in one sample and return the new average."""
        if self.value is None:
            self.value = float(sample)
        else:
            self.value += self.alpha * (sample - self.value)
        return self.value

    def get(self, default: float = 0.0) -> float:
        """Current average, or *default* before any sample."""
        return default if self.value is None else self.value


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation.

    Avoids a NumPy round-trip for the short sequences metrics code uses.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(ordered[lo])
    frac = pos - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


def fmt_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    floatfmt: str = ".3f",
) -> str:
    """Render an aligned plain-text table (experiment harness output)."""
    def render(cell: object) -> str:
        if isinstance(cell, float):
            return format(cell, floatfmt)
        return str(cell)

    str_rows = [[render(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int | None = None) -> str:
    """A one-line unicode chart of *values* (e.g. fairness over time).

    Values are min-max normalized; ``width`` (if given) downsamples by
    bucket-averaging so long series stay one terminal line.
    """
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if width is not None and width > 0 and len(vals) > width:
        bucket = len(vals) / width
        vals = [
            sum(vals[int(i * bucket):max(int((i + 1) * bucket),
                                         int(i * bucket) + 1)])
            / max(int((i + 1) * bucket) - int(i * bucket), 1)
            for i in range(width)
        ]
    lo, hi = min(vals), max(vals)
    if hi - lo < 1e-12:
        return _BLOCKS[len(_BLOCKS) // 2] * len(vals)
    scale = (len(_BLOCKS) - 1) / (hi - lo)
    return "".join(_BLOCKS[int((v - lo) * scale)] for v in vals)
