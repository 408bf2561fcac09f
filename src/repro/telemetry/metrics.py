"""The metrics registry: counters, gauges, histograms + exporters.

A :class:`MetricsRegistry` hands out label-scoped instruments on demand
(`registry.counter("repro_udp_retransmits_total", node="P1").inc()`),
following
the Prometheus data model: a *family* is one name + instrument type, a
*series* is a family plus a concrete label set.  Two export formats:

* ``snapshot()`` — plain dicts, one per series, written into the JSONL
  trace file alongside spans and events;
* ``to_prometheus_text()`` — the Prometheus text exposition format, for
  scraping or eyeballing.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Default histogram bucket upper bounds (seconds-flavoured).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counters only go up, got {n}")
        self.value += n


class Gauge:
    """A value that can go up and down."""

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def inc(self, n: float = 1.0) -> None:
        self.value += n


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(sorted(buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        #: Per-bound non-cumulative counts; +inf overflow kept separately.
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.sum = 0.0
        self.count = 0

    def observe(self, v: float) -> None:
        self.sum += v
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if v <= bound:
                self.counts[i] += 1
                return
        self.overflow += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """(upper bound, cumulative count) pairs, +inf last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.overflow))
        return out

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create registry of labelled instruments."""

    def __init__(self) -> None:
        #: family name -> instrument type ("counter"/"gauge"/"histogram").
        self._types: Dict[str, str] = {}
        self._series: Dict[Tuple[str, _LabelKey], Any] = {}
        self._help: Dict[str, str] = {}

    # -- instrument access -------------------------------------------------
    def _get(
        self, name: str, type_: str, factory, labels: Dict[str, Any],
        help_: str = "",
    ):
        seen = self._types.get(name)
        if seen is None:
            self._types[name] = type_
            if help_:
                self._help[name] = help_
        elif seen != type_:
            raise ValueError(
                f"metric {name!r} already registered as {seen}, not {type_}"
            )
        key = (name, _label_key(labels))
        inst = self._series.get(key)
        if inst is None:
            inst = self._series[key] = factory()
        return inst

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._get(name, "counter", Counter, labels, help)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._get(name, "gauge", Gauge, labels, help)

    def histogram(
        self,
        name: str,
        buckets: Optional[Iterable[float]] = None,
        help: str = "",
        **labels: Any,
    ) -> Histogram:
        return self._get(
            name, "histogram",
            lambda: Histogram(buckets or DEFAULT_BUCKETS), labels, help,
        )

    # -- introspection -----------------------------------------------------
    def value(self, name: str, **labels: Any) -> Optional[float]:
        """Scalar value of one series (histograms report their sum)."""
        inst = self._series.get((name, _label_key(labels)))
        if inst is None:
            return None
        if isinstance(inst, Histogram):
            return inst.sum
        return inst.value

    def total(self, name: str) -> float:
        """Sum of a family's scalar values across all label sets."""
        total = 0.0
        for (fam, _), inst in self._series.items():
            if fam != name:
                continue
            total += inst.sum if isinstance(inst, Histogram) else inst.value
        return total

    def clear(self) -> None:
        self._types.clear()
        self._series.clear()
        self._help.clear()

    def __len__(self) -> int:
        return len(self._series)

    # -- exporters ---------------------------------------------------------
    def snapshot(self) -> List[Dict[str, Any]]:
        """One plain dict per series (the JSONL ``metric`` records)."""
        out: List[Dict[str, Any]] = []
        for (name, key) in sorted(self._series):
            inst = self._series[(name, key)]
            rec: Dict[str, Any] = {
                "name": name,
                "type": self._types[name],
                "labels": dict(key),
            }
            if isinstance(inst, Histogram):
                rec["sum"] = inst.sum
                rec["count"] = inst.count
                rec["buckets"] = [
                    [b if b != float("inf") else "+Inf", n]
                    for b, n in inst.cumulative()
                ]
            else:
                rec["value"] = inst.value
            out.append(rec)
        return out

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format."""
        lines: List[str] = []
        by_family: Dict[str, List[Tuple[_LabelKey, Any]]] = {}
        for (name, key), inst in self._series.items():
            by_family.setdefault(name, []).append((key, inst))
        for name in sorted(by_family):
            help_ = self._help.get(name)
            if help_:
                lines.append(f"# HELP {name} {help_}")
            lines.append(f"# TYPE {name} {self._types[name]}")
            for key, inst in sorted(by_family[name]):
                if isinstance(inst, Histogram):
                    for bound, n in inst.cumulative():
                        le = "+Inf" if bound == float("inf") else f"{bound:g}"
                        lines.append(
                            f"{name}_bucket{_fmt_labels(key, le=le)} {n}"
                        )
                    lines.append(
                        f"{name}_sum{_fmt_labels(key)} {inst.sum:g}"
                    )
                    lines.append(
                        f"{name}_count{_fmt_labels(key)} {inst.count}"
                    )
                else:
                    lines.append(
                        f"{name}{_fmt_labels(key)} {_fmt_value(inst.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def bucket_quantile(buckets: List[List[Any]], q: float) -> float:
    """q-quantile estimate from cumulative ``[[bound, count], ...]``.

    Accepts the snapshot/JSONL bucket encoding, where the +inf bound is
    the string ``"+Inf"`` and counts are cumulative.  Linear
    interpolation within the crossing bucket, Prometheus-style; the
    overflow bucket clamps to the highest finite bound.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    parsed: List[Tuple[float, float]] = []
    for bound, n in buckets:
        b = float("inf") if bound == "+Inf" else float(bound)
        parsed.append((b, float(n)))
    parsed.sort(key=lambda bn: bn[0])
    if not parsed or parsed[-1][1] <= 0:
        return 0.0
    total = parsed[-1][1]
    rank = q * total
    prev_bound = min(0.0, parsed[0][0])
    prev_count = 0.0
    for bound, count in parsed:
        if count >= rank:
            if bound == float("inf"):
                # Overflow bucket: no upper edge to interpolate toward.
                return prev_bound
            if count == prev_count:
                return bound
            frac = (rank - prev_count) / (count - prev_count)
            return prev_bound + frac * (bound - prev_bound)
        prev_bound, prev_count = bound, count
    return prev_bound


def _fmt_value(v: float) -> str:
    """``%g`` where it is exact, else every digit (a large counter or a
    long fraction must not lose precision on the way out)."""
    text = f"{v:g}"
    return text if float(text) == v else repr(float(v))


def _fmt_labels(key: _LabelKey, **extra: str) -> str:
    pairs = list(key) + sorted(extra.items())
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _escape(v: str) -> str:
    return v.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
