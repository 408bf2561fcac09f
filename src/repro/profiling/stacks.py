"""Folded-stack aggregation with a bounded memory footprint.

The profiler's unit of storage is the *folded stack*: frames joined
root-first with ``;`` (``repro/sim/core.py:run;repro/net.py:_deliver``),
the flamegraph interchange format.  A :class:`StackAggregator` maps
folded stacks to (sample count, attributed seconds) with a hard ceiling
on distinct stacks — overflow collapses into an ``(other)`` bucket so a
pathological workload cannot grow the table without bound.

``to_folded()`` emits the classic ``stack count`` text consumed by
``flamegraph.pl`` / speedscope / inferno.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.sim.events import Timer

#: Catch-all bucket once ``max_stacks`` distinct stacks exist.
OTHER_KEY = "(other)"

#: Default ceiling on distinct folded stacks held in memory.
DEFAULT_MAX_STACKS = 4096


def shorten_path(path: str) -> str:
    """Compress a source path to its repo-relative tail.

    Keeps everything from the last ``repro`` component (the package
    root) when present, else the final two components.
    """
    parts = path.replace("\\", "/").split("/")
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[idx:])
    return "/".join(parts[-2:])


def format_frame(frame) -> str:
    """``path:function`` for one Python frame."""
    code = frame.f_code
    return f"{shorten_path(code.co_filename)}:{code.co_name}"


def fold_frames(frame, max_depth: int = 64) -> str:
    """Fold a leaf frame and its callers into one root-first stack."""
    names: List[str] = []
    f = frame
    while f is not None and len(names) < max_depth:
        names.append(format_frame(f))
        f = f.f_back
    names.reverse()
    return ";".join(names)


class StackAggregator:
    """Bounded ``folded stack -> (count, seconds)`` accumulator."""

    __slots__ = ("max_stacks", "_counts", "n_samples", "truncated")

    def __init__(self, max_stacks: int = DEFAULT_MAX_STACKS) -> None:
        if max_stacks < 1:
            raise ValueError(f"max_stacks must be >= 1, got {max_stacks}")
        self.max_stacks = int(max_stacks)
        # folded stack -> [count, seconds]
        self._counts: Dict[str, List[float]] = {}
        self.n_samples = 0
        #: Samples routed into the ``(other)`` bucket.
        self.truncated = 0

    def add(self, folded: str, count: float = 1.0,
            seconds: float = 0.0) -> None:
        entry = self._counts.get(folded)
        if entry is None:
            if len(self._counts) >= self.max_stacks:
                self.truncated += 1
                folded = OTHER_KEY
                entry = self._counts.get(folded)
                if entry is None:
                    entry = self._counts[folded] = [0.0, 0.0]
            else:
                entry = self._counts[folded] = [0.0, 0.0]
        entry[0] += count
        entry[1] += seconds
        self.n_samples += 1

    def __len__(self) -> int:
        return len(self._counts)

    @property
    def unique_stacks(self) -> int:
        return len(self._counts)

    def top(
        self, n: int = 10, by: str = "count"
    ) -> List[Tuple[str, float, float]]:
        """The *n* hottest stacks as ``(stack, count, seconds)``."""
        idx = 1 if by == "seconds" else 0
        rows = sorted(
            (
                (stack, entry[0], entry[1])
                for stack, entry in self._counts.items()
            ),
            key=lambda row: (-row[idx + 1], row[0]),
        )
        return rows[:n]

    @property
    def total_count(self) -> float:
        """Sum of all stack weights (== n_samples for unit adds)."""
        return sum(entry[0] for entry in self._counts.values())

    def share(self, count: float) -> float:
        """A stack weight as a fraction of the total weight."""
        total = self.total_count
        return count / total if total else 0.0

    # -- export -------------------------------------------------------------
    def to_folded(self) -> str:
        """The flamegraph folded-stack text (``stack count`` lines)."""
        lines = [
            f"{stack} {max(1, round(entry[0]))}"
            for stack, entry in sorted(
                self._counts.items(), key=lambda kv: (-kv[1][0], kv[0])
            )
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_folded(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_folded())
        return path

    def record(self, top_n: int = 20) -> Dict[str, Any]:
        """JSON-ready summary (embedded in the ``profile`` trace record)."""
        return {
            "samples": self.n_samples,
            "unique_stacks": self.unique_stacks,
            "truncated": self.truncated,
            "top": [
                {
                    "stack": stack,
                    "count": round(count, 3),
                    "seconds": round(seconds, 6),
                    "share": round(self.share(count), 4),
                }
                for stack, count, seconds in self.top(top_n)
            ],
        }

    def publish(self, metrics, top_n: int = 5,
                prefix: str = "repro_prof") -> None:
        """Export aggregate + top-N hot-path gauges to *metrics*."""
        metrics.gauge(
            f"{prefix}_samples",
            help="Profile samples aggregated so far.",
        ).set(self.n_samples)
        metrics.gauge(
            f"{prefix}_unique_stacks",
            help="Distinct folded stacks held (bounded by max_stacks).",
        ).set(self.unique_stacks)
        metrics.gauge(
            f"{prefix}_truncated",
            help="Samples collapsed into the (other) bucket.",
        ).set(self.truncated)
        for rank, (stack, count, _seconds) in enumerate(
            self.top(top_n), start=1
        ):
            metrics.gauge(
                f"{prefix}_hot_share",
                help="Fraction of samples landing in this hot path.",
                rank=str(rank), stack=stack,
            ).set(round(self.share(count), 4))

    def __repr__(self) -> str:
        return (
            f"<StackAggregator stacks={self.unique_stacks} "
            f"samples={self.n_samples}>"
        )


def describe_callback(cb) -> Optional[str]:
    """A low-cardinality label for an event callback target.

    Bound methods of a :class:`~repro.sim.events.Process` resolve to the
    process generator's code location (``path:function``); a
    :class:`~repro.sim.events.Timer`'s to its body (``Profiler._sample``);
    other bound methods to ``Class.method``; plain functions to their
    qualname.  Instance names are deliberately ignored — per-peer names
    would blow up stack cardinality.
    """
    owner = getattr(cb, "__self__", None)
    if isinstance(owner, Timer):
        return describe_callback(owner.body)
    if owner is not None:
        gen = getattr(owner, "generator", None)
        code = getattr(gen, "gi_code", None)
        if code is not None:
            return f"{shorten_path(code.co_filename)}:{code.co_name}"
        method = getattr(cb, "__name__", "?")
        return f"{type(owner).__name__}.{method}"
    qual = getattr(cb, "__qualname__", None)
    if qual:
        return qual
    return getattr(cb, "__name__", None)


def describe_dispatch(event, callbacks) -> str:
    """Folded stack for one sim event dispatch.

    Event-count sampling has no call stack to walk (the kernel loop *is*
    the stack), so the synthetic three-frame stack is
    ``sim.dispatch;<EventType>;<first callback target>`` — enough to see
    which event kinds and handlers dominate the run.
    """
    target = None
    for cb in callbacks or ():
        target = describe_callback(cb)
        if target is not None:
            break
    if target is None:
        target = "(no-callbacks)"
    extra = len(callbacks) - 1 if callbacks else 0
    suffix = f" (+{extra})" if extra > 0 else ""
    return f"sim.dispatch;{type(event).__name__};{target}{suffix}"
