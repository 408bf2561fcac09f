"""Where cyclic GC time goes: collections and seconds per generation.

The collector runs inside whichever allocation tripped its threshold,
so neither cProfile nor a stack sampler books its time to it.  A
``gc.callbacks`` hook brackets every collection instead: it costs two
``perf_counter`` calls per collection and nothing in between.
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple


class GCProbe:
    """Counts collections and their seconds per generation while
    attached (from construction until :meth:`stop`)."""

    def __init__(self) -> None:
        self.collections: List[int] = [0, 0, 0]
        self.seconds: List[float] = [0.0, 0.0, 0.0]
        self.collected = 0  # unreachable objects the collections found
        self._t0 = perf_counter()
        self._wall: Optional[float] = None
        #: Start of the collection in progress; None between them, and
        #: for one attached (from another thread) mid-collection.
        self._started: Optional[float] = None
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = perf_counter()
        elif self._started is not None:
            gen = info["generation"]
            self.collections[gen] += 1
            self.seconds[gen] += perf_counter() - self._started
            self.collected += info["collected"] + info["uncollectable"]
            self._started = None

    def stop(self) -> None:
        """Detach (idempotent); the tallies stay readable."""
        if self._wall is None:
            self._wall = perf_counter() - self._t0
            gc.callbacks.remove(self._on_gc)

    def record(self) -> Dict[str, Any]:
        """The ``gc`` block of the ``profile`` record."""
        wall = self._wall if self._wall is not None else (
            perf_counter() - self._t0
        )
        return {
            "collections": list(self.collections),
            "seconds": [round(s, 6) for s in self.seconds],
            "share": round(sum(self.seconds) / wall, 5),
        }


def garbage_left_by(run: Callable[[], Any]) -> Tuple[Any, int]:
    """``run()``'s result and the objects it left to the cyclic
    collector, which stays on (its pauses are run time).  The result is
    alive in the closing collection, so what it holds is not counted."""
    gc.collect()
    probe = GCProbe()
    try:
        result = run()
        gc.collect()
    finally:
        probe.stop()
    return result, probe.collected


def format_gc(block: Dict[str, Any]) -> str:
    """One ``cyclic GC`` report row from a ``gc`` block."""
    counts = "/".join(str(n) for n in block["collections"])
    secs = "/".join(f"{s:.3f}" for s in block["seconds"])
    return (
        f"cyclic GC: {counts} collections, {secs} s (gen 0/1/2); "
        f"{block['share']:.1%} of wall"
    )
