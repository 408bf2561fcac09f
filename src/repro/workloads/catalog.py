"""Media-format ladders and the transcoder-conversion pool."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.media.formats import MediaFormat
from repro.media.transcode import transcode_work


def default_formats() -> List[MediaFormat]:
    """A realistic 2005-era format ladder (codec x resolution x rate)."""
    return [
        MediaFormat("MPEG-2", 800, 600, 512.0),
        MediaFormat("MPEG-2", 640, 480, 256.0),
        MediaFormat("MPEG-2", 320, 240, 128.0),
        MediaFormat("MPEG-4", 640, 480, 128.0),
        MediaFormat("MPEG-4", 640, 480, 64.0),
        MediaFormat("MPEG-4", 320, 240, 96.0),
        MediaFormat("MPEG-4", 320, 240, 48.0),
        MediaFormat("H.263", 320, 240, 64.0),
        MediaFormat("MJPEG", 640, 480, 384.0),
    ]


#: Largest pixel-rate factor from a conversion's source to its output.
MAX_UPSCALE = 1.0


@dataclass
class MediaCatalog:
    """Formats plus the *type-level* conversion pool between them.

    A conversion (src -> dst) is considered offerable when it does not
    upscale by more than :data:`MAX_UPSCALE` in pixel rate — transcoders
    mostly shrink or re-encode streams.  Peers host *instances* of
    these conversions; the type pool also gives the reachability map the
    workload generator uses to pick goals that are achievable in
    principle.
    """

    formats: List[MediaFormat] = field(default_factory=default_formats)
    canonical_duration: float = 60.0

    def __post_init__(self) -> None:
        if len(self.formats) < 2:
            raise ValueError("need at least two formats")
        if self.canonical_duration <= 0:
            raise ValueError("canonical_duration must be positive")
        self._conversions: Optional[List[Tuple[MediaFormat, MediaFormat]]] = (
            None
        )

    # -- the conversion pool -------------------------------------------------
    def conversions(self) -> List[Tuple[MediaFormat, MediaFormat]]:
        """All offerable (src, dst) conversion types."""
        if self._conversions is None:
            out = []
            for src in self.formats:
                for dst in self.formats:
                    if src == dst:
                        continue
                    if dst.pixel_rate <= src.pixel_rate * MAX_UPSCALE:
                        out.append((src, dst))
            self._conversions = out
        return self._conversions

    def work_of(self, src: MediaFormat, dst: MediaFormat) -> float:
        """Canonical work of one conversion instance."""
        return transcode_work(src, dst, self.canonical_duration)

    def out_bytes_of(self, dst: MediaFormat) -> float:
        """Canonical output volume of a conversion into *dst*."""
        return dst.bytes_per_second() * self.canonical_duration

    # -- reachability -------------------------------------------------------------
    def reachable_from(
        self, src: MediaFormat, max_hops: int = 3
    ) -> List[MediaFormat]:
        """Formats reachable from *src* within ``max_hops`` conversions.

        Type-level reachability: whether *instances* exist on live peers
        is the allocator's problem; the workload only promises the goal
        is not structurally impossible.
        """
        adjacency: Dict[MediaFormat, List[MediaFormat]] = {}
        for a, b in self.conversions():
            adjacency.setdefault(a, []).append(b)
        seen = {src: 0}
        queue = deque([src])
        while queue:
            fmt = queue.popleft()
            depth = seen[fmt]
            if depth >= max_hops:
                continue
            for nxt in adjacency.get(fmt, ()):
                if nxt not in seen:
                    seen[nxt] = depth + 1
                    queue.append(nxt)
        seen.pop(src, None)
        return list(seen)

    def source_formats(self) -> List[MediaFormat]:
        """Formats suitable as *stored object* formats: the high-quality
        end of the ladder (top half by pixel rate x bitrate)."""
        ranked = sorted(
            self.formats,
            key=lambda f: f.pixel_rate * f.bitrate_kbps,
            reverse=True,
        )
        return ranked[: max(1, len(ranked) // 2)]
