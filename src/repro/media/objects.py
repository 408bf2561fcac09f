"""Media objects: the data items stored at peers (paper §3.1 item 5)."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.media.formats import MediaFormat


def _content_hash(name: str, fmt: MediaFormat) -> str:
    digest = hashlib.sha256(f"{name}|{fmt.label()}".encode()).hexdigest()
    return digest[:16]


@dataclass(frozen=True)
class MediaObject:
    """A stored media item, identified by name + source format.

    The metadata mirrors the paper's list: hash value, bitrate,
    resolution, codec — plus duration, from which the object's size and
    per-hop transfer volumes are derived.
    """

    name: str
    fmt: MediaFormat
    duration_s: float = 60.0
    content_hash: str = field(default="")

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError(f"invalid duration {self.duration_s}")
        if not self.content_hash:
            object.__setattr__(
                self, "content_hash", _content_hash(self.name, self.fmt)
            )

    @property
    def size_bytes(self) -> float:
        """Encoded size at the source format."""
        return self.fmt.bytes_per_second() * self.duration_s

    def __str__(self) -> str:
        return f"{self.name}[{self.fmt.label()}]"
