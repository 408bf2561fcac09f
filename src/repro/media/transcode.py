"""Transcoder services and their CPU cost model.

A transcoder converts a stream from one :class:`MediaFormat` to another.
Its CPU *work* (abstract work units; a peer with processing power ``P``
executes ``P`` work units per second) for a stream of ``duration_s``
seconds is::

    work = duration_s * (c_dec * in.complexity * in.megapixel_rate
                         + c_enc * out.complexity * out.megapixel_rate
                         + c_scale * |in.pixel_rate - out.pixel_rate| / 1e6)

i.e. decode cost at the input format, encode cost at the output format,
and a resampling term for resolution changes.  The coefficients live in
:class:`TranscodingCostModel` so experiments can calibrate them; defaults
make a full 800x600 MPEG-2 -> 640x480 MPEG-4 transcode of one stream-
second cost ~1 work unit, so a peer with power 10 sustains ~10 concurrent
real-time transcodes of that kind.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.media.formats import MediaFormat

@dataclass
class TranscodingCostModel:
    """Coefficients of the transcoding work model (work units per Mpixel)."""

    c_dec: float = 0.008
    c_enc: float = 0.020
    c_scale: float = 0.004

    def work_per_second(self, src: MediaFormat, dst: MediaFormat) -> float:
        """Work units to transcode one second of stream from src to dst."""
        mp_in = src.pixel_rate / 1e6
        mp_out = dst.pixel_rate / 1e6
        return (
            self.c_dec * src.complexity * mp_in
            + self.c_enc * dst.complexity * mp_out
            + self.c_scale * abs(src.pixel_rate - dst.pixel_rate) / 1e6
        )

    def work(
        self, src: MediaFormat, dst: MediaFormat, duration_s: float
    ) -> float:
        """Total work for a stream of *duration_s* seconds."""
        if duration_s <= 0:
            raise ValueError(f"invalid duration {duration_s}")
        return self.work_per_second(src, dst) * duration_s


@dataclass(frozen=True)
class TranscoderSpec:
    """One transcoding service type: a directed format conversion.

    These are the *services* ``S_ij`` a processor can offer (paper §3.1
    item 6); instances of a spec hosted at specific peers become the
    edges of the resource graph.
    """

    src: MediaFormat
    dst: MediaFormat
    name: str = ""

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("transcoder source and destination formats equal")
        if not self.name:
            object.__setattr__(
                self, "name", f"{self.src.label()}->{self.dst.label()}"
            )

    def work(
        self, duration_s: float, model: TranscodingCostModel | None = None
    ) -> float:
        """CPU work to run this conversion on *duration_s* of stream."""
        m = model if model is not None else TranscodingCostModel()
        return m.work(self.src, self.dst, duration_s)

    def output_bytes(self, duration_s: float) -> float:
        """Bytes produced (what the next hop must receive)."""
        return self.dst.bytes_per_second() * duration_s

    def __str__(self) -> str:
        return self.name
