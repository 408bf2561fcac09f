"""The CPU cost model of a transcoder.

A transcoder converts a stream from one :class:`MediaFormat` to another.
Its CPU *work* (abstract work units; a peer with processing power ``P``
executes ``P`` work units per second) for a stream of ``duration_s``
seconds is::

    work = duration_s * (C_DEC * in.complexity * in.megapixel_rate
                         + C_ENC * out.complexity * out.megapixel_rate
                         + C_SCALE * |in.pixel_rate - out.pixel_rate| / 1e6)

i.e. decode cost at the input format, encode cost at the output format,
and a resampling term for resolution changes.  The coefficients are the
module constants below: a full 800x600 MPEG-2 -> 640x480 MPEG-4
transcode of one stream-second costs ~1 work unit, so a peer with power
10 sustains ~10 concurrent real-time transcodes of that kind.
"""

from __future__ import annotations

from repro.media.formats import MediaFormat

#: Work units per decoded Mpixel (times the input codec's complexity).
C_DEC = 0.008
#: Work units per encoded Mpixel (times the output codec's complexity).
C_ENC = 0.020
#: Work units per Mpixel of resolution change.
C_SCALE = 0.004


def transcode_work(
    src: MediaFormat, dst: MediaFormat, duration_s: float
) -> float:
    """Work units to transcode *duration_s* seconds of stream from
    *src* to *dst*."""
    if duration_s <= 0:
        raise ValueError(f"invalid duration {duration_s}")
    mp_in = src.pixel_rate / 1e6
    mp_out = dst.pixel_rate / 1e6
    per_second = (
        C_DEC * src.complexity * mp_in
        + C_ENC * dst.complexity * mp_out
        + C_SCALE * abs(src.pixel_rate - dst.pixel_rate) / 1e6
    )
    return per_second * duration_s
