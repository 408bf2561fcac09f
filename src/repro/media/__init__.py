"""Media-streaming and transcoding workload model.

The paper's motivating application: media objects stored at peers must be
delivered to users in a requested format; *transcoding services* hosted at
peers convert between formats (codec, resolution, bitrate).  This package
models formats, media objects with metadata (paper §3.1 item 5: "hash
value, bitrate, resolution, codec"), transcoder services and their CPU
cost, and provides the exact Figure-1 example scenario.

The substitution for real transcoders (see DESIGN.md): only the *cost
structure* of transcoding matters to resource management, so a transcoder
is a (input-format, output-format, work-model) triple, where work scales
with stream duration, output pixel rate and codec complexity.
"""

from repro.media.formats import CODEC_COMPLEXITY, MediaFormat
from repro.media.objects import MediaObject
from repro.media.transcode import transcode_work

__all__ = [
    "CODEC_COMPLEXITY",
    "MediaFormat",
    "MediaObject",
    "transcode_work",
]
