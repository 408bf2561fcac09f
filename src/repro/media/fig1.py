"""The exact Figure-1 example scenario from the paper.

§4.3: *"Let us assume a source that is transmitting 800x600 MPEG-2
video, at 512 Kbps and a user that wants to view that video in 640x480
MPEG-4, at 64Kbps. Our goal is to find a path from v1 (which represents
the format of the source) to v3. In this example, we can follow any of
the {e1,e2}, {e1,e3} or {e1,e4,e5,e8}."*

The figure itself shows a five-state, eight-edge resource graph.  The
supplied text names the three candidate paths and the endpoints; the
intermediate formats are not printed in the text, so we pick plausible
ones (documented below) that reproduce the *topology* exactly: under the
Fig-3 BFS, precisely the three quoted paths are found, with ``e2``/``e3``
parallel edges and ``e6``/``e7`` present but not on any candidate path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable

from repro.graphs.resource_graph import ResourceGraph
from repro.media.formats import MediaFormat
from repro.media.objects import MediaObject
from repro.media.transcode import transcode_work

#: v1 — the source format quoted in the paper.
V1 = MediaFormat("MPEG-2", 800, 600, 512.0)
#: v2 — intermediate: source codec down-scaled to the target resolution.
V2 = MediaFormat("MPEG-2", 640, 480, 256.0)
#: v3 — the requested format quoted in the paper.
V3 = MediaFormat("MPEG-4", 640, 480, 64.0)
#: v4 — low-resolution detour state.
V4 = MediaFormat("MPEG-2", 320, 240, 128.0)
#: v5 — low-resolution MPEG-4 state.
V5 = MediaFormat("MPEG-4", 320, 240, 96.0)

#: Edge topology of Figure 1(A): edge id -> (src state, dst state, peer).
FIG1_EDGES: Dict[str, tuple[MediaFormat, MediaFormat, str]] = {
    "e1": (V1, V2, "P1"),
    "e2": (V2, V3, "P2"),
    "e3": (V2, V3, "P3"),
    "e4": (V2, V4, "P2"),
    "e5": (V4, V5, "P4"),
    "e6": (V3, V4, "P3"),
    "e7": (V4, V2, "P4"),
    "e8": (V5, V3, "P1"),
}

#: The candidate paths quoted in §4.3, in the order the text lists them.
FIG1_CANDIDATE_PATHS = [
    ["e1", "e2"],
    ["e1", "e3"],
    ["e1", "e4", "e5", "e8"],
]


@dataclass
class Fig1Scenario:
    """The built example: graph, endpoints, the streamed object."""

    graph: ResourceGraph
    v_init: Hashable
    v_sol: Hashable
    source_object: MediaObject
    peers: list[str]


def build_fig1_graph(duration_s: float = 60.0) -> Fig1Scenario:
    """Construct the Figure-1 resource graph.

    Parameters
    ----------
    duration_s:
        Stream duration; edge work and output bytes scale with it.
    """
    graph = ResourceGraph()
    for state in (V1, V2, V3, V4, V5):
        graph.add_state(state)
    for edge_id, (src, dst, peer) in FIG1_EDGES.items():
        graph.add_service(
            src,
            dst,
            service_id=f"T-{edge_id}",
            peer_id=peer,
            work=transcode_work(src, dst, duration_s),
            out_bytes=dst.bytes_per_second() * duration_s,
            edge_id=edge_id,
        )
    source = MediaObject("movie", V1, duration_s=duration_s)
    return Fig1Scenario(
        graph=graph,
        v_init=V1,
        v_sol=V3,
        source_object=source,
        peers=["P1", "P2", "P3", "P4"],
    )
