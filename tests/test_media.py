"""Media formats, objects, and the transcoding cost model."""

import pytest

from repro.media import MediaFormat, MediaObject, transcode_work
from repro.media.fig1 import (
    FIG1_CANDIDATE_PATHS,
    FIG1_EDGES,
    V1,
    V3,
    build_fig1_graph,
)
from repro.graphs import iter_paths


class TestMediaFormat:
    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError):
            MediaFormat("VP9", 640, 480, 100.0)

    def test_bad_resolution_rejected(self):
        with pytest.raises(ValueError):
            MediaFormat("MPEG-2", 0, 480, 100.0)

    def test_bad_bitrate_rejected(self):
        with pytest.raises(ValueError):
            MediaFormat("MPEG-2", 640, 480, 0.0)

    def test_pixel_rate(self):
        f = MediaFormat("MPEG-2", 100, 100, 64.0, fps=10.0)
        assert f.pixel_rate == 100 * 100 * 10

    def test_bytes_per_second(self):
        f = MediaFormat("MPEG-2", 640, 480, 8.0)  # 8 kbit/s = 1000 B/s
        assert f.bytes_per_second() == pytest.approx(1000.0)

    def test_label_and_str(self):
        f = MediaFormat("MPEG-4", 640, 480, 64.0)
        assert str(f) == "640x480/MPEG-4@64kbps"

    def test_hashable_and_ordered(self):
        a = MediaFormat("MPEG-2", 640, 480, 64.0)
        b = MediaFormat("MPEG-2", 640, 480, 64.0)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1


class TestMediaObject:
    def test_size_from_bitrate_and_duration(self):
        obj = MediaObject("m", MediaFormat("MPEG-2", 640, 480, 8.0),
                          duration_s=10.0)
        assert obj.size_bytes == pytest.approx(10_000.0)

    def test_hash_is_deterministic(self):
        a = MediaObject("m", V1)
        b = MediaObject("m", V1)
        assert a.content_hash == b.content_hash and len(a.content_hash) == 16

    def test_hash_differs_by_name(self):
        assert MediaObject("x", V1).content_hash != \
            MediaObject("y", V1).content_hash

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            MediaObject("m", V1, duration_s=0.0)


class TestCostModel:
    def test_work_scales_with_duration(self):
        w1 = transcode_work(V1, V3, 10.0)
        w2 = transcode_work(V1, V3, 20.0)
        assert w2 == pytest.approx(2 * w1)

    def test_bigger_output_costs_more(self):
        small = MediaFormat("MPEG-4", 320, 240, 64.0)
        big = MediaFormat("MPEG-4", 800, 600, 64.0)
        src = MediaFormat("MPEG-2", 800, 600, 512.0)
        assert transcode_work(src, big, 60.0) > transcode_work(src, small, 60.0)

    def test_complex_codec_costs_more(self):
        src = MediaFormat("MPEG-2", 640, 480, 256.0)
        to_mpeg4 = MediaFormat("MPEG-4", 640, 480, 64.0)
        to_mjpeg = MediaFormat("MJPEG", 640, 480, 64.0)
        assert transcode_work(src, to_mpeg4, 60.0) > transcode_work(src, to_mjpeg, 60.0)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            transcode_work(V1, V3, 0.0)

    def test_work_positive(self):
        assert transcode_work(V1, V3, 1.0) > 0


class TestFig1:
    def test_graph_shape(self):
        sc = build_fig1_graph()
        assert sc.graph.n_states == 5
        assert sc.graph.n_edges == 8
        assert set(sc.peers) == {"P1", "P2", "P3", "P4"}

    def test_quoted_endpoints(self):
        """The exact formats quoted in §4.3."""
        assert V1 == MediaFormat("MPEG-2", 800, 600, 512.0)
        assert V3 == MediaFormat("MPEG-4", 640, 480, 64.0)

    def test_paper_bfs_reproduces_candidates_in_order(self):
        sc = build_fig1_graph()
        found = [
            [e.edge_id for e in p]
            for p, _ in iter_paths(sc.graph, sc.v_init, sc.v_sol, "paper")
        ]
        assert found == FIG1_CANDIDATE_PATHS

    def test_exhaustive_finds_same_candidates(self):
        sc = build_fig1_graph()
        found = sorted(
            tuple(e.edge_id for e in p)
            for p, _ in iter_paths(sc.graph, sc.v_init, sc.v_sol, "exhaustive")
        )
        assert found == sorted(tuple(p) for p in FIG1_CANDIDATE_PATHS)

    def test_e6_e7_off_candidate_paths(self):
        """e6 and e7 exist in Fig 1 but lie on no candidate path."""
        flat = {e for p in FIG1_CANDIDATE_PATHS for e in p}
        assert "e6" not in flat and "e7" not in flat
        assert "e6" in FIG1_EDGES and "e7" in FIG1_EDGES

    def test_work_scales_with_duration(self):
        short = build_fig1_graph(duration_s=30.0)
        long = build_fig1_graph(duration_s=60.0)
        assert long.graph.edge("e1").work == pytest.approx(
            2 * short.graph.edge("e1").work
        )

    def test_source_object_matches_v1(self):
        sc = build_fig1_graph()
        assert sc.source_object.fmt == V1
