"""Bloom filters and domain summaries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.summaries import BloomFilter, DomainSummary


class TestBloomFilter:
    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(n_bits=0)
        with pytest.raises(ValueError):
            BloomFilter(n_hashes=0)

    def test_added_items_found(self):
        bf = BloomFilter(1024, 4)
        bf.update(["a", "b", "c"])
        assert "a" in bf and "b" in bf and "c" in bf

    def test_fresh_filter_contains_nothing(self):
        bf = BloomFilter(1024, 4)
        assert "anything" not in bf

    @given(st.sets(st.text(min_size=1, max_size=20), max_size=50))
    @settings(max_examples=50)
    def test_no_false_negatives(self, items):
        bf = BloomFilter(4096, 5)
        bf.update(items)
        assert all(item in bf for item in items)

    def test_false_positive_rate_bounded(self):
        bf = BloomFilter.for_capacity(100, fp_rate=0.01)
        bf.update(f"item{i}" for i in range(100))
        false_hits = sum(
            1 for i in range(10_000) if f"absent{i}" in bf
        )
        assert false_hits / 10_000 < 0.05  # generous margin over 1%

    def test_for_capacity_validation(self):
        with pytest.raises(ValueError):
            BloomFilter.for_capacity(0)
        with pytest.raises(ValueError):
            BloomFilter.for_capacity(10, fp_rate=1.5)

    def test_copy_independent(self):
        a = BloomFilter(512, 3)
        dup = a.copy()
        dup.add("x")
        assert "x" in dup and "x" not in a

    def test_deterministic_across_instances(self):
        a = BloomFilter(512, 3)
        b = BloomFilter(512, 3)
        a.add("item")
        b.add("item")
        assert (a.bits == b.bits).all()

    def test_fill_ratio(self):
        bf = BloomFilter(64, 2)
        assert bf.fill_ratio == 0.0
        bf.update(f"i{n}" for n in range(40))
        assert 0 < bf.fill_ratio <= 1.0


class TestDomainSummary:
    def test_rebuild_bumps_version(self):
        s = DomainSummary("d0", "rm0")
        s2 = s.rebuild(["o1"], ["svc1"], n_peers=4, mean_utilization=0.3)
        assert s2.version == 1
        assert "o1" in s2.objects
        assert "o2-definitely-absent" not in s2.objects
        assert s2.n_peers == 4

    def test_newer_than(self):
        s0 = DomainSummary("d0", "rm0")
        s1 = s0.rebuild([], [], 1, 0.0)
        assert s1.newer_than(s0)
        assert not s0.newer_than(s1)
        assert s1.newer_than(None)

    def test_rebuild_custom_geometry(self):
        s = DomainSummary("d0", "rm0")
        s2 = s.rebuild(["o"], [], 1, 0.0, geometry=(4096, 7))
        assert s2.objects.n_bits == 4096 and s2.objects.n_hashes == 7
