"""Tests for the stream/relation duality (Figure 1)."""

from repro.streams import timestamped_stream
from repro.temporal import Multiset, element, snapshot


class TestRelationToStream:
    def test_conversion_rule(self):
        stream = timestamped_stream([(("a",), 5), (("b",), 9)])
        assert stream[0].interval.start == 5
        assert stream[0].interval.end == 6


class TestSnapshotRelation:
    def test_matches_snapshot_semantics(self):
        stream = [element("a", 0, 10), element("b", 5, 15)]
        assert snapshot(stream, 7) == Multiset([("a",), ("b",)])
        assert snapshot(stream, 12) == Multiset([("b",)])
