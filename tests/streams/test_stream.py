"""Tests for physical streams and global-order merging."""

import pytest

from feeds import is_ordered, merge_tagged, merged_with
from repro.streams import PhysicalStream, StreamOrderError
from repro.temporal import element


class TestOrdering:
    def test_ordered_stream_accepted(self):
        PhysicalStream([element("a", 0, 5), element("b", 0, 5), element("c", 3, 9)])

    def test_unordered_stream_rejected(self):
        with pytest.raises(StreamOrderError):
            PhysicalStream([element("a", 3, 5), element("b", 1, 5)])

    def test_validation_can_be_skipped(self):
        stream = PhysicalStream(
            [element("a", 3, 5), element("b", 1, 5)], validate=False
        )
        assert not is_ordered(stream)

    def test_is_ordered(self):
        assert is_ordered(PhysicalStream([element("a", 0, 5)]))

    def test_equal_start_timestamps_allowed(self):
        stream = PhysicalStream([element("a", 2, 5), element("b", 2, 7)])
        assert is_ordered(stream)


class TestSequenceProtocol:
    def test_len_and_indexing(self):
        stream = PhysicalStream([element("a", 0, 5), element("b", 1, 6)])
        assert len(stream) == 2
        assert stream[1].payload == ("b",)

    def test_iteration(self):
        stream = PhysicalStream([element("a", 0, 5)])
        assert [e.payload for e in stream] == [("a",)]

    def test_equality(self):
        a = PhysicalStream([element("a", 0, 5)])
        b = PhysicalStream([element("a", 0, 5)])
        assert a == b

    def test_repr_mentions_name(self):
        assert "bids" in repr(PhysicalStream([], name="bids"))


class TestMerging:
    def test_merged_with_preserves_order(self):
        a = PhysicalStream([element("a", 0, 5), element("a", 6, 9)])
        b = PhysicalStream([element("b", 3, 8)])
        merged = merged_with(a, b)
        starts = [e.start for e in merged]
        assert starts == sorted(starts)
        assert len(merged) == 3

    def test_merge_tagged_global_order(self):
        a = PhysicalStream([element("a1", 0, 5), element("a2", 10, 15)])
        b = PhysicalStream([element("b1", 3, 8)])
        tagged = list(merge_tagged([("A", a), ("B", b)]))
        assert [name for name, _ in tagged] == ["A", "B", "A"]
        starts = [e.start for _, e in tagged]
        assert starts == sorted(starts)

    def test_merge_tagged_ties_broken_by_stream_position(self):
        a = PhysicalStream([element("a", 5, 6)])
        b = PhysicalStream([element("b", 5, 6)])
        tagged = list(merge_tagged([("A", a), ("B", b)]))
        assert [name for name, _ in tagged] == ["A", "B"]

    def test_merge_tagged_empty_streams(self):
        assert list(merge_tagged([("A", PhysicalStream())])) == []
