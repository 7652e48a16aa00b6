"""Tests for half-open validity intervals."""

import pytest

from repro.temporal import EPSILON, MAX_TIME, TimeInterval


class TestConstruction:
    def test_valid_interval(self):
        interval = TimeInterval(3, 7)
        assert interval.start == 3
        assert interval.end == 7
        assert interval.length == 4

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            TimeInterval(5, 5)

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            TimeInterval(7, 3)

    def test_fractional_bounds_allowed(self):
        interval = TimeInterval(3.5, 10)
        assert interval.length == 6.5

    def test_str_rendering(self):
        assert str(TimeInterval(1, 4)) == "[1, 4)"

    def test_unbounded_detection(self):
        assert TimeInterval(0, MAX_TIME).is_unbounded
        assert not TimeInterval(0, 10).is_unbounded


class TestContains:
    def test_start_is_inclusive(self):
        assert TimeInterval(3, 7).contains(3)

    def test_end_is_exclusive(self):
        assert not TimeInterval(3, 7).contains(7)

    def test_interior(self):
        assert TimeInterval(3, 7).contains(5)

    def test_outside(self):
        assert not TimeInterval(3, 7).contains(2)
        assert not TimeInterval(3, 7).contains(8)

    def test_fractional_instant(self):
        assert TimeInterval(3, 7).contains(6.5)


class TestOverlapAndAdjacency:
    def test_overlapping(self):
        assert TimeInterval(0, 5).overlaps(TimeInterval(4, 9))
        assert TimeInterval(4, 9).overlaps(TimeInterval(0, 5))

    def test_touching_half_open_do_not_overlap(self):
        assert not TimeInterval(0, 5).overlaps(TimeInterval(5, 9))

    def test_adjacency(self):
        assert TimeInterval(0, 5).is_adjacent_to(TimeInterval(5, 9))
        assert TimeInterval(5, 9).is_adjacent_to(TimeInterval(0, 5))
        assert not TimeInterval(0, 5).is_adjacent_to(TimeInterval(6, 9))

    def test_precedes(self):
        assert TimeInterval(0, 5).precedes(TimeInterval(5, 9))
        assert not TimeInterval(0, 6).precedes(TimeInterval(5, 9))

    def test_containment_overlaps(self):
        assert TimeInterval(0, 10).overlaps(TimeInterval(3, 4))


class TestIntersect:
    def test_plain_intersection(self):
        assert TimeInterval(0, 5).intersect(TimeInterval(3, 9)) == TimeInterval(3, 5)

    def test_disjoint_yields_none(self):
        assert TimeInterval(0, 3).intersect(TimeInterval(5, 9)) is None

    def test_touching_yields_none(self):
        assert TimeInterval(0, 5).intersect(TimeInterval(5, 9)) is None

    def test_symmetry(self):
        a, b = TimeInterval(0, 7), TimeInterval(4, 20)
        assert a.intersect(b) == b.intersect(a)

    def test_nested(self):
        assert TimeInterval(0, 10).intersect(TimeInterval(3, 4)) == TimeInterval(3, 4)


class TestMerge:
    def test_merge_overlapping(self):
        assert TimeInterval(0, 5).merge(TimeInterval(3, 9)) == TimeInterval(0, 9)

    def test_merge_adjacent(self):
        assert TimeInterval(0, 5).merge(TimeInterval(5, 9)) == TimeInterval(0, 9)

    def test_merge_disjoint_rejected(self):
        with pytest.raises(ValueError):
            TimeInterval(0, 4).merge(TimeInterval(5, 9))


class TestSplitAt:
    """The core of the Split operator (Algorithm 2)."""

    def test_split_inside(self):
        below, above = TimeInterval(0, 10).split_at(4)
        assert below == TimeInterval(0, 4)
        assert above == TimeInterval(4, 10)

    def test_split_at_fractional_point(self):
        t_split = 4 + EPSILON
        below, above = TimeInterval(0, 10).split_at(t_split)
        assert below.end == t_split
        assert above.start == t_split
        # No instant is lost and none duplicated.
        assert below.contains(4) and not above.contains(4)
        assert above.contains(5) and not below.contains(5)

    def test_split_before_start(self):
        below, above = TimeInterval(5, 10).split_at(3)
        assert below is None
        assert above == TimeInterval(5, 10)

    def test_split_at_start(self):
        below, above = TimeInterval(5, 10).split_at(5)
        assert below is None
        assert above == TimeInterval(5, 10)

    def test_split_at_end(self):
        below, above = TimeInterval(5, 10).split_at(10)
        assert below == TimeInterval(5, 10)
        assert above is None

    def test_split_after_end(self):
        below, above = TimeInterval(5, 10).split_at(12)
        assert below == TimeInterval(5, 10)
        assert above is None

    def test_split_parts_partition_the_interval(self):
        interval = TimeInterval(2, 9)
        below, above = interval.split_at(6)
        assert below.length + above.length == interval.length


class TestExtendAndShift:
    def test_window_extension(self):
        assert TimeInterval(3, 4).extend(10) == TimeInterval(3, 14)

    def test_zero_extension_is_identity(self):
        assert TimeInterval(3, 4).extend(0) == TimeInterval(3, 4)

    def test_negative_extension_rejected(self):
        with pytest.raises(ValueError):
            TimeInterval(3, 4).extend(-1)

    def test_shift(self):
        assert TimeInterval(3, 4).shift(10) == TimeInterval(13, 14)


class TestInstants:
    def test_unit_interval(self):
        assert list(TimeInterval(3, 4).instants()) == [3]

    def test_longer_interval(self):
        assert list(TimeInterval(3, 7).instants()) == [3, 4, 5, 6]

    def test_fractional_start_rounds_up(self):
        assert list(TimeInterval(3.5, 6).instants()) == [4, 5]

    def test_unbounded_rejected(self):
        with pytest.raises(ValueError):
            list(TimeInterval(0, MAX_TIME).instants())
