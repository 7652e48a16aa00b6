"""Tests for the disjoint interval set (duplicate-elimination state)."""

from helpers import covered_length, covers, max_end, overlaps
from repro.temporal import IntervalSet, TimeInterval


def intervals(*pairs):
    return [TimeInterval(a, b) for a, b in pairs]


class TestAdd:
    def test_disjoint_adds_stay_separate(self):
        s = IntervalSet(intervals((0, 3), (5, 8)))
        assert list(s) == intervals((0, 3), (5, 8))

    def test_overlapping_adds_merge(self):
        s = IntervalSet(intervals((0, 5), (3, 8)))
        assert list(s) == intervals((0, 8))

    def test_adjacent_adds_merge(self):
        s = IntervalSet(intervals((0, 5), (5, 8)))
        assert list(s) == intervals((0, 8))

    def test_bridging_add_merges_both_sides(self):
        s = IntervalSet(intervals((0, 3), (6, 9)))
        s.add(TimeInterval(2, 7))
        assert list(s) == intervals((0, 9))

    def test_contained_add_is_absorbed(self):
        s = IntervalSet(intervals((0, 10)))
        s.add(TimeInterval(3, 4))
        assert list(s) == intervals((0, 10))

    def test_out_of_order_adds(self):
        s = IntervalSet()
        s.add(TimeInterval(10, 12))
        s.add(TimeInterval(0, 2))
        s.add(TimeInterval(5, 7))
        assert list(s) == intervals((0, 2), (5, 7), (10, 12))


class TestContains:
    def test_covered_instants(self):
        s = IntervalSet(intervals((0, 3), (5, 8)))
        assert covers(s, 0)
        assert covers(s, 2)
        assert covers(s, 5)
        assert not covers(s, 3)
        assert not covers(s, 4)
        assert not covers(s, 8)

    def test_empty(self):
        assert not covers(IntervalSet(), 0)


class TestSubtract:
    def test_uncovered_interval_returned_whole(self):
        s = IntervalSet(intervals((0, 3)))
        assert s.subtract(TimeInterval(5, 9)) == intervals((5, 9))

    def test_fully_covered_returns_nothing(self):
        s = IntervalSet(intervals((0, 10)))
        assert s.subtract(TimeInterval(2, 8)) == []

    def test_partial_overlap_front(self):
        s = IntervalSet(intervals((0, 5)))
        assert s.subtract(TimeInterval(3, 9)) == intervals((5, 9))

    def test_partial_overlap_back(self):
        s = IntervalSet(intervals((5, 10)))
        assert s.subtract(TimeInterval(3, 9)) == intervals((3, 5))

    def test_hole_punching(self):
        s = IntervalSet(intervals((3, 5)))
        assert s.subtract(TimeInterval(0, 9)) == intervals((0, 3), (5, 9))

    def test_multiple_holes(self):
        s = IntervalSet(intervals((2, 4), (6, 8)))
        assert s.subtract(TimeInterval(0, 10)) == intervals((0, 2), (4, 6), (8, 10))

    def test_subtract_does_not_mutate(self):
        s = IntervalSet(intervals((2, 4)))
        s.subtract(TimeInterval(0, 10))
        assert list(s) == intervals((2, 4))

    def test_duplicate_elimination_pattern(self):
        """subtract-then-add yields exactly-once coverage."""
        s = IntervalSet()
        emitted = []
        for incoming in intervals((0, 10), (5, 15), (20, 25), (12, 22)):
            for remainder in s.subtract(incoming):
                emitted.append(remainder)
                s.add(remainder)
        # Coverage is the union, emitted pieces are disjoint.
        assert list(s) == intervals((0, 25))
        for i, a in enumerate(emitted):
            for b in emitted[i + 1 :]:
                assert not overlaps(a, b)


class TestExpiration:
    def test_fully_expired_intervals_dropped(self):
        s = IntervalSet(intervals((0, 3), (5, 8)))
        s.expire_before(4)
        assert list(s) == intervals((5, 8))

    def test_straddling_interval_truncated(self):
        s = IntervalSet(intervals((0, 10)))
        s.expire_before(4)
        assert list(s) == intervals((4, 10))

    def test_expire_everything(self):
        s = IntervalSet(intervals((0, 3)))
        s.expire_before(100)
        assert not s

    def test_max_end(self):
        assert max_end(IntervalSet(intervals((0, 3), (5, 8)))) == 8
        assert max_end(IntervalSet()) == 0

    def test_covered_length(self):
        assert covered_length(IntervalSet(intervals((0, 3), (5, 8)))) == 6
