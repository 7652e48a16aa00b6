"""Property-based tests for the temporal substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.temporal import (
    EPSILON,
    IntervalSet,
    Multiset,
    TimeInterval,
    coalesce_stream,
    element,
    first_divergence,
    snapshot,
    snapshot_equivalent,
)

intervals = st.tuples(
    st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=60)
).map(lambda pair: TimeInterval(pair[0], pair[0] + pair[1]))

payloads = st.sampled_from(["a", "b", "c"])

elements = st.tuples(payloads, intervals).map(
    lambda pair: element(pair[0], pair[1].start, pair[1].end)
)


def ordered_stream(items):
    return sorted(items, key=lambda e: (e.start, e.end, e.payload))


class TestIntervalProperties:
    @given(intervals, st.integers(min_value=0, max_value=260))
    def test_split_partitions_instants(self, interval, point):
        t = point + EPSILON
        below, above = interval.split_at(t)
        original = set(interval.instants())
        pieces = set()
        if below is not None:
            pieces |= set(below.instants())
        if above is not None:
            pieces |= set(above.instants())
        assert pieces == original
        if below is not None and above is not None:
            assert not below.overlaps(above)

    @given(intervals, intervals)
    def test_intersection_commutes_and_is_contained(self, a, b):
        ab, ba = a.intersect(b), b.intersect(a)
        assert ab == ba
        if ab is not None:
            assert set(ab.instants()) <= set(a.instants())
            assert set(ab.instants()) <= set(b.instants())

    @given(intervals, intervals)
    def test_overlap_iff_shared_instant_or_fraction(self, a, b):
        # For integer intervals, overlap == nonempty intersection.
        assert a.overlaps(b) == (a.intersect(b) is not None)


class TestIntervalSetProperties:
    @given(st.lists(intervals, max_size=25))
    def test_invariants_sorted_disjoint_nonadjacent(self, items):
        s = IntervalSet(items)
        stored = list(s)
        for left, right in zip(stored, stored[1:]):
            assert left.end < right.start

    @given(st.lists(intervals, max_size=25))
    def test_coverage_equals_union_of_inputs(self, items):
        s = IntervalSet(items)
        covered = set()
        for interval in items:
            covered |= set(interval.instants())
        for t in range(0, 300):
            assert s.contains(t) == (t in covered)

    @given(st.lists(intervals, max_size=20))
    def test_subtract_then_add_gives_exactly_once_coverage(self, items):
        """The duplicate-elimination pattern covers every instant once."""
        s = IntervalSet()
        emitted = []
        for interval in items:
            for remainder in s.subtract(interval):
                emitted.append(remainder)
                s.add(remainder)
        seen = set()
        for remainder in emitted:
            instants = set(remainder.instants())
            assert not (instants & seen)
            seen |= instants
        expected = set()
        for interval in items:
            expected |= set(interval.instants())
        assert seen == expected


class TestSnapshotProperties:
    @given(st.lists(elements, max_size=25))
    def test_stream_equivalent_to_itself_shuffled_decomposition(self, items):
        stream = ordered_stream(items)
        # Split every element at its midpoint: same snapshots.
        pieces = []
        for e in stream:
            mid = e.start + (e.end - e.start) // 2
            if mid > e.start and mid < e.end:
                pieces.append(element(e.payload[0], e.start, mid))
                pieces.append(element(e.payload[0], mid, e.end))
            else:
                pieces.append(e)
        assert snapshot_equivalent(stream, pieces)

    @given(st.lists(elements, max_size=25))
    def test_dropping_an_element_breaks_equivalence(self, items):
        stream = ordered_stream(items)
        if not stream:
            return
        assert first_divergence(stream, stream[1:]) is not None

    @given(st.lists(elements, max_size=20))
    def test_coalesced_duplicate_free_stream_is_equivalent(self, items):
        # Build a duplicate-free stream first.
        from repro.temporal import IntervalSet

        coverage = {}
        dedup = []
        for e in ordered_stream(items):
            s = coverage.setdefault(e.payload, IntervalSet())
            for remainder in s.subtract(e.interval):
                dedup.append(e.with_interval(remainder))
                s.add(remainder)
        assert snapshot_equivalent(dedup, coalesce_stream(dedup))


class TestMultisetProperties:
    bags = st.lists(payloads, max_size=12).map(lambda xs: Multiset((x,) for x in xs))

    @given(bags, bags)
    def test_union_difference_roundtrip(self, a, b):
        assert a.union(b).difference(b) == a

    @given(bags, bags)
    def test_distinct_of_union_is_set_union(self, a, b):
        lhs = a.union(b).distinct()
        rhs = Multiset(set(a.distinct()) | set(b.distinct()))
        assert lhs == rhs

    @given(bags, bags)
    def test_figure2_rule_holds_on_random_bags(self, a, b):
        pred = lambda l, r: l[0] == r[0]
        assert a.join(b, pred).distinct() == a.distinct().join(b.distinct(), pred)
