"""Tests for snapshots and snapshot-equivalence (Definitions 1 and 2)."""

from repro.temporal import (
    EPSILON,
    Multiset,
    coalesce_stream,
    critical_instants,
    element,
    first_divergence,
    first_duplicate_instant,
    has_snapshot_duplicates,
    snapshot,
    snapshot_equivalent,
)


class TestSnapshot:
    def test_snapshot_collects_valid_payloads(self):
        stream = [element("a", 0, 5), element("b", 3, 8)]
        assert snapshot(stream, 4) == Multiset([("a",), ("b",)])

    def test_snapshot_respects_half_open_ends(self):
        stream = [element("a", 0, 5)]
        assert snapshot(stream, 5) == Multiset()

    def test_snapshot_is_a_bag(self):
        stream = [element("a", 0, 5), element("a", 2, 7)]
        assert snapshot(stream, 3).multiplicity(("a",)) == 2

    def test_empty_snapshot(self):
        assert snapshot([], 0) == Multiset()


class TestCriticalInstants:
    def test_probes_are_integers(self):
        stream = [element("a", 0, 5), element("b", 3.5, 8)]
        for t in critical_instants(stream):
            assert t == int(t)

    def test_each_segment_gets_a_probe(self):
        stream = [element("a", 0, 10), element("b", 4, 6)]
        probes = set(critical_instants(stream))
        # Segments [0,4), [4,6), [6,10) must each be probed.
        assert probes & {0, 1, 2, 3}
        assert probes & {4, 5}
        assert probes & {6, 7, 8, 9}

    def test_fractional_segments_without_integers_are_skipped(self):
        # [10, 10.5) contains no integer instant beyond 10 itself.
        stream = [element("a", 10, 10 + EPSILON)]
        assert critical_instants(stream) == [10]


class TestSnapshotEquivalence:
    def test_identical_streams(self):
        s = [element("a", 0, 5)]
        assert snapshot_equivalent(s, list(s))

    def test_different_decompositions_are_equivalent(self):
        whole = [element("a", 0, 10)]
        pieces = [element("a", 0, 4), element("a", 4, 10)]
        assert snapshot_equivalent(whole, pieces)

    def test_split_at_fractional_point_is_equivalent(self):
        t_split = 4 + EPSILON
        whole = [element("a", 0, 10)]
        pieces = [
            element("a", 0, t_split),
            element("a", t_split, 10),
        ]
        assert snapshot_equivalent(whole, pieces)

    def test_order_is_irrelevant(self):
        left = [element("a", 0, 5), element("b", 1, 6)]
        right = [element("b", 1, 6), element("a", 0, 5)]
        assert snapshot_equivalent(left, right)

    def test_divergent_payload(self):
        assert not snapshot_equivalent([element("a", 0, 5)], [element("b", 0, 5)])

    def test_divergent_validity_detected(self):
        left = [element("a", 0, 5)]
        right = [element("a", 0, 6)]
        assert first_divergence(left, right) == 5

    def test_multiplicity_matters(self):
        left = [element("a", 0, 5)]
        right = [element("a", 0, 5), element("a", 2, 4)]
        assert first_divergence(left, right) == 2

    def test_first_divergence_none_for_equivalent(self):
        assert first_divergence([element("a", 0, 5)], [element("a", 0, 5)]) is None


class TestSnapshotDuplicates:
    def test_disjoint_validities_are_fine(self):
        stream = [element("a", 0, 5), element("a", 5, 9)]
        assert not has_snapshot_duplicates(stream)

    def test_overlapping_same_payload_is_a_duplicate(self):
        stream = [element("a", 0, 5), element("a", 3, 9)]
        assert first_duplicate_instant(stream) == 3

    def test_overlapping_different_payloads_is_fine(self):
        stream = [element("a", 0, 5), element("b", 3, 9)]
        assert not has_snapshot_duplicates(stream)


class TestCoalesceStream:
    def test_merges_adjacent_same_payload(self):
        stream = [element("a", 0, 4), element("a", 4, 10)]
        assert coalesce_stream(stream) == [element("a", 0, 10)]

    def test_merges_overlapping_same_payload(self):
        stream = [element("a", 0, 6), element("a", 4, 10)]
        assert coalesce_stream(stream) == [element("a", 0, 10)]

    def test_keeps_gaps(self):
        stream = [element("a", 0, 4), element("a", 6, 10)]
        assert coalesce_stream(stream) == [element("a", 0, 4), element("a", 6, 10)]

    def test_different_payloads_not_merged(self):
        stream = [element("a", 0, 4), element("b", 4, 10)]
        assert len(coalesce_stream(stream)) == 2

    def test_coalescing_preserves_snapshots(self):
        stream = [element("a", 0, 4), element("a", 2, 8), element("b", 1, 3)]
        assert snapshot_equivalent(stream[:1] + stream[2:], coalesce_stream(stream[:1] + stream[2:]))
