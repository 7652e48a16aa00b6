"""Tests for snapshot aggregation."""

import random

import pytest

from repro.operators import Aggregate, avg_of, count, max_of, min_of, sum_of
from repro.operators.aggregate import merge_flags
from repro.streams import CollectorSink
from repro.temporal import Multiset, NEW, OLD, critical_instants, element, snapshot
from repro.temporal.time import MAX_TIME


def drive(op, elements):
    sink = CollectorSink()
    op.attach_sink(sink)
    for e in elements:
        op.process(e)
    op.process_heartbeat(MAX_TIME)
    return sink.elements


class TestScalarAggregation:
    def test_count_over_overlapping_elements(self):
        out = drive(Aggregate([count()]), [element("a", 0, 10), element("b", 5, 15)])
        assert snapshot(out, 2) == Multiset([(1,)])
        assert snapshot(out, 7) == Multiset([(2,)])
        assert snapshot(out, 12) == Multiset([(1,)])

    def test_empty_snapshots_produce_no_output(self):
        out = drive(Aggregate([count()]), [element("a", 5, 10)])
        assert snapshot(out, 2) == Multiset()
        assert snapshot(out, 12) == Multiset()

    def test_sum(self):
        out = drive(Aggregate([sum_of(0)]), [element(3, 0, 10), element(4, 5, 15)])
        assert snapshot(out, 7) == Multiset([(7,)])

    def test_min_max_avg(self):
        op = Aggregate([min_of(0), max_of(0), avg_of(0)])
        out = drive(op, [element(2, 0, 10), element(6, 0, 10)])
        assert snapshot(out, 5) == Multiset([(2, 6, 4.0)])

    def test_multiple_functions_in_one_payload(self):
        out = drive(Aggregate([count(), sum_of(0)]), [element(5, 0, 10)])
        assert snapshot(out, 3) == Multiset([(1, 5)])

    def test_requires_a_function(self):
        with pytest.raises(ValueError):
            Aggregate([])

    def test_fragments_remain_snapshot_equivalent(self):
        # Watermark-driven finalisation fragments output at batch
        # boundaries; the fragments must still represent count=1 throughout.
        out = drive(Aggregate([count()]), [element("a", 0, 5), element("b", 5, 10)])
        for t in range(0, 10):
            assert snapshot(out, t) == Multiset([(1,)])

    def test_merge_adjacent_helper_compacts_equal_values(self):
        from repro.operators.aggregate import _merge_adjacent

        fragments = [
            element((1,), 0, 5),
            element((1,), 5, 10),
            element((2,), 10, 12),
        ]
        assert _merge_adjacent(fragments) == [element((1,), 0, 10), element((2,), 10, 12)]

    def test_merge_adjacent_keeps_gaps_apart(self):
        from repro.operators.aggregate import _merge_adjacent

        fragments = [element((1,), 0, 5), element((1,), 7, 10)]
        assert _merge_adjacent(fragments) == fragments


class TestGroupedAggregation:
    def test_groups_aggregated_independently(self):
        op = Aggregate([count()], group_key=lambda p: (p[0],))
        out = drive(
            op,
            [element(("x", 1), 0, 10), element(("x", 2), 0, 10), element(("y", 3), 0, 10)],
        )
        assert snapshot(out, 5) == Multiset([("x", 2), ("y", 1)])

    def test_group_disappears_when_empty(self):
        op = Aggregate([count()], group_key=lambda p: (p[0],))
        out = drive(op, [element(("x", 1), 0, 5), element(("y", 2), 0, 10)])
        assert snapshot(out, 7) == Multiset([("y", 1)])

    def test_scalar_group_keys_coerced(self):
        op = Aggregate([count()], group_key=lambda p: p[0])
        out = drive(op, [element(("x", 1), 0, 5)])
        assert snapshot(out, 2) == Multiset([("x", 1)])


class TestSnapshotContract:
    def test_matches_relational_aggregate_at_every_instant(self):
        rng = random.Random(31)
        inputs = [
            element((rng.randint(0, 2), rng.randint(1, 9)), t, t + rng.randint(4, 30))
            for t in range(0, 150, 3)
        ]
        op = Aggregate([count(), sum_of(1)], group_key=lambda p: (p[0],))
        out = drive(op, list(inputs))
        for t in critical_instants(inputs, out):
            bag = snapshot(inputs, t)
            expected = Multiset(
                key + (len(list(rows)), sum(r[1] for r in rows))
                for key, rows in (
                    (k, list(m)) for k, m in bag.group_by(lambda r: (r[0],)).items()
                )
            )
            assert snapshot(out, t) == expected, f"t={t}"

    def test_output_ordered(self):
        rng = random.Random(32)
        inputs = [
            element(rng.randint(0, 2), t, t + rng.randint(4, 30))
            for t in range(0, 150, 3)
        ]
        out = drive(Aggregate([count()]), inputs)
        starts = [e.start for e in out]
        assert starts == sorted(starts)

    def test_finalisation_never_crosses_watermark(self):
        op = Aggregate([count()])
        sink = CollectorSink()
        op.attach_sink(sink)
        op.process(element("a", 0, 100))
        op.process_heartbeat(50)
        # Only instants below 50 may be emitted so far.
        assert all(e.end <= 50 for e in sink.elements)


class TestStateManagement:
    def test_open_elements_expire(self):
        op = Aggregate([count()])
        op.process(element("a", 0, 10))
        op.process_heartbeat(10)
        assert op.state_of_port(0) == []

    def test_open_elements_kept_while_live(self):
        op = Aggregate([count()])
        op.process(element("a", 0, 10))
        op.process_heartbeat(5)
        assert len(op.state_of_port(0)) == 1


class TestMergeFlags:
    def test_all_none(self):
        assert merge_flags([None, None]) is None

    def test_all_new(self):
        assert merge_flags([NEW, NEW]) == NEW

    def test_mixed_is_old(self):
        assert merge_flags([NEW, None]) == OLD
        assert merge_flags([OLD, NEW]) == OLD

    def test_empty(self):
        assert merge_flags([]) is None
