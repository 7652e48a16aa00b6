"""Tests for the snapshot-reducible joins (Section 2.2)."""

import random

import pytest

from repro.operators import CostMeter, NestedLoopsJoin, equi_join
from repro.streams import CollectorSink
from repro.temporal import (
    Multiset,
    TimeInterval,
    critical_instants,
    element,
    snapshot,
)
from repro.temporal.time import MAX_TIME


def drive(join, left, right):
    """Push two ordered element lists through a join in global order."""
    sink = CollectorSink()
    join.attach_sink(sink)
    events = sorted(
        [(e.start, 0, e) for e in left] + [(e.start, 1, e) for e in right],
        key=lambda item: (item[0], item[1]),
    )
    for t, port, e in events:
        join.process_heartbeat(t, 0)
        join.process_heartbeat(t, 1)
        join.process(e, port)
    join.process_heartbeat(MAX_TIME, 0)
    join.process_heartbeat(MAX_TIME, 1)
    return sink.elements


class TestJoinSemantics:
    def test_predicate_and_interval_intersection_required(self):
        left = [element(("k", 1), 0, 10)]
        right = [
            element(("k", 2), 5, 15),   # matches, overlaps
            element(("x", 3), 5, 15),   # no match
            element(("k", 4), 12, 20),  # matches, no overlap
        ]
        out = drive(equi_join(0, 0), left, right)
        assert len(out) == 1
        assert out[0].payload == ("k", 1, "k", 2)

    def test_result_interval_is_intersection(self):
        out = drive(equi_join(0, 0), [element("k", 0, 10)], [element("k", 5, 15)])
        assert out[0].interval == TimeInterval(5, 10)

    def test_payload_order_is_left_then_right(self):
        out = drive(
            equi_join(0, 0), [element(("k", "L"), 0, 9)], [element(("k", "R"), 1, 9)]
        )
        assert out[0].payload == ("k", "L", "k", "R")

    def test_touching_intervals_do_not_join(self):
        out = drive(equi_join(0, 0), [element("k", 0, 5)], [element("k", 5, 9)])
        assert out == []

    def test_bag_semantics_duplicate_matches(self):
        left = [element("k", 0, 10), element("k", 1, 10)]
        right = [element("k", 2, 10)]
        out = drive(equi_join(0, 0), left, right)
        assert len(out) == 2

    def test_theta_join_arbitrary_predicate(self):
        join = NestedLoopsJoin(lambda l, r: l[0] < r[0])
        out = drive(join, [element(3, 0, 9)], [element(5, 1, 9), element(2, 1, 9)])
        assert [e.payload for e in out] == [(3, 5)]


class TestSnapshotReducibility:
    """Definition 1 checked directly against the bag join."""

    @pytest.mark.parametrize("make_join", [lambda: equi_join(0, 0),
                                           lambda: NestedLoopsJoin(lambda l, r: l[0] == r[0])])
    def test_matches_relational_join_at_every_instant(self, make_join):
        rng = random.Random(13)
        left = [element(rng.randint(0, 4), t, t + rng.randint(5, 30))
                for t in range(0, 120, 4)]
        right = [element(rng.randint(0, 4), t, t + rng.randint(5, 30))
                 for t in range(1, 120, 5)]
        out = drive(make_join(), left, right)
        for t in critical_instants(left, right, out):
            expected = snapshot(left, t).join(snapshot(right, t), lambda a, b: a[0] == b[0])
            assert snapshot(out, t) == expected, f"divergence at t={t}"


class TestExpirationAndOrdering:
    def test_state_expires_by_watermark(self):
        join = equi_join(0, 0)
        join.process(element("k", 0, 10), 0)
        join.process_heartbeat(10, 0)
        join.process_heartbeat(10, 1)
        assert join.state_of_port(0) == join.state_of_port(1) == []

    def test_state_kept_while_overlap_possible(self):
        join = equi_join(0, 0)
        join.process(element("k", 0, 10), 0)
        join.process_heartbeat(9, 0)
        join.process_heartbeat(9, 1)
        assert len(join.state_of_port(0)) == 1 and join.state_of_port(1) == []

    def test_output_ordered_under_input_skew(self):
        """A lagging input must not break output ordering."""
        join = equi_join(0, 0)
        sink = CollectorSink()
        join.attach_sink(sink)
        # Left races ahead...
        for t in range(0, 60, 5):
            join.process(element("k", t, t + 20), 0)
        # ...then right catches up, producing results with small starts.
        for t in range(0, 60, 5):
            join.process(element("k", t, t + 20), 1)
            join.process_heartbeat(t, 1)
        join.process_heartbeat(MAX_TIME, 0)
        join.process_heartbeat(MAX_TIME, 1)
        starts = [e.start for e in sink.elements]
        assert starts == sorted(starts)
        assert len(sink.elements) > 0

    def test_hash_join_prunes_empty_buckets(self):
        join = equi_join(0, 0)
        join.process(element("k", 0, 10), 0)
        join.process_heartbeat(50, 0)
        join.process_heartbeat(50, 1)
        assert not join._states[0]
        assert not join._states[0].buckets

    def test_state_of_port(self):
        join = equi_join(0, 0)
        join.process(element("a", 0, 10), 0)
        join.process(element("b", 1, 10), 1)
        assert [e.payload for e in join.state_of_port(0)] == [("a",)]
        assert [e.payload for e in join.state_of_port(1)] == [("b",)]

    def test_absorb_state(self):
        join = equi_join(0, 0)
        join.absorb_state(0, [element("k", 0, 50)])
        out = drive(join, [], [element("k", 5, 55)])
        assert len(out) == 1

    def test_absorb_state_merges_into_live_state(self):
        for join in (equi_join(0, 0), NestedLoopsJoin(lambda l, r: l[0] == r[0])):
            join.process(element("a", 0, 50), 0)
            join.absorb_state(0, [element("k", 0, 50)])
            assert sorted(e.payload for e in join.state_of_port(0)) == [("a",), ("k",)]
            assert len(drive(join, [], [element("k", 5, 55)])) == 1

    def test_extract_drains_a_nested_loops_side_whole(self):
        """A nested-loops side is the one bucket ``None``: draining it
        empties the side, and a later probe finds nothing to match."""
        join = NestedLoopsJoin(lambda l, r: l[0] == r[0])
        join.process(element("k", 0, 50), 0)
        join.process(element("k", 1, 50), 0)
        drained = join.extract_state_of_port(0, lambda key: key is None)
        assert [(e.payload, e.start) for e in drained] == [(("k",), 0), (("k",), 1)]
        assert join.state_of_port(0) == [] and join.state_value_count() == 0
        assert drive(join, [], [element("k", 5, 55)]) == []

    def test_pair_matches(self):
        join = NestedLoopsJoin(lambda l, r: l[0] < r[0])
        assert join.pair_matches((1,), (2,))


class TestCostAccounting:
    def test_nlj_charges_per_probe(self):
        meter = CostMeter()
        join = NestedLoopsJoin(lambda l, r: False, predicate_cost=10)
        join.meter = meter
        drive(join, [element(i, i, i + 50) for i in range(3)],
              [element(9, 4, 60)])
        # The right element probes all three left elements.
        assert meter.by_category["join-predicate"] == 30

    def test_hash_join_probes_only_matching_bucket(self):
        meter = CostMeter()
        join = equi_join(0, 0, predicate_cost=10)
        join.meter = meter
        drive(join, [element(i, i, i + 50) for i in range(3)],
              [element(1, 4, 60)])
        assert meter.by_category["join-predicate"] == 10
