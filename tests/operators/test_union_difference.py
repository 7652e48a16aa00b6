"""Tests for snapshot union and snapshot bag difference."""

import random

from repro.operators import Difference, Union
from repro.streams import CollectorSink
from repro.temporal import Multiset, critical_instants, element, snapshot
from repro.temporal.time import MAX_TIME


def drive(op, left, right):
    sink = CollectorSink()
    op.attach_sink(sink)
    events = sorted(
        [(e.start, 0, e) for e in left] + [(e.start, 1, e) for e in right],
        key=lambda item: (item[0], item[1]),
    )
    for t, port, e in events:
        op.process_heartbeat(t, 0)
        op.process_heartbeat(t, 1)
        op.process(e, port)
    op.process_heartbeat(MAX_TIME, 0)
    op.process_heartbeat(MAX_TIME, 1)
    return sink.elements


class TestUnion:
    def test_all_elements_pass(self):
        out = drive(Union(), [element("a", 0, 5)], [element("b", 1, 6)])
        assert len(out) == 2

    def test_bag_semantics(self):
        out = drive(Union(), [element("a", 0, 5)], [element("a", 0, 5)])
        assert snapshot(out, 2).multiplicity(("a",)) == 2

    def test_output_ordered_despite_interleaving(self):
        left = [element(f"l{i}", t, t + 5) for i, t in enumerate(range(0, 50, 7))]
        right = [element(f"r{i}", t, t + 5) for i, t in enumerate(range(3, 50, 4))]
        out = drive(Union(), left, right)
        starts = [e.start for e in out]
        assert starts == sorted(starts)
        assert len(out) == len(left) + len(right)

    def test_union_snapshot_is_bag_union(self):
        rng = random.Random(41)
        left = [element(rng.randint(0, 3), t, t + 10) for t in range(0, 60, 4)]
        right = [element(rng.randint(0, 3), t, t + 10) for t in range(1, 60, 6)]
        out = drive(Union(), left, right)
        for t in critical_instants(left, right, out):
            assert snapshot(out, t) == snapshot(left, t).union(snapshot(right, t))


class TestDifference:
    def test_unmatched_left_passes(self):
        out = drive(Difference(), [element("a", 0, 10)], [])
        assert snapshot(out, 5) == Multiset([("a",)])

    def test_matched_payload_cancelled(self):
        out = drive(Difference(), [element("a", 0, 10)], [element("a", 0, 10)])
        assert snapshot(out, 5) == Multiset()

    def test_partial_temporal_cancellation(self):
        out = drive(Difference(), [element("a", 0, 10)], [element("a", 4, 6)])
        assert snapshot(out, 2) == Multiset([("a",)])
        assert snapshot(out, 5) == Multiset()
        assert snapshot(out, 8) == Multiset([("a",)])

    def test_multiplicity_subtraction(self):
        left = [element("a", 0, 10), element("a", 0, 10), element("a", 0, 10)]
        right = [element("a", 0, 10)]
        out = drive(Difference(), left, right)
        assert snapshot(out, 5).multiplicity(("a",)) == 2

    def test_right_surplus_clamped_to_zero(self):
        left = [element("a", 0, 10)]
        right = [element("a", 0, 10), element("a", 0, 10)]
        out = drive(Difference(), left, right)
        assert snapshot(out, 5) == Multiset()

    def test_right_only_payload_never_appears(self):
        out = drive(Difference(), [], [element("b", 0, 10)])
        assert out == []

    def test_difference_snapshot_contract(self):
        rng = random.Random(42)
        left = [element(rng.randint(0, 2), t, t + rng.randint(3, 20))
                for t in range(0, 100, 3)]
        right = [element(rng.randint(0, 2), t, t + rng.randint(3, 20))
                 for t in range(1, 100, 5)]
        out = drive(Difference(), left, right)
        for t in critical_instants(left, right, out):
            expected = snapshot(left, t).difference(snapshot(right, t))
            assert snapshot(out, t) == expected, f"t={t}"

    def test_output_ordered(self):
        rng = random.Random(43)
        left = [element(rng.randint(0, 2), t, t + 15) for t in range(0, 100, 4)]
        right = [element(rng.randint(0, 2), t, t + 15) for t in range(2, 100, 7)]
        out = drive(Difference(), left, right)
        starts = [e.start for e in out]
        assert starts == sorted(starts)

    def test_state_expires(self):
        op = Difference()
        op.process(element("a", 0, 10), 0)
        op.process(element("a", 0, 12), 1)
        op.process_heartbeat(12, 0)
        op.process_heartbeat(12, 1)
        assert op.state_of_port(0) == op.state_of_port(1) == []
