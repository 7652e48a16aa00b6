"""Tests for snapshot duplicate elimination."""

import random

from repro.operators import DuplicateElimination
from repro.streams import CollectorSink
from repro.temporal import (
    Multiset,
    critical_instants,
    element,
    has_snapshot_duplicates,
    snapshot,
)
from repro.temporal.time import MAX_TIME


def drive(op, elements):
    sink = CollectorSink()
    op.attach_sink(sink)
    for e in elements:
        op.process(e)
    op.process_heartbeat(MAX_TIME)
    return sink.elements


class TestBasicBehaviour:
    def test_disjoint_duplicates_both_pass(self):
        out = drive(DuplicateElimination(), [element("a", 0, 5), element("a", 10, 15)])
        assert len(out) == 2

    def test_full_overlap_second_suppressed(self):
        out = drive(DuplicateElimination(), [element("a", 0, 10), element("a", 2, 8)])
        assert out == [element("a", 0, 10)]

    def test_partial_overlap_remainder_emitted(self):
        out = drive(DuplicateElimination(), [element("a", 0, 10), element("a", 5, 15)])
        assert out == [element("a", 0, 10), element("a", 10, 15)]

    def test_different_payloads_unaffected(self):
        out = drive(DuplicateElimination(), [element("a", 0, 10), element("b", 0, 10)])
        assert len(out) == 2

    def test_hole_punching(self):
        """A long element over existing short coverage emits the gaps."""
        out = drive(
            DuplicateElimination(),
            [element("a", 2, 4), element("a", 2, 12)],
        )
        assert out == [element("a", 2, 4), element("a", 4, 12)]

    def test_flag_inherited_from_contributing_element(self):
        from repro.temporal import OLD

        out = drive(
            DuplicateElimination(),
            [element("a", 0, 5), element("a", 3, 9).with_flag(OLD)],
        )
        assert out[0].flag is None
        assert out[1].flag == OLD
        assert out[1].interval.start == 5


class TestSnapshotContract:
    def test_no_snapshot_ever_has_duplicates(self):
        rng = random.Random(21)
        inputs = [
            element(rng.randint(0, 3), t, t + rng.randint(3, 25))
            for t in range(0, 150, 2)
        ]
        out = drive(DuplicateElimination(), inputs)
        assert not has_snapshot_duplicates(out)

    def test_output_is_distinct_of_input_at_every_instant(self):
        rng = random.Random(22)
        inputs = [
            element(rng.randint(0, 3), t, t + rng.randint(3, 25))
            for t in range(0, 150, 2)
        ]
        out = drive(DuplicateElimination(), inputs)
        for t in critical_instants(inputs, out):
            assert snapshot(out, t) == snapshot(inputs, t).distinct(), f"t={t}"

    def test_output_ordered(self):
        rng = random.Random(23)
        inputs = [
            element(rng.randint(0, 2), t, t + rng.randint(3, 40))
            for t in range(0, 200, 3)
        ]
        out = drive(DuplicateElimination(), inputs)
        starts = [e.start for e in out]
        assert starts == sorted(starts)


class TestStateManagement:
    def test_coverage_expires(self):
        op = DuplicateElimination()
        op.process(element("a", 0, 10))
        op.process_heartbeat(10)
        assert op.state_of_port(0) == []

    def test_straddling_coverage_truncated(self):
        op = DuplicateElimination()
        op.process(element("a", 0, 10))
        op.process_heartbeat(6)
        state = op.state_of_port(0)
        assert len(state) == 1
        assert state[0].interval.start == 6

    def test_state_value_count(self):
        op = DuplicateElimination()
        op.process(element(("a", "b"), 0, 10))
        assert op.state_value_count() >= 2
