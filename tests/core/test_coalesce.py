"""Tests for the Coalesce operator (Algorithm 3)."""

from repro.core import Coalesce
from repro.streams import CollectorSink
from repro.temporal import EPSILON, TimeInterval, element, snapshot_equivalent
from repro.temporal.time import MAX_TIME

T_SPLIT = 100 + EPSILON


def make():
    op = Coalesce(T_SPLIT)
    sink = CollectorSink()
    op.attach_sink(sink)
    return op, sink


def finish(op):
    op.process_heartbeat(MAX_TIME, 0)
    op.process_heartbeat(MAX_TIME, 1)
    op.flush()


class TestPassthrough:
    def test_old_result_clear_of_t_split_passes(self):
        op, sink = make()
        op.process(element("a", 0, 50), 0)
        finish(op)
        assert sink.elements == [element("a", 0, 50)]

    def test_new_result_clear_of_t_split_passes(self):
        op, sink = make()
        op.process(element("a", 150, 180), 1)
        finish(op)
        assert sink.elements == [element("a", 150, 180)]


class TestMerging:
    def test_halves_merged_at_t_split(self):
        op, sink = make()
        op.process(element("a", 40, T_SPLIT), 0)
        op.process(element("a", T_SPLIT, 130), 1)
        finish(op)
        assert sink.elements == [element("a", 40, 130)]
        assert op.merged_count == 1

    def test_merge_order_independent(self):
        op, sink = make()
        op.process(element("a", T_SPLIT, 130), 1)
        op.process(element("a", 40, T_SPLIT), 0)
        finish(op)
        assert sink.elements == [element("a", 40, 130)]

    def test_different_payloads_not_merged(self):
        op, sink = make()
        op.process(element("a", 40, T_SPLIT), 0)
        op.process(element("b", T_SPLIT, 130), 1)
        finish(op)
        assert len(sink.elements) == 2

    def test_multiple_copies_merge_fifo(self):
        op, sink = make()
        op.process(element("a", 40, T_SPLIT), 0)
        op.process(element("a", 60, T_SPLIT), 0)
        op.process(element("a", T_SPLIT, 120), 1)
        op.process(element("a", T_SPLIT, 140), 1)
        finish(op)
        merged = {(e.start, e.end) for e in sink.elements}
        assert merged == {(40, 120), (60, 140)}
        assert op.merged_count == 2

    def test_merging_preserves_snapshots(self):
        op, sink = make()
        inputs = [
            (element("a", 40, T_SPLIT), 0),
            (element("b", 70, 90), 0),
            (element("a", T_SPLIT, 130), 1),
            (element("c", 110, 140), 1),
        ]
        for e, port in inputs:
            op.process(e, port)
        finish(op)
        assert snapshot_equivalent([e for e, _ in inputs], sink.elements)


class TestUnmatchedHalves:
    def test_unmatched_old_half_evicted_by_watermark(self):
        """Holding it longer would break output ordering."""
        op, sink = make()
        op.process(element("a", 40, T_SPLIT), 0)
        op.process_heartbeat(60, 0)
        op.process_heartbeat(60, 1)
        assert element("a", 40, T_SPLIT) in sink.elements

    def test_unmatched_old_half_flushed_at_teardown(self):
        op, sink = make()
        op.process(element("a", 40, T_SPLIT), 0)
        op.flush()
        assert sink.elements == [element("a", 40, T_SPLIT)]

    def test_unmatched_new_half_flushed_at_teardown(self):
        op, sink = make()
        op.process(element("a", T_SPLIT, 130), 1)
        op.flush()
        assert sink.elements == [element("a", T_SPLIT, 130)]

    def test_new_half_released_when_old_side_drains(self):
        """M1 entries release exactly when the old box signals completion."""
        op, sink = make()
        op.process(element("a", T_SPLIT, 130), 1)
        op.process_heartbeat(MAX_TIME, 0)   # old box drained
        op.process_heartbeat(150, 1)
        assert sink.elements == [element("a", T_SPLIT, 130)]

    def test_late_match_after_eviction_emits_separately(self):
        op, sink = make()
        op.process(element("a", 40, T_SPLIT), 0)
        op.process_heartbeat(60, 0)
        op.process_heartbeat(60, 1)     # evicts the old half
        op.process(element("a", T_SPLIT, 130), 1)
        finish(op)
        assert len(sink.elements) == 2
        assert snapshot_equivalent(sink.elements, [element("a", 40, 130)])


class TestOrderingAndState:
    def test_output_ordered_by_start(self):
        op, sink = make()
        op.process(element("x", 10, 60), 0)
        op.process(element("a", 40, T_SPLIT), 0)
        op.process(element("a", T_SPLIT, 130), 1)
        op.process(element("y", 50, 80), 0)
        finish(op)
        starts = [e.start for e in sink.elements]
        assert starts == sorted(starts)

    def test_state_accounting_includes_tables(self):
        op, _ = make()
        op.process(element(("a", "b"), 40, T_SPLIT), 0)
        assert op.state_value_count() >= 2

    def test_flush_tables_clears_state(self):
        op, _ = make()
        op.process(element("a", 40, T_SPLIT), 0)
        op.process(element("b", T_SPLIT, 130), 1)
        op.flush()
        assert op.state_of_port(0) == op.state_of_port(1) == []
