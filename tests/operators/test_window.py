"""Tests for the window operators."""

import pytest

from repro.operators import CountWindow, NowWindow, TimeWindow, UnboundedWindow
from repro.streams import CollectorSink
from repro.temporal import Multiset, element, snapshot
from repro.temporal.time import MAX_TIME


def drive(op, elements, flush=True):
    sink = CollectorSink()
    op.attach_sink(sink)
    for e in elements:
        op.process(e)
    if flush:
        op.process_heartbeat(MAX_TIME)
    return sink.elements


class TestTimeWindow:
    def test_unit_element_extension(self):
        out = drive(TimeWindow(10), [element("a", 5, 6)])
        assert out == [element("a", 5, 16)]

    def test_general_interval_extension(self):
        """Nested-window case: every instant's validity extends by w."""
        out = drive(TimeWindow(10), [element("a", 5, 9)])
        assert out == [element("a", 5, 19)]

    def test_zero_window_is_identity(self):
        out = drive(TimeWindow(0), [element("a", 5, 6)])
        assert out == [element("a", 5, 6)]

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            TimeWindow(-1)

    def test_window_size_in_snapshots(self):
        """An element @t must be in exactly the snapshots t .. t+w."""
        out = drive(TimeWindow(3), [element("a", 10, 11)])
        for t in range(10, 14):
            assert snapshot(out, t) == Multiset([("a",)])
        assert snapshot(out, 14) == Multiset()
        assert snapshot(out, 9) == Multiset()


class TestNowWindow:
    def test_identity_on_unit_elements(self):
        out = drive(NowWindow(), [element("a", 5, 6)])
        assert out == [element("a", 5, 6)]


class TestUnboundedWindow:
    def test_validity_never_ends(self):
        out = drive(UnboundedWindow(), [element("a", 5, 6)])
        assert out[0].interval.is_unbounded


class TestCountWindow:
    def test_snapshot_holds_last_n_elements(self):
        window = CountWindow(2)
        inputs = [element(i, t, t + 1) for i, t in enumerate(range(0, 50, 10))]
        out = drive(window, inputs)
        # At t=25, the last two arrivals are elements 2 (t=20) and 1 (t=10).
        assert snapshot(out, 25) == Multiset([(1,), (2,)])
        # At t=45, elements 3 and 4.
        assert snapshot(out, 45) == Multiset([(3,), (4,)])

    def test_every_snapshot_has_at_most_n(self):
        window = CountWindow(3)
        inputs = [element(i, t, t + 1) for i, t in enumerate(range(0, 100, 5))]
        out = drive(window, inputs)
        for t in range(0, 100):
            assert len(snapshot(out, t)) <= 3

    def test_tail_flushed_unbounded_at_end_of_stream(self):
        out = drive(CountWindow(2), [element("a", 0, 1)])
        assert out[0].interval.is_unbounded

    def test_output_remains_ordered(self):
        window = CountWindow(2)
        inputs = [element(i, t, t + 1) for i, t in enumerate(range(0, 40, 4))]
        out = drive(window, inputs)
        starts = [e.start for e in out]
        assert starts == sorted(starts)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            CountWindow(0)

    def test_state_tracks_pending(self):
        window = CountWindow(3)
        window.process(element("a", 0, 1))
        assert window.state_of_port(0) == [element("a", 0, 1)]
