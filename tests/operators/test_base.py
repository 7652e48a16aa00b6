"""Tests for the operator framework: watermarks, ordering, accounting."""

import pytest

from repro.operators import CostMeter, Select
from repro.operators.base import NULL_METER, Operator, StatefulOperator
from repro.streams import CollectorSink
from repro.temporal import element
from repro.temporal.time import MAX_TIME


class _Echo(Operator):
    """Minimal stateful operator for framework tests."""

    def __init__(self):
        super().__init__(arity=1, name="echo", ordered_output=True)
        self.expired = []
        self._state = []

    def _on_element(self, e, port):
        self._state.append(e)
        self._stage(e)

    def _on_watermark(self, watermark):
        kept = []
        for e in self._state:
            if e.end <= watermark:
                self.expired.append(e)
            else:
                kept.append(e)
        self._state = kept

    def state_of_port(self, port):
        return list(self._state)


class TestWiring:
    def test_subscribe_and_emit(self):
        upstream, downstream = _Echo(), _Echo()
        sink = CollectorSink()
        upstream.subscribe(downstream, 0)
        downstream.attach_sink(sink)
        upstream.process(element("a", 0, 5))
        upstream.process_heartbeat(MAX_TIME)
        assert len(sink.elements) == 1

    def test_invalid_port_subscription(self):
        with pytest.raises(ValueError):
            _Echo().subscribe(_Echo(), 3)

    def test_unsubscribe(self):
        upstream, downstream = _Echo(), _Echo()
        upstream.subscribe(downstream, 0)
        upstream.unsubscribe(downstream, 0)
        assert upstream.subscribers == []

    def test_clear_subscribers(self):
        upstream, downstream = _Echo(), _Echo()
        upstream.subscribe(downstream, 0)
        upstream.attach_sink(CollectorSink())
        upstream.clear_subscribers()
        assert upstream.subscribers == []


class TestWatermarks:
    def test_out_of_order_input_rejected(self):
        op = _Echo()
        op.process(element("a", 5, 9))
        with pytest.raises(ValueError):
            op.process(element("b", 3, 9))

    def test_equal_start_allowed(self):
        op = _Echo()
        op.process(element("a", 5, 9))
        op.process(element("b", 5, 9))

    def test_heartbeat_advances_watermark(self):
        op = _Echo()
        op.process_heartbeat(10)
        assert op.min_watermark == 10

    def test_stale_heartbeat_ignored(self):
        op = _Echo()
        op.process_heartbeat(10)
        op.process_heartbeat(4)
        assert op.min_watermark == 10

    def test_min_watermark_over_ports(self):
        op = StatefulOperator(arity=2)
        op._on_element = lambda e, port: None
        op.process_heartbeat(10, 0)
        assert op.min_watermark == 0
        op.process_heartbeat(7, 1)
        assert op.min_watermark == 7

    def test_invalid_port(self):
        with pytest.raises(ValueError):
            _Echo().process(element("a", 0, 1), port=2)


class TestOrderedRelease:
    def test_staged_output_released_by_watermark(self):
        op = _Echo()
        sink = CollectorSink()
        op.attach_sink(sink)
        op.process(element("a", 5, 9))
        assert len(sink.elements) == 1  # watermark 5 >= start 5
        op.process(element("b", 6, 9))
        assert len(sink.elements) == 2

    def test_heartbeats_forwarded_downstream(self):
        upstream, downstream = _Echo(), _Echo()
        upstream.subscribe(downstream, 0)
        upstream.process_heartbeat(42)
        assert downstream.min_watermark == 42

    def test_flush_releases_everything(self):
        op = StatefulOperator(arity=2, name="hold")
        op._on_element = lambda e, port: op._stage(e)
        sink = CollectorSink()
        op.attach_sink(sink)
        op.process(element("a", 5, 9), 0)  # port 1 watermark still 0 -> held
        assert len(sink.elements) == 0
        op.flush()
        assert len(sink.elements) == 1


class TestExpiration:
    def test_interval_rule(self):
        op = _Echo()
        op.process(element("a", 0, 5))
        op.process_heartbeat(5)
        assert [e.payload for e in op.expired] == [("a",)]

    def test_not_expired_before_end(self):
        op = _Echo()
        op.process(element("a", 0, 5))
        op.process_heartbeat(4)
        assert op.expired == []


class TestAccounting:
    def test_state_value_count_counts_payload_values(self):
        op = _Echo()
        op.process(element((1, 2, 3), 0, 5))
        assert op.state_value_count() >= 3

    def test_cost_meter(self):
        meter = CostMeter()
        meter.charge(5, "join-predicate")
        meter.charge(2, "join-predicate")
        meter.charge(1, "window")
        assert meter.total == 8
        assert meter.by_category["join-predicate"] == 7

    def test_null_meter_discards(self):
        NULL_METER.charge(100)  # must not raise or accumulate

    def test_operators_default_to_null_meter(self):
        assert Select(lambda p: True).meter is NULL_METER
