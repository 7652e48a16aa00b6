"""Tests for boxes, routers and the output gate."""

from repro.engine import Box, OutputGate, Router
from repro.operators import DuplicateElimination, Select, equi_join
from repro.streams import CollectorSink
from repro.temporal import Batch, element


def join_distinct_box():
    join = equi_join(0, 0, name="join")
    distinct = DuplicateElimination(name="distinct")
    join.subscribe(distinct, 0)
    return Box(taps={"A": [(join, 0)], "B": [(join, 1)]}, root=distinct, label="test")


class TestBox:
    def test_operator_discovery(self):
        box = join_distinct_box()
        names = {op.name for op in box.operators}
        assert names == {"join", "distinct"}

    def test_explicit_operator_list_respected(self):
        join = equi_join(0, 0)
        box = Box(taps={"A": [(join, 0)]}, root=join, operators=[join])
        assert box.operators == [join]

    def test_state_value_count_aggregates_operators(self):
        box = join_distinct_box()
        join = box.taps["A"][0][0]
        join.process(element(("k", "v"), 0, 10), 0)
        assert box.state_value_count() == 2

    def test_state_elements(self):
        box = join_distinct_box()
        join = box.taps["A"][0][0]
        join.process(element("k", 0, 10), 0)
        held = [
            e for op in box.operators for port in range(op.arity) for e in op.state_of_port(port)
        ]
        assert held == [element("k", 0, 10)]

    def test_set_meter_reaches_all_operators(self):
        from repro.operators import CostMeter

        box = join_distinct_box()
        meter = CostMeter()
        box.set_meter(meter)
        assert all(op.meter is meter for op in box.operators)

    def test_sever_disconnects_root(self):
        box = join_distinct_box()
        sink = CollectorSink()
        box.root.attach_sink(sink)
        box.sever()
        box.root.process(element("a", 0, 5))
        box.root.flush()
        assert sink.elements == []


class TestRouter:
    def test_forwards_to_targets(self):
        router = Router()
        select = Select(lambda p: True)
        sink = CollectorSink()
        select.attach_sink(sink)
        router.retarget([(select, 0)])
        router.process(element("a", 0, 5))
        assert len(sink.elements) == 1

    def test_retarget_is_atomic_replacement(self):
        router = Router()
        first, second = Select(lambda p: True), Select(lambda p: True)
        sink1, sink2 = CollectorSink(), CollectorSink()
        first.attach_sink(sink1)
        second.attach_sink(sink2)
        router.retarget([(first, 0)])
        router.process(element("a", 0, 5))
        router.retarget([(second, 0)])
        router.process(element("b", 1, 5))
        assert [e.payload for e in sink1.elements] == [("a",)]
        assert [e.payload for e in sink2.elements] == [("b",)]

    def test_forwards_heartbeats(self):
        router = Router()
        select = Select(lambda p: True)
        router.retarget([(select, 0)])
        router.process_heartbeat(42)
        assert select.min_watermark == 42


class TestOutputGate:
    def test_delivery_counting(self):
        gate = OutputGate()
        sink = CollectorSink()
        gate.add_sink(sink)
        gate.process(element("a", 0, 5))
        assert gate.delivered == 1
        assert len(sink.elements) == 1

    def test_order_violations_counted_not_fatal(self):
        gate = OutputGate()
        gate.expects_disorder = True  # as Parallel Track brackets its flush
        gate.process(element("a", 10, 15))
        gate.process(element("b", 3, 15))  # the PT flush case
        assert gate.order_violations == 1
        assert gate.delivered == 2

    def test_in_order_deliveries_not_flagged(self):
        gate = OutputGate()
        gate.process(element("a", 3, 15))
        gate.process(element("b", 10, 15))
        gate.process(element("c", 10, 15))
        assert gate.order_violations == 0

    def test_on_delivery_hook(self):
        gate = OutputGate()
        seen = []
        gate.on_delivery = seen.append
        gate.process(element("a", 0, 5))
        gate.process_batch(Batch([element("b", 1, 5), element("c", 2, 5)]))
        assert sum(seen) == gate.delivered == 3

    def test_heartbeats_forwarded(self):
        gate = OutputGate()
        sink = CollectorSink()
        gate.add_sink(sink)
        gate.process_heartbeat(99)  # must not raise
