"""The run contract of stateless operators: a batch is its elements.

``StatelessOperator`` writes the run protocol once (port check, sanitizer,
order check, watermark, charge, transform, forward, relay, trailing
heartbeat).  For every concrete subclass — ``Router`` is one;
``tests/operators/test_relay.py`` checks the list is complete — and every
shape of run, ``process_batch`` must be indistinguishable from
element-wise ``process`` followed by a heartbeat at the trailing
watermark: same emitted elements, same meter charges per category (keys
in the same insertion order), same three progress marks — and the pure
``evaluate`` returns exactly what was emitted.  What a batch
adds is only its layout: windows and ``Router`` hand a ``ColumnarBatch``
on columnar, selections and projections box it.
"""

import itertools

import pytest

from helpers import STATELESS_FACTORIES as FACTORIES
from repro.analysis.sanitizer import SanitizerViolation, StreamSanitizer, sanitized
from repro.engine.box import Router
from repro.operators import NowWindow, Select, TimeWindow, UnboundedWindow
from repro.operators.base import CostMeter
from repro.temporal import element
from repro.temporal.batch import Batch
from repro.temporal.columnar import ColumnarBatch

#: Classes whose forwarded batch keeps a columnar run columnar.
KEEPS_COLUMNAR = (TimeWindow, NowWindow, UnboundedWindow, Router)

#: ``(start, value)`` runs: uniform, non-uniform, and one ``Select`` drops whole.
RUNS = {
    "uniform": [(5, 0), (5, 1), (5, 2)],
    "non-uniform": [(5, 0), (5, 3), (6, 4), (8, 6)],
    "single": [(5, 2)],
    "all-odd": [(5, 1), (6, 3)],
}


class Probe:
    """A subscriber recording elements, the watermark it was promised,
    and the type of every batch handed to it (intermediate heartbeats are
    not part of the contract: a run dropped whole promises once, not per
    element)."""

    arity = 1

    def __init__(self):
        self.trace = []
        self.batch_types = []
        self.watermark = 0

    def process(self, e, port=0):
        self.trace.append((e.payload, e.start, e.end, e.flag))
        self.watermark = max(self.watermark, e.start)

    def process_batch(self, batch, port=0):
        self.batch_types.append(type(batch))
        for e in batch.elements:
            self.process(e, port)
        self.process_heartbeat(batch.watermark, port)

    def process_heartbeat(self, t, port=0):
        self.watermark = max(self.watermark, t)


def observe(cls, feed):
    """Run ``feed(op)`` on a fresh operator; everything observable after."""
    op = FACTORIES[cls]()
    op.meter = CostMeter()
    probe = Probe()
    op.subscribe(probe, 0)
    op.process(element((8,), 2, 4))  # a prior element: marks start off MIN_TIME
    feed(op)
    return (
        probe.trace,
        probe.watermark,
        list(op.meter.by_category.items()),
        list(op._watermarks),
        op._purged_watermark,
        op._emitted_watermark,
    ), probe.batch_types


@pytest.mark.parametrize(
    "cls,layout,run,ahead",
    itertools.product(
        sorted(FACTORIES, key=lambda c: c.__name__),
        (Batch, ColumnarBatch),
        sorted(RUNS),
        (0, 3),
    ),
    ids=lambda value: getattr(value, "__name__", str(value)),
)
def test_process_batch_equals_elementwise_process(cls, layout, run, ahead):
    elements = [element((value,), start, start + 2) for start, value in RUNS[run]]
    watermark = elements[-1].start + ahead

    def elementwise(op):
        for e in elements:
            op.process(e)
        op.process_heartbeat(watermark)

    def batched(op):
        op.process_batch(layout(elements, watermark=watermark, source="s"))

    reference, _ = observe(cls, elementwise)
    observed, batch_types = observe(cls, batched)
    assert observed == reference
    expected = ColumnarBatch if layout is ColumnarBatch and cls in KEEPS_COLUMNAR else Batch
    assert all(forwarded is expected for forwarded in batch_types)
    assert batch_types or (cls is Select and run == "all-odd")
    # The pure hook handover code computes with says the same thing.
    pure = FACTORIES[cls]().evaluate(elements)
    assert [(e.payload, e.start, e.end, e.flag) for e in pure] == reference[0][1:]


@pytest.mark.parametrize(
    "cls", sorted(FACTORIES, key=lambda c: c.__name__), ids=lambda c: c.__name__
)
def test_batch_on_a_port_that_does_not_exist_is_refused_like_an_element(cls):
    op = FACTORIES[cls]()
    with pytest.raises(ValueError, match="has no input port 1"):
        op.process(element((0,), 1, 2), 1)
    with pytest.raises(ValueError, match="has no input port 1"):
        op.process_batch(Batch([element((0,), 1, 2)]), port=1)
    assert op._watermarks == FACTORIES[cls]()._watermarks


def test_malformed_run_is_reported_against_the_window_input_port():
    """A pushed run flagged uniform whose starts differ is the window's
    *input* violation, not its output's."""
    malformed = Batch._trusted(
        [element((0,), 1, 2), element((0,), 2, 3)], 2, "s", True
    )
    window = TimeWindow(7, name="w")
    with sanitized(StreamSanitizer()):
        with pytest.raises(SanitizerViolation, match="w input port 0") as caught:
            window.process_batch(malformed)
    assert caught.value.code == "SAN006"
