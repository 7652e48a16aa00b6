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
adds is only its views: the windows rewrite the columns and hand on a
run whose element view is not built, ``NowWindow`` and ``Router`` hand on
the run they got, selections and projections box it.
"""

import itertools

import pytest

from helpers import BATCH_BUILDERS, columnar
from helpers import STATELESS_FACTORIES as FACTORIES
from repro.analysis.sanitizer import SanitizerViolation, StreamSanitizer, sanitized
from repro.engine.box import Router
from repro.operators import NowWindow, Select, TimeWindow, UnboundedWindow
from repro.operators import base
from repro.operators.base import CostMeter
from repro.temporal import element
from repro.temporal.batch import Batch

#: Classes that forward a rewrite of the run's columns.
REWRITES_COLUMNS = (TimeWindow, UnboundedWindow)
#: Classes that forward the run they got.
PASSES_RUN_ON = (NowWindow, Router)

#: ``(start, value)`` runs: uniform, non-uniform, and one ``Select`` drops whole.
RUNS = {
    "uniform": [(5, 0), (5, 1), (5, 2)],
    "non-uniform": [(5, 0), (5, 3), (6, 4), (8, 6)],
    "single": [(5, 2)],
    "all-odd": [(5, 1), (6, 3)],
}


class Probe:
    """A subscriber recording elements, the watermark it was promised,
    and every batch handed to it with whether its element view existed
    yet (intermediate heartbeats are not part of the contract: a run
    dropped whole promises once, not per element)."""

    arity = 1

    def __init__(self):
        self.trace = []
        self.batches = []
        self.watermark = 0

    def process(self, e, port=0):
        self.trace.append((e.payload, e.start, e.end, e.flag))
        self.watermark = max(self.watermark, e.start)

    def process_batch(self, batch, port=0):
        self.batches.append((batch, batch._cached is not None))
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
    ), probe.batches


@pytest.mark.parametrize(
    "cls,layout,run,ahead",
    itertools.product(
        sorted(FACTORIES, key=lambda c: c.__name__),
        sorted(BATCH_BUILDERS),
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

    run_in = BATCH_BUILDERS[layout](elements, watermark=watermark, source="s")

    def batched(op):
        op.process_batch(run_in)

    reference, _ = observe(cls, elementwise)
    observed, forwarded = observe(cls, batched)
    assert observed == reference
    if cls in PASSES_RUN_ON:
        assert [batch for batch, _ in forwarded] == [run_in]
    assert forwarded or (cls is Select and run == "all-odd")
    # The pure hook handover code computes with says the same thing.
    pure = FACTORIES[cls]().evaluate(elements)
    assert [(e.payload, e.start, e.end, e.flag) for e in pure] == reference[0][1:]


@pytest.mark.parametrize(
    "cls", REWRITES_COLUMNS + PASSES_RUN_ON, ids=lambda c: c.__name__
)
def test_a_run_of_columns_is_handed_on_unboxed(cls, monkeypatch):
    """Windows and ``Router`` never build a run's element view: a run that
    arrives as columns leaves as columns.  (The sanitizer reads every
    element, so it is off here.)"""
    monkeypatch.setattr(base, "SANITIZER", None)
    elements = [element((value,), start, start + 2) for start, value in RUNS["non-uniform"]]
    _, forwarded = observe(cls, lambda op: op.process_batch(columnar(elements)))
    assert forwarded and not any(has_elements for _, has_elements in forwarded)


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
