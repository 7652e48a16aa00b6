"""Run-at-a-time delivery: ``OutputGate.process_batch`` is its elements.

The gate checks order once per run (a batch is start-ordered), counts the
run in one step and hands it whole to every sink that takes batches.  For
every sequence of runs that must equal delivering each result through
``OutputGate.process``: the sinks' contents, ``delivered``,
``order_violations`` (including a run starting below the last delivered
start), the results ``on_delivery`` is told of and the ``MetricsRecorder``
series it feeds, and — under a strict sanitizer — SAN009.
"""

import itertools

import pytest

from repro.analysis.sanitizer import SanitizerViolation, StreamSanitizer, sanitized
from repro.engine.box import OutputGate
from repro.engine.metrics import MetricsRecorder
from repro.operators import base
from repro.streams.sinks import CallbackSink, CollectorSink, LatencySink, RateSink
from helpers import BATCH_BUILDERS
from repro.temporal import element
from repro.temporal.batch import Batch

#: Runs of ``(payload, start)``; each list is delivered run by run.
FEEDS = {
    "in-order": [[("a", 3), ("b", 3)], [("c", 5)], [("d", 5), ("e", 6), ("f", 9)]],
    "equal-start": [[("a", 4)], [("b", 4), ("c", 4)]],
    "below-last": [[("a", 3), ("b", 8)], [("c", 5), ("d", 9)], [("e", 9)]],
    "below-first": [[("a", 7)], [("b", 2), ("c", 2)], [("d", 4)]],
}


def runs_of(feed, layout):
    return [
        layout([element(payload, start, start + 10) for payload, start in run])
        for run in feed
    ]


class Ticking:
    """A clock that moves on every read, so a sink reading it once per run
    instead of once per result would record something else."""

    def __init__(self):
        self.reads = itertools.count(0, 3)

    def __call__(self):
        return next(self.reads)


class ElementOnly:
    """A sink with no ``process_batch``: fed one result at a time."""

    def __init__(self):
        self.seen = []

    def process(self, e, port=0):
        self.seen.append(e)

    def process_heartbeat(self, t, port=0):
        pass


def deliver(feed, layout, batched):
    gate = OutputGate()
    collector = CollectorSink()
    rate = RateSink(4, Ticking())
    latency = LatencySink(Ticking())
    called = []
    callback = CallbackSink(called.append)
    plain = ElementOnly()
    for sink in (collector, rate, latency, callback, plain):
        gate.add_sink(sink)
    hooked = []
    recorder = MetricsRecorder(bucket_size=4)
    # The executor's clock stands still while one run is delivered.
    clock = [0]

    def on_delivery(count):
        hooked.append(count)
        recorder.record_output(clock[0], count)

    gate.on_delivery = on_delivery
    for index, run in enumerate(runs_of(feed, layout)):
        clock[0] = 3 * index
        if batched:
            gate.process_batch(run)
        else:
            for e in run.elements:
                gate.process(e)
    return {
        "collected": collector.elements,
        "rate": (rate.elements, rate.counts),
        "latency": (latency.elements, latency.delays),
        "callback": (called, callback.count),
        "plain": plain.seen,
        "on_delivery": sum(hooked),
        "series": (recorder.series.output, recorder.series.results),
        "delivered": gate.delivered,
        "violations": gate.order_violations,
        "progress": gate.progress_state(),
    }


@pytest.fixture
def unsanitized(monkeypatch):
    """The unsanitized engine: the gate's one-check-per-run branch."""
    monkeypatch.setattr(base, "SANITIZER", None)


@pytest.mark.parametrize(
    "layout", list(BATCH_BUILDERS.values()), ids=list(BATCH_BUILDERS)
)
@pytest.mark.parametrize("feed", sorted(FEEDS))
def test_batch_delivery_equals_element_delivery(unsanitized, feed, layout):
    expected = deliver(FEEDS[feed], layout, batched=False)
    assert deliver(FEEDS[feed], layout, batched=True) == expected
    assert expected["delivered"] == sum(len(run) for run in FEEDS[feed])
    assert expected["on_delivery"] == expected["delivered"]
    assert (expected["violations"] > 0) == feed.startswith("below")


def hand_runs_to_a_batch_sink():
    """Deliver the ``below-last`` feed run by run; returns the runs and
    the ones a batch-taking sink received whole."""
    gate = OutputGate()
    handed = []

    class BatchSink(CollectorSink):
        def process_batch(self, batch):
            handed.append(batch)
            super().process_batch(batch)

    gate.add_sink(BatchSink())
    runs = runs_of(FEEDS["below-last"], Batch)
    for run in runs:
        gate.process_batch(run)
    return runs, handed


def test_in_order_runs_reach_batch_sinks_whole(unsanitized):
    runs, handed = hand_runs_to_a_batch_sink()
    # The run starting below the last start went element by element.
    assert handed == [runs[0], runs[2]]


def test_in_order_runs_reach_batch_sinks_whole_under_the_sanitizer():
    """A sanitizer checks an in-order run once and keeps the run path;
    only the run starting below the last start goes element by element
    (and records its one violation)."""
    with sanitized(StreamSanitizer()) as sanitizer:
        runs, handed = hand_runs_to_a_batch_sink()
    assert handed == [runs[0], runs[2]]
    assert [e.start for _, e in sanitizer.gate_violations] == [5]


@pytest.mark.parametrize("feed", sorted(FEEDS))
def test_strict_sanitizer_raises_san009_alike(feed):
    outcomes = []
    for batched in (False, True):
        with sanitized(StreamSanitizer(strict_gate=True)):
            try:
                deliver(FEEDS[feed], Batch, batched)
            except SanitizerViolation as exc:
                outcomes.append((exc.code, str(exc)))
            else:
                outcomes.append(None)
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0] is not None) == feed.startswith("below")
    if outcomes[0] is not None:
        assert outcomes[0][0] == "SAN009"


@pytest.mark.parametrize("feed", sorted(FEEDS))
def test_tolerant_sanitizer_records_the_same_violations(feed):
    recorded = []
    for batched in (False, True):
        with sanitized(StreamSanitizer()) as sanitizer:
            observed = deliver(FEEDS[feed], Batch, batched)
        recorded.append((sanitizer.gate_violations, observed))
    assert recorded[0] == recorded[1]
