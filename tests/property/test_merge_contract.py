"""The run contract of the migration merges: a batch is its elements.

Fluid migration joins its two box roots through a plain ``Union``, and
the reference-point strategy hands each root's output to the gate through
a sink adapter (``_ReferencePointFilter`` on the new box,
``_OldOutputMonitor`` on the old, which releases what the filter holds
once the old box promises past ``T_split``).  Each takes a run whole where
it can; for every run that must equal element-wise ``process`` followed
by a heartbeat at the run's trailing watermark.

For the union that is checked over random two-port schedules of runs and
heartbeats, after every step: each receiver's element sequence and the
promises that raise its watermark, the three progress marks, the meter's
charges per category and the staged heap.  The schedules reach a run
arriving with nothing staged and the other port level or ahead (the run
passes whole), with results staged, with the other port lagging, and one
or two receivers (both of the latter take the element protocol).  For the
adapters: ``dropped``, ``violations``, and the gate's ``delivered``,
``order_violations``, delivered stream and promises, with and without a
sanitizer, for runs that go backwards past the gate's last delivered
start, and with the hand-off before, amid and after the runs; nothing
the filter holds reaches its gate before the hand-off.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BATCH_BUILDERS, columnar
from repro.core.reference_point import _OldOutputMonitor, _ReferencePointFilter
from repro.engine.box import OutputGate
from repro.operators import CostMeter, Union, base
from repro.streams import CollectorSink
from repro.temporal import element
from repro.temporal.time import MAX_TIME, half_before


class Receiver:
    """A downstream operator's view: its input stream, each promise that
    raises its watermark in place, and how many runs arrived whole.  As
    at a real operator port, a consumed element moves the watermark too."""

    arity = 1

    def __init__(self):
        self.trace = []
        self.watermark = 0
        self.runs = 0

    def process(self, e, port=0):
        self.trace.append((e.payload, e.start, e.end))
        self.watermark = max(self.watermark, e.start)

    def process_batch(self, batch, port=0):
        self.runs += 1
        for e in batch.elements:
            self.process(e, port)
        self.process_heartbeat(batch.watermark, port)

    def process_heartbeat(self, t, port=0):
        if t > self.watermark:
            self.trace.append(("promise", t))
            self.watermark = t


@st.composite
def schedules(draw):
    """Steps ``("run", port, starts, trailing)`` or ``("heartbeat", port,
    t)``, each port's starts and promises non-decreasing."""
    marks = [0, 0]
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        port = draw(st.integers(min_value=0, max_value=1))
        if draw(st.booleans()):
            t = marks[port] + draw(st.integers(min_value=1, max_value=6))
            steps.append(("heartbeat", port, t))
            marks[port] = t
            continue
        first = marks[port] + draw(st.integers(min_value=0, max_value=3))
        deltas = draw(st.lists(st.sampled_from([0, 0, 1, 2]), max_size=4))
        starts = list(itertools.accumulate([first] + deltas))
        trailing = draw(st.sampled_from([0, 0, 2]))
        steps.append(("run", port, starts, trailing))
        marks[port] = starts[-1] + trailing
    return steps


def drive_union(schedule, receivers, layout):
    """Everything observable after each step of ``schedule``; ``layout``
    ``None`` feeds runs element by element."""
    union = Union()
    union.meter = CostMeter()
    probes = [Receiver() for _ in range(receivers)]
    for probe in probes:
        union.subscribe(probe, 0)
    observed = []
    for index, step in enumerate(schedule):
        port = step[1]
        if step[0] == "heartbeat":
            union.process_heartbeat(step[2], port)
        else:
            _, _, starts, trailing = step
            run = [element((index, i), s, s + 4) for i, s in enumerate(starts)]
            watermark = starts[-1] + trailing
            if layout is None:
                for e in run:
                    union.process(e, port)
                union.process_heartbeat(watermark, port)
            else:
                union.process_batch(layout(run, watermark=watermark), port)
        progress = union.progress_state()
        observed.append(
            (
                [probe.trace[:] for probe in probes],
                progress["watermarks"],
                progress["emitted_watermark"],
                progress["purged_watermark"],
                [(e.payload, e.start, e.end) for e in progress["staged"]],
                dict(union.meter.by_category),
            )
        )
    return observed, sum(probe.runs for probe in probes)


@settings(max_examples=200, deadline=None)
@given(schedule=schedules(), receivers=st.sampled_from([1, 2]))
def test_union_run_equals_elementwise_process(schedule, receivers):
    reference, _ = drive_union(schedule, receivers, None)
    for layout, build in BATCH_BUILDERS.items():
        observed, _ = drive_union(schedule, receivers, build)
        assert observed == reference, layout


#: ``(schedule, receivers, passes whole)``: a run on port 0 after a
#: promise on port 1, once per condition the run path checks.
CASES = {
    "other-ahead": ([("heartbeat", 1, 10), ("run", 0, [4, 4, 6], 0)], 1, True),
    "other-level": ([("heartbeat", 1, 6), ("run", 0, [4, 4, 6], 0)], 1, True),
    "trailing-past-other": ([("heartbeat", 1, 6), ("run", 0, [4, 4, 6], 2)], 1, False),
    "other-lagging": ([("heartbeat", 1, 5), ("run", 0, [4, 4, 6], 0)], 1, False),
    "heap-not-empty": (
        [("run", 1, [3], 0), ("heartbeat", 1, 10), ("run", 0, [4, 4, 6], 0)], 1, False
    ),
    "two-receivers": ([("heartbeat", 1, 10), ("run", 0, [4, 4, 6], 0)], 2, False),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_union_passes_a_run_whole_only_when_each_element_would_leave_alone(case):
    schedule, receivers, whole = CASES[case]
    reference, _ = drive_union(schedule, receivers, None)
    observed, runs = drive_union(schedule, receivers, columnar)
    assert observed == reference
    assert (runs > 0) == whole


T_SPLIT = half_before(10)
#: Result starts around the split time: below, at, and past it.
STARTS = (8, 9, T_SPLIT, T_SPLIT, T_SPLIT, 10, 11)


def adapter_feed(seed, disorder):
    """Start-ordered runs cut from one sorted draw of ``STARTS``; with
    ``disorder`` the runs arrive shuffled, so some go backwards."""
    rng = random.Random(seed)
    starts = sorted(rng.choice(STARTS) for _ in range(rng.randint(4, 16)))
    runs = []
    while starts:
        size = rng.randint(1, 4)
        runs.append(starts[:size])
        starts = starts[size:]
    if disorder:
        rng.shuffle(runs)
    return [
        [element((r, i), s, s + 3) for i, s in enumerate(run)]
        for r, run in enumerate(runs)
    ]


class PromiseLog(CollectorSink):
    """A sink that also records the promises it receives."""

    def __init__(self):
        super().__init__()
        self.promises = []

    def process_heartbeat(self, t, port=0):
        self.promises.append(t)


def drive_adapters(runs, layout, release_after):
    """Feed every run to both adapters; the old box promises past
    ``T_SPLIT`` after run ``release_after`` (never, past the last run:
    then the migration's completion releases the filter)."""
    gates = [OutputGate(), OutputGate()]
    sinks = [PromiseLog(), PromiseLog()]
    for gate, sink in zip(gates, sinks):
        gate.expects_disorder = True
        gate.add_sink(sink)
    new_output = _ReferencePointFilter(gates[0], T_SPLIT)
    adapters = [new_output, _OldOutputMonitor(gates[1], T_SPLIT, new_output)]
    for k, run in enumerate(runs):
        for adapter in adapters:
            if layout is None:
                for e in run:
                    adapter.process(e)
            else:
                adapter.process_batch(layout(run))
        new_output.process_heartbeat(run[-1].start)
        adapters[1].process_heartbeat(MAX_TIME if k >= release_after else 9)
        if k < release_after:
            assert new_output.holding
            assert gates[0].delivered == 0 and not sinks[0].promises
            assert new_output.held_values == sum(len(e.payload) for e in new_output.held)
    new_output.release()
    assert not new_output.holding and new_output.held_values == 0
    return (
        adapters[0].dropped,
        adapters[1].violations,
        [(gate.delivered, gate.order_violations) for gate in gates],
        [[(e.payload, e.start) for e in sink.elements] for sink in sinks],
        [sink.promises for sink in sinks],
    )


@pytest.mark.parametrize("sanitize", [True, False])
@pytest.mark.parametrize("disorder", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_reference_point_adapters_take_runs_as_their_elements(
    seed, disorder, sanitize, monkeypatch
):
    if not sanitize:
        monkeypatch.setattr(base, "SANITIZER", None)
    runs = adapter_feed(seed, disorder)
    # The new box's output is start-ordered, so only ordered runs are held;
    # shuffled runs take the hand-off up front and reach the gate as sent.
    release_after = 0 if disorder else seed % (len(runs) + 1)
    reference = drive_adapters(runs, None, release_after)
    for layout, build in BATCH_BUILDERS.items():
        assert drive_adapters(runs, build, release_after) == reference, layout
