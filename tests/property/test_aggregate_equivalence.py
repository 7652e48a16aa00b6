"""The aggregate's incremental finalisation against its scan reference.

``Aggregate`` finalises a watermark step from a live view it maintains
incrementally — per-group members in insertion order, an end-ordered
index, one cached fold per group — and that view is its state.  The
claim is that nobody can tell: elements, order, flags, state and meter
totals are those of the scan that keeps a plain list of open elements
and rescans and refolds it for every segment.  Here that scan is the
oracle: a subclass holding its own list (``ScanAggregate``) runs beside
the real operator, and everything observable is compared after every
event — element arrivals, heartbeat-only steps, uniform-start batches,
elements that have yet to start absorbed into live state mid-run (in and
out of start order) and the end-of-stream flush.
The package runs under the sanitizer (``conftest.py``), so every
incremental step also asserts itself against the scan from the inside.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.operators import (
    Aggregate,
    CostMeter,
    avg_of,
    count,
    max_of,
    min_of,
    sum_of,
)
from repro.operators import base
from repro.operators.aggregate import _merge_adjacent
from repro.operators.scalar import AggregateFunction
from repro.streams import CollectorSink
from repro.temporal import NEW, OLD, StreamElement, TimeInterval
from repro.temporal.batch import Batch
from repro.temporal.time import MAX_TIME


class ScanAggregate(Aggregate):
    """The reference: a plain list of open elements — appended on element
    and absorb, purged once ``end <= watermark`` — rescanned and refolded
    per segment by ``Aggregate._scan``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.open = []

    def _on_element(self, element, port):
        self.meter.charge(1, "aggregate")
        self.open.append(element)

    def _on_watermark(self, watermark):
        lo = self._frontier
        if watermark <= lo:
            return
        results, charged = self._scan(lo, min(watermark, MAX_TIME), self.open)
        if charged:
            self.meter.charge(charged, "aggregate")
        for merged in _merge_adjacent(results):
            self._emit(merged)
        self._frontier = watermark
        self.open = [e for e in self.open if e.end > watermark]

    def _state_value_count(self):
        return sum(len(e.payload) for e in self.open)

    def state_of_port(self, port):
        return list(self.open)

    def absorb_state(self, port, elements):
        self.open.extend(elements)
        self._frontier = self._purged_watermark


def functions():
    """All five folds over the value column; avg and sum see floats, so
    the order in which members are folded is observable."""
    return [count(), sum_of(1), avg_of(1), min_of(1), max_of(1)]


def make(cls, grouped):
    op = cls(functions(), group_key=(lambda p: (p[0],)) if grouped else None)
    op.meter = CostMeter()
    sink = CollectorSink()
    op.attach_sink(sink)
    return op, sink


def observe(op, sink):
    """Everything externally observable about the operator right now."""
    return (
        [(e.payload, e.start, e.end, e.flag) for e in sink.elements],
        [(e.payload, e.start, e.end, e.flag) for e in op.state_of_port(0)],
        op.state_value_count(),
        op.meter.total,
        dict(op.meter.by_category),
        op.progress_state(),
    )


payload = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.sampled_from([1, 2, 5, 0.1, 0.7, 1e16, -1e16]),
)
flag = st.sampled_from([None, None, None, NEW, OLD])
member = st.tuples(payload, st.integers(min_value=1, max_value=30), flag)

event = st.one_of(
    # One element `delta` after the previous event.
    st.tuples(st.just("element"), st.integers(0, 6), member),
    # A heartbeat-only step.
    st.tuples(st.just("heartbeat"), st.integers(1, 12)),
    # A uniform-start run: all but the first start *at* the new frontier,
    # open but not live for the step that admits the first.
    st.tuples(st.just("batch"), st.integers(0, 6), st.lists(member, min_size=2, max_size=4)),
    # Absorb elements that start only `ahead` chronons from now into the
    # live state, as listed or reversed (out of start order).
    st.tuples(
        st.just("seed"),
        st.booleans(),
        st.lists(st.tuples(st.integers(1, 9), member), max_size=2),
    ),
)


def element_at(t, spec):
    values, length, element_flag = spec
    return StreamElement(values, TimeInterval(t, t + length), element_flag)


def apply(op, kind, args, t):
    """Apply one event to ``op``; returns the new application time."""
    if kind == "element":
        delta, spec = args
        t += delta
        op.process(element_at(t, spec))
    elif kind == "heartbeat":
        t += args[0]
        op.process_heartbeat(t)
    elif kind == "batch":
        delta, specs = args
        t += delta
        op.process_batch(Batch([element_at(t, spec) for spec in specs]))
    else:
        reverse, future = args
        elements = [element_at(t + ahead, spec) for ahead, spec in future]
        if reverse:
            elements.reverse()
        op.absorb_state(0, elements)
    return t


@settings(max_examples=150, deadline=None)
@given(grouped=st.booleans(), events=st.lists(event, min_size=1, max_size=30))
def test_incremental_finalisation_matches_scan(grouped, events):
    incremental, incremental_sink = make(Aggregate, grouped)
    reference, reference_sink = make(ScanAggregate, grouped)
    t_incremental = t_reference = 0
    for kind, *args in events:
        t_incremental = apply(incremental, kind, args, t_incremental)
        t_reference = apply(reference, kind, args, t_reference)
        assert observe(incremental, incremental_sink) == observe(
            reference, reference_sink
        )
    incremental.process_heartbeat(MAX_TIME)
    reference.process_heartbeat(MAX_TIME)
    assert observe(incremental, incremental_sink) == observe(
        reference, reference_sink
    )
    assert incremental.state_of_port(0) == []


def test_failed_admission_keeps_each_open_element_once():
    """A step admits ``c`` into its group, then fails to admit ``b`` after
    ``a`` (absorbed out of start order) and rebuilds: ``c`` is a member
    and still pending at that moment, and must stay in the state once."""
    c = StreamElement((1, 1), TimeInterval(5, 20))
    b = StreamElement((0, 2), TimeInterval(5, 20))
    a = StreamElement((0, 3), TimeInterval(2, 20))
    observed = []
    for cls in (Aggregate, ScanAggregate):
        op, sink = make(cls, grouped=True)
        op.absorb_state(0, [c])
        op.absorb_state(0, [b, a])
        op.process_heartbeat(10)
        observed.append(observe(op, sink))
        assert op.state_of_port(0) == [c, b, a]
    assert observed[0] == observed[1]


def test_fold_work_is_linear_in_inserts_and_expiries(monkeypatch):
    """Folds are paid per member admitted or retired, not per step.

    Fifty long-lived elements in five groups, then five hundred
    heartbeat-only steps during which nothing expires: a finalisation
    that refolds open state per step folds thousands of times; the
    incremental one folds at most once per admission and once per
    retirement, whatever the number of steps in between.  The count is of
    the production path, so the package sanitizer is off here: with it
    installed, every step also refolds through the ``_scan`` reference.
    """
    monkeypatch.setattr(base, "SANITIZER", None)
    folds = []

    def counting_sum(payloads):
        folds.append(1)
        return sum(p[1] for p in payloads)

    op = Aggregate(
        [AggregateFunction("sum", counting_sum)], group_key=lambda p: (p[0],)
    )
    sink = CollectorSink()
    op.attach_sink(sink)
    inserts = 50
    for t in range(inserts):
        op.process(StreamElement((t % 5, t), TimeInterval(t, t + 10_000)))
    steps = 500
    for t in range(inserts, inserts + steps):
        op.process_heartbeat(t)
    assert len(sink.elements) >= 5 * steps  # every step still emits per group
    assert len(folds) <= inserts
    op.process_heartbeat(MAX_TIME)
    expiries = inserts
    assert len(folds) <= inserts + expiries
