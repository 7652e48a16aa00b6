"""The purged state of every stateful operator against an in-test model.

Each stateful operator indexes its state for expiry (a join side's
expiry calendar over per-key buckets, per-payload expiry heaps,
start-ordered FIFO indexes) so that a watermark advance visits only what
leaves.  The claim is that the index is invisible: after every event,
``state_of_port(p)`` holds exactly what the purge rule of Section 2.2
keeps, in the operator's documented order.  These properties drive
hypothesis-generated streams through each operator and compare its state
with a model kept here, from the inputs alone, after every single event:

* nested-loops join, hash join, difference and aggregate — every element
  inserted on the port whose ``end`` lies above the operator's minimum
  watermark, in insertion order (the hash join groups that order by
  bucket, buckets in creation order; the difference by payload, payloads
  by ``repr``);
* distinct — its input merged per payload and cut at the watermark, which
  is the instants its output has covered;
* coalesce's M0/M1 tables — the unmatched halves starting at or above the
  watermark.

The package runs under the sanitizer (``conftest.py``), so every purge
also checks itself from the inside and every running value count is
checked against a recount on each advance (SAN007).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.coalesce import Coalesce
from repro.operators import (
    Aggregate,
    CountWindow,
    Difference,
    DuplicateElimination,
    NestedLoopsJoin,
    count,
    equi_join,
)
from repro.streams import CollectorSink
from repro.temporal import element
from repro.temporal.time import MAX_TIME

BINARY_OPERATORS = {
    "nl-join": lambda: NestedLoopsJoin(lambda l, r: l[0] == r[0]),
    "hash-join": lambda: equi_join(0, 0),
    "difference": Difference,
}

UNARY_OPERATORS = {
    "aggregate": lambda: Aggregate([count()]),
    "grouped-aggregate": lambda: Aggregate([count()], group_key=lambda p: (p[0],)),
    "distinct": DuplicateElimination,
}

#: (port, payload value, time delta, interval length, kind); few values
#: and short intervals, so payloads and buckets empty and come back.
raw_event = st.tuples(
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=1, max_value=20),
    st.sampled_from(["element", "heartbeat"]),
)

events_strategy = st.lists(raw_event, min_size=1, max_size=25)


def as_tuples(elements):
    return [(e.payload, e.start, e.end, e.flag) for e in elements]


class KeyedModel:
    """Elements filed per key — keys in creation order, a key dropped the
    moment it empties — and purged by a predicate on each element."""

    def __init__(self, key_of):
        self.key_of = key_of
        self.entries = {}

    def insert(self, e):
        self.entries.setdefault(self.key_of(e), []).append(e)

    def purge(self, keep):
        for key in list(self.entries):
            self.entries[key] = [e for e in self.entries[key] if keep(e)]
            if not self.entries[key]:
                del self.entries[key]

    def elements(self):
        return [e for group in self.entries.values() for e in group]


def merged_and_cut(intervals, watermark):
    """The maximal intervals covering ``intervals`` at or after ``watermark``."""
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(max(start, watermark), end) for start, end in merged if end > watermark]


def expected_state(name, models, port, watermark):
    """What ``state_of_port(port)`` must return, from the model."""
    if name == "distinct":
        return [
            (payload, start, end, None)
            for payload, group in models[port].entries.items()
            for start, end in merged_and_cut([(e.start, e.end) for e in group], watermark)
        ]
    elements = models[port].elements()
    if name == "difference":
        elements = sorted(elements, key=lambda e: repr(e.payload))
    return as_tuples(elements)


def model_for(name):
    if name == "hash-join":
        return KeyedModel(lambda e: e.payload[0])
    if name in ("difference", "distinct"):
        return KeyedModel(lambda e: e.payload)
    return KeyedModel(lambda e: None)


def run_against_model(name, make_op, events, arity):
    """Replay ``events``; after each, compare the state with the model."""
    op = make_op()
    sink = CollectorSink()
    op.attach_sink(sink)
    models = [model_for(name) for _ in range(arity)]
    inputs = []

    def check():
        watermark = op.min_watermark
        for model in models:
            model.purge(lambda e: e.end > watermark)
        for port in range(arity):
            assert as_tuples(op.state_of_port(port)) == expected_state(
                name, models, port, watermark
            )

    t = 0
    for port, value, delta, length, kind in events:
        port %= arity
        t += delta
        if kind == "heartbeat":
            op.process_heartbeat(t, port)
        else:
            # Advance all ports first, like the global-order executor.
            for p in range(arity):
                op.process_heartbeat(t, p)
            check()
            e = element(value, t, t + length)
            op.process(e, port)
            models[port].insert(e)
            inputs.append(e)
        check()
    for p in range(arity):
        op.process_heartbeat(MAX_TIME, p)
    check()
    assert not any(op.state_of_port(p) for p in range(arity))
    if name == "distinct":
        # Everything is emitted now: the output covers the input.
        def coverage(elements):
            out = {}
            for e in elements:
                out.setdefault(e.payload, []).append((e.start, e.end))
            return {p: merged_and_cut(iv, 0) for p, iv in out.items()}

        assert coverage(sink.elements) == coverage(inputs)


#: Two right elements of one payload outlive a purge that visits it.
SURVIVORS = [(1, 0, 0, 10, "element"), (1, 0, 0, 20, "element"),
             (0, 0, 0, 5, "element"), (0, 1, 6, 1, "element")]
#: Key 0 empties while key 1 lives on, then comes back behind it —
#: with ends in order, and out of order (a purge that must look past a
#: bucket's head).
COMEBACK = [(0, 0, 0, 3, "element"), (0, 1, 1, 30, "element"),
            (1, 2, 4, 1, "element"), (0, 0, 1, 5, "element")]
DISORDERED_COMEBACK = [(0, 0, 0, 3, "element"), (0, 1, 1, 30, "element"),
                       (0, 2, 0, 4, "element"), (1, 2, 5, 1, "element"),
                       (0, 0, 1, 5, "element")]


@settings(max_examples=200, deadline=None)
@example(name="difference", events=SURVIVORS)
@example(name="hash-join", events=COMEBACK)
@example(name="hash-join", events=DISORDERED_COMEBACK)
@given(name=st.sampled_from(sorted(BINARY_OPERATORS)), events=events_strategy)
def test_binary_operator_state_matches_model(name, events):
    run_against_model(name, BINARY_OPERATORS[name], events, 2)


@settings(max_examples=200, deadline=None)
@example(name="distinct", events=COMEBACK)
@given(name=st.sampled_from(sorted(UNARY_OPERATORS)), events=events_strategy)
def test_unary_operator_state_matches_model(name, events):
    run_against_model(name, UNARY_OPERATORS[name], events, 1)


T_SPLIT = 30


@settings(max_examples=60, deadline=None)
@given(events=events_strategy)
def test_coalesce_tables_match_model(events):
    """A coalesce workload — halves touching T_split plus bystanders — with
    M0 and M1 modelled as FIFO bags per payload."""
    op = Coalesce(T_SPLIT)
    op.attach_sink(CollectorSink())
    tables = [KeyedModel(lambda e: e.payload), KeyedModel(lambda e: e.payload)]

    def check():
        watermark = op.min_watermark
        for table in tables:
            table.purge(lambda e: e.start >= watermark)
        assert [as_tuples(op.state_of_port(port)) for port in (0, 1)] == [
            as_tuples(table.elements()) for table in tables
        ]

    t = 0
    watermarks = [0, 0]
    for port, value, delta, length, kind in events:
        t += delta
        if kind == "heartbeat":
            watermarks[port] = max(watermarks[port], t)
            op.process_heartbeat(t, port)
            check()
            continue
        start = max(t, watermarks[port])
        if port == 0:
            # Old-box halves end exactly at T_split when possible.
            end = T_SPLIT if value % 2 == 0 and start < T_SPLIT else start + length
        else:
            # New-box halves start exactly at T_split while allowed.
            if value % 2 == 0 and watermarks[1] <= T_SPLIT:
                start = T_SPLIT
            end = start + length
        watermarks[port] = start
        e = element(value, start, end)
        op.process(e, port)
        if (end if port == 0 else start) == T_SPLIT:
            # Match the oldest half of the payload on the other side,
            # or wait in this side's table.
            partner = tables[1 - port].entries.get(e.payload)
            if partner:
                partner.pop(0)
                if not partner:
                    del tables[1 - port].entries[e.payload]
            else:
                tables[port].insert(e)
        check()
    op.process_heartbeat(MAX_TIME, 0)
    op.process_heartbeat(MAX_TIME, 1)
    check()
    op.flush()
    assert op.state_of_port(0) == op.state_of_port(1) == []


#: Operators whose state only the count test below reads.
COUNTED_OPERATORS = {
    **BINARY_OPERATORS,
    **UNARY_OPERATORS,
    "coalesce": lambda: Coalesce(T_SPLIT),
    "count-window": lambda: CountWindow(3),
}


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(COUNTED_OPERATORS)), events=events_strategy)
def test_incremental_value_count_matches_recount(name, events):
    """The O(1) running count equals a from-scratch recount after every
    event, and the per-port state answers hold exactly what it counts."""
    op = COUNTED_OPERATORS[name]()
    arity = op.arity
    op.attach_sink(CollectorSink())
    t = 0
    for port, value, delta, length, kind in events:
        port %= arity
        t += delta
        if kind == "heartbeat":
            op.process_heartbeat(t, port)
        else:
            start, end = t, t + length
            if name == "coalesce" and value % 2 == 0 and t < T_SPLIT:
                # Halves touching T_split: old-box ones end there, new-box
                # ones start there.
                if port:
                    start = t = T_SPLIT
                    end = T_SPLIT + length
                else:
                    end = T_SPLIT
            for p in range(arity):
                op.process_heartbeat(t, p)
            op.process(element(value, start, end), port)
        assert op.state_value_count() == op.state_value_count_slow()
        held = [e for p in range(arity) for e in op.state_of_port(p)]
        assert sum(len(e.payload) for e in held) == op._state_value_count()
    for p in range(arity):
        op.process_heartbeat(MAX_TIME, p)
    assert op.state_value_count() == op.state_value_count_slow() == 0
