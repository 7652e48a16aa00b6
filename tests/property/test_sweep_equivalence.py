"""Equivalence of the indexed sweep purge with the reference scan purge.

The sweep containers (``repro.operators.sweep``) claim to be *observably
identical* to the full-scan purge they replaced: same state contents in the
same iteration order, same outputs, same value counts — at every single
event, including under the Parallel Track retention override installed
mid-run.  These properties drive hypothesis-generated streams through each
stateful operator twice — once with ``FORCE_SCAN`` (the pre-index
algorithm) and once with the expiry index — and compare the full
per-event trace.  ``DEBUG`` mode additionally cross-checks every indexed
expiry and running value count internally.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coalesce import Coalesce
from repro.operators import (
    Aggregate,
    Difference,
    DuplicateElimination,
    NestedLoopsJoin,
    count,
    equi_join,
    sweep,
)
from repro.streams import CollectorSink
from repro.temporal import element
from repro.temporal.time import MAX_TIME

WINDOW = 25  # the Parallel Track tuple-timestamp retention window

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

#: (port, payload value, time delta, interval length, kind)
raw_event = st.tuples(
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=1, max_value=40),
    st.sampled_from(["element", "heartbeat"]),
)

events_strategy = st.lists(raw_event, min_size=1, max_size=25)

#: Event index at which the PT retention override is installed (or never).
retention_strategy = st.one_of(st.none(), st.integers(min_value=0, max_value=10))


def pt_retention(e):
    """The Zhu et al. tuple-timestamp rule Parallel Track installs."""
    return max(e.end, e.start + WINDOW)


def fingerprint(op, sink):
    """Everything externally observable about an operator at one instant."""
    state = tuple((e.payload, e.start, e.end, e.flag) for e in op.state_elements())
    outputs = tuple((e.payload, e.start, e.end, e.flag) for e in sink.elements)
    return (state, op.state_value_count(), outputs)


def run_trace(make_op, events, arity, retention_at, force_scan):
    """Replay ``events`` and fingerprint the operator after every one."""
    sweep.set_force_scan(force_scan)
    sweep.set_debug(True)
    try:
        op = make_op()
        sink = CollectorSink()
        op.attach_sink(sink)
        t = 0
        trace = []
        for index, (port, value, delta, length, kind) in enumerate(events):
            port %= arity
            if retention_at is not None and index == retention_at:
                op.retention = pt_retention
            t += delta
            if kind == "heartbeat":
                op.process_heartbeat(t, port)
            else:
                # Advance all ports first, like the global-order executor.
                for p in range(arity):
                    op.process_heartbeat(t, p)
                op.process(element(value, t, t + length), port)
            trace.append(fingerprint(op, sink))
        for p in range(arity):
            op.process_heartbeat(MAX_TIME, p)
        trace.append(fingerprint(op, sink))
        return trace
    finally:
        sweep.set_force_scan(False)
        sweep.set_debug(False)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(BINARY_OPERATORS)),
    events=events_strategy,
    retention_at=retention_strategy,
)
def test_binary_operator_purge_matches_scan(name, events, retention_at):
    make_op = BINARY_OPERATORS[name]
    reference = run_trace(make_op, events, 2, retention_at, force_scan=True)
    indexed = run_trace(make_op, events, 2, retention_at, force_scan=False)
    assert indexed == reference


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(UNARY_OPERATORS)),
    events=events_strategy,
    retention_at=retention_strategy,
)
def test_unary_operator_purge_matches_scan(name, events, retention_at):
    make_op = UNARY_OPERATORS[name]
    reference = run_trace(make_op, events, 1, retention_at, force_scan=True)
    indexed = run_trace(make_op, events, 1, retention_at, force_scan=False)
    assert indexed == reference


T_SPLIT = 30


def run_coalesce(events, force_scan):
    """Replay a coalesce workload: halves touching T_split plus bystanders."""
    sweep.set_force_scan(force_scan)
    sweep.set_debug(True)
    try:
        op = Coalesce(T_SPLIT)
        sink = CollectorSink()
        op.attach_sink(sink)
        t = 0
        watermarks = [0, 0]
        trace = []
        for port, value, delta, length, kind in events:
            t += delta
            if kind == "heartbeat":
                watermarks[port] = max(watermarks[port], t)
                op.process_heartbeat(t, port)
                trace.append(fingerprint(op, sink))
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
            op.process(element(value, start, end), port)
            trace.append(fingerprint(op, sink))
        op.process_heartbeat(MAX_TIME, 0)
        op.process_heartbeat(MAX_TIME, 1)
        op.flush()
        trace.append(fingerprint(op, sink))
        return trace, op.merged_count, op.peak_value_count
    finally:
        sweep.set_force_scan(False)
        sweep.set_debug(False)


@settings(max_examples=30, deadline=None)
@given(events=events_strategy)
def test_coalesce_tables_match_scan(events):
    reference = run_coalesce(events, force_scan=True)
    indexed = run_coalesce(events, force_scan=False)
    assert indexed == reference


@settings(max_examples=20, deadline=None)
@given(
    name=st.sampled_from(sorted({**BINARY_OPERATORS, **UNARY_OPERATORS})),
    events=events_strategy,
    retention_at=retention_strategy,
)
def test_incremental_value_count_matches_recount(name, events, retention_at):
    """The O(1) running count equals a from-scratch recount after every event."""
    arity = 2 if name in BINARY_OPERATORS else 1
    make_op = {**BINARY_OPERATORS, **UNARY_OPERATORS}[name]
    op = make_op()
    op.attach_sink(CollectorSink())
    t = 0
    for index, (port, value, delta, length, kind) in enumerate(events):
        port %= arity
        if retention_at is not None and index == retention_at:
            op.retention = pt_retention
        t += delta
        if kind == "heartbeat":
            op.process_heartbeat(t, port)
        else:
            for p in range(arity):
                op.process_heartbeat(t, p)
            op.process(element(value, t, t + length), port)
        assert op.state_value_count() == op.state_value_count_slow()
    for p in range(arity):
        op.process_heartbeat(MAX_TIME, p)
    assert op.state_value_count() == op.state_value_count_slow() == 0
