"""Sanitizer tests: deliberately broken operators must be caught.

Each violation class gets an injected defect — an operator (or batch, or
source feed) engineered to break exactly one stream invariant — and the
test asserts the sanitizer raises :class:`SanitizerViolation` with the
right code and an actionable message.  A hypothesis suite drives the
broken operators over arbitrary monotone streams so the detection does
not depend on a hand-picked timestamp pattern.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import (
    SanitizerViolation,
    StreamSanitizer,
    sanitized,
)
from repro.core.coalesce import Coalesce
from repro.engine.box import Box, OutputGate
from repro.operators import (
    Aggregate,
    Difference,
    DuplicateElimination,
    count,
    equi_join,
)
from repro.operators import base as operator_base
from repro.operators.base import Operator, StatefulOperator, StatelessOperator
from repro.operators.colstate import ColumnarJoinState
from repro.streams import PhysicalStream
from repro.engine import QueryExecutor
from repro.temporal.batch import Batch
from repro.temporal.element import StreamElement, element
from repro.temporal.interval import TimeInterval


def _forged_interval(start, end):
    """Build a TimeInterval bypassing its constructor validation."""
    interval = object.__new__(TimeInterval)
    object.__setattr__(interval, "start", start)
    object.__setattr__(interval, "end", end)
    return interval


class InvertedIntervalOperator(StatelessOperator):
    """Broken: emits elements whose validity interval is inverted."""

    def _on_element(self, elem, port):
        self._emit(elem.with_interval(_forged_interval(elem.end, elem.start)))


class OutOfOrderEmitter(StatelessOperator):
    """Broken: emits two results per input in descending start order."""

    def _on_element(self, elem, port):
        bumped = elem.with_interval(TimeInterval(elem.start + 1, elem.end + 1))
        self._emit(bumped)
        self._emit(elem)


class BelowPromiseEmitter(StatelessOperator):
    """Broken: emits a result below the watermark it already promised."""

    def _on_element(self, elem, port):
        if self._emitted_watermark > 0:
            self._emit(
                elem.with_interval(
                    TimeInterval(self._emitted_watermark - 1, elem.end)
                )
            )
        else:
            self._emit(elem)


class MiscountingOperator(StatefulOperator):
    """Broken: its incremental state counter ignores the held elements."""

    def __init__(self):
        super().__init__(arity=1, name="miscount")
        self._held = []

    def _on_element(self, elem, port):
        self._held.append(elem)

    def state_of_port(self, port):
        return list(self._held)

    def _state_value_count(self):
        return 0  # lies as soon as _held is non-empty


def monotone_streams():
    """Random monotone start sequences (the valid-input precondition)."""
    return st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=20).map(
        lambda deltas: [sum(deltas[: i + 1]) for i in range(len(deltas))]
    )


def feed(operator, starts):
    collected = []

    class _Sink:
        def process(self, elem):
            collected.append(elem)

        def process_heartbeat(self, t):
            pass

    operator.attach_sink(_Sink())
    for start in starts:
        operator.process(element("e", start, start + 1), 0)
    return collected


class TestInjectedViolations:
    @given(starts=monotone_streams())
    @settings(max_examples=25, deadline=None)
    def test_inverted_interval_caught(self, starts):
        with sanitized():
            with pytest.raises(SanitizerViolation) as info:
                feed(InvertedIntervalOperator(name="inverter"), starts)
        assert info.value.code == "SAN001"
        assert "t_S must be < t_E" in str(info.value)
        assert "inverter" in str(info.value)

    @given(starts=monotone_streams())
    @settings(max_examples=25, deadline=None)
    def test_out_of_order_emission_caught(self, starts):
        with sanitized():
            with pytest.raises(SanitizerViolation) as info:
                feed(OutOfOrderEmitter(name="shuffler"), starts)
        assert info.value.code == "SAN003"
        assert "non-decreasing start timestamps" in str(info.value)

    @given(starts=monotone_streams())
    @settings(max_examples=25, deadline=None)
    def test_emission_below_promise_caught(self, starts):
        with sanitized():
            with pytest.raises(SanitizerViolation) as info:
                # Prepend an element so there is always a promise to break.
                feed(BelowPromiseEmitter(name="liar"), [2] + [s + 2 for s in starts])
        assert info.value.code in ("SAN002", "SAN003")
        assert "watermark" in str(info.value) or "physical stream" in str(info.value)

    @given(starts=monotone_streams())
    @settings(max_examples=25, deadline=None)
    def test_state_miscount_caught(self, starts):
        with sanitized():
            with pytest.raises(SanitizerViolation) as info:
                feed(MiscountingOperator(), starts)
        assert info.value.code == "SAN007"
        assert "running counter" in str(info.value)

    def test_clean_operator_passes(self):
        class Identity(StatelessOperator):
            def _on_element(self, elem, port):
                self._emit(elem)

        with sanitized():
            out = feed(Identity(), [1, 2, 2, 5])
        assert len(out) == 4


class TestBatchViolations:
    def test_out_of_order_batch_caught(self):
        target = StatelessOperator(name="sink-op")
        target._on_element = lambda e, p: None
        bad = Batch._trusted(
            [element("a", 5, 6), element("b", 3, 4)], 5, None, False
        )
        with sanitized():
            with pytest.raises(SanitizerViolation) as info:
                target.process_batch(bad, 0)
        assert info.value.code == "SAN004"

    def test_false_uniform_flag_caught(self):
        target = StatelessOperator(name="sink-op")
        target._on_element = lambda e, p: None
        bad = Batch._trusted(
            [element("a", 1, 2), element("b", 4, 5)], 4, None, True
        )
        with sanitized():
            with pytest.raises(SanitizerViolation) as info:
                target.process_batch(bad, 0)
        assert info.value.code == "SAN006"

    def test_retracting_watermark_caught(self):
        target = StatelessOperator(name="sink-op")
        target._on_element = lambda e, p: None
        bad = Batch._trusted([element("a", 5, 6)], 2, None, True)
        with sanitized():
            with pytest.raises(SanitizerViolation) as info:
                target.process_batch(bad, 0)
        assert info.value.code == "SAN005"


class TestSourceViolations:
    def _executor(self):
        from repro.operators.filter import Select

        op = Select(lambda row: True, name="pass")
        box = Box(taps={"s": [(op, 0)]}, root=op)
        return QueryExecutor(
            {"s": PhysicalStream([])},
            {"s": 5},
            box,
            global_heartbeats=False,
        )

    def test_source_regression_caught(self):
        executor = self._executor()
        with sanitized():
            executor.push("s", element("a", 10, 11))
            with pytest.raises(SanitizerViolation) as info:
                executor.push("s", element("b", 7, 8))
        assert info.value.code == "SAN008"
        assert "start-timestamp order" in str(info.value)


class TestGatePolicy:
    def test_gate_violation_recorded_by_default(self):
        gate = OutputGate()
        with sanitized() as sanitizer:
            gate.process(element("a", 10, 11))
            gate.process(element("b", 5, 6))  # PT-flush-style anomaly
        assert gate.order_violations == 1
        assert len(sanitizer.gate_violations) == 1

    def test_gate_violation_raises_in_strict_mode(self):
        gate = OutputGate()
        with sanitized(StreamSanitizer(strict_gate=True)):
            gate.process(element("a", 10, 11))
            with pytest.raises(SanitizerViolation) as info:
                gate.process(element("b", 5, 6))
        assert info.value.code == "SAN009"


    def test_strict_mode_tolerates_only_the_parallel_track_flush(self):
        """PT's end-of-migration burst interleaves by design and says so
        on the gate; the strict sanitizer records it without raising."""
        from helpers import run_query
        from repro.core import ParallelTrack
        from scenarios import (
            left_deep_join_box,
            right_deep_join_box,
            three_random_streams,
        )

        with sanitized(StreamSanitizer(strict_gate=True)) as sanitizer:
            _, executor = run_query(
                three_random_streams(), {"A": 60, "B": 60, "C": 60},
                left_deep_join_box(), migrate_at=150,
                new_box=right_deep_join_box(), strategy=ParallelTrack(),
            )
        assert executor.gate.order_violations > 0
        assert len(sanitizer.gate_violations) == executor.gate.order_violations
        assert not executor.gate.expects_disorder


class TestZeroCostWhenOff:
    def test_no_sanitizer_no_checks(self, monkeypatch):
        # Without installation the broken operator runs unchecked — the
        # hooks must stay zero-cost (and silent) in production.
        monkeypatch.setattr(operator_base, "SANITIZER", None)
        out = feed(InvertedIntervalOperator(name="inverter"), [1, 2, 3])
        assert len(out) == 3


# --------------------------------------------------------------------- #
# The operators' own purge self-checks ride on the same switch
# --------------------------------------------------------------------- #


def _join_expiry_skips_a_removal():
    state = ColumnarJoinState()
    state.insert("a", 0, 10, ("a",))
    state.insert("b", 1, 5, ("b",))
    state._calendar[5].remove("b")  # drop the record of the element due at 5
    state.expire(7)


def _join_record_filed_late():
    state = ColumnarJoinState()
    state.insert("k", 0, 10, ("k", 0))
    state.insert("k", 1, 11, ("k", 1))
    state._calendar[10].remove("k")  # re-file the head's record one chronon late
    state._calendar[11].append("k")
    state.expire(10)


def _aggregate_cached_fold_shifted():
    op = Aggregate([count()])
    op.process(element("a", 0, 10))
    op.process_heartbeat(2)
    op._folded[()] = ((99,), None)
    op.process_heartbeat(4)


def _difference_purge_skips_a_removal():
    op = Difference()
    op.process(element("a", 0, 5), 0)
    op._expiry_heap.clear()
    op.process_heartbeat(8, 0)
    op.process_heartbeat(8, 1)


def _distinct_purge_skips_a_removal():
    op = DuplicateElimination()
    op.process(element("a", 0, 5))
    op._expiry_heap.clear()
    op.process_heartbeat(8)


def _coalesce_eviction_skips_a_removal():
    op = Coalesce(30)
    op.process(element("a", 5, 30), 0)
    op._m0._heap.clear()
    op.process_heartbeat(8, 0)
    op.process_heartbeat(8, 1)


def _join_running_count_shifted():
    join = equi_join(0, 0)
    join.process(element(("k",), 0, 10), 0)
    join._states[0]._values += 1
    join.process_heartbeat(2, 0)
    join.process_heartbeat(2, 1)


def _coalesce_running_count_shifted():
    op = Coalesce(30)
    op.process(element("b", 30, 40), 1)
    op._m1._values += 1
    op.process_heartbeat(8, 0)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        pytest.param(_join_expiry_skips_a_removal, "join expiry diverged", id="join-expiry"),
        pytest.param(_join_record_filed_late, "join expiry diverged", id="join-sweep-head"),
        pytest.param(_aggregate_cached_fold_shifted, "diverged from the scan", id="aggregate-finalise"),
        pytest.param(_difference_purge_skips_a_removal, "difference purge left", id="difference-purge"),
        pytest.param(_distinct_purge_skips_a_removal, "survived the purge", id="distinct-purge"),
        pytest.param(_coalesce_eviction_skips_a_removal, "fifo eviction left", id="coalesce-evict"),
        pytest.param(_join_running_count_shifted, "SAN007", id="join-count"),
        pytest.param(_coalesce_running_count_shifted, "SAN007", id="coalesce-count"),
    ],
)
def test_purge_self_checks_run_exactly_under_a_sanitizer(corrupt, message, monkeypatch):
    """Each case corrupts a fresh container or operator behind its back —
    one removal skipped, or one running counter shifted — and then drives
    the step that checks it: it raises inside ``sanitized()`` and runs
    silently (and wrongly) with no sanitizer installed."""
    with sanitized():
        with pytest.raises(AssertionError, match=message):
            corrupt()
    monkeypatch.setattr(operator_base, "SANITIZER", None)
    corrupt()
